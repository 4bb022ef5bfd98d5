"""Property test: served answers are bit-identical to direct library calls.

Hypothesis draws mixed request sets (inequality vs top-k, all four
comparison operators, varying k) and fires them at a live service from
concurrent threads — so requests land in arbitrary interleavings and
coalesce into arbitrary micro-batches — then asserts every response's
ids (and distances, for top-k) equal the direct engine call on the same
arguments.  It runs over an integer-valued dataset and over real
floating-point data whose offsets sit on a stored point's score, so
"equal" includes boundary membership and tie-breaks on both.

The assertions compare ids and distances only (not degraded metadata):
under the chaos CI lane an ambient ``every=N`` fault plan ticks global
counters, so which request absorbs a (healed) retry differs between the
served and direct runs even though the answers do not.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import faults as _flt
from repro.serve import ServiceConfig, serve_in_thread

from .conftest import (
    build_engine,
    float_dataset,
    float_queries,
    http_json,
    integer_dataset,
    integer_queries,
)
from .test_resilience_http import http_json_with_headers

#: ``(dataset, query maker)`` per data kind the served parity runs over.
_DATA = {
    "integer": (integer_dataset, integer_queries),
    "float": (float_dataset, float_queries),
}


@pytest.fixture(scope="module", params=sorted(_DATA))
def served(request):
    dataset, make_queries = _DATA[request.param]
    engine, points = build_engine(n=300, dim=3, seed=20, n_shards=2, dataset=dataset)
    config = ServiceConfig(batch_window_s=0.005, batch_max=32, queue_depth=128)
    handle = serve_in_thread(engine, config)
    yield engine, points, handle, make_queries
    handle.stop()
    engine.close()


@st.composite
def request_sets(draw):
    m = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scale = draw(st.floats(min_value=0.0, max_value=1.2))
    # Requests share a few (op, comparison, k) shapes, so the batcher's
    # per-shape engine calls get several members, not one each.
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["query", "topk"]),
                st.sampled_from(["<=", "<", ">=", ">"]),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=3,
        )
    )
    specs = [draw(st.sampled_from(shapes)) for _ in range(m)]
    return seed, scale, specs


@given(case=request_sets())
@settings(max_examples=10, deadline=None)
def test_served_answers_equal_direct_calls(served, case):
    engine, points, handle, make_queries = served
    seed, scale, specs = case
    normals, offsets = make_queries(points, m=len(specs), seed=seed, scale=scale)

    def fire(i):
        op, comparison, k = specs[i]
        body = {
            "normal": normals[i].tolist(),
            "offset": float(offsets[i]),
            "op": comparison,
        }
        if op == "topk":
            body["k"] = k
        path = "/topk" if op == "topk" else "/query"
        return http_json(handle.host, handle.port, "POST", path, body)

    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        responses = list(pool.map(fire, range(len(specs))))

    for i, (status, _, body) in enumerate(responses):
        op, comparison, k = specs[i]
        assert status == 200
        if op == "topk":
            direct = engine.topk(normals[i], float(offsets[i]), k=k, op=comparison)
            assert body["ids"] == direct.ids.tolist()
            assert body["distances"] == direct.distances.tolist()
        else:
            direct = engine.query(normals[i], float(offsets[i]), comparison)
            assert body["ids"] == direct.ids.tolist()


# --------------------------------------------------------------------- #
# Truthfulness under chaos: no partial answer disguised as complete
# --------------------------------------------------------------------- #

#: Fault plans spanning the serve sites and the shard sites they front.
FAULT_SPECS = (
    "serve.accept:error:every=3",
    "serve.flush:error:every=2",
    "serve.dispatch:stall:ms=80:every=3",
    "shard.query:error:shard=1;shard.scan:error:shard=1",
    "shard.query:error:p=0.5",
    "serve.accept:error:every=4;shard.query:error:shard=0;shard.scan:error:shard=0",
)


@pytest.fixture(scope="module")
def chaos_served():
    """A degrade-policy service whose breaker never interferes (huge
    threshold), so the property stays about response truthfulness."""
    engine, points = build_engine(
        n=300, dim=3, seed=50, n_shards=3, failure_policy="degrade"
    )
    config = ServiceConfig(
        batch_window_s=0.005,
        batch_max=32,
        queue_depth=128,
        breaker_threshold=10_000,
    )
    handle = serve_in_thread(engine, config)
    yield engine, points, handle
    handle.stop()
    engine.close()


@st.composite
def chaos_cases(draw):
    spec = draw(st.sampled_from(FAULT_SPECS))
    deadline_ms = draw(st.sampled_from([None, 50.0, 5000.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    faults_seed = draw(st.integers(min_value=0, max_value=2**16))
    specs = [
        (
            draw(st.sampled_from(["query", "topk"])),
            draw(st.integers(min_value=1, max_value=8)),
        )
        for _ in range(draw(st.integers(min_value=3, max_value=8)))
    ]
    return spec, deadline_ms, seed, faults_seed, specs


@given(case=chaos_cases())
@settings(max_examples=8, deadline=None)
def test_faulted_responses_are_exact_degraded_or_refused(chaos_served, case):
    """Under armed serve-site and shard-site faults plus deadlines, every
    response is one of: 200-exact, 200 with a *truthful* ``degraded``
    block (ids a subset of the exact answer, completeness in [0, 1]),
    or an explicit 429/503/504 refusal.  A deadline-expired or shed
    request never comes back as a partial answer dressed up complete."""
    engine, points, handle = chaos_served
    spec, deadline_ms, seed, faults_seed, request_specs = case
    normals, offsets = integer_queries(points, m=len(request_specs), seed=seed)
    headers = {}
    if deadline_ms is not None:
        headers["X-Repro-Deadline-Ms"] = f"{deadline_ms:g}"

    # Neutralize any ambient plan (the chaos CI lane arms one process-
    # wide): the drawn spec must be the only fault source, and the direct
    # reference answers below must be clean.
    previous_plan = _flt.active_plan()
    previously_armed = _flt.is_armed()
    _flt.disarm()
    try:
        def fire(i):
            op, k = request_specs[i]
            body = {"normal": normals[i].tolist(), "offset": float(offsets[i])}
            if op == "topk":
                body["k"] = k
            return http_json_with_headers(
                handle.host, handle.port, "POST",
                "/topk" if op == "topk" else "/query", body, headers,
            )

        with _flt.injected(spec, seed=faults_seed):
            with ThreadPoolExecutor(max_workers=len(request_specs)) as pool:
                responses = list(pool.map(fire, range(len(request_specs))))

        for i, (status, _, body) in enumerate(responses):
            op, k = request_specs[i]
            if status == 200:
                if op == "topk":
                    exact = engine.topk(normals[i], float(offsets[i]), k=k)
                else:
                    exact = engine.query(normals[i], float(offsets[i]))
                degraded = body["degraded"]
                if degraded is None:
                    assert body["ids"] == exact.ids.tolist()
                else:
                    completeness = degraded["completeness"]
                    assert 0.0 <= completeness <= 1.0
                    if op == "topk":
                        assert len(body["ids"]) <= k
                        assert all(
                            0 <= i_ < len(points) for i_ in body["ids"]
                        )
                    else:
                        assert set(body["ids"]) <= set(exact.ids.tolist())
            elif status == 429:
                assert body["error"] == "shed"
            elif status == 503:
                assert body["error"] in ("shed", "unavailable", "draining")
            elif status == 504:
                assert body["error"] == "deadline_exceeded"
                assert body["budget_ms"] == deadline_ms
            else:
                raise AssertionError(
                    f"request {i}: unexpected status {status}: {body!r}"
                )
    finally:
        if previously_armed and previous_plan is not None:
            _flt.arm(previous_plan)
        else:
            _flt.disarm()
