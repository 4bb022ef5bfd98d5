"""Sharded ``topk_batch`` identity: batch ≡ loop ≡ monolithic ≡ process.

The serving layer leans on ``ShardedFunctionIndex.topk_batch`` for every
coalesced /topk window, so its bit-identity guarantees are pinned here
at the engine level: the sharded batch call must return exactly the ids,
distances, and tie-breaks of (a) a loop of sharded single ``topk`` calls,
(b) the monolithic ``FunctionIndex.topk_batch``, and (c) the same batch
on a process-backed engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel
from repro.exceptions import InvalidQueryError
from repro.parallel.engine import ShardedFunctionIndex
from repro.parallel.process import fork_available


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    points = rng.integers(1, 30, size=(600, 4)).astype(np.float64)
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    normals = rng.integers(1, 6, size=(9, 4)).astype(np.float64)
    column_max = points.max(axis=0)
    offsets = np.asarray(
        [float(np.round(0.4 * normal @ column_max)) for normal in normals]
    )
    return points, model, normals, offsets


@pytest.fixture(scope="module")
def sharded(dataset, n_shards):
    points, model, _, _ = dataset
    engine = ShardedFunctionIndex(
        points, model, n_indices=8, rng=42, n_shards=n_shards
    )
    yield engine
    engine.close()


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
@pytest.mark.parametrize("k", [1, 5, 12])
def test_batch_equals_loop_of_singles(dataset, sharded, k, op):
    _, _, normals, offsets = dataset
    batch = sharded.topk_batch(normals, offsets, k, op)
    assert len(batch) == normals.shape[0]
    for row, answer in enumerate(batch):
        single = sharded.topk(normals[row], float(offsets[row]), k=k, op=op)
        assert np.array_equal(answer.ids, single.ids)
        assert np.array_equal(answer.distances, single.distances)


def test_batch_equals_monolithic(dataset, sharded):
    points, model, normals, offsets = dataset
    mono = FunctionIndex(points, model, n_indices=8, rng=42)
    sharded_batch = sharded.topk_batch(normals, offsets, 7)
    mono_batch = mono.topk_batch(normals, offsets, 7)
    for ours, theirs in zip(sharded_batch, mono_batch):
        assert np.array_equal(ours.ids, theirs.ids)
        assert np.array_equal(ours.distances, theirs.distances)


@pytest.mark.skipif(
    not fork_available(), reason="process backend requires the fork start method"
)
def test_batch_identical_across_backends(dataset, n_shards):
    points, model, normals, offsets = dataset
    thread_engine = ShardedFunctionIndex(
        points, model, n_indices=8, rng=42, n_shards=n_shards, backend="thread"
    )
    process_engine = ShardedFunctionIndex(
        points, model, n_indices=8, rng=42, n_shards=n_shards, backend="process"
    )
    try:
        threaded = thread_engine.topk_batch(normals, offsets, 5)
        processed = process_engine.topk_batch(normals, offsets, 5)
        for ours, theirs in zip(threaded, processed):
            assert np.array_equal(ours.ids, theirs.ids)
            assert np.array_equal(ours.distances, theirs.distances)
    finally:
        thread_engine.close()
        process_engine.close()


def test_validation_and_degenerate_batch(dataset, sharded):
    _, _, normals, offsets = dataset
    with pytest.raises(InvalidQueryError, match="k must be positive"):
        sharded.topk_batch(normals, offsets, 0)
    assert sharded.topk_batch(normals[:0], offsets[:0], 3) == []


_K_LAYOUTS = [("mono", None)] + [
    (layout, policy)
    for layout in ("s1", "s2-thread", "s2-process")
    for policy in ("raise", "degrade", "retry_then_degrade")
]


@pytest.mark.parametrize("k", [0, -3, 2.5, True])
@pytest.mark.parametrize("layout,policy", _K_LAYOUTS)
def test_invalid_k_is_a_caller_error_on_every_path(
    dataset, obs_enabled, layout, policy, k
):
    """A bad ``k`` is rejected before any fan-out, never retried or wrapped."""
    from repro.obs import metrics as obs_metrics

    if layout == "s2-process" and not fork_available():
        pytest.skip("process backend requires the fork start method")
    points, model, normals, offsets = dataset
    if layout == "mono":
        facade = FunctionIndex(points, model, n_indices=8, rng=42)
    else:
        facade = ShardedFunctionIndex(
            points,
            model,
            n_indices=8,
            rng=42,
            n_shards=1 if layout == "s1" else 2,
            backend="process" if layout == "s2-process" else "thread",
            failure_policy=policy,
        )
    retries = obs_metrics.shard_retries_total()
    before = sum(retries.series().values())
    try:
        with pytest.raises(InvalidQueryError, match="k must be positive"):
            facade.topk(normals[0], float(offsets[0]), k)
        with pytest.raises(InvalidQueryError, match="k must be positive"):
            facade.topk_batch(normals, offsets, k)
        with pytest.raises(InvalidQueryError, match="k must be positive"):
            facade.topk_batch(normals[:0], offsets[:0], k)
        assert sum(retries.series().values()) == before
        if layout == "mono":  # no fault sites, so safe under an ambient plan
            assert len(facade.topk(normals[0], float(offsets[0]), np.int64(3))) == 3
    finally:
        getattr(facade, "close", lambda: None)()
