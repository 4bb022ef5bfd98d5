"""Benchmark: batched vs one-at-a-time queries.

``query_batch`` / ``topk_batch`` share selection and one vectorized
``searchsorted`` per selected index, then finish every query with the
single-query kernel.  This bench asserts that they answer exactly like a
loop of ``query`` / ``topk`` calls and are not slower than that loop by
more than measurement noise.  The two arms are timed interleaved, round
by round, so host drift cannot decide the comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex
from repro.bench import print_table
from repro.datasets import Workload, load

from conftest import interleaved_best_of, scaled

_N_POINTS = scaled(60_000)
_K = 10


@pytest.fixture(scope="module")
def workload():
    points = load("indp", _N_POINTS, 6, rng=0).points
    workload = Workload.for_points(points, rq=2)
    index = FunctionIndex(points, workload.model, n_indices=64, rng=0)
    queries = workload.sample_queries(64, rng=1)
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])
    return index, normals, offsets


def _row(batch_s, single_s, queries):
    return {
        "queries": queries,
        "batched_ms": batch_s * 1000,
        "single_ms": single_s * 1000,
        "speedup_x": single_s / batch_s,
    }


def test_batch_vs_single(benchmark, workload):
    index, normals, offsets = workload

    def measure():
        index.query_batch(normals[:4], offsets[:4])  # warm
        batched, batch_s, singles, single_s = interleaved_best_of(
            lambda: index.query_batch(normals, offsets),
            lambda: [index.query(n, o) for n, o in zip(normals, offsets)],
        )
        for one, many in zip(singles, batched):
            assert np.array_equal(one.ids, many.ids)
        return _row(batch_s, single_s, len(offsets))

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"Batched vs single inequality queries ({len(offsets)} queries)", [row])
    # Identical answers were asserted; batching must not be slower by more
    # than measurement noise.
    assert row["batched_ms"] < row["single_ms"] * 1.25


def test_topk_batch_vs_single(benchmark, workload):
    index, normals, offsets = workload

    def measure():
        index.topk_batch(normals[:4], offsets[:4], _K)  # warm
        batched, batch_s, singles, single_s = interleaved_best_of(
            lambda: index.topk_batch(normals, offsets, _K),
            lambda: [index.topk(n, o, _K) for n, o in zip(normals, offsets)],
        )
        for one, many in zip(singles, batched):
            assert np.array_equal(one.ids, many.ids)
            assert np.array_equal(one.distances, many.distances)
        return _row(batch_s, single_s, len(offsets))

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"Batched vs single top-{_K} queries ({len(offsets)} queries)", [row])
    assert row["batched_ms"] < row["single_ms"] * 1.25
