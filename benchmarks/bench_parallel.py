"""Benchmark: sharded parallel engine vs the monolithic facade.

Two claims are measured (acceptance criteria of the sharded engine):

* **Speedup** — batch-query throughput with 4 shards / 4 workers must
  reach at least 1.5x the monolithic path on n >= 200k points (numpy
  releases the GIL in ``matmul``/``searchsorted``, so shard fan-out on a
  thread pool overlaps real work).  The assertion is gated on the machine
  actually having >= 4 cores and the scaled dataset actually reaching
  200k points.
* **Overhead** — the 1-shard engine configuration executes inline over
  the monolithic collection layout; it must stay within 10% of the plain
  :class:`~repro.core.function_index.FunctionIndex` (best-of over
  interleaved rounds, so host drift hits both arms alike, with a small
  absolute-time floor so sub-ms runs don't trip on timer jitter).

Answers are asserted bit-identical along the way, so the speedup is not
bought with approximation.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import FunctionIndex, ShardedFunctionIndex
from repro.bench import print_table
from repro.datasets import Workload, load

from conftest import interleaved_best_of, scaled

_N_POINTS = scaled(200_000)
_N_QUERIES = 48
_N_INDICES = 32
_SHARDS = 4


def _best_of(func, repeat=3):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return result, best


def _workload(n_points):
    points = load("indp", n_points, 6, rng=0).points
    workload = Workload.for_points(points, rq=2)
    queries = workload.sample_queries(_N_QUERIES, rng=1)
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])
    return points, workload.model, normals, offsets


def test_sharded_speedup(benchmark):
    """4-shard batch throughput vs monolithic (>= 1.5x on big data)."""
    points, model, normals, offsets = _workload(_N_POINTS)
    mono = FunctionIndex(points, model, n_indices=_N_INDICES, rng=0)
    engine = ShardedFunctionIndex(
        points,
        model,
        n_indices=_N_INDICES,
        rng=0,
        n_shards=_SHARDS,
        max_workers=_SHARDS,
    )

    def measure():
        mono.query_batch(normals[:4], offsets[:4])  # warm
        engine.query_batch(normals[:4], offsets[:4])
        mono_answers, mono_s = _best_of(lambda: mono.query_batch(normals, offsets))
        shard_answers, shard_s = _best_of(lambda: engine.query_batch(normals, offsets))
        for one, many in zip(mono_answers, shard_answers):
            assert np.array_equal(one.ids, many.ids)
        return {
            "n_points": len(points),
            "queries": len(offsets),
            "mono_ms": mono_s * 1000,
            "sharded_ms": shard_s * 1000,
            "speedup_x": mono_s / shard_s,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"Sharded batch throughput ({_SHARDS} shards)", [row])
    engine.close()
    if row["n_points"] >= 200_000 and (os.cpu_count() or 1) >= _SHARDS:
        assert row["speedup_x"] >= 1.5, (
            f"sharded engine reached only {row['speedup_x']:.2f}x "
            f"over the monolithic path"
        )


def test_process_backend_batch_throughput(benchmark):
    """Process-backend batched throughput vs the per-query loop (>= 5x).

    The ISSUE-level gate for the GEMM + process-shard stack: forked
    workers sidestep the GIL entirely, so on >= 4 real cores and the
    full-size dataset a batched fan-out must beat a loop of monolithic
    single queries by >= 5x.  Skip-guarded on fork availability, core
    count, and dataset scale like the thread-backend gate above; answers
    are asserted bit-identical against the monolithic batch first.
    """
    import pytest

    from repro.parallel.process import fork_available

    if not fork_available():
        pytest.skip("process backend requires the fork start method")
    points, model, normals, offsets = _workload(_N_POINTS)
    mono = FunctionIndex(points, model, n_indices=_N_INDICES, rng=0)
    engine = ShardedFunctionIndex(
        points,
        model,
        n_indices=_N_INDICES,
        rng=0,
        n_shards=_SHARDS,
        max_workers=_SHARDS,
        backend="process",
    )

    def measure():
        mono.query_batch(normals[:4], offsets[:4])  # warm
        engine.query_batch(normals[:4], offsets[:4])  # fork + warm the pool
        batch_answers, batch_s = _best_of(lambda: engine.query_batch(normals, offsets))
        loop_answers, loop_s = _best_of(
            lambda: [mono.query(n, o) for n, o in zip(normals, offsets)]
        )
        for one, many in zip(loop_answers, batch_answers):
            assert np.array_equal(one.ids, many.ids)
        return {
            "n_points": len(points),
            "queries": len(offsets),
            "loop_ms": loop_s * 1000,
            "process_batch_ms": batch_s * 1000,
            "speedup_x": loop_s / batch_s,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"Process-backend batch throughput ({_SHARDS} shards)", [row])
    engine.close()
    if row["n_points"] >= 200_000 and (os.cpu_count() or 1) >= _SHARDS:
        assert row["speedup_x"] >= 5.0, (
            f"process backend reached only {row['speedup_x']:.2f}x "
            f"over the per-query loop"
        )


def test_single_shard_overhead(benchmark):
    """1-shard engine must track the monolithic facade within 10%."""
    points, model, normals, offsets = _workload(max(20_000, _N_POINTS // 4))
    mono = FunctionIndex(points, model, n_indices=_N_INDICES, rng=0)
    engine = ShardedFunctionIndex(points, model, n_indices=_N_INDICES, rng=0, n_shards=1)

    def measure():
        mono.query_batch(normals[:4], offsets[:4])  # warm
        engine.query_batch(normals[:4], offsets[:4])
        # Interleaved rounds: timing one arm after the other lets host
        # drift between the two phases decide a 10% gate.
        mono_answers, mono_s, shard_answers, shard_s = interleaved_best_of(
            lambda: mono.query_batch(normals, offsets),
            lambda: engine.query_batch(normals, offsets),
        )
        for one, many in zip(mono_answers, shard_answers):
            assert np.array_equal(one.ids, many.ids)
        return {
            "n_points": len(points),
            "queries": len(offsets),
            "mono_ms": mono_s * 1000,
            "one_shard_ms": shard_s * 1000,
            "overhead_pct": 100.0 * (shard_s / mono_s - 1.0),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("Single-shard engine overhead", [row])
    engine.close()
    # 10% relative bound with a 2ms absolute floor: at sub-ms batch times
    # the relative bound would be deciding on timer noise.
    assert row["one_shard_ms"] <= row["mono_ms"] * 1.10 + 2.0, (
        f"1-shard engine is {row['overhead_pct']:.1f}% slower than monolithic"
    )
