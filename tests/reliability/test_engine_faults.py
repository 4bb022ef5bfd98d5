"""Failure policies of the sharded engine under injected shard faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, ScalarProductQuery
from repro.core.stats import QueryStats
from repro.exceptions import (
    DegradedAnswerError,
    QueryTimeoutError,
    ShardFailureError,
)
from repro.parallel.process import fork_available
from repro.reliability import faults as _flt
from repro.scan.baseline import SequentialScan

from ..conftest import brute_force_ids, brute_force_topk
from .conftest import build_engine


def _query_args(points):
    normal = np.array([2.0, 1.0, 3.0, 1.0])
    offset = float(np.round(0.35 * normal @ points.max(axis=0)))
    return normal, offset


class TestRaisePolicy:
    def test_shard_failure_carries_identity(self):
        engine, points, _ = build_engine(failure_policy="raise")
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.query:error:shard=1"):
            with pytest.raises(ShardFailureError) as excinfo:
                engine.query(normal, offset)
        assert excinfo.value.shard == 1
        assert excinfo.value.kind == "inequality"

    def test_timeout_is_a_shard_failure(self):
        engine, points, _ = build_engine(
            failure_policy="raise", query_timeout_s=0.05
        )
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.query:stall:ms=400:shard=0:times=1"):
            with pytest.raises(QueryTimeoutError) as excinfo:
                engine.query(normal, offset)
        assert excinfo.value.shard == 0
        assert isinstance(excinfo.value, TimeoutError)


class TestDegradePolicy:
    def test_recovery_scan_restores_the_complete_answer(self):
        _flt.disarm()  # pristine baseline even under an ambient REPRO_FAULTS
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            assert baseline.degraded is None
            with _flt.injected("shard.query:error:shard=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        info = answer.degraded
        assert info is not None
        assert info.recovered_shards == (1,)
        assert info.failed_shards == ()
        assert info.completeness == 1.0
        assert info.is_complete

    def test_unrecoverable_shard_yields_partial_answer(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        spec = "shard.query:error:shard=1;shard.scan:error:shard=1"
        with engine:
            truth = brute_force_ids(points, ScalarProductQuery(normal, offset))
            with _flt.injected(spec):
                answer = engine.query(normal, offset)
            info = answer.degraded
            assert info is not None
            assert info.failed_shards == (1,)
            surviving = np.concatenate(
                [
                    engine._stores[s].live_ids()
                    for s in range(engine.n_shards)
                    if s != 1
                ]
            )
            sizes = engine.shard_sizes()
            expected_completeness = (sum(sizes) - sizes[1]) / sum(sizes)
        assert info.completeness == pytest.approx(expected_completeness, abs=0)
        assert not info.is_complete
        with pytest.raises(DegradedAnswerError):
            info.require_complete()
        expected_ids = np.sort(truth[np.isin(truth, surviving)])
        assert np.array_equal(answer.ids, expected_ids)

    def test_timeout_recovers_via_scan(self):
        engine, points, _ = build_engine(
            failure_policy="degrade", query_timeout_s=0.05
        )
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:stall:ms=400:shard=2:times=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None
        assert answer.degraded.recovered_shards == (2,)

    def test_all_shards_failed_raises_degraded_answer_error(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.*:error"):
            with pytest.raises(DegradedAnswerError):
                engine.query(normal, offset)


class TestRetryThenDegrade:
    def test_transient_fault_retried_to_full_answer(self):
        engine, points, _ = build_engine(failure_policy="retry_then_degrade")
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:error:shard=0:times=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        info = answer.degraded
        assert info is not None and info.is_complete
        assert info.retries >= 1

    def test_persistent_fault_falls_back_to_recovery(self):
        engine, points, _ = build_engine(
            failure_policy="retry_then_degrade", max_retries=1
        )
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:error:shard=0"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None
        assert answer.degraded.recovered_shards == (0,)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_seeded_plan_replays_on_every_backend(self, backend):
        """Shard faults are decided in the parent in shard order, so a
        seeded probabilistic plan gives the same outcomes run after run,
        whichever worker process happens to run which shard."""
        if backend == "process" and not fork_available():
            pytest.skip("process backend requires the fork start method")

        def outcomes():
            engine, points, _ = build_engine(
                backend=backend,
                failure_policy="retry_then_degrade",
                retry_backoff_s=0.0,
            )
            normal, offset = _query_args(points)
            seen = []
            with engine, _flt.injected("shard.query:error:p=0.4", seed=3) as plan:
                for step in range(12):
                    info = engine.query(normal, offset + step).degraded
                    seen.append(
                        None
                        if info is None
                        else (info.failed_shards, info.recovered_shards, info.retries)
                    )
                seen.append(plan.stats())
            return seen

        assert outcomes() == outcomes()


class TestOtherFanOuts:
    def test_batch_degrades_uniformly(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normals = np.array(
            [[2.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 2.0]]
        )
        offsets = np.round(0.4 * normals @ points.max(axis=0))
        with engine:
            baseline = engine.query_batch(normals, offsets)
            with _flt.injected("shard.query:error:shard=1:kind=batch"):
                answers = engine.query_batch(normals, offsets)
        for got, expected in zip(answers, baseline):
            assert np.array_equal(got.ids, expected.ids)
            assert got.degraded is not None
            assert got.degraded.recovered_shards == (1,)

    def test_range_recovers(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal = np.array([2.0, 1.0, 3.0, 1.0])
        maxima = float(normal @ points.max(axis=0))
        low, high = np.round(0.2 * maxima), np.round(0.6 * maxima)
        with engine:
            baseline = engine.query_range(normal, low, high)
            with _flt.injected("shard.query:error:shard=2:kind=range"):
                answer = engine.query_range(normal, low, high)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None and answer.degraded.is_complete

    def test_topk_recovers_bit_identical(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine:
            with _flt.injected("shard.query:error:shard=1:kind=topk"):
                result = engine.topk(normal, offset, k=10)
        spq = ScalarProductQuery(normal, offset)
        expected_ids, expected_distances = brute_force_topk(points, spq, 10)
        assert np.array_equal(result.ids, expected_ids)
        assert np.allclose(result.distances, expected_distances)
        assert result.degraded is not None
        assert result.degraded.recovered_shards == (1,)

    def test_topk_partial_when_unrecoverable(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        spec = "shard.query:error:shard=0:kind=topk;shard.scan:error:shard=0"
        with engine:
            with _flt.injected(spec):
                result = engine.topk(normal, offset, k=10)
            surviving = np.concatenate(
                [engine._stores[s].live_ids() for s in (1, 2)]
            )
        spq = ScalarProductQuery(normal, offset)
        expected_ids, _ = brute_force_topk(
            points[surviving], spq, 10, ids=surviving
        )
        assert np.array_equal(result.ids, expected_ids)
        assert result.degraded is not None
        assert result.degraded.failed_shards == (0,)


class TestMaintenance:
    def test_injected_maintenance_fault_raises_not_degrades(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 40, size=(9, 4)).astype(np.float64)
        with engine, _flt.injected("shard.maintenance:error:action=insert"):
            with pytest.raises(ShardFailureError):
                engine.insert_points(rows)

    def test_maintenance_retries_under_retry_policy(self):
        engine, points, _ = build_engine(failure_policy="retry_then_degrade")
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 40, size=(9, 4)).astype(np.float64)
        with engine:
            before = len(engine)
            with _flt.injected("shard.maintenance:error:action=insert:times=1"):
                ids = engine.insert_points(rows)
            assert len(engine) == before + 9
            normal, offset = _query_args(points)
            answer = engine.query(normal, offset)
            all_points = np.vstack([points, rows])
            truth = brute_force_ids(all_points, ScalarProductQuery(normal, offset))
            assert np.array_equal(answer.ids, truth)
            assert ids.size == 9

    def test_caller_errors_pass_through_unwrapped(self):
        engine, _, _ = build_engine(failure_policy="degrade")
        with engine:
            with pytest.raises(KeyError):
                engine.delete_points(np.array([10**6]))


class TestDisarmedParity:
    def test_disarmed_answers_are_bit_identical_and_undegraded(self):
        from repro import FunctionIndex

        _flt.disarm()  # the point of this test is the disarmed path
        engine, points, model = build_engine()
        mono = FunctionIndex(points, model, n_indices=3, rng=7)
        normal, offset = _query_args(points)
        with engine:
            answer = engine.query(normal, offset)
            mono_answer = mono.query(normal, offset)
            assert answer.degraded is None
            assert np.array_equal(answer.ids, mono_answer.ids)
            result = engine.topk(normal, offset, k=7)
            mono_result = mono.topk(normal, offset, k=7)
            assert result.degraded is None
            assert np.array_equal(result.ids, mono_result.ids)
            assert np.array_equal(result.distances, mono_result.distances)


_PARITY_LAYOUTS = {
    "s1": {"n_shards": 1, "backend": "thread"},
    "s2-thread": {"n_shards": 2, "backend": "thread"},
    "s2-process": {"n_shards": 2, "backend": "process"},
}
_PARITY_OPS = ("query", "range", "batch", "topk", "batch_topk")
_PARITY_K = 6


def _parity_facade(layout):
    if layout == "s2-process" and not fork_available():
        pytest.skip("process backend requires the fork start method")
    if layout == "mono":
        engine, points, model = build_engine(n_shards=1)  # for its data only
        engine.close()
        return FunctionIndex(points, model, n_indices=3, rng=7), points
    engine, points, _ = build_engine(
        failure_policy="degrade", **_PARITY_LAYOUTS[layout]
    )
    return engine, points


def _parity_queries(op, normal, offset):
    """The op's queries as the oracle sees them (a range is its bound pair)."""
    if op == "range":
        return [
            (
                ScalarProductQuery(normal, offset - 40.0, ">="),
                ScalarProductQuery(normal, offset, "<="),
            )
        ]
    if op in ("batch", "batch_topk"):
        return [
            ScalarProductQuery(normal, offset),
            ScalarProductQuery(2.0 * normal, 1.5 * offset),
        ]
    return [ScalarProductQuery(normal, offset)]


def _run_op(facade, op, queries):
    if op == "range":
        low_q, high_q = queries[0]
        return [facade.query_range(low_q.normal, low_q.offset, high_q.offset)]
    spq = queries[0]
    if op == "query":
        return [facade.query(spq.normal, spq.offset)]
    if op == "topk":
        return [facade.topk(spq.normal, spq.offset, _PARITY_K)]
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])
    if op == "batch":
        return facade.query_batch(normals, offsets)
    return facade.topk_batch(normals, offsets, _PARITY_K)


def _oracle(op, query, points, ids):
    """SequentialScan's (ids, distances, stats) for ``query`` over ``ids``."""
    scan = SequentialScan(points[ids], ids)
    if op in ("topk", "batch_topk"):
        result = scan.topk(query, _PARITY_K)
        return result.ids, result.distances, result.stats
    if op == "range":
        hits = np.intersect1d(scan.query(query[0]), scan.query(query[1]))
    else:
        hits = scan.query(query)
    n = int(ids.size)
    return hits, None, QueryStats(n, n, n, 0, n, int(hits.size))


def _healthy_stats(engine, shard, op, queries):
    """One healthy shard's per-query stats, straight from its collection."""
    collection = engine.collections[shard]
    if op == "range":
        low_q, high_q = queries[0]
        return [
            collection.query_range(
                engine._working_or_raise(low_q), engine._working_or_raise(high_q)
            ).stats
        ]
    if op == "batch":
        return [result.stats for result in collection.query_batch(queries)]
    if op == "batch_topk":
        return [r.stats for r in collection.topk_batch(queries, _PARITY_K)]
    if op == "topk":
        return [collection.topk(queries[0], _PARITY_K).stats]
    return [collection.query(queries[0]).stats]


class TestScanParity:
    """The octant fallback and the degraded-mode recovery scan answer every
    op exactly as SequentialScan does, with unchanged QueryStats."""

    @pytest.mark.parametrize("op", _PARITY_OPS)
    @pytest.mark.parametrize("layout", ["mono", *_PARITY_LAYOUTS])
    def test_octant_fallback(self, layout, op):
        facade, points = _parity_facade(layout)
        normal = np.array([2.0, -1.0, 3.0, -1.0])  # mixed signs: no octant fits
        queries = _parity_queries(op, normal, 20.0)
        ids = np.arange(points.shape[0], dtype=np.int64)
        try:
            answers = _run_op(facade, op, queries)
        finally:
            getattr(facade, "close", lambda: None)()
        assert len(answers) == len(queries)
        for answer, query in zip(answers, queries):
            want_ids, want_distances, want_stats = _oracle(op, query, points, ids)
            assert np.array_equal(answer.ids, want_ids)
            if want_distances is None:
                assert answer.used_fallback and answer.stats is None
            else:
                assert np.array_equal(answer.distances, want_distances)
                assert answer.stats == want_stats
                assert answer.n_checked == points.shape[0]

    @pytest.mark.parametrize("op", _PARITY_OPS)
    @pytest.mark.parametrize("layout", list(_PARITY_LAYOUTS))
    def test_recovery_scan(self, layout, op):
        engine, points = _parity_facade(layout)
        normal, offset = _query_args(points)
        queries = _parity_queries(op, normal, offset)
        failed = engine.n_shards - 1
        with engine:
            with _flt.injected(f"shard.query:error:shard={failed}"):
                answers = _run_op(engine, op, queries)
            failed_ids = engine._stores[failed].live_ids()
            healthy = [
                _healthy_stats(engine, shard, op, queries)
                for shard in range(engine.n_shards)
                if shard != failed
            ]
        all_ids = np.arange(points.shape[0], dtype=np.int64)
        for slot, (answer, query) in enumerate(zip(answers, queries)):
            want_ids, want_distances, _ = _oracle(op, query, points, all_ids)
            assert np.array_equal(answer.ids, want_ids)
            if want_distances is not None:
                assert np.array_equal(answer.distances, want_distances)
            scanned = _oracle(op, query, points, failed_ids)[2]
            parts = [stats[slot] for stats in healthy] + [scanned]
            assert answer.stats == QueryStats.merge(parts)
            assert answer.degraded.recovered_shards == (failed,)
            assert answer.degraded.completeness == 1.0
