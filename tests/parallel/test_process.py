"""Process-shard backend: bit-identity, reliability semantics, lifecycle.

The backend changes *scheduling only* — every test here pins that claim:
answers (ids, distances, stats) must be bit-identical to the thread
backend and the monolithic facade, fault/deadline/degrade handling must
carry over unchanged, and stitched traces must survive the pickle
round-trip from forked workers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ScalarProductQuery, ShardedFunctionIndex
from repro.exceptions import ShardFailureError
from repro.parallel.process import fork_available
from repro.reliability import faults as _flt

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend requires the fork start method"
)


def _dataset(n=600, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    # Integer-valued points keep scalar products exact in float64, so
    # "identical" includes boundary membership and tie-breaks.
    points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    return points, model


def _queries(points, m=6, seed=1, scale=0.4):
    rng = np.random.default_rng(seed)
    normals = rng.integers(1, 6, size=(m, points.shape[1])).astype(np.float64)
    column_max = points.max(axis=0)
    offsets = np.asarray(
        [float(np.round(scale * normal @ column_max)) for normal in normals]
    )
    return normals, offsets


@pytest.fixture
def pristine_faults():
    """Disarm any ambient plan (the chaos CI lane arms ``REPRO_FAULTS``
    process-wide), restoring it afterwards — for tests whose *clean*
    queries must actually be clean."""
    previous_plan = _flt.active_plan()
    previously_armed = _flt.is_armed()
    _flt.disarm()
    yield
    if previously_armed and previous_plan is not None:
        _flt.arm(previous_plan)
    else:
        _flt.disarm()


@pytest.fixture
def engines(n_shards):
    points, model = _dataset()
    thread = ShardedFunctionIndex(
        points, model, n_indices=4, rng=7, n_shards=n_shards, backend="thread"
    )
    process = ShardedFunctionIndex(
        points, model, n_indices=4, rng=7, n_shards=n_shards, backend="process"
    )
    yield points, thread, process
    thread.close()
    process.close()


class TestBitIdentity:
    def test_inequality_matches_thread_backend(self, engines):
        points, thread, process = engines
        normals, offsets = _queries(points)
        for normal, offset in zip(normals, offsets):
            a = thread.query(normal, offset)
            b = process.query(normal, offset)
            assert np.array_equal(a.ids, b.ids)
            assert a.stats == b.stats

    def test_batch_matches_thread_backend(self, engines):
        points, thread, process = engines
        normals, offsets = _queries(points)
        for a, b in zip(
            thread.query_batch(normals, offsets), process.query_batch(normals, offsets)
        ):
            assert np.array_equal(a.ids, b.ids)
            assert a.stats == b.stats

    def test_range_matches_thread_backend(self, engines):
        points, thread, process = engines
        normals, offsets = _queries(points)
        for normal, offset in zip(normals, offsets):
            a = thread.query_range(normal, offset * 0.5, offset)
            b = process.query_range(normal, offset * 0.5, offset)
            assert np.array_equal(a.ids, b.ids)
            assert a.stats == b.stats

    def test_topk_matches_thread_backend(self, engines):
        points, thread, process = engines
        normals, offsets = _queries(points)
        for normal, offset in zip(normals, offsets):
            a = thread.topk(normal, offset, 12)
            b = process.topk(normal, offset, 12)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            # A worker's cutoff is a fresh private bound, which prunes
            # exactly as no cutoff at all.
            spq = ScalarProductQuery(normal, offset)
            assert b.n_checked == sum(
                collection.topk(spq, 12).n_checked
                for collection in process.collections
            )

    def test_topk_batch_matches_thread_backend(self, engines):
        points, thread, process = engines
        normals, offsets = _queries(points)
        for a, b in zip(
            thread.topk_batch(normals, offsets, 12),
            process.topk_batch(normals, offsets, 12),
        ):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats == b.stats
            assert a.n_checked == b.n_checked

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        m=st.integers(min_value=1, max_value=6),
        scale=st.floats(min_value=0.0, max_value=1.2),
    )
    def test_batched_answers_property(self, seed, m, scale):
        """Hypothesis: monolithic, thread-sharded, and process-sharded
        batch answers agree bit for bit over random workloads."""
        points, model = _dataset(n=250, seed=seed)
        normals, offsets = _queries(points, m=m, seed=seed + 1, scale=scale)
        mono = FunctionIndex(points, model, n_indices=3, rng=seed)
        with ShardedFunctionIndex(
            points, model, n_indices=3, rng=seed, n_shards=3, backend="process"
        ) as process:
            batch = process.query_batch(normals, offsets)
            mono_batch = mono.query_batch(normals, offsets)
        for a, b in zip(mono_batch, batch):
            assert np.array_equal(a.ids, b.ids)


class TestBackendSelection:
    def test_env_default(self, monkeypatch):
        points, model = _dataset(n=60)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
        with ShardedFunctionIndex(points, model, n_indices=2, rng=0) as engine:
            assert engine.backend == "process"
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "")
        with ShardedFunctionIndex(points, model, n_indices=2, rng=0) as engine:
            assert engine.backend == "thread"

    def test_explicit_beats_env(self, monkeypatch):
        points, model = _dataset(n=60)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
        with ShardedFunctionIndex(
            points, model, n_indices=2, rng=0, backend="thread"
        ) as engine:
            assert engine.backend == "thread"

    def test_unknown_backend_rejected(self):
        points, model = _dataset(n=60)
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedFunctionIndex(points, model, n_indices=2, rng=0, backend="gpu")

    def test_single_shard_runs_inline(self):
        """n_shards=1 keeps the monolithic inline path — no pool forks."""
        points, model = _dataset(n=120)
        normals, offsets = _queries(points, m=2)
        with ShardedFunctionIndex(
            points, model, n_indices=2, rng=0, n_shards=1, backend="process"
        ) as engine:
            engine.query(normals[0], offsets[0])
            assert engine._process_pool is None


class TestReliability:
    def test_injected_fault_degrades(self, n_shards):
        points, model = _dataset()
        normals, offsets = _queries(points, m=1)
        with _flt.injected("shard.query:error:every=2"):
            with ShardedFunctionIndex(
                points,
                model,
                n_indices=3,
                rng=7,
                n_shards=n_shards,
                backend="process",
                failure_policy="retry_then_degrade",
                retry_backoff_s=0.0,
            ) as engine:
                clean = FunctionIndex(points, model, n_indices=3, rng=7)
                answer = engine.query(normals[0], offsets[0])
                # Retries / recovery scans keep the answer exact.
                assert np.array_equal(
                    answer.ids, clean.query(normals[0], offsets[0]).ids
                )

    def test_raise_policy_carries_shard_identity(self, n_shards):
        points, model = _dataset()
        normals, offsets = _queries(points, m=1)
        with _flt.injected("shard.query:error"):
            with ShardedFunctionIndex(
                points,
                model,
                n_indices=3,
                rng=7,
                n_shards=n_shards,
                backend="process",
                failure_policy="raise",
            ) as engine:
                with pytest.raises(ShardFailureError) as excinfo:
                    engine.query(normals[0], offsets[0])
                assert excinfo.value.shard is not None
                assert excinfo.value.kind == "inequality"

    def test_stalled_worker_misses_deadline(self, n_shards):
        points, model = _dataset()
        normals, offsets = _queries(points, m=1)
        with _flt.injected("shard.query:stall:ms=400"):
            with ShardedFunctionIndex(
                points,
                model,
                n_indices=3,
                rng=7,
                n_shards=n_shards,
                backend="process",
                failure_policy="degrade",
                query_timeout_s=0.1,
            ) as engine:
                clean = FunctionIndex(points, model, n_indices=3, rng=7)
                answer = engine.query(normals[0], offsets[0])
                # Every shard misses the deadline; the recovery scans
                # (parent-side, unstalled) keep the answer complete.
                assert answer.degraded is not None
                assert answer.degraded.completeness == 1.0
                assert np.array_equal(
                    answer.ids, clean.query(normals[0], offsets[0]).ids
                )


class TestReArmAfterFork:
    def test_faults_armed_after_fork_reach_workers(self, pristine_faults, n_shards):
        """Workers inherit the plan armed at fork time; arming *after* the
        pool forked must refork it (fault-plan generation check), so a
        mid-session ``injected()`` block behaves as with threads."""
        points, model = _dataset()
        normals, offsets = _queries(points, m=1)
        with ShardedFunctionIndex(
            points,
            model,
            n_indices=3,
            rng=7,
            n_shards=n_shards,
            backend="process",
            failure_policy="raise",
        ) as engine:
            engine.query(normals[0], offsets[0])  # forks a clean pool
            with _flt.injected("shard.query:error"):
                with pytest.raises(ShardFailureError):
                    engine.query(normals[0], offsets[0])
            # ...and disarming must refork again: queries are clean now.
            answer = engine.query(normals[0], offsets[0])
            assert answer.degraded is None


class TestMutationInvalidation:
    def test_all_mutations_refresh_worker_snapshots(self, n_shards):
        points, model = _dataset()
        normals, offsets = _queries(points, m=2)
        rng = np.random.default_rng(9)
        thread = ShardedFunctionIndex(
            points, model, n_indices=3, rng=7, n_shards=n_shards, backend="thread"
        )
        process = ShardedFunctionIndex(
            points, model, n_indices=3, rng=7, n_shards=n_shards, backend="process"
        )
        try:

            def check():
                for a, b in zip(
                    thread.query_batch(normals, offsets),
                    process.query_batch(normals, offsets),
                ):
                    assert np.array_equal(a.ids, b.ids)

            check()  # fork the pool so stale snapshots are possible
            fresh = rng.integers(1, 30, size=(40, points.shape[1])).astype(np.float64)
            ids_t = thread.insert_points(fresh)
            ids_p = process.insert_points(fresh)
            assert np.array_equal(ids_t, ids_p)
            check()
            moved = rng.integers(1, 30, size=(10, points.shape[1])).astype(np.float64)
            thread.update_points(ids_t[:10], moved)
            process.update_points(ids_p[:10], moved)
            check()
            thread.delete_points(ids_t[10:20])
            process.delete_points(ids_p[10:20])
            check()
            extra = rng.integers(1, 6, size=points.shape[1]).astype(np.float64)
            assert thread.add_index(extra) == process.add_index(extra)
            check()
            thread.drop_index(0)
            process.drop_index(0)
            check()
        finally:
            thread.close()
            process.close()


class TestTraceStitching:
    def test_worker_spans_graft_under_query_root(self, obs_enabled, n_shards):
        from repro.obs import spans as _osp

        points, model = _dataset()
        normals, offsets = _queries(points, m=3)
        with ShardedFunctionIndex(
            points, model, n_indices=3, rng=7, n_shards=n_shards, backend="process"
        ) as engine:
            engine.query_batch(normals, offsets)
        root = _osp.recent_traces()[-1]
        assert root.name == "query.batch"
        shard_spans = [c for c in root.children if c.name == "shard.batch"]
        assert len(shard_spans) == n_shards
        seen = set()
        for span in shard_spans:
            assert span.attrs["backend"] == "process"
            assert span.attrs["trace_id"] == root.attrs["trace_id"]
            # Per-shard cost counters annotated parent-side from results.
            assert "verified" in span.attrs and "results" in span.attrs
            # Worker-side collection spans survived the pickle round-trip.
            assert "collection.query_batch" in [c.name for c in span.children]
            seen.add(span.attrs["shard"])
        assert seen == set(range(n_shards))


class TestLifecycle:
    def test_close_is_idempotent(self, n_shards):
        points, model = _dataset(n=120)
        normals, offsets = _queries(points, m=1)
        engine = ShardedFunctionIndex(
            points, model, n_indices=2, rng=0, n_shards=n_shards, backend="process"
        )
        engine.query(normals[0], offsets[0])
        assert engine._process_pool is not None or n_shards == 1
        engine.close()
        assert engine._process_pool is None
        engine.close()  # no-op

    def test_context_manager_closes_pool(self, n_shards):
        points, model = _dataset(n=120)
        normals, offsets = _queries(points, m=1)
        with ShardedFunctionIndex(
            points, model, n_indices=2, rng=0, n_shards=n_shards, backend="process"
        ) as engine:
            engine.query(normals[0], offsets[0])
        assert engine._process_pool is None
