"""Integration tests: instrumentation of the live query pipeline.

The key property (ISSUE acceptance): for a deterministic selection
strategy, ``explain()`` reports exactly the SI/II/LI sizes, verification
count, and result count that ``query()`` measures for the same query —
the EXPLAIN layer must never drift from the executor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ShardedFunctionIndex
from repro.obs import metrics as obs_metrics
from repro.obs import recent_traces, to_prometheus
from repro.obs import runtime as obs_runtime


@st.composite
def explain_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=5, max_value=120))
    n_indices = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    strategy = draw(st.sampled_from(["min_stretch", "min_angle"]))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    return dim, n, n_indices, seed, strategy, fraction


class TestExplainMatchesQuery:
    @settings(max_examples=40, deadline=None)
    @given(case=explain_cases())
    def test_sizes_identical(self, case):
        dim, n, n_indices, seed, strategy, fraction = case
        rng = np.random.default_rng(seed)
        points = rng.uniform(1.0, 100.0, size=(n, dim))
        model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(
            points, model, n_indices=n_indices, strategy=strategy, rng=seed
        )
        normal = model.sample_normal(seed)
        # Offset sweeps from "nothing satisfies" to "everything satisfies".
        offset = fraction * float(normal @ points.max(axis=0)) * dim
        answer = index.query(normal, offset)
        report = index.explain_report(normal, offset)
        assert report.si_size == answer.stats.si_size
        assert report.ii_size == answer.stats.ii_size
        assert report.li_size == answer.stats.li_size
        assert report.n_verified == answer.stats.n_verified
        assert report.n_results == answer.stats.n_results == len(answer)
        assert report.si_size + report.ii_size + report.li_size == len(index)


@pytest.fixture
def small_index(uniform_points, uniform_model):
    return FunctionIndex(uniform_points, uniform_model, n_indices=5, rng=3)


class TestMetricsRecorded:
    def test_query_increments_counters(self, small_index, uniform_model, obs_enabled):
        counter = obs_metrics.queries_total()
        latency = obs_metrics.query_latency()
        normal = uniform_model.sample_normal(0)
        offset = 30.0 * float(normal.sum())
        answer = small_index.query(normal, offset)

        before = counter.value(
            kind="inequality", route="intervals", strategy="min_stretch"
        ) + counter.value(kind="inequality", route="scan", strategy="min_stretch")
        lat_before = latency.count(kind="inequality", route="intervals") + latency.count(
            kind="inequality", route="scan"
        )
        small_index.query(normal, offset)
        after = counter.value(
            kind="inequality", route="intervals", strategy="min_stretch"
        ) + counter.value(kind="inequality", route="scan", strategy="min_stretch")
        lat_after = latency.count(kind="inequality", route="intervals") + latency.count(
            kind="inequality", route="scan"
        )
        assert after == before + 1
        assert lat_after == lat_before + 1
        assert answer.stats is not None

    def test_interval_partition_counters(self, small_index, uniform_model, obs_enabled):
        intervals = obs_metrics.interval_points()
        verified = obs_metrics.verified_points()
        normal = uniform_model.sample_normal(1)
        offset = 30.0 * float(normal.sum())
        ver_before = verified.value(kind="inequality")
        si_before = sum(
            value
            for key, value in intervals.series().items()
            if key[0] == "si"
        )
        answer = small_index.query(normal, offset)
        ver_after = verified.value(kind="inequality")
        si_after = sum(
            value
            for key, value in intervals.series().items()
            if key[0] == "si"
        )
        assert ver_after - ver_before == answer.stats.n_verified
        assert si_after - si_before == answer.stats.si_size

    def test_selection_counter(self, small_index, uniform_model, obs_enabled):
        selections = obs_metrics.selection_total()
        before = sum(selections.series().values())
        normal = uniform_model.sample_normal(2)
        small_index.query(normal, 100.0)
        assert sum(selections.series().values()) == before + 1

    def test_query_span_tree(self, small_index, uniform_model, obs_enabled):
        normal = uniform_model.sample_normal(4)
        small_index.query(normal, 30.0 * float(normal.sum()))
        trace = recent_traces()[-1]
        # The facade now opens a trace root; the collection span nests under it.
        assert trace.name == "query.inequality"
        assert "trace_id" in trace.attrs
        (collection,) = [c for c in trace.children if c.name == "collection.query"]
        child_names = {child.name for child in collection.children}
        assert "select" in child_names
        assert "binary_search" in child_names
        assert child_names & {"verify_II", "materialize", "scan"}

    def test_topk_span_tree(self, small_index, uniform_model, obs_enabled):
        normal = uniform_model.sample_normal(5)
        small_index.topk(normal, 80.0 * float(normal.sum()), k=10)
        trace = recent_traces()[-1]
        assert trace.name == "query.topk"
        assert "trace_id" in trace.attrs
        (collection,) = [c for c in trace.children if c.name == "collection.topk"]
        child_names = {child.name for child in collection.children}
        assert "binary_search" in child_names

    def test_prometheus_export_has_acceptance_series(
        self, small_index, uniform_model, obs_enabled
    ):
        normal = uniform_model.sample_normal(6)
        small_index.query(normal, 30.0 * float(normal.sum()))
        text = to_prometheus()
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert "repro_query_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        for interval in ("si", "ii", "li"):
            assert f'repro_interval_points_total{{interval="{interval}"' in text

    def test_disabled_path_records_nothing(
        self, small_index, uniform_model, obs_disabled
    ):
        registry = obs_metrics.registry()
        before = registry.n_samples()
        traces_before = len(recent_traces())
        normal = uniform_model.sample_normal(7)
        answer = small_index.query(normal, 30.0 * float(normal.sum()))
        small_index.topk(normal, 80.0 * float(normal.sum()), k=5)
        assert registry.n_samples() == before
        assert len(recent_traces()) == traces_before
        assert answer.stats is not None  # stats stay on, only telemetry is off


class TestOctantFallbackTelemetry:
    @pytest.mark.parametrize("n_shards", [None, 1, 2])
    def test_every_op_records_the_same_series(
        self, uniform_points, uniform_model, obs_enabled, n_shards
    ):
        """Each op's octant fallback counts one query, n verified points and
        one latency sample per query, labelled with the op's trace kind."""
        if n_shards is None:
            facade = FunctionIndex(uniform_points, uniform_model, n_indices=5, rng=3)
        else:
            facade = ShardedFunctionIndex(
                uniform_points, uniform_model, n_indices=5, rng=3, n_shards=n_shards
            )
        normal = np.array([1.0, -2.0, 1.0, -3.0])  # mixed signs: no octant fits
        normals = np.vstack([normal, 2.0 * normal])
        offsets = np.array([-30.0, 40.0])
        ops = {
            "inequality": (lambda: facade.query(normal, -30.0), 1),
            "range": (lambda: facade.query_range(normal, -60.0, 30.0), 1),
            "batch": (lambda: facade.query_batch(normals, offsets), 2),
            "topk": (lambda: facade.topk(normal, -30.0, 5), 1),
            "batch_topk": (lambda: facade.topk_batch(normals, offsets, 5), 2),
        }
        queries = obs_metrics.queries_total()
        verified = obs_metrics.verified_points()
        latency = obs_metrics.query_latency()

        def series(kind):
            return (
                queries.value(kind=kind, route="octant-fallback", strategy="none"),
                verified.value(kind=kind),
                latency.count(kind=kind, route="octant-fallback"),
            )

        n = len(uniform_points)
        try:
            for kind, (run, n_queries) in ops.items():
                before = series(kind)
                run()
                after = series(kind)
                assert [a - b for a, b in zip(after, before)] == [
                    n_queries,
                    n_queries * n,
                    n_queries,
                ], kind
        finally:
            getattr(facade, "close", lambda: None)()
