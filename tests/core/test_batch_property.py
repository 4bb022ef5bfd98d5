"""Property tests: ``query_batch`` is exactly the loop of single queries.

Regression for the batch path: hypothesis drives dataset size,
dimension, operator, query geometry and the data itself (integer-valued,
or floating-point with boundary offsets), and every example asserts that
``index.query_batch(normals, offsets, op)`` returns *bit-identical* ids
and stats to ``[index.query(n, o, op) for ...]``.  The suite pins the
``_SCAN_FALLBACK_FRACTION`` router boundary explicitly — forcing the
all-scan and all-interval extremes must not change a single id — and
the degenerate empty batch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel


@st.composite
def batch_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=200))
    m = draw(st.integers(min_value=0, max_value=8))
    n_indices = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    op = draw(st.sampled_from(["<=", "<", ">=", ">"]))
    offset_scale = draw(st.floats(min_value=0.0, max_value=1.5))
    integer = draw(st.booleans())
    return dim, n, m, n_indices, seed, op, offset_scale, integer


def _build(case):
    dim, n, m, n_indices, seed, op, offset_scale, integer = case
    rng = np.random.default_rng(seed)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    if integer:
        # Integer-valued inputs keep every scalar product exact in float64,
        # so "identical" includes tie-breaks and boundary membership.
        points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
        normals = rng.integers(1, 6, size=(m, dim)).astype(np.float64)
        column_max = points.max(axis=0)
        offsets = np.asarray(
            [float(np.round(offset_scale * normal @ column_max)) for normal in normals]
        )
    else:
        # Real floating-point data: per-axis scales 10^U(-3, 3), and each
        # offset is a stored point's own score, so some point sits on the
        # query hyperplane up to rounding — the case where two ways of
        # computing a scalar product can disagree.
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
        points = rng.uniform(1.0, 30.0, size=(n, dim)) * scales
        normals = rng.uniform(1.0, 6.0, size=(m, dim))
        offsets = np.asarray(
            [float(points[rng.integers(n)] @ normal) for normal in normals]
        )
    index = FunctionIndex(points, model, n_indices=n_indices, rng=seed)
    return index, normals, offsets, op


def _assert_batch_equals_singles(index, normals, offsets, op):
    batch = index.query_batch(normals, offsets, op)
    assert len(batch) == normals.shape[0]
    for row, answer in enumerate(batch):
        single = index.query(normals[row], float(offsets[row]), op)
        assert np.array_equal(answer.ids, single.ids)
        assert answer.used_fallback == single.used_fallback
        if answer.stats is not None:
            assert answer.stats == single.stats


class TestBatchEqualsSingles:
    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_batch_is_loop_of_singles(self, case):
        index, normals, offsets, op = _build(case)
        _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=25, deadline=None)
    @given(case=batch_cases())
    def test_router_forced_to_scan(self, case):
        """With the fallback fraction at 1.0 every plannable query routes
        to the interval-scan arm; batch and singles must still agree."""
        index, normals, offsets, op = _build(case)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 1.0):
            _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=25, deadline=None)
    @given(case=batch_cases())
    def test_router_forced_to_intervals(self, case):
        """With the fallback fraction at 0.0 every plannable query takes
        the three-interval path; batch and singles must still agree."""
        index, normals, offsets, op = _build(case)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=20, deadline=None)
    @given(case=batch_cases())
    def test_router_split_matches_either_route(self, case):
        """At the boundary the router's choice is an implementation detail;
        the *answer* must match both forced routes bit for bit."""
        index, normals, offsets, op = _build(case)
        default = index.query_batch(normals, offsets, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 1.0):
            scanned = index.query_batch(normals, offsets, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            intervals = index.query_batch(normals, offsets, op)
        for chosen, scan_side, interval_side in zip(default, scanned, intervals):
            assert np.array_equal(chosen.ids, scan_side.ids)
            assert np.array_equal(chosen.ids, interval_side.ids)


class TestTopkBatchEqualsSingles:
    """``topk_batch`` (shared rank search, per-query Algorithm 2) vs the loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=batch_cases(),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_topk_batch_is_loop_of_singles(self, case, k):
        index, normals, offsets, op = _build(case)
        batch = index.topk_batch(normals, offsets, k, op)
        assert len(batch) == normals.shape[0]
        for row, result in enumerate(batch):
            single = index.topk(normals[row], float(offsets[row]), k, op)
            assert np.array_equal(result.ids, single.ids)
            assert np.array_equal(result.distances, single.distances)
            assert result.n_checked == single.n_checked
            assert result.stats == single.stats

    @settings(max_examples=15, deadline=None)
    @given(case=batch_cases(), k=st.integers(min_value=1, max_value=8))
    def test_topk_batch_forced_routes_agree(self, case, k):
        index, normals, offsets, op = _build(case)
        default = index.topk_batch(normals, offsets, k, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            intervals = index.topk_batch(normals, offsets, k, op)
        for chosen, interval_side in zip(default, intervals):
            assert np.array_equal(chosen.ids, interval_side.ids)
            assert np.array_equal(chosen.distances, interval_side.distances)


class TestAwkwardInputLayouts:
    """Mixed-dtype / non-contiguous batch inputs answer identically to
    clean float64 C-order arrays (regression: batch input parsing must
    canonicalize normals before any scalar product, not assume layout)."""

    def _index(self, dim=3, seed=3):
        rng = np.random.default_rng(seed)
        points = rng.integers(1, 30, size=(120, dim)).astype(np.float64)
        model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=3, rng=seed)
        normals = rng.integers(1, 6, size=(6, dim)).astype(np.float64)
        offsets = np.asarray(
            [float(np.round(0.5 * n @ points.max(axis=0))) for n in normals]
        )
        return index, normals, offsets

    def _assert_same_answers(self, index, normals, offsets, alt_normals, alt_offsets):
        clean = index.query_batch(normals, offsets)
        awkward = index.query_batch(alt_normals, alt_offsets)
        for a, b in zip(clean, awkward):
            assert np.array_equal(a.ids, b.ids)
        clean_topk = index.topk_batch(normals, offsets, 7)
        awkward_topk = index.topk_batch(alt_normals, alt_offsets, 7)
        for a, b in zip(clean_topk, awkward_topk):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_float32_inputs(self):
        index, normals, offsets = self._index()
        # Integer-valued, so the float32 round-trip is exact.
        self._assert_same_answers(
            index,
            normals,
            offsets,
            normals.astype(np.float32),
            offsets.astype(np.float32),
        )

    def test_fortran_order_normals(self):
        index, normals, offsets = self._index()
        fortran = np.asfortranarray(normals)
        assert not fortran.flags["C_CONTIGUOUS"]
        self._assert_same_answers(index, normals, offsets, fortran, offsets)

    def test_strided_views(self):
        index, normals, offsets = self._index()
        doubled = np.repeat(normals, 2, axis=0)
        view = doubled[::2]
        assert not view.flags["OWNDATA"]
        offsets_view = np.repeat(offsets, 2)[::2]
        self._assert_same_answers(index, normals, offsets, view, offsets_view)

    def test_reversed_column_view(self):
        index, normals, offsets = self._index()
        reversed_copy = normals[:, ::-1].copy()
        view = reversed_copy[:, ::-1]  # negative column stride, equals normals
        assert not view.flags["C_CONTIGUOUS"]
        self._assert_same_answers(index, normals, offsets, view, offsets)


class TestEmptyBatch:
    def test_empty_batch_returns_empty_list(self):
        rng = np.random.default_rng(0)
        points = rng.integers(1, 30, size=(50, 3)).astype(np.float64)
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=2, rng=0)
        assert index.query_batch(np.empty((0, 3)), np.empty(0)) == []
