"""Tests for the sequential-scan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalarProductQuery, SequentialScan
from repro.exceptions import DimensionMismatchError, InvalidQueryError


@pytest.fixture
def scan(rng):
    return SequentialScan(rng.uniform(1, 100, size=(500, 3)))


class TestInequality:
    def test_simple_query(self):
        scan = SequentialScan(np.array([[1.0], [2.0], [3.0]]))
        ids = scan.query(ScalarProductQuery(np.array([1.0]), 2.0))
        assert np.array_equal(ids, [0, 1])

    def test_all_ops(self):
        scan = SequentialScan(np.array([[1.0], [2.0], [3.0]]))
        normal = np.array([1.0])
        assert np.array_equal(scan.query(ScalarProductQuery(normal, 2.0, "<")), [0])
        assert np.array_equal(scan.query(ScalarProductQuery(normal, 2.0, ">=")), [1, 2])
        assert np.array_equal(scan.query(ScalarProductQuery(normal, 2.0, ">")), [2])

    def test_custom_ids(self):
        scan = SequentialScan(np.array([[1.0], [5.0]]), ids=np.array([42, 7]))
        assert np.array_equal(scan.query(ScalarProductQuery(np.array([1.0]), 2.0)), [42])

    def test_id_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            SequentialScan(np.ones((3, 2)), ids=np.array([1]))

    def test_query_dim_checked(self, scan):
        with pytest.raises(InvalidQueryError):
            scan.query(ScalarProductQuery(np.array([1.0]), 2.0))


class TestTopK:
    def test_topk_ordering(self):
        scan = SequentialScan(np.array([[1.0], [2.0], [3.0], [4.0]]))
        result = scan.topk(ScalarProductQuery(np.array([1.0]), 3.5), 2)
        assert np.array_equal(result.ids, [2, 1])
        assert np.allclose(result.distances, [0.5, 1.5])
        assert result.n_checked == 4

    def test_topk_fewer_than_k(self):
        scan = SequentialScan(np.array([[1.0], [10.0]]))
        result = scan.topk(ScalarProductQuery(np.array([1.0]), 2.0), 5)
        assert len(result) == 1

    def test_topk_tie_break_by_id(self):
        scan = SequentialScan(np.array([[2.0], [2.0], [2.0]]))
        result = scan.topk(ScalarProductQuery(np.array([1.0]), 3.0), 2)
        assert np.array_equal(result.ids, [0, 1])

    @pytest.mark.parametrize("seed", range(20))
    def test_ties_at_kth_place_keep_smallest_ids(self, seed):
        """Many points tie at the k-th distance: the scan keeps every point
        strictly inside it plus the smallest-id tied points, in scrambled
        id order too."""
        rng = np.random.default_rng(seed)
        n = 400
        features = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
        ids = rng.permutation(n).astype(np.int64) * 3 + 5
        query = ScalarProductQuery(np.array([1.0, 1.0]), 9.0)
        k = int(rng.integers(1, 120))
        result = SequentialScan(features, ids).topk(query, k)
        values = features @ query.normal
        keep = values <= query.offset
        distances = np.abs(values[keep] - query.offset) / np.sqrt(2.0)
        order = np.lexsort((ids[keep], distances))[:k]
        assert np.array_equal(result.ids, ids[keep][order])
        assert np.array_equal(result.distances, distances[order])

    def test_invalid_k(self, scan):
        with pytest.raises(InvalidQueryError):
            scan.topk(ScalarProductQuery(np.ones(3), 10.0), -1)

    def test_empty_result(self, scan):
        result = scan.topk(ScalarProductQuery(np.ones(3), -1e9), 3)
        assert len(result) == 0
