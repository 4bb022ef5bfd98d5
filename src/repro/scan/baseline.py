"""Naive sequential scan over all feature vectors.

This is both the correctness oracle for every test in this repository and
the baseline the paper compares against: ``O(n d')`` per inequality query
and ``O(n d' + n log k)`` per top-k query, independent of any index.
"""

from __future__ import annotations

import time

import numpy as np

from .._util import as_2d_float
from ..analysis.contracts import array_contract
from ..core.query import ScalarProductQuery
from ..core.stats import QueryStats
from ..core.topk import TopKResult
from ..exceptions import DimensionMismatchError, InvalidQueryError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp

__all__ = ["SequentialScan"]


class SequentialScan:
    """Answer scalar product queries by evaluating every point.

    Parameters
    ----------
    features:
        ``(n, d')`` matrix of ``phi(x)`` values.
    ids:
        Optional point ids (defaults to row numbers) so results are
        comparable with indexed answers.
    """

    @array_contract("features: (n, d) float64 cast promote", "ids: ?(n,) int64 cast")
    def __init__(self, features: np.ndarray, ids: np.ndarray | None = None) -> None:
        self._features = as_2d_float(features, "features")
        if ids is None:
            ids = np.arange(self._features.shape[0], dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.size != self._features.shape[0]:
                raise DimensionMismatchError(
                    f"{ids.size} ids for {self._features.shape[0]} feature rows"
                )
        self._ids = ids

    def __len__(self) -> int:
        return int(self._features.shape[0])

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'``."""
        return int(self._features.shape[1])

    def _check(self, query: ScalarProductQuery) -> None:
        if query.dim != self.dim:
            raise InvalidQueryError(
                f"query has dimension {query.dim}, data has {self.dim}"
            )

    @array_contract(returns="(k,) int64")
    def query(self, query: ScalarProductQuery) -> np.ndarray:
        """All point ids satisfying the inequality, ascending."""
        self._check(query)
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        mask = query.evaluate(self._features)
        result = np.sort(self._ids[mask])
        if obs_on:
            _osp.record("baseline.query", started, n=len(self))
            _om.queries_total().inc(kind="scan", route="baseline", strategy="none")
            _om.verified_points().inc(len(self), kind="scan")
            _om.query_latency().observe(
                time.perf_counter() - started, kind="scan", route="baseline"
            )
        return result

    def topk(self, query: ScalarProductQuery, k: int) -> TopKResult:
        """Exact top-k satisfying points by hyperplane distance."""
        self._check(query)
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        values = self._features @ query.normal
        mask = query.op.evaluate(values, query.offset)
        ids = self._ids[mask]
        distances = np.abs(values[mask] - query.offset) / np.linalg.norm(query.normal)
        chosen = np.arange(ids.size)
        if ids.size > k:
            # O(n): partition for the k-th distance, keep every point
            # strictly inside it, and fill the remaining places with the
            # smallest ids among the points tied at it.
            kth = np.partition(distances, k - 1)[k - 1]
            inside = np.flatnonzero(distances < kth)
            tied = np.flatnonzero(distances == kth)
            fill = k - inside.size
            if fill < tied.size:
                tied = tied[np.argpartition(ids[tied], fill - 1)[:fill]]
            chosen = np.concatenate([inside, tied])
        # Ties broken by id, like every indexed top-k path.
        chosen = chosen[np.lexsort((ids[chosen], distances[chosen]))]
        if obs_on:
            _osp.record("baseline.topk", started, n=len(self), k=k)
            _om.queries_total().inc(kind="scan_topk", route="baseline", strategy="none")
            _om.verified_points().inc(len(self), kind="scan_topk")
            _om.query_latency().observe(
                time.perf_counter() - started, kind="scan_topk", route="baseline"
            )
        # The scan has no intervals: everything is "intermediate" and every
        # point's scalar product is evaluated.
        stats = QueryStats(
            n_total=len(self),
            si_size=0,
            ii_size=len(self),
            li_size=0,
            n_verified=len(self),
            n_results=int(chosen.size),
        )
        return TopKResult(
            ids=ids[chosen],
            distances=distances[chosen],
            n_checked=len(self),
            n_total=len(self),
            stats=stats,
        )
