"""User-facing facade: index a function over data points (the paper's title).

:class:`FunctionIndex` owns the whole pipeline of the paper:

* apply the application-specific function ``phi`` to the raw data points,
* derive the working octant from the query-parameter domains and translate
  (Section 4.5),
* maintain a budget of Planar indices sampled from those domains
  (Section 5.2),
* route each incoming query through best-index selection (Section 5.1) to
  Algorithm 1 / Algorithm 2,
* keep everything consistent under dynamic point updates, inserts, and
  deletes (Section 4.4).

Queries whose parameters fall outside the indexed octant cannot use the
interval argument; by default they transparently fall back to a sequential
scan (and are flagged as such in the answer) instead of failing.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._util import as_2d_float, as_rng, require_finite_rows
from ..exceptions import DimensionMismatchError, InvalidQueryError
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import trace as _otr
from ..reliability.degraded import DegradedInfo
from ..obs.explain import ExplainReport
from .collection import PlanarIndexCollection, routes_to_scan
from .domains import QueryModel
from .feature_store import FeatureStore
from .phi import FeatureMap, identity_map
from .planar import QueryResult, WorkingQuery
from .query import Comparison, ScalarProductQuery, check_k
from .selection import SelectionStrategy
from .stats import QueryStats, trace_fields
from .topk import TopKResult

# Workload recording hook (repro.tuning).  Import-order safe: the recorder
# module itself depends only on repro.exceptions / repro.obs, and the
# advisor (pulled in by the tuning package) imports only core submodules
# that are fully initialized before this module (collection, planar, query,
# selection).  The hot-path guard is one module-attribute read when
# recording is disarmed.
from ..tuning import recorder as _tnr

__all__ = [
    "FunctionIndex",
    "QueryAnswer",
    "batch_queries",
    "octant_fallback",
    "range_queries",
    "scan_reference",
    "single_query",
    "split_fallbacks",
]


@dataclass(frozen=True)
class QueryAnswer:
    """Answer to an inequality query through the facade.

    ``stats`` is ``None`` (and ``used_fallback`` True) when the query could
    not use the Planar machinery and was answered by a sequential scan.

    ``degraded`` is ``None`` for normal answers; the sharded engine attaches
    a :class:`~repro.reliability.degraded.DegradedInfo` when shard failures
    were recovered or the answer is partial (see ``docs/reliability.md``).
    """

    ids: np.ndarray
    stats: QueryStats | None
    used_fallback: bool
    degraded: DegradedInfo | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.ids.size)


def single_query(
    normal: np.ndarray, offset: float, op: Comparison | str, dim: int
) -> ScalarProductQuery:
    """Build one facade query, checking it against the feature dimension."""
    spq = ScalarProductQuery(np.asarray(normal, dtype=np.float64), offset, op)
    if spq.dim != dim:
        raise DimensionMismatchError(
            f"query has dimension {spq.dim}, feature space has {dim}"
        )
    return spq


def range_queries(
    normal: np.ndarray, low: float, high: float, dim: int
) -> tuple[ScalarProductQuery, ScalarProductQuery]:
    """The ``>= low`` and ``<= high`` bounds of one BETWEEN query."""
    if not low <= high:
        raise InvalidQueryError(f"empty range ({low}, {high})")
    return single_query(normal, low, ">=", dim), single_query(normal, high, "<=", dim)


def batch_queries(
    normals: np.ndarray, offsets: np.ndarray, op: Comparison | str, dim: int
) -> list[ScalarProductQuery]:
    """Check a batch's ``(m, d')`` normals and ``m`` offsets; build its queries."""
    normals = as_2d_float(normals, "normals")
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    if offsets.ndim != 1 or offsets.size != normals.shape[0]:
        raise DimensionMismatchError(
            f"{offsets.size} offsets for {normals.shape[0]} normals"
        )
    if normals.shape[0] and normals.shape[1] != dim:
        raise DimensionMismatchError(
            f"queries have dimension {normals.shape[1]}, feature space has {dim}"
        )
    return [
        ScalarProductQuery(normals[row], float(offsets[row]), op)
        for row in range(normals.shape[0])
    ]


def scan_reference(
    store: FeatureStore, queries: Sequence, k: int | None = None
) -> list:
    """Exact answers to ``queries`` by one scan of every live row of ``store``.

    A query is a :class:`ScalarProductQuery`, or the ``(>= low, <= high)``
    bound pair of a range query (one product tested against both bounds).

    The reference both facades fall back on: over the whole store for
    octant-incompatible queries, over one shard's store to recover a
    failed shard.  Inequality and range queries yield a
    :class:`QueryResult` whose stats mark every row verified; with ``k``
    each query yields its :class:`SequentialScan` top-k.
    """
    ids, rows = store.get_all()
    if k is not None:
        from ..scan.baseline import SequentialScan

        scan = SequentialScan(rows, ids)
        return [scan.topk(spq, k) for spq in queries]
    n = int(ids.size)
    results = []
    for query in queries:
        if isinstance(query, tuple):
            low_q, high_q = query
            values = rows @ low_q.normal  # repro: noqa(REP001) — the scan reference itself
            mask = (values >= low_q.offset) & (values <= high_q.offset)
        else:
            mask = query.evaluate(rows)
        hits = np.sort(ids[mask])
        results.append(QueryResult(hits, QueryStats(n, n, n, 0, n, int(hits.size))))
    return results


def octant_fallback(
    kind: str, store: FeatureStore, query, k: int | None = None
) -> QueryAnswer | TopKResult:
    """Answer an octant-incompatible query by scanning ``store``.

    Reported under ``route="octant-fallback"`` with the op's trace kind.
    """
    obs_on = _ort.active()
    started = time.perf_counter() if obs_on else 0.0
    result = scan_reference(store, [query], k)[0]
    if obs_on:
        _om.queries_total().inc(kind=kind, route="octant-fallback", strategy="none")
        _om.verified_points().inc(len(store), kind=kind)
        _om.query_latency().observe(
            time.perf_counter() - started, kind=kind, route="octant-fallback"
        )
    return result if k is not None else QueryAnswer(result.ids, None, True)


def split_fallbacks(
    kind: str,
    queries: Sequence[ScalarProductQuery],
    translator: Translator,
    store: FeatureStore,
    scan_fallback: bool,
    k: int | None = None,
) -> tuple[list, list[int]]:
    """Answer a batch's octant-incompatible queries by :func:`octant_fallback`.

    Returns the positionally aligned answers (``None`` where a query can
    use the indices) and the positions of those plannable queries.
    """
    answers: list = [None] * len(queries)
    plannable: list[int] = []
    for position, spq in enumerate(queries):
        try:
            WorkingQuery.build(spq, translator)
        except InvalidQueryError:
            if not scan_fallback:
                raise
            answers[position] = octant_fallback(kind, store, spq, k)
            continue
        plannable.append(position)
    return answers, plannable


class FunctionIndex:
    """Planar-indexed evaluation of ``<a, phi(x)> OP b`` queries.

    Parameters
    ----------
    points:
        ``(n, d)`` raw data points.
    query_model:
        Per-axis domains of the query parameters ``a`` (Section 4.1); also
        determines the working octant and the index-normal distribution.
    feature_map:
        The indexed function ``phi``; identity by default (half-space
        search).
    n_indices:
        Index budget ``r`` (Section 5.2).  Ignored when ``normals`` is
        given.
    normals:
        Optional explicit ``(r, d')`` index normals instead of sampling
        from the query model — e.g. the MOVIES-style per-time-slot normals
        of the moving-object application (Section 7.5.1).
    strategy:
        Best-index heuristic (paper default: min-stretch / volume).
    scan_fallback:
        Answer octant-incompatible queries by scanning instead of raising.
    margin:
        Translation slack forwarded to :class:`Translator`.
    rng:
        Seed or generator for index-normal sampling.
    """

    def __init__(
        self,
        points: np.ndarray,
        query_model: QueryModel,
        feature_map: FeatureMap | None = None,
        n_indices: int = 10,
        normals: np.ndarray | None = None,
        strategy: SelectionStrategy | str = SelectionStrategy.MIN_STRETCH,
        scan_fallback: bool = True,
        margin: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        pts = as_2d_float(points, "points")
        if feature_map is None:
            feature_map = identity_map(pts.shape[1])
        if feature_map.in_dim != pts.shape[1]:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, feature map expects "
                f"{feature_map.in_dim}"
            )
        if query_model.dim != feature_map.out_dim:
            raise DimensionMismatchError(
                f"query model has dimension {query_model.dim}, feature map "
                f"produces {feature_map.out_dim}"
            )
        self._phi = feature_map
        self._model = query_model
        self._scan_fallback = bool(scan_fallback)
        self._rng = as_rng(rng)

        self._points = FeatureStore(pts)
        features = feature_map(pts)
        self._features = FeatureStore(features)
        self._translator = Translator(query_model.octant(), margin=margin)
        self._translator.observe(features)
        if normals is not None:
            self._collection = PlanarIndexCollection(
                self._features, self._translator, normals, strategy, self._rng
            )
        else:
            self._collection = PlanarIndexCollection.from_model(
                self._features,
                self._translator,
                query_model,
                n_indices,
                strategy,
                self._rng,
            )

    @classmethod
    def _from_prebuilt(
        cls,
        points: FeatureStore,
        features: FeatureStore,
        translator: Translator,
        collection: PlanarIndexCollection,
        feature_map: FeatureMap,
        query_model: QueryModel,
        scan_fallback: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> "FunctionIndex":
        """Bind a facade over already-constructed components.

        The persistence load path: format v3 stores the derived state
        (features, per-index sorted keys), so nothing here re-applies
        ``phi``, re-observes the translator, or re-keys indices.
        """
        self = cls.__new__(cls)
        self._phi = feature_map
        self._model = query_model
        self._scan_fallback = bool(scan_fallback)
        self._rng = as_rng(rng)
        self._points = points
        self._features = features
        self._translator = translator
        self._collection = collection
        return self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of live indexed points."""
        return len(self._features)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FunctionIndex(n={len(self)}, d={self._phi.in_dim}, "
            f"d'={self._phi.out_dim}, r={self.n_indices})"
        )

    @property
    def feature_map(self) -> FeatureMap:
        """The indexed function ``phi``."""
        return self._phi

    @property
    def query_model(self) -> QueryModel:
        """The configured query-parameter domains."""
        return self._model

    @property
    def collection(self) -> PlanarIndexCollection:
        """The underlying Planar index collection."""
        return self._collection

    @property
    def translator(self) -> Translator:
        """The shared octant translator."""
        return self._translator

    @property
    def n_indices(self) -> int:
        """Number of live Planar indices."""
        return len(self._collection)

    def memory_bytes(self) -> int:
        """Footprint of features, raw points, and all key structures."""
        return (
            self._features.memory_bytes()
            + self._points.memory_bytes()
            + self._collection.memory_bytes()
        )

    def get_points(self, ids: np.ndarray) -> np.ndarray:
        """Raw data points for the given ids."""
        return self._points.get(ids)

    def get_features(self, ids: np.ndarray) -> np.ndarray:
        """Feature vectors ``phi(x)`` for the given ids."""
        return self._features.get(ids)

    def live_ids(self) -> np.ndarray:
        """All live point ids."""
        return self._features.live_ids()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    _trace_attrs: dict = {}
    _trace_fields = staticmethod(trace_fields)

    @_otr.traced("inequality")
    def query(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> QueryAnswer:
        """Answer the inequality query ``<normal, phi(x)> OP offset`` exactly."""
        spq = single_query(normal, offset, op, self._phi.out_dim)
        if _tnr.RECORDING:
            _tnr.record_query(spq.normal, spq.offset, spq.op.value, "inequality")
        try:
            result = self._collection.query(spq)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("inequality", self._features, spq)
        return QueryAnswer(result.ids, result.stats, False)

    @_otr.traced("range")
    def query_range(
        self,
        normal: np.ndarray,
        low: float,
        high: float,
    ) -> QueryAnswer:
        """Exact BETWEEN query: ``low <= <normal, phi(x)> <= high``.

        Served by a single Planar index pass over both thresholds (see
        :meth:`PlanarIndex.query_range`); falls back to a scan for
        octant-incompatible normals.
        """
        low_q, high_q = range_queries(normal, low, high, self._phi.out_dim)
        if _tnr.RECORDING:
            # One sketch per bound (same normal, both operators).
            _tnr.record_query(low_q.normal, low, ">=", "range")
            _tnr.record_query(high_q.normal, high, "<=", "range")
        try:
            wq_low = self._collection.working_query(low_q)
            wq_high = self._collection.working_query(high_q)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("range", self._features, (low_q, high_q))
        result = self._collection.query_range(wq_low, wq_high)
        return QueryAnswer(result.ids, result.stats, False)

    @_otr.traced("batch")
    def query_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        op: Comparison | str = Comparison.LE,
    ) -> list[QueryAnswer]:
        """Answer a batch of inequality queries sharing one operator.

        ``normals`` is ``(m, d')`` and ``offsets`` has length ``m``.
        Binary searches are batched per selected index (see
        :meth:`PlanarIndexCollection.query_batch`); octant-incompatible
        queries fall back to scans individually.  The batch is one trace.
        """
        queries = batch_queries(normals, offsets, op, self._phi.out_dim)
        if _tnr.RECORDING:
            for spq in queries:
                _tnr.record_query(spq.normal, spq.offset, spq.op.value, "batch")
        answers, plannable = split_fallbacks(
            "batch", queries, self._translator, self._features, self._scan_fallback
        )
        if plannable:
            results = self._collection.query_batch([queries[p] for p in plannable])
            for position, result in zip(plannable, results):
                answers[position] = QueryAnswer(result.ids, result.stats, False)
        return answers

    def topk(
        self,
        normal: np.ndarray,
        offset: float,
        k: int,
        op: Comparison | str = Comparison.LE,
    ) -> TopKResult:
        """Top-k satisfying points nearest the query hyperplane (Problem 2)."""
        return self._topk(normal, offset, check_k(k), op)

    @_otr.traced("topk")
    def _topk(
        self, normal: np.ndarray, offset: float, k: int, op: Comparison | str
    ) -> TopKResult:
        """Traced body of :meth:`topk` (``k`` already checked)."""
        spq = single_query(normal, offset, op, self._phi.out_dim)
        if _tnr.RECORDING:
            _tnr.record_query(spq.normal, spq.offset, spq.op.value, "topk", k)
        try:
            return self._collection.topk(spq, k)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("topk", self._features, spq, k)

    def topk_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        k: int,
        op: Comparison | str = Comparison.LE,
    ) -> list[TopKResult]:
        """Answer a batch of top-k queries sharing one operator and ``k``.

        Selection and the binary searches are shared per selected index;
        each query then runs Algorithm 2 exactly as :meth:`topk` does (see
        :meth:`PlanarIndexCollection.topk_batch`), so answers equal the
        loop of singles.  Octant-incompatible queries fall back to
        sequential-scan top-k one by one.  The batch is one trace.
        """
        k = check_k(k)
        return self._topk_batch(batch_queries(normals, offsets, op, self._phi.out_dim), k)

    @_otr.traced("batch_topk")
    def _topk_batch(
        self, queries: list[ScalarProductQuery], k: int
    ) -> list[TopKResult]:
        """Traced body of :meth:`topk_batch` (queries and ``k`` checked)."""
        if _tnr.RECORDING:
            for spq in queries:
                _tnr.record_query(spq.normal, spq.offset, spq.op.value, "topk", k)
        results, plannable = split_fallbacks(
            "batch_topk",
            queries,
            self._translator,
            self._features,
            self._scan_fallback,
            k,
        )
        if plannable:
            batched = self._collection.topk_batch([queries[p] for p in plannable], k)
            for position, result in zip(plannable, batched):
                results[position] = result
        return results

    def explain(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> dict[str, object]:
        """EXPLAIN-style plan for a query, without executing it.

        Returns the selected index (position and normal), the interval
        sizes the plan is based on, and the route the executor would take:
        ``"intervals"`` (pruned evaluation), ``"scan"`` (cost-based
        fallback for an unselective index), or ``"octant-fallback"``
        (parameter signs incompatible with the indexed octant).
        """
        spq = ScalarProductQuery(np.asarray(normal, dtype=np.float64), offset, op)
        try:
            wq = self._collection.working_query(spq)
        except InvalidQueryError as exc:
            return {
                "route": "octant-fallback",
                "reason": str(exc),
                "n_total": len(self),
            }
        position = self._collection._select_position(wq)
        index = self._collection[position]
        r_lo, r_hi, n = index.interval_ranks(wq)
        intermediate = r_hi - r_lo
        route = "scan" if routes_to_scan(r_lo, r_hi, n) else "intervals"
        return {
            "route": route,
            "strategy": self._collection.strategy.value,
            "index_position": position,
            "index_normal": index.normal.copy(),
            "si_size": r_lo,
            "ii_size": intermediate,
            "li_size": n - r_hi,
            "n_total": n,
            "expected_verified": n if route == "scan" else intermediate,
        }

    def explain_report(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> ExplainReport:
        """Structured EXPLAIN report for a query, executing it once.

        Unlike :meth:`explain`, which predicts the plan without running it,
        this runs the query through the exact code path :meth:`query` takes
        and reports measured interval sizes, verification counts, and the
        pruning achieved.  Octant-incompatible queries produce a report for
        the sequential-scan fallback route instead of raising (when
        ``scan_fallback`` is set).
        """
        spq = single_query(normal, offset, op, self._phi.out_dim)
        try:
            return self._collection.explain(spq)
        except InvalidQueryError as exc:
            if not self._scan_fallback:
                raise
            ids = scan_reference(self._features, [spq])[0].ids
            if _ort.active():
                _om.explain_total().inc(route="octant-fallback")
            n = len(self)
            return ExplainReport(
                kind="inequality",
                route="octant-fallback",
                n_total=n,
                n_verified=n,
                n_results=int(ids.size),
                estimated_pruned=0.0,
                actual_pruned=0.0,
                notes=(str(exc),),
            )

    def query_disjunction(self, constraints) -> "ConstraintAnswer":
        """Exact disjunction (OR) of scalar product constraints.

        Same input conventions as :meth:`query_conjunction`.
        """
        from .constraints import DisjunctiveQuery, answer_disjunction

        built = []
        for constraint in constraints:
            if isinstance(constraint, ScalarProductQuery):
                built.append(constraint)
            else:
                built.append(ScalarProductQuery(*constraint))
        return answer_disjunction(
            self._collection, DisjunctiveQuery(built), self._features
        )

    def query_conjunction(self, constraints) -> "ConstraintAnswer":
        """Exact conjunction (AND) of scalar product constraints.

        ``constraints`` is a sequence of ``(normal, offset)`` or
        ``(normal, offset, op)`` tuples, or ready
        :class:`~repro.core.query.ScalarProductQuery` objects.  See
        :mod:`repro.core.constraints` for the multi-index evaluation.
        """
        from .constraints import ConjunctiveQuery, answer_conjunction

        built = []
        for constraint in constraints:
            if isinstance(constraint, ScalarProductQuery):
                built.append(constraint)
            else:
                built.append(ScalarProductQuery(*constraint))
        return answer_conjunction(
            self._collection, ConjunctiveQuery(built), self._features
        )

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 4.4)
    # ------------------------------------------------------------------ #

    def update_points(self, ids: np.ndarray, new_points: np.ndarray) -> None:
        """Change the raw values of existing points and re-key every index."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        new_points = as_2d_float(new_points, "new_points")
        require_finite_rows(new_points, "new_points")
        features = self._phi(new_points)
        # Validate *before* the translator observes the new extremes: a NaN
        # feature row would poison the translator's running min/max and
        # corrupt every later octant translation even though the store
        # rejects the row.
        require_finite_rows(features, "features(new_points)")
        # Growing the translator first keeps Claim 1 valid for the new
        # extremes; stored keys are translation-invariant so no rebuild.
        self._translator.observe(features)
        self._points.update(ids, new_points)
        self._features.update(ids, features)
        self._collection.rekey(ids, features)

    def insert_points(self, new_points: np.ndarray) -> np.ndarray:
        """Add new data points; returns their assigned ids."""
        new_points = as_2d_float(new_points, "new_points")
        require_finite_rows(new_points, "new_points")
        features = self._phi(new_points)
        # Same ordering concern as update_points: reject non-finite feature
        # rows before the translator can absorb them into its extremes.
        require_finite_rows(features, "features(new_points)")
        self._translator.observe(features)
        point_ids = self._points.append(new_points)
        feature_ids = self._features.append(features)
        if not np.array_equal(point_ids, feature_ids):  # pragma: no cover
            raise RuntimeError("point/feature stores diverged")
        self._collection.insert(feature_ids, features)
        return feature_ids

    def delete_points(self, ids: np.ndarray) -> None:
        """Remove points from the index."""
        # Fail before touching the collection: deleting from the indices
        # first and then hitting a read-only (memmap) store would leave
        # the two out of lockstep.
        if not self._features.writable:
            self._features.delete(np.empty(0, dtype=np.int64))  # raises
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        self._collection.delete(ids)
        self._features.delete(ids)
        self._points.delete(ids)

    def add_index(self, normal: np.ndarray) -> bool:
        """Dynamically add one more Planar index (Section 4.2 adaptation)."""
        return self._collection.add_index(normal)

    def drop_index(self, position: int) -> None:
        """Drop the Planar index at ``position`` (Section 4.2 adaptation).

        At least one index must remain; see
        :meth:`~repro.core.collection.PlanarIndexCollection.drop_index`.
        The tuning advisor's :func:`~repro.tuning.advisor.apply_plan`
        retires workload-mismatched normals through this hook.
        """
        self._collection.drop_index(position)
