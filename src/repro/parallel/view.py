"""A shard's window onto the shared :class:`~repro.core.feature_store.FeatureStore`.

Each shard of the parallel engine owns a :class:`FeatureStoreView` — the
same object shape a :class:`~repro.core.collection.PlanarIndexCollection`
expects, restricted to the ids the shard owns.  Point ids stay *global*:
row gathers (``take_rows``) delegate straight to the base store, so the
hot verification path pays zero indirection, while enumeration surfaces
(``live_ids`` / ``get_all`` / ``scan_values``) filter by the shard
predicate.  Because membership is a pure function of the id
(:mod:`repro.parallel.sharding`), the view carries no state that could
drift from the base store under inserts and deletes.
"""

from __future__ import annotations

import numpy as np

from ..core.feature_store import FeatureStore
from ..obs import metrics as _om
from ..obs import runtime as _ort
from .sharding import assign_shards

__all__ = ["FeatureStoreView"]


class FeatureStoreView:
    """Read-only shard slice of a shared feature store.

    Mutations (append/update/delete) go through the base store — the
    engine owns that lifecycle and tells each shard's collection which of
    its ids changed.  The view only answers reads, restricted to the ids
    for which ``assign_shards(id) == shard``.
    """

    __slots__ = ("_base", "_shard", "_n_shards", "_policy", "_ids_cache", "_rows_cache")

    def __init__(
        self, base: FeatureStore, shard: int, n_shards: int, policy: str
    ) -> None:
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard {shard} out of range [0, {n_shards})")
        self._base = base
        self._shard = int(shard)
        self._n_shards = int(n_shards)
        self._policy = str(policy)
        # Memoized owned live ids and (lazily) the matching contiguous row
        # slice, both keyed by the base store's mutation ``version``.
        # Recomputing membership over the whole base per scan would make
        # ``S`` shards do ``S`` times the id work of one monolithic scan,
        # and scattered row gathers cost as much as the scan matmul
        # itself — the materialized slice turns shard scans back into
        # contiguous streams.  Each cache is one tuple so a racing
        # recompute in another pool thread is benign (last writer wins,
        # both values correct for their version).
        self._ids_cache: tuple[int, np.ndarray] | None = None
        self._rows_cache: tuple[int, np.ndarray] | None = None

    # ------------------------------------------------------------------ #

    @property
    def base(self) -> FeatureStore:
        """The shared store this view restricts."""
        return self._base

    @property
    def shard(self) -> int:
        """Which shard this view exposes."""
        return self._shard

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'`` (same as the base store)."""
        return self._base.dim

    def _owned(self, ids: np.ndarray) -> np.ndarray:
        """Subset of ``ids`` owned by this shard (order preserved)."""
        mask = assign_shards(ids, self._n_shards, self._policy) == self._shard
        return ids[mask]

    def live_ids(self) -> np.ndarray:
        """Live ids owned by this shard, ascending (memoized).

        O(1) in the steady state; O(n_base) only after a base-store
        mutation (the ``version`` stamp moves).
        """
        version = self._base.version
        cached = self._ids_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        ids = self._owned(self._base.live_ids())
        ids.setflags(write=False)
        self._ids_cache = (version, ids)
        return ids

    def _local_rows(self) -> np.ndarray:
        """Contiguous copy of this shard's live rows (memoized).

        Materialized lazily on the first scan after a mutation; across all
        shards the caches add up to at most one extra copy of the live
        feature matrix — the price of giving every shard a streamable
        local slice, exactly as a distributed deployment would hold its
        partition locally.
        """
        version = self._base.version
        cached = self._rows_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        rows = self._base.take_rows(self.live_ids())
        rows.setflags(write=False)
        self._rows_cache = (version, rows)
        return rows

    def __len__(self) -> int:
        """Number of live rows owned by this shard."""
        return int(self.live_ids().size)

    def is_live(self, point_id: int) -> bool:
        """Whether ``point_id`` is live *and* owned by this shard."""
        owned = (
            int(assign_shards(np.asarray([point_id]), self._n_shards, self._policy)[0])
            == self._shard
        )
        return owned and self._base.is_live(point_id)

    def memory_bytes(self) -> int:
        """Footprint of the view's memoized id/row caches."""
        total = 0
        if self._ids_cache is not None:
            total += int(self._ids_cache[1].nbytes)
        if self._rows_cache is not None:
            total += int(self._rows_cache[1].nbytes)
        return total

    # ------------------------------------------------------------------ #

    def get(self, ids: np.ndarray) -> np.ndarray:
        """Validated feature rows for the given live ids (global ids)."""
        return self._base.get(ids)

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        """Unvalidated gather on the shared matrix — the hot path.

        Interval ids come from this shard's own key stores, which are
        maintained in lockstep with the shard's membership, so the base
        store's trust contract holds unchanged.
        """
        return self._base.take_rows(ids)

    def get_all(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` for every live row owned by this shard."""
        return self.live_ids(), self._local_rows()

    def scan_values(self, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shard-restricted streaming scan: ``(ids, <normal, row>)``.

        Streams the memoized contiguous slice, so ``S`` shards scanning
        concurrently together do the same arithmetic as one monolithic
        scan — split ``S`` ways.
        """
        if _ort.active():
            _om.store_scans().inc()
        ids = self.live_ids()
        values = self._local_rows() @ np.ascontiguousarray(normal, dtype=np.float64)  # repro: noqa(REP001) — shard-local scan, cost-routed by the collection
        return ids, values
