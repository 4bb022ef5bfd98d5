"""Shared storage of feature vectors ``phi(x)``, addressable by point id.

Every Planar index in a collection sorts the *same* underlying feature
vectors under a different normal, and query verification must fetch feature
rows by point id.  :class:`FeatureStore` centralizes that storage so a
collection of ``r`` indices costs one feature matrix plus ``r`` key arrays —
matching the paper's ``O(n * r)`` space claim with a small constant.

The store is dynamic (Section 4.4): rows can be appended, re-valued, and
deleted.  Ids are stable row handles; deleted ids are never reused so stale
references fail loudly.
"""

from __future__ import annotations

import numpy as np

from .._util import as_2d_float, require_finite_rows
from ..analysis.contracts import array_contract
from ..exceptions import DimensionMismatchError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..reliability import faults as _flt

__all__ = ["FeatureStore"]


class FeatureStore:
    """Growable ``(capacity, d')`` matrix with liveness tracking.

    Invariant: a point id *is* its row position in ``_data``, forever.
    Appends assign ids at the current capacity, deletes only flip the
    liveness bit (rows are never compacted), and dead ids are never
    reused — so ``live_ids()`` can derive ids from positions and row
    gathers can index directly by id without a translation table.
    Anything that compacts or reorders ``_data`` in place would break
    every :class:`~repro.core.sorted_keys.SortedKeyStore` built on top.
    """

    @array_contract("features: (n, d) float64 cast promote")
    def __init__(self, features: np.ndarray) -> None:
        data = as_2d_float(features, "features")
        if data.shape[0] == 0:
            raise ValueError("FeatureStore needs at least one initial feature row")
        require_finite_rows(data, "features")
        self._data = data.copy()
        self._live = np.ones(data.shape[0], dtype=bool)
        self._n_live = int(data.shape[0])
        # Bumped by every mutation (update/append/delete) so read-side
        # caches — e.g. a shard view's materialized row slice — can
        # invalidate with one integer comparison.
        self._version = 0
        self._writable = True

    @classmethod
    def from_backing(cls, data: np.ndarray) -> "FeatureStore":
        """Read-only store over an externally owned (typically memmap) matrix.

        ``data`` is bound directly — no copy, no finiteness re-check (the
        persistence layer checksums what it wrote) — so a multi-GB matrix
        costs nothing to open and its pages are shared across forked
        shard workers.  All rows are live: persistence compacts dead rows
        out at save time.  Mutations raise; load with ``mode="copy"`` to
        get a writable store.
        """
        if data.ndim != 2 or data.dtype != np.float64:
            raise ValueError(
                f"backing must be a float64 matrix, got {data.dtype} {data.shape}"
            )
        store = cls.__new__(cls)
        store._data = data
        store._live = np.ones(data.shape[0], dtype=bool)
        store._n_live = int(data.shape[0])
        store._version = 0
        store._writable = False
        return store

    def _require_writable(self) -> None:
        if not self._writable:
            raise ValueError(
                "this FeatureStore is a read-only (memmap) backing; "
                "load the index with mode='copy' to mutate it"
            )

    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'``."""
        return int(self._data.shape[1])

    def __len__(self) -> int:
        """Number of live rows."""
        return self._n_live

    @property
    def capacity(self) -> int:
        """Total allocated rows (live + deleted)."""
        return int(self._data.shape[0])

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever rows or liveness change."""
        return self._version

    @property
    def writable(self) -> bool:
        """False for read-only (memmap) backings — mutations will raise."""
        return self._writable

    def live_ids(self) -> np.ndarray:
        """Ids of all live rows, ascending.

        Positions and ids coincide by the class invariant (ids are row
        positions and rows are never compacted), so deriving ids from
        ``nonzero(_live)`` is exact even after delete/append churn —
        pinned by ``test_live_ids_survive_churn``.
        """
        return np.nonzero(self._live)[0].astype(np.int64)

    def is_live(self, point_id: int) -> bool:
        """Whether ``point_id`` refers to a live row."""
        return 0 <= int(point_id) < self.capacity and bool(self._live[int(point_id)])

    def memory_bytes(self) -> int:
        """Heap footprint of the backing arrays."""
        return int(self._data.nbytes + self._live.nbytes)

    # ------------------------------------------------------------------ #

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise DimensionMismatchError(f"ids must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.capacity):
            raise KeyError(f"point id out of range [0, {self.capacity})")
        dead = ids[~self._live[ids]]
        if dead.size:
            raise KeyError(f"point ids not live: {dead[:5].tolist()}")
        return ids

    @array_contract("ids: (m,) int64 cast", returns="(m, d) float64")
    def get(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for the given live ids (copy)."""
        if _flt.ARMED:
            _flt.check("store.get_features", n=int(np.size(ids)))
        ids = self._check_ids(ids)
        return self._data[ids]

    @array_contract("ids: (m,) int64 C", returns="(m, d) float64")
    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        """Unvalidated row gather for internal hot paths.

        Callers must pass ids they obtained from this store (query
        verification does: the interval ids come from a key store that is
        maintained in lockstep).  ``numpy.take`` over pre-sorted ids is
        several times faster than checked fancy indexing, which dominates
        query latency otherwise.
        """
        if _ort.active():
            _om.rows_gathered().inc(ids.size)
        return np.take(self._data, ids, axis=0)

    def get_all(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` for every live row."""
        ids = self.live_ids()
        return ids, self._data[ids]

    @array_contract("normal: (d,) float64 cast")
    def scan_values(self, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, <normal, row>)`` for every live row via one matmul.

        This is the streaming evaluation a sequential scan performs; the
        collection's cost-based router uses it when an index's intermediate
        interval would be more expensive to verify than scanning.
        """
        if _ort.active():
            _om.store_scans().inc()
        values = self._data @ np.ascontiguousarray(normal, dtype=np.float64)
        if self._n_live == self.capacity:
            return np.arange(self.capacity, dtype=np.int64), values
        ids = self.live_ids()
        return ids, values[ids]

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def update(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Replace the feature vectors of existing live rows."""
        self._require_writable()
        ids = self._check_ids(ids)
        rows = as_2d_float(rows, "rows")
        if rows.shape != (ids.size, self.dim):
            raise DimensionMismatchError(
                f"rows have shape {rows.shape}, expected ({ids.size}, {self.dim})"
            )
        require_finite_rows(rows, "rows")
        self._data[ids] = rows
        self._version += 1

    @array_contract("rows: (m, d) float64 cast promote", returns="(m,) int64")
    def append(self, rows: np.ndarray) -> np.ndarray:
        """Add new rows; returns their freshly assigned ids."""
        self._require_writable()
        rows = as_2d_float(rows, "rows")
        if rows.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"rows have dimension {rows.shape[1]}, store has {self.dim}"
            )
        require_finite_rows(rows, "rows")
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        start = self.capacity
        self._data = np.vstack([self._data, rows])
        self._live = np.concatenate([self._live, np.ones(rows.shape[0], dtype=bool)])
        self._n_live += rows.shape[0]
        self._version += 1
        return np.arange(start, start + rows.shape[0], dtype=np.int64)

    @array_contract("ids: (m,) int64 cast")
    def delete(self, ids: np.ndarray) -> None:
        """Mark rows dead; their ids become permanently invalid."""
        self._require_writable()
        ids = self._check_ids(ids)
        unique = np.unique(ids)
        if unique.size != ids.size:
            raise ValueError("delete ids must be unique")
        self._live[ids] = False
        self._n_live -= int(ids.size)
        self._version += 1
