"""Sharded parallel query execution over the Planar index machinery.

:class:`ShardedFunctionIndex` mirrors the
:class:`~repro.core.function_index.FunctionIndex` facade but partitions the
data into ``S`` shards, each owning its own
:class:`~repro.core.collection.PlanarIndexCollection` over a
:class:`~repro.parallel.view.FeatureStoreView` of one shared feature store.
Queries fan out across shards on a thread pool by default — numpy releases
the GIL inside ``matmul`` and ``searchsorted``, so the per-shard interval
splits and verification products genuinely overlap without process-level
parallelism.  ``backend="process"`` (or ``REPRO_SHARD_BACKEND=process``)
switches query fan-outs to forked worker processes
(:mod:`repro.parallel.process`), which also overlap the pure-Python
sections and share memmap'd store pages; answers are bit-identical across
backends.

Exactness
---------
Results are *bit-identical* to the monolithic path:

* Point ids are global (the shared store assigns them); each shard answers
  over a disjoint id subset, so inequality/range answers merge by one
  ``sort(concatenate(...))`` into exactly the monolithic sorted id array.
* All shards share one translator and the same index normals, so octant
  validation, query canonicalization, and per-point scalar products are
  the same floating-point computations as the monolithic path.
* Top-k runs Algorithm 2 once per shard against a *shared* pruning
  threshold (:class:`~repro.core.topk.SharedCutoff`): each shard's
  buffered k-th distance is an upper bound on the global k-th best (the
  shard exhibits ``k`` real points at or below it), so folding the
  minimum of all published bounds into every shard's LBS cutoff preserves
  Claim 3 while letting one shard's good candidates terminate another
  shard's scan.  The strict cutoff comparison keeps boundary candidates,
  so tie-breaks by id survive the merge through
  :class:`~repro.core.topk.TopKBuffer` unchanged.

Execution
---------
Every query op hands its shard work to the fan-out as one *shard task*
``(kind, args)`` — the :class:`~repro.core.collection.PlanarIndexCollection`
method named by :data:`~repro.parallel.process.SHARD_METHODS` and its
arguments.  One wave method runs a task on a list of shards: inline when
the layout has one shard and no deadline (shard 0 *is* the monolithic
collection, so ``n_shards=1`` costs only the facade indirection), else
on the thread or the process pool; the first wave and every retry go
through it, and one loop collects its results and failures.  There is
no separate fast path: with faults disarmed and obs off, a pool thread
simply runs the bound collection method with no wrapper frame.

Fault tolerance (see ``docs/reliability.md``)
---------------------------------------------
Each fan-out wave collects per-shard results under an optional per-query
deadline (``query_timeout_s``).  A shard failure is handled per the
configured :class:`~repro.reliability.degraded.FailurePolicy`:

``raise``
    Propagate a :class:`~repro.exceptions.ShardFailureError` carrying the
    failed shard's identity and fan-out kind; still-pending futures are
    cancelled instead of leaking work.
``degrade``
    Recover the failed shards by an exact sequential scan of their live
    points when possible; shards that cannot be recovered are dropped and
    the answer carries a :class:`~repro.reliability.degraded.DegradedInfo`
    with the exact live-point completeness fraction.
``retry_then_degrade``
    Re-execute failed shards (bounded attempts, exponential backoff with
    deterministic jitter) before falling back to ``degrade`` handling.

Failed shards never contribute partial results — a shard either returns
its complete slice (primary, retry, or recovery scan: all exact) or is
excluded and accounted for — so every id in a degraded answer is correct.
Maintenance fan-outs retry under ``retry_then_degrade`` but never degrade:
a mutation that cannot be applied raises, because silently dropping a
shard's update would corrupt the partition.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .._util import as_2d_float, as_rng, require_finite_rows
from ..core.collection import PlanarIndexCollection
from ..core.domains import QueryModel
from ..core.feature_store import FeatureStore
from ..core.function_index import (
    QueryAnswer,
    batch_queries,
    octant_fallback,
    range_queries,
    scan_reference,
    single_query,
    split_fallbacks,
)
from ..core.phi import FeatureMap, identity_map
from ..core.planar import QueryResult, WorkingQuery
from ..core.query import Comparison, ScalarProductQuery, check_k
from ..core.selection import SelectionStrategy
from ..core.stats import QueryStats, trace_fields
from ..core.topk import SharedCutoff, TopKBuffer, TopKResult
from ..exceptions import (
    DegradedAnswerError,
    DimensionMismatchError,
    IndexBuildError,
    InjectedFaultError,
    InvalidQueryError,
    QueryTimeoutError,
    ReproError,
    ShardFailureError,
)
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..obs import trace as _otr
from ..reliability import faults as _flt
from ..reliability.degraded import DegradedInfo, FailurePolicy
from ..tuning import recorder as _tnr
from . import process as _prc
from .sharding import SHARD_POLICIES, assign_shards
from .view import FeatureStoreView

__all__ = ["ShardedFunctionIndex", "SHARD_BACKENDS"]

_T = TypeVar("_T")

#: Supported shard fan-out backends.
SHARD_BACKENDS = ("thread", "process")

#: Exception families treated as *caller errors* during maintenance:
#: deterministic validation failures that every shard would report
#: identically, re-raised unwrapped so existing error contracts hold.
_CALLER_ERRORS = (ValueError, KeyError, IndexError, TypeError)


def _is_shard_fault(error: BaseException) -> bool:
    """Whether ``error`` is an operational shard failure (vs caller error)."""
    if isinstance(error, (InjectedFaultError, ShardFailureError, TimeoutError)):
        return True
    if isinstance(error, ReproError):
        return False
    if isinstance(error, _CALLER_ERRORS):
        return False
    return True


class ShardedFunctionIndex:
    """Sharded drop-in for :class:`~repro.core.function_index.FunctionIndex`.

    Parameters follow the monolithic facade, plus:

    n_shards:
        Number of data partitions ``S``.  ``1`` (the default) keeps the
        monolithic layout and executes inline.
    policy:
        Shard-membership policy, ``"round_robin"`` or ``"hash"``
        (:mod:`repro.parallel.sharding`).
    max_workers:
        Worker-pool size for the fan-out; defaults to
        ``min(n_shards, cpu_count)``.
    backend:
        Fan-out backend, ``"thread"`` (default) or ``"process"``.
        Threads overlap the GIL-releasing numpy sections; processes
        (fork-based, see :mod:`repro.parallel.process`) overlap the
        pure-Python sections too and share memmap'd store pages.
        ``None`` resolves ``REPRO_SHARD_BACKEND`` at construction,
        falling back to ``thread``.  Answers are bit-identical across
        backends.
    failure_policy:
        What to do when a shard of a fan-out fails:
        :class:`~repro.reliability.degraded.FailurePolicy` or its string
        name.  ``None`` (the default) resolves ``REPRO_FAULT_POLICY`` at
        construction, falling back to ``raise``.
    query_timeout_s:
        Per-query deadline for each fan-out wave; a shard that has not
        produced its slice by then counts as failed with a
        :class:`~repro.exceptions.QueryTimeoutError`.  ``None`` disables
        deadlines.
    max_retries:
        Bounded retry attempts per failed shard under
        ``retry_then_degrade`` (also applied to maintenance fan-outs).
    retry_backoff_s:
        Base backoff before retry attempt ``i``: the engine sleeps
        ``retry_backoff_s * 2**(i-1)`` scaled by a deterministic jitter
        in ``[0.5, 1.5)``.  The jitter uses its own fixed-seed RNG — not
        the engine's ``rng`` — so retries never perturb index-selection
        draws and answers stay bit-identical to the monolithic path.

    The engine is also a context manager; :meth:`close` shuts the pool
    down (idempotent, never raises, runs on ``__exit__`` even when the
    body raised).
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
        n_shards: int = 1,
        policy: str = "round_robin",
        max_workers: int | None = None,
        failure_policy: FailurePolicy | str | None = None,
        query_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        backend: str | None = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {policy!r}; choose from {SHARD_POLICIES}"
            )
        if backend is None:
            backend = os.environ.get("REPRO_SHARD_BACKEND", "").strip() or "thread"
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {backend!r}; choose from {SHARD_BACKENDS}"
            )
        if backend == "process" and not _prc.fork_available():
            raise ValueError(
                "backend='process' requires the fork start method, which this "
                "platform does not provide; use backend='thread'"
            )
        if query_timeout_s is not None and not query_timeout_s > 0:
            raise ValueError(
                f"query_timeout_s must be positive or None, got {query_timeout_s}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
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
        self._n_shards = int(n_shards)
        self._trace_attrs = {"shards": self._n_shards}
        self._policy = str(policy)
        self._max_workers = (
            min(self._n_shards, os.cpu_count() or 1)
            if max_workers is None
            else int(max_workers)
        )
        self._executor: ThreadPoolExecutor | None = None
        self._backend = str(backend)
        self._process_pool: _prc.ProcessShardPool | None = None
        self._failure_policy = FailurePolicy.parse(failure_policy)
        self._query_timeout_s = (
            None if query_timeout_s is None else float(query_timeout_s)
        )
        self._max_retries = int(max_retries)
        self._retry_backoff_s = float(retry_backoff_s)
        # Deterministic retry jitter.  Deliberately NOT self._rng: the
        # selection strategy may consume self._rng per query, so any extra
        # draw here would desynchronize sharded answers from FunctionIndex.
        self._jitter = random.Random(0)

        self._points = FeatureStore(pts)
        features = feature_map(pts)
        self._features = FeatureStore(features)
        self._translator = Translator(query_model.octant(), margin=margin)
        self._translator.observe(features)

        if normals is None:
            if n_indices <= 0:
                raise IndexBuildError(
                    f"index budget must be positive, got {n_indices}"
                )
            normals = query_model.sample_normals(n_indices, self._rng)
        normals = np.ascontiguousarray(normals, dtype=np.float64)

        # Every shard indexes the same normals over its own slice of the
        # shared store; the single-shard layout *is* the monolithic one.
        self._stores: list[FeatureStore | FeatureStoreView] = []
        self._collections: list[PlanarIndexCollection] = []
        for shard in range(self._n_shards):
            store: FeatureStore | FeatureStoreView
            if self._n_shards == 1:
                store = self._features
                prefix = ""
            else:
                store = FeatureStoreView(
                    self._features, shard, self._n_shards, self._policy
                )
                prefix = f"s{shard}:"
            self._stores.append(store)
            self._collections.append(
                PlanarIndexCollection(
                    store,
                    self._translator,
                    normals,
                    strategy,
                    self._rng,
                    obs_prefix=prefix,
                )
            )
        self._record_shard_sizes()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down the fan-out worker pools (thread and process).

        Idempotent and exception-safe: each pool reference is cleared
        *before* shutdown, and shutdown errors are swallowed — teardown
        must never mask the exception that triggered it.
        """
        self._invalidate_process_pool()
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # repro: noqa(REP005) — close() must never raise (teardown path)
            pass

    def _invalidate_process_pool(self) -> None:
        """Discard the forked worker pool (mutation barrier / teardown).

        Workers snapshot the engine at fork time, so every mutation calls
        this before changing state; the next process fan-out forks a
        fresh pool that sees the current stores, keys, and translator.
        Never raises — it runs on teardown paths too.
        """
        pool, self._process_pool = self._process_pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:  # repro: noqa(REP005) — teardown must never mask the mutation/exception that triggered it
            pass

    def __enter__(self) -> "ShardedFunctionIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-shard",
            )
        return self._executor

    def _ensure_process_pool(self) -> _prc.ProcessShardPool:
        pool = self._process_pool
        if pool is not None and pool.fault_generation != _flt.GENERATION:
            # arm()/disarm() happened after the workers forked; their
            # inherited plan is stale, so refork under the current one.
            self._invalidate_process_pool()
            pool = None
        if pool is None:
            pool = _prc.ProcessShardPool(self, self._max_workers)
            self._process_pool = pool
        return pool

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of live indexed points (across all shards)."""
        return len(self._features)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedFunctionIndex(n={len(self)}, shards={self._n_shards}, "
            f"policy={self._policy!r}, r={self.n_indices})"
        )

    @property
    def n_shards(self) -> int:
        """Number of data partitions."""
        return self._n_shards

    @property
    def policy(self) -> str:
        """Shard-membership policy."""
        return self._policy

    @property
    def backend(self) -> str:
        """Resolved fan-out backend (``thread`` or ``process``)."""
        return self._backend

    @property
    def failure_policy(self) -> FailurePolicy:
        """The resolved shard-failure policy (fixed at construction)."""
        return self._failure_policy

    @property
    def query_timeout_s(self) -> float | None:
        """Per-query fan-out deadline in seconds (None = no deadline)."""
        return self._query_timeout_s

    @property
    def feature_map(self) -> FeatureMap:
        """The indexed function ``phi``."""
        return self._phi

    @property
    def query_model(self) -> QueryModel:
        """The configured query-parameter domains."""
        return self._model

    @property
    def translator(self) -> Translator:
        """The octant translator shared by every shard."""
        return self._translator

    @property
    def collections(self) -> tuple[PlanarIndexCollection, ...]:
        """Per-shard Planar index collections."""
        return tuple(self._collections)

    @property
    def n_indices(self) -> int:
        """Number of live Planar indices per shard."""
        return len(self._collections[0])

    def shard_sizes(self) -> list[int]:
        """Live point count owned by each shard."""
        return [len(store) for store in self._stores]

    def live_ids(self) -> np.ndarray:
        """All live point ids (global, ascending)."""
        return self._features.live_ids()

    def get_points(self, ids: np.ndarray) -> np.ndarray:
        """Raw data points for the given ids."""
        return self._points.get(ids)

    def get_features(self, ids: np.ndarray) -> np.ndarray:
        """Feature vectors ``phi(x)`` for the given ids."""
        return self._features.get(ids)

    def memory_bytes(self) -> int:
        """Footprint of features, raw points, and all shard key structures."""
        return (
            self._features.memory_bytes()
            + self._points.memory_bytes()
            + sum(collection.memory_bytes() for collection in self._collections)
        )

    def _record_shard_sizes(self) -> None:
        if not _ort.active():
            return
        gauge = _om.shard_points()
        for shard, store in enumerate(self._stores):
            gauge.set(len(store), shard=str(shard))

    # ------------------------------------------------------------------ #
    # Fan-out machinery
    # ------------------------------------------------------------------ #

    def _run_shard(
        self,
        kind: str,
        shard: int,
        args: tuple,
        fired: tuple = (),
        ctx: _otr.TraceContext | None = None,
    ) -> Any:
        """Run one shard task on this thread, with per-shard telemetry.

        ``ctx`` is the issuing query's trace context, re-entered here so a
        pool thread inherits the stitched span tree (sampled traces) or the
        sampling mute (unsampled ones); ``None`` when the task runs inline.
        The ``shard.query`` faults the wave ``fired`` act *before* the
        work, so injected failures never leave partial shard state behind.
        A sampled trace gets a ``shard.<kind>`` span with the trace id and
        cost counters, so the collection spans nest under it.
        """
        with _otr.attach(ctx):
            if fired:
                _flt.act(fired, "shard.query", shard=shard, kind=kind)
            collection = self._collections[shard]
            if not _ort.active():
                return _prc.run_shard_task(collection, kind, args)
            trace = _otr.current()
            attrs = {} if trace is None else {"trace_id": trace.trace_id}
            result, _ = _prc.run_traced_shard_task(collection, kind, args, shard=shard, **attrs)
            _om.shard_queries_total().inc(kind=kind, shard=str(shard))
            return result

    def _wave(
        self,
        kind: str,
        args: tuple,
        shards: Sequence[int],
        timeout_s: float | None,
        fail_fast: bool,
    ) -> tuple[dict[int, Any], dict[int, BaseException]]:
        """Run the shard task ``(kind, args)`` on ``shards``; collect outcomes.

        The task runs inline when the layout has one shard and no
        deadline, else on the forked worker pool (``backend="process"``)
        or the thread pool.  ``shard.query`` faults are decided here, in
        shard order, as the wave submits, and act where the shard runs, so
        a seeded plan replays on every backend.  With faults disarmed and
        obs off, a pool thread runs the bound collection method directly.

        One loop collects every backend's futures.  With ``timeout_s``
        each result is awaited only for the rest of the wave's budget;
        misses become :class:`QueryTimeoutError` and the stale future is
        cancelled.  Under ``fail_fast`` the first failure cancels every
        not-yet-started future (and a disarmed inline shard's own
        exception propagates unwrapped).  A broken process pool (worker
        hard death) fails the affected shards and is discarded, so the
        next fan-out forks a fresh one.
        """
        results: dict[int, Any] = {}
        failures: dict[int, BaseException] = {}
        armed = _flt.ARMED
        if self._n_shards == 1 and timeout_s is None:
            fired = _flt.fire("shard.query", shard=0, kind=kind) if armed else ()
            try:
                results[0] = self._run_shard(kind, 0, args, fired)
            except Exception as exc:  # repro: noqa(REP005) — fan-out failure boundary, classified by policy
                if fail_fast and not armed:
                    raise
                failures[0] = exc
            return results, failures
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        ctx = _otr.current()
        pool = None
        if self._backend == "process" and self._n_shards > 1:
            pool = self._ensure_process_pool()
            sampled = bool(ctx is not None and ctx.sampled and _ort.ENABLED)
            trace_id = ctx.trace_id if sampled and ctx is not None else None
        else:
            executor = self._ensure_executor()
            direct = not armed and not _ort.ENABLED
        futures = {}
        for shard in shards:
            fired = _flt.fire("shard.query", shard=shard, kind=kind) if armed else ()
            if pool is not None:
                futures[shard] = pool.submit(shard, kind, args, fired, trace_id, sampled)
            elif direct:
                method = getattr(self._collections[shard], _prc.SHARD_METHODS[kind])
                futures[shard] = executor.submit(method, *args)
            else:
                futures[shard] = executor.submit(
                    self._run_shard, kind, shard, args, fired, ctx
                )
        broken = False
        for shard, future in futures.items():
            if fail_fast and failures:
                future.cancel()
                continue
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                result = future.result(timeout=remaining)
            except _FutTimeout:
                future.cancel()
                failures[shard] = QueryTimeoutError(
                    f"shard {shard} missed the {timeout_s}s deadline during {kind} fan-out",
                    shard=shard,
                    kind=kind,
                )
                continue
            except Exception as exc:  # repro: noqa(REP005) — fan-out failure boundary, classified by policy
                failures[shard] = exc
                broken = broken or isinstance(exc, BrokenProcessPool)
                if pool is not None and _ort.ENABLED and isinstance(exc, InjectedFaultError):
                    # A deeper site (store.get_features) fired in the worker and
                    # was counted into its registry copy, which died with the task.
                    if exc.site not in (None, "shard.query"):
                        _om.faults_injected_total().inc(site=exc.site, kind="error")
                continue
            if pool is not None:
                # Graft the worker's span tree under the query root and fold
                # its metric deltas into this registry, as threads would.
                result, span, metrics = result
                if span is not None and ctx is not None and ctx.root is not None:
                    ctx.root.children.append(span)
                if metrics is not None:
                    _om.registry().restore(metrics)
                if _ort.active():
                    _om.shard_queries_total().inc(kind=kind, shard=str(shard))
            results[shard] = result
        if broken:
            self._invalidate_process_pool()
        return results, failures

    def _wrap_failure(
        self, kind: str, shard: int, error: BaseException
    ) -> ShardFailureError:
        """Attach shard identity to a propagated fan-out failure."""
        if isinstance(error, ShardFailureError):
            return error
        return ShardFailureError(
            f"shard {shard} failed during {kind} fan-out: "
            f"{type(error).__name__}: {error}",
            shard=shard,
            kind=kind,
        )

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (exponential, deterministic jitter)."""
        if self._retry_backoff_s <= 0:
            return
        delay = self._retry_backoff_s * (2 ** (attempt - 1))
        delay *= 0.5 + self._jitter.random()
        time.sleep(delay)

    def _record_retry(
        self, kind: str, shards: Sequence[int], attempt: int, started: float
    ) -> None:
        # Reliability counters stay exact under head sampling (ENABLED),
        # while the span only joins sampled traces (active()).
        if not _ort.ENABLED:  # repro: noqa(REP012) — thread-shared flag; a process-pool backend must re-enable obs per worker
            return
        _om.shard_retries_total().inc(len(shards), kind=kind)
        if _ort.active():
            _osp.record(
                "shard.retry", started, kind=kind, attempt=attempt, shards=len(shards)
            )

    def _record_degraded(self, kind: str, degraded: DegradedInfo) -> None:
        if not _ort.ENABLED:  # repro: noqa(REP012) — thread-shared flag; a process-pool backend must re-enable obs per worker
            return
        _om.degraded_queries_total().inc(kind=kind)
        if _ort.active():
            _osp.record(
                "shard.degrade",
                time.perf_counter(),
                kind=kind,
                failed=len(degraded.failed_shards),
                recovered=len(degraded.recovered_shards),
                completeness=round(degraded.completeness, 6),
            )

    def _map_shards(
        self,
        kind: str,
        args: tuple,
        recover: Callable[[int], Any] | None = None,
        timeout_s: float | None = None,
    ) -> tuple[list[Any], DegradedInfo | None]:
        """Run the shard task ``(kind, args)`` on every shard under the policy.

        ``kind`` names the :class:`PlanarIndexCollection` method (see
        :data:`~repro.parallel.process.SHARD_METHODS`) and ``args`` its
        arguments; :meth:`_wave` runs the first wave and every retry.
        ``timeout_s`` overrides the engine's construction-time
        ``query_timeout_s`` for this one fan-out — the serving layer
        passes a request's remaining deadline budget here so the engine
        wave honors the end-to-end contract instead of a static knob.

        Returns ``(results, degraded)`` where ``results[shard]`` is the
        shard's slice (or ``None`` for an unrecovered shard under a
        degrading policy) and ``degraded`` is ``None`` unless at least one
        shard failed its primary execution.  Raises
        :class:`ShardFailureError` (with shard identity) under
        ``FailurePolicy.RAISE`` and :class:`DegradedAnswerError` when no
        shard survives.
        """
        policy = self._failure_policy
        timeout = self._query_timeout_s if timeout_s is None else float(timeout_s)
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout}")
        shards = list(range(self._n_shards))
        results, failures = self._wave(
            kind, args, shards, timeout, fail_fast=policy is FailurePolicy.RAISE
        )
        if not failures:
            return [results[shard] for shard in shards], None
        first_shard = min(failures)
        first_error = failures[first_shard]
        if policy is FailurePolicy.RAISE:
            raise self._wrap_failure(kind, first_shard, first_error) from first_error
        retries = 0
        retry_recovered: list[int] = []
        if policy is FailurePolicy.RETRY_THEN_DEGRADE:
            for attempt in range(1, self._max_retries + 1):
                if not failures:
                    break
                retry_shards = sorted(failures)
                started = time.perf_counter()
                self._backoff(attempt)
                recovered_wave, failures = self._wave(
                    kind, args, retry_shards, timeout, fail_fast=False
                )
                retries += len(retry_shards)
                results.update(recovered_wave)
                retry_recovered.extend(recovered_wave)
                self._record_retry(kind, retry_shards, attempt, started)
        scan_recovered: list[int] = []
        failed: list[int] = []
        for shard in sorted(failures):
            if recover is None:
                failed.append(shard)
                continue
            try:
                if _flt.ARMED:
                    _flt.check("shard.scan", shard=shard, kind=kind)
                obs_on = _ort.active()
                started = time.perf_counter() if obs_on else 0.0
                results[shard] = recover(shard)
                scan_recovered.append(shard)
                if obs_on:
                    _osp.record(
                        "shard.recover",
                        started,
                        shard=shard,
                        kind=kind,
                        **_prc.shard_cost(results[shard]),
                    )
            except Exception:  # repro: noqa(REP005) — recovery is best-effort; failures are accounted, not raised
                failed.append(shard)
        if len(failed) == self._n_shards:
            raise DegradedAnswerError(
                f"every shard failed during {kind} fan-out; no degraded "
                f"answer is possible (first cause: "
                f"{type(first_error).__name__}: {first_error})"
            ) from first_error
        sizes = self.shard_sizes()
        total = sum(sizes)
        dead = set(failed)
        covered = sum(size for shard, size in enumerate(sizes) if shard not in dead)
        degraded = DegradedInfo(
            failed_shards=tuple(failed),
            recovered_shards=tuple(sorted(set(retry_recovered) | set(scan_recovered))),
            cause=f"{type(first_error).__name__}: {first_error}",
            completeness=(covered / total) if total else 1.0,
            retries=retries,
        )
        self._record_degraded(kind, degraded)
        return [results.get(shard) for shard in shards], degraded

    def _owned(self, ids: np.ndarray) -> list[np.ndarray]:
        """Boolean ownership masks of ``ids`` for every shard."""
        assignment = assign_shards(ids, self._n_shards, self._policy)
        return [assignment == shard for shard in range(self._n_shards)]

    def _working_or_raise(self, spq: ScalarProductQuery) -> WorkingQuery:
        """Octant-validate once (the translator is shared by all shards)."""
        return WorkingQuery.build(spq, self._translator)

    @staticmethod
    def _merge_inequality(
        results: Sequence[QueryResult | None],
        degraded: DegradedInfo | None = None,
    ) -> QueryAnswer:
        """Disjoint sorted id sets merge into the monolithic sorted array.

        ``None`` entries (unrecovered shards under a degrading policy) are
        skipped; their absence is what ``degraded.completeness`` accounts.
        """
        present = [result for result in results if result is not None]
        if len(present) == 1:
            only = present[0]
            return QueryAnswer(only.ids, only.stats, False, degraded)
        ids = np.sort(np.concatenate([result.ids for result in present]))
        return QueryAnswer(
            ids, QueryStats.merge([result.stats for result in present]), False, degraded
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _trace_fields(self, result: object) -> dict:
        """Finish fields of a query-op trace (see :func:`trace_fields`)."""
        return trace_fields(result, self._n_shards)

    @_otr.traced("inequality")
    def query(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> QueryAnswer:
        """Answer ``<normal, phi(x)> OP offset`` exactly, fanned across shards."""
        spq = single_query(normal, offset, op, self._phi.out_dim)
        if _tnr.RECORDING:
            _tnr.record_query(spq.normal, spq.offset, spq.op.value, "inequality")
        try:
            self._working_or_raise(spq)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("inequality", self._features, spq)
        results, degraded = self._map_shards(
            "inequality",
            (spq,),
            recover=lambda shard: scan_reference(self._stores[shard], [spq])[0],
        )
        return self._merge_inequality(results, degraded)

    def query_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        op: Comparison | str = Comparison.LE,
        *,
        timeout_s: float | None = None,
    ) -> list[QueryAnswer]:
        """Answer a batch of inequality queries sharing one operator.

        The whole plannable batch is shipped to every shard as *one* task
        (each shard batches its own binary searches per selected index),
        so fan-out overhead is per shard, not per query.  The batch is
        one trace: per-query shard work appears as children of a single
        ``query.batch`` root.

        ``timeout_s`` overrides the engine's ``query_timeout_s`` for this
        call — the serving layer passes each coalesced batch's remaining
        deadline budget here.

        Validation and the empty-batch short-circuit run *before* the
        trace opens: a malformed or zero-query batch emits no trace, no
        spans, and no counters (it did no fan-out work to account for).
        """
        queries = batch_queries(normals, offsets, op, self._phi.out_dim)
        return self._query_batch(queries, timeout_s) if queries else []

    @_otr.traced("batch")
    def _query_batch(
        self, queries: list[ScalarProductQuery], timeout_s: float | None
    ) -> list[QueryAnswer]:
        """Traced body of :meth:`query_batch` (queries already checked)."""
        if _tnr.RECORDING:
            for spq in queries:
                _tnr.record_query(spq.normal, spq.offset, spq.op.value, "batch")
        answers, plannable = split_fallbacks(
            "batch", queries, self._translator, self._features, self._scan_fallback
        )
        if plannable:
            subset = [queries[position] for position in plannable]
            per_shard, degraded = self._map_shards(
                "batch",
                (subset,),
                recover=lambda shard: scan_reference(self._stores[shard], subset),
                timeout_s=timeout_s,
            )
            lost = [None] * len(subset)  # an unrecovered shard's slices
            per_query = zip(*(lost if part is None else part for part in per_shard))
            for position, slices in zip(plannable, per_query):
                answers[position] = self._merge_inequality(slices, degraded)
        return answers

    @_otr.traced("range")
    def query_range(
        self,
        normal: np.ndarray,
        low: float,
        high: float,
    ) -> QueryAnswer:
        """Exact BETWEEN query: ``low <= <normal, phi(x)> <= high``."""
        low_q, high_q = range_queries(normal, low, high, self._phi.out_dim)
        if _tnr.RECORDING:
            # One sketch per bound (same normal, both operators).
            _tnr.record_query(low_q.normal, low, ">=", "range")
            _tnr.record_query(high_q.normal, high, "<=", "range")
        try:
            wq_low = self._working_or_raise(low_q)
            wq_high = self._working_or_raise(high_q)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("range", self._features, (low_q, high_q))
        results, degraded = self._map_shards(
            "range",
            (wq_low, wq_high),
            recover=lambda shard: scan_reference(
                self._stores[shard], [(low_q, high_q)]
            )[0],
        )
        return self._merge_inequality(results, degraded)

    def topk(
        self,
        normal: np.ndarray,
        offset: float,
        k: int,
        op: Comparison | str = Comparison.LE,
    ) -> TopKResult:
        """Top-k satisfying points nearest the query hyperplane (Problem 2).

        Each shard runs Algorithm 2 over its slice; a shared cutoff
        publishes the best k-th distance seen by *any* shard into every
        shard's LBS termination test, and the per-shard top-k sets merge
        through one :class:`~repro.core.topk.TopKBuffer` — identical ids,
        distances, and tie-breaks as the monolithic scan.
        """
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
            self._working_or_raise(spq)
        except InvalidQueryError:
            if not self._scan_fallback:
                raise
            return octant_fallback("topk", self._features, spq, k)
        # SharedCutoff publishes cross-shard pruning bounds between threads;
        # a process worker receives a fresh private bound instead — still
        # exact, see repro.parallel.process.
        results, degraded = self._map_shards(
            "topk",
            (spq, k, SharedCutoff()),
            recover=lambda shard: scan_reference(self._stores[shard], [spq], k)[0],
        )
        return self._merge_topk(results, k, degraded)

    def topk_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        k: int,
        op: Comparison | str = Comparison.LE,
        *,
        timeout_s: float | None = None,
    ) -> list[TopKResult]:
        """Answer a batch of top-k queries sharing one operator and ``k``.

        The whole plannable batch ships to every shard as *one* task (each
        shard runs :meth:`PlanarIndexCollection.topk_batch`, batching its
        candidate verification per selected index), and each query's
        per-shard top-k sets merge through one
        :class:`~repro.core.topk.TopKBuffer` — identical ids, distances,
        and tie-breaks as per-query :meth:`topk` calls.  Like
        :meth:`query_batch`, validation and the empty-batch short-circuit
        run before the trace opens, and ``timeout_s`` overrides the
        engine's ``query_timeout_s`` for this one call.
        """
        k = check_k(k)
        queries = batch_queries(normals, offsets, op, self._phi.out_dim)
        return self._topk_batch(queries, k, timeout_s) if queries else []

    @_otr.traced("batch_topk")
    def _topk_batch(
        self, queries: list[ScalarProductQuery], k: int, timeout_s: float | None
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
            subset = [queries[position] for position in plannable]
            per_shard, degraded = self._map_shards(
                "batch_topk",
                (subset, k),
                recover=lambda shard: scan_reference(self._stores[shard], subset, k),
                timeout_s=timeout_s,
            )
            lost = [None] * len(subset)  # an unrecovered shard's slices
            per_query = zip(*(lost if part is None else part for part in per_shard))
            for position, slices in zip(plannable, per_query):
                results[position] = self._merge_topk(slices, k, degraded)
        return results

    def _merge_topk(
        self,
        results: Sequence[TopKResult | None],
        k: int,
        degraded: DegradedInfo | None,
    ) -> TopKResult:
        """Merge one query's per-shard top-k slices into the global answer."""
        if len(results) == 1 and degraded is None and results[0] is not None:
            return results[0]
        present = [result for result in results if result is not None]
        buffer = TopKBuffer(k)
        for result in present:
            buffer.offer_many(result.distances, result.ids)
        ids, distances = buffer.as_sorted()
        stats_parts = [result.stats for result in present]
        merged_stats = (
            QueryStats.merge(stats_parts) if all(p is not None for p in stats_parts) else None
        )
        return TopKResult(
            ids=ids,
            distances=distances,
            n_checked=sum(result.n_checked for result in present),
            n_total=len(self._features),
            stats=merged_stats,
            degraded=degraded,
        )

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (fans out to owning shards)
    # ------------------------------------------------------------------ #

    def _maintain(self, action: str, shard: int, fn: Callable[[], _T]) -> _T:
        """Run one shard's slice of a mutation under the failure policy.

        Retries under ``retry_then_degrade`` but never degrades: a shard
        mutation that cannot be applied raises a
        :class:`ShardFailureError` with the shard's identity, because
        silently dropping an update would corrupt the partition.
        Deterministic validation errors (the library's ``ValueError`` /
        ``KeyError`` families) pass through unwrapped — they are caller
        errors every shard would report identically, not shard faults.
        """
        kind = f"maintenance:{action}"
        attempt = 0
        while True:
            try:
                if _flt.ARMED:
                    _flt.check("shard.maintenance", shard=shard, action=action)
                return fn()
            except Exception as exc:  # repro: noqa(REP005) — policy boundary: classify, retry, or wrap
                if not _is_shard_fault(exc):
                    raise
                if (
                    self._failure_policy is FailurePolicy.RETRY_THEN_DEGRADE
                    and attempt < self._max_retries
                ):
                    attempt += 1
                    started = time.perf_counter()
                    self._backoff(attempt)
                    self._record_retry(kind, [shard], attempt, started)
                    continue
                raise self._wrap_failure(kind, shard, exc) from exc

    def insert_points(self, new_points: np.ndarray) -> np.ndarray:
        """Add new data points; returns their assigned (global) ids."""
        self._invalidate_process_pool()
        new_points = as_2d_float(new_points, "new_points")
        require_finite_rows(new_points, "new_points")
        features = self._phi(new_points)
        # Validate before the translator observes the new extremes — a NaN
        # row would otherwise poison every shard's octant translation.
        require_finite_rows(features, "features(new_points)")
        self._translator.observe(features)
        point_ids = self._points.append(new_points)
        feature_ids = self._features.append(features)
        if not np.array_equal(point_ids, feature_ids):  # pragma: no cover
            raise RuntimeError("point/feature stores diverged")
        for shard, mask in enumerate(self._owned(feature_ids)):
            if np.any(mask):
                self._maintain(
                    "insert",
                    shard,
                    lambda s=shard, m=mask: self._collections[s].insert(
                        feature_ids[m], features[m]
                    ),
                )
        self._record_shard_sizes()
        return feature_ids

    def delete_points(self, ids: np.ndarray) -> None:
        """Remove points from the engine."""
        self._invalidate_process_pool()
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        for shard, mask in enumerate(self._owned(ids)):
            if np.any(mask):
                self._maintain(
                    "delete",
                    shard,
                    lambda s=shard, m=mask: self._collections[s].delete(ids[m]),
                )
        self._features.delete(ids)
        self._points.delete(ids)
        self._record_shard_sizes()

    def update_points(self, ids: np.ndarray, new_points: np.ndarray) -> None:
        """Change the raw values of existing points; re-key owning shards."""
        self._invalidate_process_pool()
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        new_points = as_2d_float(new_points, "new_points")
        require_finite_rows(new_points, "new_points")
        features = self._phi(new_points)
        require_finite_rows(features, "features(new_points)")
        self._translator.observe(features)
        self._points.update(ids, new_points)
        self._features.update(ids, features)
        for shard, mask in enumerate(self._owned(ids)):
            if np.any(mask):
                self._maintain(
                    "update",
                    shard,
                    lambda s=shard, m=mask: self._collections[s].rekey(
                        ids[m], features[m]
                    ),
                )

    def add_index(self, normal: np.ndarray) -> bool:
        """Add one Planar index to *every* shard (or none, when redundant).

        All shards share the same normals and the same cosine redundancy
        rule, so their verdicts agree; the common verdict is returned.
        """
        self._invalidate_process_pool()
        verdicts = [
            self._maintain(
                "add_index",
                shard,
                lambda s=shard: self._collections[s].add_index(normal),
            )
            for shard in range(self._n_shards)
        ]
        if len(set(verdicts)) != 1:  # pragma: no cover - shards share normals
            raise RuntimeError("shards diverged on add_index redundancy verdict")
        return verdicts[0]

    def drop_index(self, position: int) -> None:
        """Drop the index at ``position`` from every shard."""
        self._invalidate_process_pool()
        for shard in range(self._n_shards):
            self._maintain(
                "drop_index",
                shard,
                lambda s=shard: self._collections[s].drop_index(position),
            )
