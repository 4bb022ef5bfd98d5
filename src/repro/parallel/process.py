"""Process-pool shard backend for :class:`~repro.parallel.engine.ShardedFunctionIndex`.

The thread backend relies on numpy releasing the GIL inside ``matmul`` /
``searchsorted``; pure-Python sections of the per-shard work (grouping,
stats assembly, span bookkeeping) still serialize.  This backend fans
shard work out to **forked worker processes** instead, so those sections
overlap too.  It is selected with ``backend="process"`` (or the
``REPRO_SHARD_BACKEND`` environment variable) and changes *scheduling
only* — answers stay bit-identical to the thread backend and the
monolithic facade.

Design
------
Workers are forked, never spawned: the parent registers the engine in a
module-level mapping *before* the pool forks, and each child inherits the
whole engine — feature stores, key arrays, translator — by copy-on-write.
Nothing per-task is pickled except a small *task descriptor* (the query
parameters) and the result, so fan-out cost is independent of index size.
When the feature store is a memmap backing (``load_index(...,
mode="mmap")``) the page cache is physically shared across workers, so
``S`` processes cost one copy of the data.

Because workers snapshot the engine at fork time, every mutation
(insert/update/delete, add/drop index) **invalidates the pool**; the next
query forks fresh workers that see the current state.  Maintenance
fan-outs themselves always run in the parent.

One wave, one task form: inline, on a pool thread or here in a worker,
a shard runs the same *shard task* ``(kind, args)`` — :data:`SHARD_METHODS`
names the :class:`~repro.core.collection.PlanarIndexCollection` method
that :func:`run_shard_task` calls with ``args``.  Semantics carried over
from the thread backend:

* ``shard.query`` faults are decided in the parent, in shard order, as
  the wave submits, so a seeded plan replays whichever worker runs which
  shard; the worker acts on the fired rules (a stall sleeps here, an
  error raises here).  Deeper sites (``store.get_features``) still fire
  in the worker against the fork-inherited plan, so arming or disarming
  after the fork bumps the fault-plan generation, which the engine
  checks before every fan-out — a stale pool is discarded and reforked;
* worker failures — including injected faults and deadline misses —
  pickle back to the parent, where the retry / degrade / raise policy
  machinery handles them exactly as for thread failures;
* sampled traces stitch: the worker records its ``shard.<kind>`` span
  tree manually and ships it home with the result, and the parent grafts
  it under the query's root span, so ``repro obs trace`` shows one tree
  regardless of backend;
* unsampled traces mute worker-side telemetry for the duration of the
  task.

A top-k task's :class:`~repro.core.topk.SharedCutoff` pickles as a fresh
bound private to the receiving shard, so process top-k fan-outs prune
with per-shard cutoffs.  The merged answer and each shard's ``n_checked``
equal a ``cutoff=None`` run; only cross-shard pruning is forgone.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Optional

from ..core.collection import PlanarIndexCollection
from ..core.stats import QueryStats
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..reliability import faults as _flt

__all__ = [
    "ProcessShardPool",
    "SHARD_METHODS",
    "fork_available",
    "run_shard_task",
    "run_traced_shard_task",
    "shard_cost",
]

# "ShardedFunctionIndex" annotations below stay string-valued on purpose:
# importing repro.parallel.engine here would close an import cycle
# (engine imports this module at load time).

#: Engines reachable from forked workers, keyed by registration token.
#: Populated in the parent BEFORE the pool forks, so children inherit the
#: mapping (and the engines behind it) copy-on-write; a worker never sees
#: a token registered after its fork because the engine invalidates the
#: pool on every mutation and re-registers on the next fork.
_ENGINES: dict[int, "ShardedFunctionIndex"] = {}  # repro: noqa(REP012) — populated pre-fork by design; workers read their COW snapshot

_token_lock = threading.Lock()
_next_token = 0


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method.

    The backend requires fork (not spawn): workers must inherit the
    engine's in-memory state, which is never pickled.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _register(engine: "ShardedFunctionIndex") -> int:
    """Make ``engine`` visible to workers forked after this call."""
    global _next_token
    with _token_lock:
        _next_token += 1
        token = _next_token
    _ENGINES[token] = engine  # repro: noqa(REP012) — pre-fork registration; see module docstring
    return token


#: Shard-task kind -> the :class:`PlanarIndexCollection` method that runs it.
SHARD_METHODS = {
    "inequality": "query",
    "batch": "query_batch",
    "range": "query_range",
    "topk": "topk",
    "batch_topk": "topk_batch",
}


def run_shard_task(collection: PlanarIndexCollection, kind: str, args: tuple) -> Any:
    """Run one shard task ``(kind, args)`` against ``collection``."""
    return getattr(collection, SHARD_METHODS[kind])(*args)


def run_traced_shard_task(
    collection: PlanarIndexCollection, kind: str, args: tuple, **attrs: Any
) -> tuple[Any, _osp.SpanRecord]:
    """Run one shard task inside a ``shard.<kind>`` span carrying ``attrs``.

    The span opens on this thread's stack (under the query root a pool
    thread adopted, or as a worker's own root) and ends annotated with
    the shard's cost counters, or with the failure kind before the error
    propagates unchanged.
    """
    span = _osp.open_span(f"shard.{kind}", **attrs)
    try:
        result = run_shard_task(collection, kind, args)
    except BaseException as exc:  # repro: noqa(REP005) — span annotates the failure kind, then re-raises unchanged
        span.attrs["error"] = type(exc).__name__
        raise
    finally:
        _osp.close_span(span)
    span.attrs.update(shard_cost(result))
    return result, span


def shard_cost(result: Any) -> dict[str, int]:
    """Per-shard cost counters for span annotation (small scalars only).

    Understands the three fan-out result shapes: ``QueryResult``,
    ``TopKResult`` (adds the LBS ``lbs_checked`` counter), and a batch's
    list of either (stats summed by ``QueryStats.merge``, like the merged
    answer's stats that the stitched-trace property test reconciles these
    counters against).
    """
    if isinstance(result, list):
        stats = QueryStats.merge(
            [entry.stats for entry in result if entry.stats is not None]
        )
    else:
        stats = getattr(result, "stats", None)
    cost: dict[str, int] = {}
    if stats is not None:
        cost.update(verified=stats.n_verified, ii=stats.ii_size, results=stats.n_results)
    n_checked = getattr(result, "n_checked", None)
    if n_checked is not None:
        cost["lbs_checked"] = int(n_checked)
    return cost


def _run_task(
    token: int,
    shard: int,
    kind: str,
    args: tuple,
    fired: tuple,
    trace_id: Optional[str],
    sampled: bool,
) -> tuple:
    """Worker entry: act on the parent's fired faults, then run the task.

    Returns ``(result, span, metrics)``.  For sampled traces ``span`` is
    the shard's completed :class:`~repro.obs.spans.SpanRecord` tree (the
    parent grafts it under the query root) and ``metrics`` is a registry
    snapshot of *this task's* counter/histogram increments — the worker
    registry is a fork-time copy the parent never sees, so the deltas
    ship home with the result and the parent folds them back in.  Both
    are ``None`` for unsampled tasks (muted, as in the thread backend)
    and when observability is off.
    """
    engine = _ENGINES.get(token)
    if engine is None:  # pragma: no cover - defensive: pool outlived registration
        raise RuntimeError(f"no engine registered under token {token} in worker")
    collection = engine._collections[shard]
    _flt.act(fired, "shard.query", shard=shard, kind=kind)
    if not (sampled and _ort.ENABLED):  # repro: noqa(REP012) — fork-inherited obs arming; the parent decides sampling and passes it in
        if _ort.ENABLED:
            # Unsampled trace: silence the collection's per-query
            # telemetry in this worker, mirroring the thread backend's
            # attach()-mute.
            _ort.mute()
        try:
            return run_shard_task(collection, kind, args), None, None
        finally:
            if _ort.ENABLED:
                _ort.unmute()
    # Clear inherited/accumulated samples so the post-task snapshot is
    # exactly this task's delta.  The worker registry is disposable: the
    # parent's registry is the durable one.
    _om.reset()
    attrs: dict[str, Any] = {"shard": shard, "backend": "process"}
    if trace_id is not None:
        attrs["trace_id"] = trace_id
    result, root = run_traced_shard_task(collection, kind, args, **attrs)
    metrics = _om.registry().snapshot()
    # Gauges describe *current parent state* (index sizes, shard points);
    # a worker's fork-time view must not overwrite them on restore.
    metrics["metrics"] = [
        entry
        for entry in metrics["metrics"]
        if entry["type"] != "gauge" and entry["series"]
    ]
    return result, root, metrics


class ProcessShardPool:
    """A fork-context :class:`ProcessPoolExecutor` bound to one engine.

    Construction registers the engine for worker visibility; workers fork
    lazily on first submit, inheriting everything registered so far.  The
    pool must be discarded (see :meth:`shutdown`) whenever the engine
    mutates — the owning engine does this from every maintenance method.
    """

    def __init__(self, engine: "ShardedFunctionIndex", max_workers: int) -> None:
        self._token = _register(engine)
        # Workers inherit the fault plan armed at fork time; the owning
        # engine compares this against the live generation and discards
        # the pool when arm()/disarm() happened since.
        self.fault_generation = _flt.GENERATION
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("fork"),
        )

    def submit(
        self,
        shard: int,
        kind: str,
        args: tuple,
        fired: tuple,
        trace_id: Optional[str],
        sampled: bool,
    ) -> Future:
        """Schedule one shard task; returns the pending future."""
        executor = self._executor
        if executor is None:  # pragma: no cover - defensive: submit after shutdown
            raise RuntimeError("process shard pool is shut down")
        return executor.submit(
            _run_task, self._token, shard, kind, args, fired, trace_id, sampled
        )

    def shutdown(self) -> None:
        """Tear the pool down and drop the worker-visible registration.

        Idempotent; queued-but-unstarted tasks are cancelled.  Workers
        exit once in-flight tasks drain — their copy-on-write snapshot
        dies with them, which is what makes this the engine's mutation
        barrier.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        _ENGINES.pop(self._token, None)  # repro: noqa(REP012) — parent-side cleanup; workers hold their own COW copy
