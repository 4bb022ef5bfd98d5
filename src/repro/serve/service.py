"""The query service: endpoints, admission, lifecycle, thread runner.

``QueryService`` fronts one :class:`~repro.parallel.engine.ShardedFunctionIndex`
with five endpoints (full reference with JSON examples in
``docs/serving.md``):

* ``POST /query`` — one inequality query; coalesced by the micro-batcher
* ``POST /topk`` — one top-k query; likewise
* ``GET /metrics`` — Prometheus text over the in-process registry
* ``GET /healthz`` — the health-state machine (``healthy`` / ``degraded``
  / ``browned_out`` / ``draining``) plus engine shape
* ``GET /slo`` — declared objectives evaluated against recorded metrics
* ``GET /stats`` — serving counters (batching, shedding, breakers) as JSON

Request flow: parse (including the ``X-Repro-Deadline-Ms`` budget) →
drain gate → admission (:mod:`repro.serve.admission`; sheds answer
``429`` with jittered ``Retry-After``) → per-(tenant, op) circuit
breaker (:mod:`repro.serve.resilience`; sheds answer ``503``) →
micro-batcher (:mod:`repro.serve.batcher`) → engine, with the request's
remaining budget enforced at every hop and expiry answered ``504`` with
the per-stage breakdown.  Degraded answers pass their ``DegradedInfo``
through to the response JSON **unmodified** — the serving layer never
rounds completeness up; clients see exactly what a direct library call
would report.

For tests, examples, and notebooks, :func:`serve_in_thread` runs the
whole asyncio stack on a daemon thread and returns a
:class:`ServerHandle` once the socket is listening.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import socket
import threading
import time
from typing import Any, Optional, Tuple

import numpy as np

from ..exceptions import (
    DeadlineExceededError,
    DegradedAnswerError,
    DimensionMismatchError,
    DrainTimeoutError,
    InjectedFaultError,
    InvalidQueryError,
    ReproError,
    ShardFailureError,
)
from ..obs import exporters as _oexp
from ..obs import metrics as _om
from ..obs import slo as _oslo
from ..parallel.engine import ShardedFunctionIndex
from ..reliability import faults as _flt
from .admission import AdmissionController
from .batcher import MicroBatcher, PendingRequest
from .config import ServiceConfig
from .http import HttpError, HttpRequest, read_request, render_response
from .resilience import (
    HEALTH_STATES,
    BreakerBoard,
    Deadline,
    RetryJitter,
    health_state,
)

__all__ = ["QueryService", "ServerHandle", "serve_in_thread"]

_OPS = ("<=", "<", ">=", ">")

#: Request header carrying the end-to-end deadline budget, milliseconds.
DEADLINE_HEADER = "x-repro-deadline-ms"


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Close one client connection so the client reads EOF.

    ``close()`` alone sends no FIN while a forked process-shard worker
    holds a copy of the socket, so an empty-buffered socket (no response
    left to cut short) is shut down first.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None and not writer.transport.get_write_buffer_size():
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)
    writer.close()


class QueryService:
    """One engine, one admission controller, one micro-batcher, N sockets."""

    def __init__(
        self,
        engine: ShardedFunctionIndex,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self._engine = engine
        self._config = config if config is not None else ServiceConfig.from_env()
        self._admission = AdmissionController(self._config)
        self._batcher = MicroBatcher(
            engine,
            window_s=self._config.batch_window_s,
            batch_max=self._config.batch_max,
        )
        self._breakers = BreakerBoard(
            threshold=self._config.breaker_threshold,
            cooldown_s=self._config.breaker_cooldown_s,
        )
        # Separate jitter stream from admission's, so 503 and 429 headers
        # draw independent (still seeded, still replayable) sequences.
        self._jitter = RetryJitter(seed=1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._phase = "idle"  #: "idle" | "running" | "draining" | "stopped"
        # Connection handler tasks, and the writers of the connections
        # waiting for their next request (what stop() closes).
        self._connections: set = set()
        self._idle: set = set()
        self._shed = {
            "quota": 0,
            "queue_full": 0,
            "brownout": 0,
            "breaker": 0,
            "draining": 0,
            "fault": 0,
        }
        self._deadline_expired = 0
        self._requests = 0
        self._errors = 0

    @property
    def config(self) -> ServiceConfig:
        """The resolved serving configuration."""
        return self._config

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return int(self._server.sockets[0].getsockname()[1])

    def stats(self) -> dict:
        """Serving counters: requests, sheds, deadlines, breakers, batching."""
        return {
            "requests": self._requests,
            "errors": self._errors,
            "shed": dict(self._shed),
            "deadline_expired": self._deadline_expired,
            "phase": self._phase,
            "breakers": self._breakers.summary(),
            "outstanding": self._batcher.outstanding,
            "batching": self._batcher.stats(),
        }

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the socket and start the batcher; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("service is already started")
        self._batcher.start()
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self._phase = "running"
        return self.port

    async def stop(self) -> None:
        """Graceful shutdown: drain gate up, socket closed, backlog flushed.

        The phase flips to ``draining`` *before* the socket closes, so
        requests racing shutdown on kept-alive connections get an explicit
        ``503`` instead of depending on TCP teardown timing; the batcher
        then gets ``drain_timeout_s`` to flush the admitted backlog, after
        which stragglers fail fast (:class:`DrainTimeoutError` → 503).
        Last, kept-alive connections are closed: idle ones at once, busy
        ones once their response is written, so every connection handler
        returns before the loop stops instead of being cancelled.
        """
        self._phase = "draining"
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self._batcher.stop(self._config.drain_timeout_s)
        self._phase = "stopped"
        for writer in list(self._idle):
            _hang_up(writer)
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=self._config.drain_timeout_s
            )
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one keep-alive connection until EOF, protocol error or stop."""
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            while self._phase != "stopped":
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            {"error": "bad_request", "detail": exc.detail},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                self._idle.discard(writer)
                if request is None:
                    return
                status, payload, headers, content_type = await self._route(request)
                writer.write(
                    render_response(
                        status,
                        payload,
                        content_type=content_type,
                        extra_headers=headers,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-request; nothing to answer
        finally:
            self._idle.discard(writer)
            with contextlib.suppress(ConnectionError, OSError):
                # Flush the whole response, not just below the high-water
                # mark, so the hang-up below never cuts it short.
                writer.transport.set_write_buffer_limits(high=0)
                await writer.drain()
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform-dependent teardown
                pass

    async def _route(
        self, request: HttpRequest
    ) -> Tuple[int, Any, Optional[dict], str]:
        """Dispatch one request; returns (status, body, headers, type)."""
        path, method = request.path, request.method
        if path in ("/query", "/topk"):
            if method != "POST":
                return 405, {"error": "method_not_allowed", "detail": f"{path} is POST-only"}, None, "application/json"
            return await self._handle_query(request, op="query" if path == "/query" else "topk")
        if path not in ("/healthz", "/metrics", "/slo", "/stats"):
            return 404, {"error": "not_found", "detail": f"unknown path {path}"}, None, "application/json"
        if method != "GET":
            return 405, {"error": "method_not_allowed", "detail": f"{path} is GET-only"}, None, "application/json"
        if path == "/healthz":
            status, payload = self._healthz()
            return status, payload, None, "application/json"
        if path == "/metrics":
            return 200, _oexp.to_prometheus(), None, "text/plain; version=0.0.4"
        if path == "/slo":
            statuses = _oslo.evaluate(
                _om.registry(), _oslo.load_objectives(), publish=False
            )
            return 200, {"objectives": [s.to_dict() for s in statuses]}, None, "application/json"
        return 200, self.stats(), None, "application/json"  # /stats

    def _healthz(self) -> Tuple[int, dict]:
        """The health-state machine plus engine shape.

        ``healthy`` / ``degraded`` / ``browned_out`` answer 200 — the
        instance still serves, a load balancer may deprioritize it on the
        body — while ``draining`` answers 503 so health checks pull the
        instance as soon as shutdown starts.
        """
        state = health_state(
            phase=self._phase,
            open_breakers=self._breakers.count("open"),
            half_open_breakers=self._breakers.count("half_open"),
            queue_depth=self._batcher.outstanding,
            brownout_depth=self._admission.brownout_depth,
        )
        _om.serve_health_state().set(float(HEALTH_STATES.index(state)))
        payload = {
            "status": state,
            "phase": self._phase,
            "points": len(self._engine),
            "shards": self._engine.n_shards,
            "backend": self._engine.backend,
            "outstanding": self._batcher.outstanding,
            "brownout_depth": self._admission.brownout_depth,
            "breakers": self._breakers.summary(),
        }
        return (503 if state == "draining" else 200), payload

    # ------------------------------------------------------------------ #
    # /query and /topk
    # ------------------------------------------------------------------ #

    def _parse_query_body(self, request: HttpRequest, op: str) -> PendingRequest:
        """Validate the JSON body into a :class:`PendingRequest` (400 on junk)."""
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        raw_normal = body.get("normal")
        if not isinstance(raw_normal, list) or not raw_normal:
            raise HttpError(400, "'normal' must be a non-empty array of numbers")
        try:
            normal = np.asarray(raw_normal, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"'normal' is not numeric: {exc}") from exc
        if normal.ndim != 1 or not np.all(np.isfinite(normal)):
            raise HttpError(400, "'normal' must be a flat array of finite numbers")
        dim = self._engine.feature_map.out_dim
        if normal.size != dim:
            raise HttpError(
                400, f"'normal' has dimension {normal.size}, the index has {dim}"
            )
        try:
            offset = float(body.get("offset"))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, "'offset' must be a number") from exc
        if not math.isfinite(offset):
            raise HttpError(400, "'offset' must be finite")
        comparison = body.get("op", "<=")
        if comparison not in _OPS:
            raise HttpError(400, f"'op' must be one of {list(_OPS)}, got {comparison!r}")
        k = 0
        if op == "topk":
            raw_k = body.get("k")
            if not isinstance(raw_k, int) or isinstance(raw_k, bool) or raw_k < 1:
                raise HttpError(400, "'k' must be a positive integer")
            k = raw_k
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, "'tenant' must be a non-empty string")
        return PendingRequest(
            op=op, normal=normal, offset=offset, comparison=comparison, k=k,
            tenant=tenant,
        )

    def _parse_deadline(self, request: HttpRequest) -> Deadline:
        """The request's budget: ``X-Repro-Deadline-Ms`` or the default."""
        raw = request.headers.get(DEADLINE_HEADER, "").strip()
        if not raw:
            return Deadline(self._config.deadline_s)
        try:
            budget_ms = float(raw)
        except ValueError as exc:
            raise HttpError(
                400, f"X-Repro-Deadline-Ms must be a number, got {raw!r}"
            ) from exc
        if not budget_ms > 0 or not math.isfinite(budget_ms):
            raise HttpError(
                400, f"X-Repro-Deadline-Ms must be positive and finite, got {raw!r}"
            )
        return Deadline(budget_ms / 1000.0)

    def _shed_response(
        self, *, status: int, reason: str, tenant: str, op: str, retry_after_s: float
    ) -> Tuple[int, Any, Optional[dict], str]:
        """One shed (429/503): counters, body, and the Retry-After header."""
        self._shed[reason] += 1
        _om.serve_shed_total().inc(tenant=tenant, reason=reason)
        _om.serve_requests_total().inc(tenant=tenant, op=op, status="shed")
        return (
            status,
            {
                "error": "shed",
                "reason": reason,
                "tenant": tenant,
                "retry_after_s": round(retry_after_s, 4),
            },
            {"Retry-After": str(max(1, math.ceil(retry_after_s)))},
            "application/json",
        )

    def _deadline_response(
        self, deadline: Deadline, *, stage: str, tenant: str, op: str
    ) -> Tuple[int, Any, Optional[dict], str]:
        """One 504: the expiry counter and the elapsed/budget breakdown."""
        self._deadline_expired += 1
        self._errors += 1
        _om.serve_deadline_expired_total().inc(stage=stage)
        _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
        body = {"error": "deadline_exceeded", "stage": stage}
        body.update(deadline.breakdown())
        return 504, body, None, "application/json"

    async def _handle_query(
        self, request: HttpRequest, op: str
    ) -> Tuple[int, Any, Optional[dict], str]:
        """Deadline + admission + breaker + batching for /query and /topk."""
        started = time.perf_counter()
        self._requests += 1
        try:
            deadline = self._parse_deadline(request)
            pending = self._parse_query_body(request, op)
        except HttpError as exc:
            _om.serve_requests_total().inc(tenant="?", op=op, status="error")
            return exc.status, {"error": "bad_request", "detail": exc.detail}, None, "application/json"
        pending.deadline = deadline
        tenant = pending.tenant
        if _flt.ARMED:
            try:
                # A stall here burns the request's budget (that is the
                # point: it simulates a slow accept path); an error sheds.
                _flt.check("serve.accept", op=op, tenant=tenant)
            except InjectedFaultError:
                return self._shed_response(
                    status=503,
                    reason="fault",
                    tenant=tenant,
                    op=op,
                    retry_after_s=self._jitter.apply(1.0),
                )
        if self._phase != "running":
            return self._shed_response(
                status=503,
                reason="draining",
                tenant=tenant,
                op=op,
                retry_after_s=self._jitter.apply(1.0),
            )
        if deadline.expired():
            return self._deadline_response(
                deadline, stage="accept", tenant=tenant, op=op
            )
        decision = self._admission.admit(tenant, self._batcher.outstanding)
        if not decision.admitted:
            return self._shed_response(
                status=429,
                reason=decision.reason,
                tenant=tenant,
                op=op,
                retry_after_s=decision.retry_after_s,
            )
        allowed, breaker_retry_s = self._breakers.allow(tenant, op)
        if not allowed:
            return self._shed_response(
                status=503,
                reason="breaker",
                tenant=tenant,
                op=op,
                retry_after_s=self._jitter.apply(breaker_retry_s),
            )
        deadline.mark("admission")
        # From here the (tenant, op) breaker hears exactly one outcome —
        # engine trouble counts against it, client mistakes do not — so a
        # half-open probe can never be stranded in flight.
        engine_ok = True
        try:
            answer, trace_id = await asyncio.wait_for(
                self._batcher.enqueue(pending),
                timeout=max(deadline.remaining_s(), 0.001),
            )
        except (InvalidQueryError, DimensionMismatchError) as exc:
            self._errors += 1
            _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
            return 400, {"error": "bad_request", "detail": str(exc)}, None, "application/json"
        except DeadlineExceededError:
            # The batcher already counted stage="dispatch"; answer the 504.
            engine_ok = False
            self._deadline_expired += 1
            self._errors += 1
            _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
            body = {"error": "deadline_exceeded", "stage": "dispatch"}
            body.update(deadline.breakdown())
            return 504, body, None, "application/json"
        except DrainTimeoutError as exc:
            self._errors += 1
            _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
            return 503, {"error": "draining", "detail": str(exc)}, None, "application/json"
        except (ShardFailureError, DegradedAnswerError, InjectedFaultError) as exc:
            # ShardFailureError covers QueryTimeoutError (wave deadline)
            # and raise-policy shard failures alike: transient engine
            # trouble, answered 503 and counted against the breaker.
            engine_ok = False
            self._errors += 1
            _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
            return 503, {"error": "unavailable", "detail": str(exc)}, None, "application/json"
        except asyncio.TimeoutError:
            engine_ok = False
            return self._deadline_response(
                deadline, stage="await", tenant=tenant, op=op
            )
        except ReproError as exc:
            engine_ok = False
            self._errors += 1
            _om.serve_requests_total().inc(tenant=tenant, op=op, status="error")
            return 500, {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}, None, "application/json"
        finally:
            self._breakers.record(tenant, op, engine_ok)
        payload = self._shape_answer(op, answer, trace_id)
        _om.serve_requests_total().inc(tenant=tenant, op=op, status="ok")
        _om.serve_request_seconds().observe(time.perf_counter() - started, op=op)
        return 200, payload, None, "application/json"

    @staticmethod
    def _shape_answer(op: str, answer: Any, trace_id: Optional[str]) -> dict:
        """Render an engine answer as the documented response JSON.

        ``degraded`` is the engine's ``DegradedInfo.to_dict()`` verbatim
        (exact completeness passthrough); ``trace_id`` is shared by every
        request the same coalesced engine call answered.
        """
        degraded = answer.degraded.to_dict() if answer.degraded is not None else None
        if op == "query":
            return {
                "ids": answer.ids.tolist(),
                "count": int(answer.ids.size),
                "used_fallback": bool(answer.used_fallback),
                "degraded": degraded,
                "trace_id": trace_id,
            }
        return {
            "ids": answer.ids.tolist(),
            "distances": answer.distances.tolist(),
            "n_checked": int(answer.n_checked),
            "degraded": degraded,
            "trace_id": trace_id,
        }


class ServerHandle:
    """A running service on a background thread (tests / examples).

    ``stop()`` is idempotent and thread-safe; the engine is the caller's
    to close.  Use as a context manager for exception-safe teardown.
    """

    def __init__(
        self,
        service: QueryService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        host: str,
        port: int,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the service down and join the thread.

        Both joins are bounded by the configured drain budget (plus a
        margin for socket teardown), not a hard-coded constant: shutdown
        takes at most ``drain_timeout_s`` before the batcher fail-fasts
        its backlog, so waiting longer than that could only hide a bug.
        """
        if self._stopped:
            return
        self._stopped = True
        budget = self.service.config.drain_timeout_s + 5.0
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop)
        future.result(timeout=budget)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=budget)

    def __enter__(self) -> "ServerHandle":
        """Context-manager entry (the server is already running)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: stop the service."""
        self.stop()


def serve_in_thread(
    engine: ShardedFunctionIndex,
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerHandle:
    """Start a :class:`QueryService` on a daemon thread; returns once bound.

    ``port=0`` binds an ephemeral port (read it off the handle).  The
    caller owns the engine's lifecycle; the handle owns the service's.
    """
    service = QueryService(engine, config)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    bound: dict = {}

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                bound["port"] = await service.start(host, port)
            except BaseException as exc:  # repro: noqa(REP005) — startup failures must unblock the waiting caller, then surface there
                bound["error"] = exc
            finally:
                ready.set()

        loop.create_task(_start())
        loop.run_forever()
        # run_forever returned: stop() was called; let cancellations settle.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("query service failed to start within 30s")
    if "error" in bound:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        raise bound["error"]
    return ServerHandle(service, loop, thread, host, bound["port"])
