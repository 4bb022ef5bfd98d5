"""Serving layer: an asyncio HTTP front-end over the sharded engine.

Turns concurrent network requests into the batched engine calls the
parallel layer answers cheaply: a micro-batcher coalesces requests
within a small time/size window into single ``query_batch`` /
``topk_batch`` calls (answers equal to the engine's own batch calls
and to single-query calls), and per-tenant admission control —
token-bucket quotas, priority classes, a bounded queue with brownout
shedding — keeps overload at the front door
instead of inside the engine.  The resilience module closes the failure
story end-to-end: per-request deadline budgets propagated through every
hop (``X-Repro-Deadline-Ms`` → admission → linger → engine timeout),
per-(tenant, op) circuit breakers, deterministic retry jitter, and a
``/healthz`` health-state machine load balancers can act on.  See
``docs/serving.md`` for the guide and ``docs/operations.md`` for the
operator runbook.

Entry points: ``python -m repro serve`` (CLI),
:func:`~repro.serve.service.serve_in_thread` (embedded), and the classes
below for custom wiring.
"""

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .batcher import MicroBatcher, PendingRequest
from .config import ServiceConfig, TenantSpec, load_tenants
from .resilience import (
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    RetryJitter,
    health_state,
)
from .service import QueryService, ServerHandle, serve_in_thread

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BreakerBoard",
    "CircuitBreaker",
    "Deadline",
    "MicroBatcher",
    "PendingRequest",
    "QueryService",
    "RetryJitter",
    "ServerHandle",
    "ServiceConfig",
    "TenantSpec",
    "TokenBucket",
    "health_state",
    "load_tenants",
    "serve_in_thread",
]
