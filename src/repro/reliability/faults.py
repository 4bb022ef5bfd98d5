"""Deterministic, seedable fault injection for chaos testing.

A :class:`FaultPlan` is a list of :class:`FaultRule` s keyed on *site*
names — stable strings naming the places production code volunteers to
fail (``shard.query``, ``shard.scan``, ``shard.maintenance``,
``persistence.write``, ``store.get_features``, and the serving layer's
``serve.accept``, ``serve.dispatch``, ``serve.flush``).  Each rule
describes one fault *kind*:

``error``
    Raise :class:`~repro.exceptions.InjectedFaultError` at the site.
``stall``
    Sleep ``ms`` milliseconds at the site (exercises deadlines).
``torn``
    Truncate the next write at the site to ``frac`` of its bytes
    (consulted only by the crash-safe writers in
    :mod:`repro.reliability.atomic` — simulates a legacy non-atomic
    write interrupted mid-flight).

Arming follows the ``REPRO_SANITIZE`` / ``REPRO_OBS`` guard discipline:
the hot paths read one module global and branch::

    from ..reliability import faults as _flt
    ...
    if _flt.ARMED:
        _flt.check("shard.query", shard=shard, kind=kind)

so the disarmed path — the default — costs a single attribute read.
``REPRO_FAULTS=<spec>`` arms a plan from process start (seeded by
``REPRO_FAULTS_SEED``); :func:`arm` / :func:`disarm` / :func:`injected`
arm programmatically.

Spec grammar (full reference in ``docs/reliability.md``)::

    spec  := rule (";" rule)*
    rule  := site ":" kind (":" key "=" value)*
    site  := dotted name, optionally ending in "*" (prefix glob)
    kind  := "error" | "stall" | "torn"

Known options: ``p`` (fire probability, default 1), ``every`` (fire on
every n-th matching check), ``times`` (max fires), ``after`` (skip the
first n matching checks), ``ms`` (stall duration), ``frac`` (torn-write
fraction).  Any *other* ``key=value`` pair is an attribute filter: the
rule only matches checks whose ``attrs[key]`` stringifies to ``value``
(e.g. ``shard=2`` or ``kind=topk``).  Firing decisions are pure
functions of the plan seed and per-rule check counters, so a seeded
chaos run replays bit-identically.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from ..exceptions import FaultSpecError, InjectedFaultError

__all__ = [
    "ARMED",
    "KINDS",
    "FaultRule",
    "FaultPlan",
    "arm",
    "disarm",
    "is_armed",
    "active_plan",
    "injected",
    "check",
    "fire",
    "act",
    "torn_fraction",
]

#: Supported fault kinds.
KINDS = ("error", "stall", "torn")

#: Whether a fault plan is armed.  Hot paths read this directly and only
#: call :func:`check` when it is True; mutated via :func:`arm`/:func:`disarm`.
ARMED: bool = False

#: Monotonic arming generation, bumped by every :func:`arm` / :func:`disarm`.
#: Forked worker pools snapshot the armed plan at fork time; comparing the
#: generation they forked under against this value tells them the plan
#: changed and the workers must be reforked (see ``repro.parallel.process``).
GENERATION: int = 0

_FLOAT_OPTIONS = ("p", "ms", "frac")
_INT_OPTIONS = ("every", "times", "after", "seed")


def _record_fire(site: str, kind: str) -> None:
    """Count one injected fault in the obs registry (lazy import: this
    module must stay importable before :mod:`repro.obs` finishes
    initializing, and the disarmed path never reaches here)."""
    from ..obs import metrics as _om
    from ..obs import runtime as _ort

    if _ort.ENABLED:
        _om.faults_injected_total().inc(site=site, kind=kind)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule of a :class:`FaultPlan`.

    Attributes
    ----------
    site:
        Site name to match, exact or with a trailing ``*`` prefix glob
        (``shard.*`` matches ``shard.query`` and ``shard.scan``).
    kind:
        ``error`` / ``stall`` / ``torn`` (see module docstring).
    p / every / times / after:
        Firing schedule over the rule's matching checks (see module
        docstring); ``0`` disables ``every``/``times``/``after``.
    ms / frac:
        Stall duration (milliseconds) and torn-write byte fraction.
    seed:
        Per-rule RNG seed for the ``p`` draw; ``None`` derives one from
        the plan seed and the rule's position.
    filters:
        Attribute equality filters — every ``key`` must be present in
        the check's attributes and stringify to ``value``.
    """

    site: str
    kind: str
    p: float = 1.0
    every: int = 0
    times: int = 0
    after: int = 0
    ms: float = 10.0
    frac: float = 0.5
    seed: int | None = None
    filters: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.site:
            raise FaultSpecError("fault rule needs a non-empty site name")
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise FaultSpecError(f"fault probability p={self.p!r} outside [0, 1]")
        if self.every < 0 or self.times < 0 or self.after < 0:
            raise FaultSpecError("every/times/after must be non-negative")
        if self.ms < 0.0:
            raise FaultSpecError(f"stall duration ms={self.ms!r} must be >= 0")
        if not 0.0 <= self.frac < 1.0:
            raise FaultSpecError(f"torn fraction frac={self.frac!r} outside [0, 1)")
        object.__setattr__(self, "filters", dict(self.filters))

    def matches(self, site: str, attrs: Mapping[str, object]) -> bool:
        """Whether this rule applies to a check at ``site`` with ``attrs``."""
        if self.site.endswith("*"):
            if not site.startswith(self.site[:-1]):
                return False
        elif site != self.site:
            return False
        for key, expected in self.filters.items():
            if key not in attrs or str(attrs[key]) != expected:
                return False
        return True

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """Parse one ``site:kind[:key=value...]`` rule fragment."""
        parts = [part.strip() for part in text.split(":")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise FaultSpecError(
                f"fault rule {text!r} must look like 'site:kind[:key=value...]'"
            )
        site, kind = parts[0], parts[1]
        options: dict[str, object] = {}
        filters: dict[str, str] = {}
        for fragment in parts[2:]:
            if "=" not in fragment:
                raise FaultSpecError(
                    f"fault option {fragment!r} in rule {text!r} must be key=value"
                )
            key, value = (piece.strip() for piece in fragment.split("=", 1))
            try:
                if key in _FLOAT_OPTIONS:
                    options[key] = float(value)
                elif key in _INT_OPTIONS:
                    options[key] = int(value)
                else:
                    filters[key] = value
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for fault option {key!r} in rule {text!r}: {value!r}"
                ) from exc
        return cls(site=site, kind=kind, filters=filters, **options)  # type: ignore[arg-type]


class _RuleState:
    """Mutable firing counters of one rule (plan-lock protected)."""

    __slots__ = ("checks", "fires", "rng")

    def __init__(self, rng: random.Random) -> None:
        self.checks = 0
        self.fires = 0
        self.rng = rng


class FaultPlan:
    """An armed set of :class:`FaultRule` s with deterministic firing state.

    Thread-safe: the sharded engine checks sites from pool workers, so
    all counter updates happen under one lock.  ``seed`` fixes every
    probabilistic draw; counter-based rules (``every``/``times``/
    ``after``) are deterministic regardless.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self._rules = tuple(rules)
        self._seed = int(seed)
        self._lock = threading.Lock()
        self._state = self._fresh_state()

    def _fresh_state(self) -> list[_RuleState]:
        return [
            _RuleState(
                random.Random(
                    rule.seed if rule.seed is not None else (self._seed << 16) ^ (index + 1)
                )
            )
            for index, rule in enumerate(self._rules)
        ]

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS``-style spec string."""
        rules = [
            FaultRule.parse(fragment)
            for fragment in spec.split(";")
            if fragment.strip()
        ]
        if not rules:
            raise FaultSpecError(f"fault spec {spec!r} contains no rules")
        return cls(rules, seed=seed)

    # ------------------------------------------------------------------ #

    @property
    def rules(self) -> tuple[FaultRule, ...]:
        """The plan's rules, in declaration order."""
        return self._rules

    @property
    def seed(self) -> int:
        """The plan-level seed for probabilistic rules."""
        return self._seed

    def reset(self) -> None:
        """Rewind every rule's counters and RNG to the armed-fresh state."""
        with self._lock:
            self._state = self._fresh_state()

    def stats(self) -> list[dict[str, object]]:
        """Per-rule check/fire counters (the chaos CLI's survival report)."""
        with self._lock:
            return [
                {
                    "site": rule.site,
                    "kind": rule.kind,
                    "checks": state.checks,
                    "fires": state.fires,
                }
                for rule, state in zip(self._rules, self._state)
            ]

    def fired_total(self) -> int:
        """Total fault firings across all rules since arming/reset."""
        with self._lock:
            return sum(state.fires for state in self._state)

    # ------------------------------------------------------------------ #

    def _should_fire(self, index: int, rule: FaultRule) -> bool:
        """Advance rule counters under the lock; True when the rule fires."""
        with self._lock:
            state = self._state[index]
            state.checks += 1
            effective = state.checks - rule.after
            if effective <= 0:
                return False
            if rule.times and state.fires >= rule.times:
                return False
            if rule.every and effective % rule.every != 0:
                return False
            if rule.p < 1.0 and state.rng.random() >= rule.p:
                return False
            state.fires += 1
            return True

    def fire(
        self, site: str, attrs: Mapping[str, object], torn: bool = False
    ) -> tuple[FaultRule, ...]:
        """Decide which rules fire for a check at ``site`` and count them.

        Considers the ``error``/``stall`` rules, or with ``torn`` only the
        ``torn`` ones.  Evaluation stops at the first fire that is not a
        stall, as an error's raise would.  :func:`act` then carries the
        fired rules out, possibly elsewhere: the sharded engine decides in
        the parent, in shard order, and acts where the shard runs.
        """
        fired = []
        for index, rule in enumerate(self._rules):
            if (rule.kind == "torn") != torn or not rule.matches(site, attrs):
                continue
            if not self._should_fire(index, rule):
                continue
            _record_fire(site, rule.kind)
            fired.append(rule)
            if rule.kind != "stall":
                break
        return tuple(fired)

    def check(self, site: str, attrs: Mapping[str, object]) -> None:
        """:meth:`fire` then :func:`act`: sleep on stalls, raise on an error."""
        act(self.fire(site, attrs), site, **attrs)

    def torn_fraction(self, site: str, attrs: Mapping[str, object]) -> float | None:
        """Byte fraction of the next write to keep, or None for intact."""
        fired = self.fire(site, attrs, torn=True)
        return fired[0].frac if fired else None


# --------------------------------------------------------------------- #
# Module-level arming (mirrors repro.obs.runtime)
# --------------------------------------------------------------------- #

_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan | str, seed: int | None = None) -> FaultPlan:
    """Arm ``plan`` (a :class:`FaultPlan` or a spec string) process-wide."""
    global ARMED, _PLAN, GENERATION
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan, seed=0 if seed is None else seed)
    elif seed is not None:
        raise FaultSpecError("seed= only applies when arming from a spec string")
    _PLAN = plan
    ARMED = True
    GENERATION += 1
    return plan


def disarm() -> None:
    """Return fault injection to its zero-cost no-op mode."""
    global ARMED, _PLAN, GENERATION
    ARMED = False
    _PLAN = None
    GENERATION += 1


def is_armed() -> bool:
    """Whether a fault plan is currently armed."""
    return ARMED


def active_plan() -> FaultPlan | None:
    """The armed plan, or None when disarmed."""
    return _PLAN


@contextmanager
def injected(plan: FaultPlan | str, seed: int | None = None) -> Iterator[FaultPlan]:
    """Context manager: arm ``plan`` inside the block, restore after.

    Restores whatever plan (or disarmed state) was active before, so
    tests can nest scoped fault windows under an environment-armed plan.
    """
    previous_plan, previously_armed = _PLAN, ARMED
    active = arm(plan, seed=seed)
    try:
        yield active
    finally:
        if previously_armed and previous_plan is not None:
            arm(previous_plan)
        else:
            disarm()


def check(site: str, **attrs: object) -> None:
    """Hot-path hook: evaluate the armed plan at ``site`` (no-op disarmed).

    Callers guard with ``if faults.ARMED`` themselves so the disarmed
    path costs one attribute read; the re-check here makes direct calls
    safe too.
    """
    act(fire(site, **attrs), site, **attrs)


def fire(site: str, **attrs: object) -> tuple[FaultRule, ...]:
    """Decide and count the armed plan's fires at ``site`` (``()`` disarmed)."""
    plan = _PLAN  # repro: noqa(REP012) — worker threads share the armed plan; a forked worker checks its fork-time copy
    return () if plan is None else plan.fire(site, attrs)


def act(fired: Sequence[FaultRule], site: str, **attrs: object) -> None:
    """Carry out rules :func:`fire` decided: sleep each ``stall``, then raise
    :class:`InjectedFaultError` for an ``error``."""
    for rule in fired:
        if rule.kind == "stall":
            time.sleep(rule.ms / 1000.0)
            continue
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        raise InjectedFaultError(
            f"injected fault at {site}" + (f" ({detail})" if detail else ""),
            site=site,
        )


def torn_fraction(site: str, **attrs: object) -> float | None:
    """Hot-path hook for writers: torn-write fraction, or None (intact)."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.torn_fraction(site, attrs)


# Environment arming: REPRO_FAULTS=<spec> [REPRO_FAULTS_SEED=<int>].
_ENV_SPEC = os.environ.get("REPRO_FAULTS", "").strip()
if _ENV_SPEC:
    try:
        _env_seed = int(os.environ.get("REPRO_FAULTS_SEED", "0").strip() or "0")
    except ValueError as _exc:
        raise FaultSpecError(
            f"REPRO_FAULTS_SEED must be an integer, got "
            f"{os.environ.get('REPRO_FAULTS_SEED')!r}"
        ) from _exc
    arm(_ENV_SPEC, seed=_env_seed)
