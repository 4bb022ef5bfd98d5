"""Per-query pruning statistics shared by every result type.

:class:`QueryStats` started life inside :mod:`repro.core.planar`; it now
lives in its own module so that both inequality results
(:class:`~repro.core.planar.QueryResult`) and top-k results
(:class:`~repro.core.topk.TopKResult`) can carry the *same* pruning
diagnostics without an import cycle (``planar`` imports ``topk``).
``repro.core.planar`` re-exports the class, so existing imports keep
working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["QueryStats", "trace_fields"]


@dataclass(frozen=True)
class QueryStats:
    """Per-query pruning diagnostics (the Figures 9/10 metric).

    ``si_size``/``ii_size``/``li_size`` are the cardinalities of the three
    intervals.  ``n_verified`` counts points whose scalar product was
    actually evaluated — normally the intermediate interval, or the whole
    dataset when the cost-based router preferred a scan.
    """

    n_total: int
    si_size: int
    ii_size: int
    li_size: int
    n_verified: int
    n_results: int

    @property
    def pruned_fraction(self) -> float:
        """Fraction of points the *intervals* decide without a scalar product.

        Interval-based, exactly the paper's Figures 9/10 metric — it
        reflects index quality even when the router chose to scan anyway.
        """
        if self.n_total == 0:
            return 1.0
        return (self.si_size + self.li_size) / self.n_total

    @property
    def verified_fraction(self) -> float:
        """Fraction of points whose scalar product was actually evaluated."""
        if self.n_total == 0:
            return 0.0
        return self.n_verified / self.n_total

    @classmethod
    def merge(cls, parts: Sequence["QueryStats"]) -> "QueryStats":
        """Sum diagnostics over disjoint parts: a batch's queries or a query's shards.

        Every field is additive, so the merged fractions (pruned/verified)
        are the point-weighted means of the parts' fractions.
        """
        return cls(
            n_total=sum(p.n_total for p in parts),
            si_size=sum(p.si_size for p in parts),
            ii_size=sum(p.ii_size for p in parts),
            li_size=sum(p.li_size for p in parts),
            n_verified=sum(p.n_verified for p in parts),
            n_results=sum(p.n_results for p in parts),
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by EXPLAIN and exporters)."""
        return {
            "n_total": self.n_total,
            "si_size": self.si_size,
            "ii_size": self.ii_size,
            "li_size": self.li_size,
            "n_verified": self.n_verified,
            "n_results": self.n_results,
            "pruned_fraction": self.pruned_fraction,
        }


def trace_fields(result: Any, shards: int = 1) -> dict:
    """The :func:`repro.obs.trace.finish` fields of one query-op result.

    ``result`` is one answer (a ``QueryAnswer``, ``QueryResult`` or
    ``TopKResult``) or a batch's list of them.  The cost counters are the
    merged :class:`QueryStats` plus, for top-k answers, the summed LBS
    ``lbs_checked``; they are built lazily, only for traces that are
    recorded.
    """
    if isinstance(result, list):
        answers = result
        degraded = next((a.degraded for a in result if a.degraded is not None), None)
        results = sum(int(a.ids.size) for a in result)
    else:
        answers = [result]
        degraded = getattr(result, "degraded", None)
        results = int(result.ids.size)

    def cost() -> dict:
        parts = [a.stats for a in answers if a.stats is not None]
        counters = QueryStats.merge(parts).to_dict() if parts else {}
        checked = [int(a.n_checked) for a in answers if hasattr(a, "n_checked")]
        if checked:
            counters["lbs_checked"] = sum(checked)
        return counters

    return {
        "stats": cost,
        "degraded": degraded,
        "shards": shards,
        "retries": degraded.retries if degraded is not None else 0,
        "n_queries": len(answers),
        "results": results,
    }
