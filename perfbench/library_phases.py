"""Library phases: the index timed against the scan, paired inside one process.

Every answer the index gives is compared with the ``SequentialScan`` oracle
over the benchmark's own copy of the live points (:class:`Mirror`), so a
defect in the index's stores cannot hide itself. Each query is timed on
the index and on the scan back to back, with the order alternating, because
the same query timed in separate processes varies far more than the ratio
between the two.

With a :class:`~tracing.Tracer`, each query also replays the pipeline
through each layer's public entry point (``PlanarIndexCollection.query``,
``working_query``, ``select``, ``PlanarIndex.interval_ranks``, then
``finish_query`` or ``FeatureStore.scan_values`` by the route the facade's
``QueryStats`` shows) and records one span per call. Writes are replayed on
a :class:`Replica` built from public constructors.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro import FeatureStore, FunctionIndex, PlanarIndexCollection, SequentialScan
from repro.geometry.translation import Translator

from tracing import Tracer

__all__ = ["LibraryBench", "Mirror", "Replica", "Tally", "median"]

now_ns = time.perf_counter_ns


class Tally:
    """Operations attempted and failed, with the first failures described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        """Count one operation; ``what`` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    def fail(self, what: str) -> None:
        """Count one failed operation."""
        self.record(False, what)


class Mirror:
    """The benchmark's own copy of the live points, and the scan over them."""

    def __init__(self, points: np.ndarray) -> None:
        self.rows = np.array(points, dtype=np.float64)
        self.live = np.ones(self.rows.shape[0], dtype=bool)
        self._scan: SequentialScan | None = None

    @property
    def capacity(self) -> int:
        return int(self.rows.shape[0])

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self.live).astype(np.int64)

    def scan(self) -> SequentialScan:
        """The oracle over the current live points (rebuilt after writes)."""
        if self._scan is None:
            ids = self.live_ids()
            self._scan = SequentialScan(self.rows[ids], ids)
        return self._scan

    def update(self, ids: np.ndarray, rows: np.ndarray) -> None:
        self.rows[ids] = rows
        self._scan = None

    def insert(self, rows: np.ndarray) -> None:
        self.rows = np.vstack([self.rows, rows])
        self.live = np.concatenate([self.live, np.ones(rows.shape[0], dtype=bool)])
        self._scan = None

    def delete(self, ids: np.ndarray) -> None:
        self.live[ids] = False
        self._scan = None


class Replica:
    """Store, translator and collection built from public constructors.

    It holds the same points and index normals as the facade, so its write
    calls do the same work as the facade's inner layers; the traced run times
    them here. Features equal points: the workloads use the identity map.
    """

    def __init__(self, points: np.ndarray, index: FunctionIndex) -> None:
        self.store = FeatureStore(points)
        self.translator = Translator(index.query_model.octant())
        self.translator.observe(points)
        self.collection = PlanarIndexCollection(
            self.store, self.translator, index.collection.normals, index.collection.strategy
        )


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _p90_by_round(values, marks) -> float:
    """The median over rounds of each round's 90th percentile."""
    bounds = [*marks, len(values)]
    per_round = [
        np.percentile(values[a:b], 90) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    return float(np.median(per_round)) if per_round else float("nan")


class LibraryBench:
    """Runs the query, top-k, batch and churn phases against one index."""

    def __init__(
        self,
        index: FunctionIndex,
        points: np.ndarray,
        queries: list,
        spec: dict,
        tally: Tally,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
    ) -> None:
        self.index = index
        self.mirror = Mirror(points)
        self.queries = queries
        self.k = int(spec["k"])
        self.batch_size = int(spec["batch_size"])
        self.churn_points = int(spec["churn_points"])
        self.churn_queries = int(spec["churn_queries"])
        self.low = float(spec["low"])
        self.high = float(spec["high"])
        self.tally = tally
        self.rng = rng
        self.tracer = tracer
        self.replica = Replica(points, index) if tracer is not None else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stats: list = []  # QueryStats of every facade inequality answer
        self.useful = [0, 0]  # II points accepted, II points verified (interval route)
        self._cursor = 0
        self._request = 0
        self._spent: dict[str, float] = defaultdict(float)
        self._steps: dict[str, int] = defaultdict(int)
        self._marks: dict[str, list[int]] = defaultdict(list)

    def start_round(self) -> None:
        """Mark where the next round's samples begin, for per-round percentiles."""
        for key in ("query_index_us", "topk_index_us"):
            self._marks[key].append(len(self.samples[key]))

    # ------------------------------------------------------------------ #

    def _next_query(self):
        query = self.queries[self._cursor % len(self.queries)]
        self._cursor += 1
        return query

    def _paired(self, run_index, run_scan, index_first: bool):
        """Time ``run_index`` and ``run_scan`` back to back; ns each."""
        if index_first:
            t0 = now_ns()
            answer = run_index()
            t1 = now_ns()
            truth = run_scan()
            t2 = now_ns()
            return answer, truth, t1 - t0, t2 - t1
        t0 = now_ns()
        truth = run_scan()
        t1 = now_ns()
        answer = run_index()
        t2 = now_ns()
        return answer, truth, t2 - t1, t1 - t0

    def pair_query(self, query, index_first: bool) -> None:
        """One inequality query on the index and on the scan, compared."""
        oracle = self.mirror.scan()
        try:
            answer, truth, t_index, t_scan = self._paired(
                lambda: self.index.query(query.normal, query.offset, query.op),
                lambda: oracle.query(query),
                index_first,
            )
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.tally.fail(f"query raised {type(exc).__name__}: {exc}")
            return
        self.samples["query_index_us"].append(t_index / 1e3)
        self.samples["query_scan_us"].append(t_scan / 1e3)
        if answer.stats is not None:
            self.stats.append(answer.stats)
        self.tally.record(
            np.array_equal(answer.ids, truth),
            f"query ids differ from the scan ({answer.ids.size} vs {truth.size})",
        )

    def traced_query(self, query, index_first: bool) -> None:
        """One query through the facade, replayed stage by stage, then the scan."""
        tracer, coll = self.tracer, self.index.collection
        request = self._request
        self._request += 1
        oracle = self.mirror.scan()
        try:
            scan_span = None
            if not index_first:
                t0 = now_ns()
                truth = oracle.query(query)
                scan_span = (t0, now_ns())
            t0 = now_ns()
            answer = self.index.query(query.normal, query.offset, query.op)
            t1 = now_ns()
            root = tracer.span("facade.query", t0, t1, -1, request)
            t0 = now_ns()
            whole = coll.query(query)
            t1 = now_ns()
            parent = tracer.span("collection.query", t0, t1, root, request)
            t0 = now_ns()
            wq = coll.working_query(query)
            t1 = now_ns()
            best = coll.select(wq)
            t2 = now_ns()
            r_lo, r_hi, n = best.interval_ranks(wq)
            t3 = now_ns()
            tracer.span("collection.working_query", t0, t1, parent, request)
            tracer.span("collection.select", t1, t2, parent, request)
            tracer.span("planar.interval_ranks", t2, t3, parent, request)
            stats = answer.stats
            if stats.n_verified == stats.n_total:
                ids, values = self.replica.store.scan_values(wq.query.normal)
                t4 = now_ns()
                replayed = ids[wq.op.evaluate(values, wq.query.offset)]
                t5 = now_ns()
                tracer.span("feature_store.scan_values", t3, t4, parent, request)
                tracer.span("collection.scan_mask", t4, t5, parent, request)
            else:
                replayed = best.finish_query(wq, r_lo, r_hi).ids
                t4 = now_ns()
                tracer.span("planar.finish_query", t3, t4, parent, request)
                accepted_ii = stats.n_results - (
                    stats.si_size if wq.op.is_upper_bound else stats.li_size
                )
                self.useful[0] += accepted_ii
                self.useful[1] += stats.n_verified
            if scan_span is None:
                t0 = now_ns()
                truth = oracle.query(query)
                scan_span = (t0, now_ns())
            tracer.span("scan.query", scan_span[0], scan_span[1], -1, request)
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.tally.fail(f"traced query raised {type(exc).__name__}: {exc}")
            return
        self.stats.append(stats)
        self.tally.record(
            np.array_equal(whole.ids, answer.ids) and np.array_equal(replayed, answer.ids),
            "replayed stages differ from the facade answer",
        )
        self.tally.record(
            np.array_equal(answer.ids, truth),
            f"query ids differ from the scan ({answer.ids.size} vs {truth.size})",
        )

    def query_step(self, position: int) -> None:
        """Paired query ``position``: order alternates; when tracing, every other pair is traced."""
        query = self._next_query()
        index_first = position % 2 == 0
        if self.tracer is not None and (position // 2) % 2 == 1:
            self.traced_query(query, index_first)
        else:
            self.pair_query(query, index_first)

    def run(self, phase: str, until_s: float) -> None:
        """Run steps of ``phase`` until its total time reaches ``until_s``.

        Phases are run in rounds, each round raising every phase's total, so
        that each metric's samples spread over the whole run.
        """
        step = getattr(self, f"{phase}_step")
        started = time.perf_counter()
        while self._spent[phase] + time.perf_counter() - started < until_s:
            step(self._steps[phase])
            self._steps[phase] += 1
        self._spent[phase] += time.perf_counter() - started

    # ------------------------------------------------------------------ #

    def topk_step(self, position: int) -> None:
        """One paired top-k query."""
        query = self._next_query()
        oracle = self.mirror.scan()
        try:
            if self.tracer is not None and (position // 2) % 2 == 1:
                answer, truth = self._traced_topk(query, oracle)
            else:
                answer, truth, t_index, t_scan = self._paired(
                    lambda: self.index.topk(query.normal, query.offset, self.k, query.op),
                    lambda: oracle.topk(query, self.k),
                    position % 2 == 0,
                )
                self.samples["topk_index_us"].append(t_index / 1e3)
                self.samples["topk_scan_us"].append(t_scan / 1e3)
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.tally.fail(f"topk raised {type(exc).__name__}: {exc}")
            return
        self.samples["topk_checked_frac"].append(answer.n_checked / max(answer.n_total, 1))
        self.tally.record(np.array_equal(answer.ids, truth.ids), "top-k ids differ from the scan")

    def _traced_topk(self, query, oracle):
        tracer, coll = self.tracer, self.index.collection
        request = self._request
        self._request += 1
        t0 = now_ns()
        answer = self.index.topk(query.normal, query.offset, self.k, query.op)
        t1 = now_ns()
        root = tracer.span("facade.topk", t0, t1, -1, request)
        t0 = now_ns()
        whole = coll.topk(query, self.k)
        t1 = now_ns()
        parent = tracer.span("collection.topk", t0, t1, root, request)
        t0 = now_ns()
        wq = coll.working_query(query)
        t1 = now_ns()
        best = coll.select(wq)
        t2 = now_ns()
        replayed = best.topk(wq, self.k)
        t3 = now_ns()
        tracer.span("collection.working_query", t0, t1, parent, request)
        tracer.span("collection.select", t1, t2, parent, request)
        tracer.span("planar.topk", t2, t3, parent, request)
        t0 = now_ns()
        truth = oracle.topk(query, self.k)
        tracer.span("scan.topk", t0, now_ns(), -1, request)
        self.tally.record(
            np.array_equal(whole.ids, answer.ids) and np.array_equal(replayed.ids, answer.ids),
            "replayed top-k stages differ from the facade answer",
        )
        return answer, truth

    # ------------------------------------------------------------------ #

    def batch_step(self, position: int) -> None:
        """One group of ``batch_size`` queries: ``query_batch`` against a loop."""
        group = [self._next_query() for _ in range(self.batch_size)]
        normals = np.vstack([q.normal for q in group])
        offsets = np.array([q.offset for q in group])
        op = group[0].op
        loop = None
        try:
            if self.tracer is not None and (position // 2) % 2 == 1:
                answers = self._traced_batch(group, normals, offsets, op)
            else:
                answers, loop, t_batch, t_loop = self._paired(
                    lambda: self.index.query_batch(normals, offsets, op),
                    lambda: [self.index.query(q.normal, q.offset, q.op) for q in group],
                    position % 2 == 0,
                )
                self.samples["batch_ratio"].append(t_loop / t_batch)
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.tally.fail(f"query_batch raised {type(exc).__name__}: {exc}")
            return
        oracle = self.mirror.scan()
        for member, query in enumerate(group):
            truth = oracle.query(query)
            self.tally.record(
                np.array_equal(answers[member].ids, truth), "query_batch ids differ from the scan"
            )
            if loop is not None:
                self.tally.record(
                    np.array_equal(loop[member].ids, truth),
                    "query ids differ from the scan (batch loop)",
                )

    def _traced_batch(self, group, normals, offsets, op):
        tracer, coll = self.tracer, self.index.collection
        request = self._request
        self._request += 1
        t0 = now_ns()
        answers = self.index.query_batch(normals, offsets, op)
        t1 = now_ns()
        root = tracer.span("facade.query_batch", t0, t1, -1, request)
        t0 = now_ns()
        results = coll.query_batch(group)
        t1 = now_ns()
        tracer.span("collection.query_batch", t0, t1, root, request)
        self.tally.record(
            all(np.array_equal(r.ids, a.ids) for r, a in zip(results, answers)),
            "collection.query_batch differs from the facade answer",
        )
        return answers

    # ------------------------------------------------------------------ #

    def _fresh(self) -> np.ndarray:
        dim = self.mirror.rows.shape[1]
        return self.rng.uniform(self.low, self.high, size=(self.churn_points, dim))

    def _timed_write(self, name: str, call) -> tuple[object, int]:
        """Run one facade write; returns its result and its span id (or -1)."""
        t0 = now_ns()
        result = call()
        t1 = now_ns()
        self.samples[f"{name}_ms"].append((t1 - t0) / 1e6)
        span = -1
        if self.tracer is not None:
            span = self.tracer.span(f"facade.{name}_points", t0, t1, -1, self._request)
        return result, span

    def _replica_write(self, name: str, parent: int, call):
        t0 = now_ns()
        result = call()
        self.tracer.span(name, t0, now_ns(), parent, self._request)
        return result

    def churn_step(self, position: int) -> None:
        """Update, insert and delete ``churn_points`` points, then paired queries."""
        m = self.churn_points
        replica = self.replica
        try:
            live = self.mirror.live_ids()
            ids = np.sort(self.rng.choice(live, size=m, replace=False))
            rows = self._fresh()
            _, span = self._timed_write("update", lambda: self.index.update_points(ids, rows))
            self.mirror.update(ids, rows)
            self.tally.record(True, "update_points")
            if replica is not None:
                replica.translator.observe(rows)
                self._replica_write("feature_store.update", span, lambda: replica.store.update(ids, rows))
                self._replica_write("collection.rekey", span, lambda: replica.collection.rekey(ids, rows))

            rows = self._fresh()
            expected = np.arange(self.mirror.capacity, self.mirror.capacity + m, dtype=np.int64)
            new_ids, span = self._timed_write("insert", lambda: self.index.insert_points(rows))
            self.mirror.insert(rows)
            self.tally.record(np.array_equal(new_ids, expected), "insert_points returned unexpected ids")
            if replica is not None:
                replica.translator.observe(rows)
                got = self._replica_write("feature_store.append", span, lambda: replica.store.append(rows))
                self._replica_write("collection.insert", span, lambda: replica.collection.insert(got, rows))
                self.tally.record(np.array_equal(got, expected), "replica append returned unexpected ids")

            oldest = self.mirror.live_ids()[:m]
            _, span = self._timed_write("delete", lambda: self.index.delete_points(oldest))
            self.mirror.delete(oldest)
            self.tally.record(True, "delete_points")
            if replica is not None:
                self._replica_write("collection.delete", span, lambda: replica.collection.delete(oldest))
                self._replica_write("feature_store.delete", span, lambda: replica.store.delete(oldest))
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.tally.fail(f"write raised {type(exc).__name__}: {exc}")
        self._request += 1
        if replica is not None:
            query = self.queries[self._cursor % len(self.queries)]
            self.tally.record(
                np.array_equal(replica.collection.query(query).ids, self.mirror.scan().query(query)),
                "replica collection differs from the scan after writes",
            )
        for _ in range(self.churn_queries):
            self.query_step(self._steps["query"])
            self._steps["query"] += 1

    # ------------------------------------------------------------------ #

    def end_to_end(self) -> dict[str, float]:
        """The library end-to-end metrics from the untraced samples."""
        s = self.samples
        return {
            "query_p50_us": median(s["query_index_us"]),
            "query_p90_us": _p90_by_round(s["query_index_us"], self._marks["query_index_us"]),
            "query_speedup_vs_scan": median(s["query_scan_us"]) / median(s["query_index_us"]),
            "topk_p50_us": median(s["topk_index_us"]),
            "topk_p90_us": _p90_by_round(s["topk_index_us"], self._marks["topk_index_us"]),
            "topk_speedup_vs_scan": median(s["topk_scan_us"]) / median(s["topk_index_us"]),
            "batch_speedup_vs_loop": median(s["batch_ratio"]),
            "update_p50_ms": median(s["update_ms"]),
            "insert_p50_ms": median(s["insert_ms"]),
            "delete_p50_ms": median(s["delete_ms"]),
        }

    def per_layer(self, reconcile_share: float) -> dict[str, float]:
        """The library per-layer metrics from the spans of a traced run."""
        tracer, s = self.tracer, self.samples
        ms = lambda name: median(tracer.durations_us(name)) / 1e3  # noqa: E731
        us = lambda name: median(tracer.durations_us(name))  # noqa: E731
        stats = self.stats
        fracs = lambda f: float(np.mean([f(st) / st.n_total for st in stats])) if stats else float("nan")  # noqa: E731
        unreconciled = 0.0
        for parent in ("collection.query", "collection.topk"):
            total, covered = tracer.reconcile(parent)
            if total > 0:
                unreconciled = max(unreconciled, abs(covered - total) / total)
        if unreconciled > reconcile_share:
            self.tally.fail(
                f"replayed stages cover {unreconciled:.1%} more or less than the enclosing call"
            )
        return {
            "facade.query_us": us("facade.query"),
            "facade.self_us": median(tracer.self_us("facade.query")),
            "facade.topk_us": us("facade.topk"),
            "facade.topk_self_us": median(tracer.self_us("facade.topk")),
            "collection.query_us": us("collection.query"),
            "collection.select_us": us("collection.select"),
            "collection.scan_route_frac": float(np.mean([st.n_verified == st.n_total for st in stats])) if stats else float("nan"),
            "collection.query_batch_us": us("collection.query_batch"),
            "collection.insert_ms": ms("collection.insert"),
            "collection.delete_ms": ms("collection.delete"),
            "collection.rekey_ms": ms("collection.rekey"),
            "planar.interval_ranks_us": us("planar.interval_ranks"),
            "planar.finish_query_us": us("planar.finish_query"),
            "planar.topk_us": us("planar.topk"),
            "planar.ii_frac": fracs(lambda st: st.ii_size),
            "planar.verified_frac": fracs(lambda st: st.n_verified),
            "planar.result_frac": fracs(lambda st: st.n_results),
            "planar.useful_frac": self.useful[0] / self.useful[1] if self.useful[1] else float("nan"),
            "planar.topk_checked_frac": float(np.mean(s["topk_checked_frac"])) if s["topk_checked_frac"] else float("nan"),
            "feature_store.scan_values_us": us("feature_store.scan_values"),
            "feature_store.append_ms": ms("feature_store.append"),
            "feature_store.delete_ms": ms("feature_store.delete"),
            "feature_store.update_ms": ms("feature_store.update"),
            "scan.query_us": us("scan.query"),
            "scan.topk_us": us("scan.topk"),
            "trace.overhead_frac": us("facade.query") / median(s["query_index_us"]) - 1.0,
            "trace.unreconciled_frac": unreconciled,
        }
