#!/usr/bin/env python3
"""perfbench: the repository benchmark, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload indp-d6 --seed 1 --seconds 25 --trace 0

The workload's points and queries are made from ``--seed``; the program
receives only those. Every workload runs the same phases (served, query,
top-k, batch, churn) for shares of ``--seconds`` set in ``spec.json``; every
answer is checked against the ``SequentialScan`` oracle. With ``--trace 0``
the run reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it records spans around each layer's public calls and reports
the per-layer metrics instead. A table of every metric, with its unit and
direction, is printed first; the last line is one JSON object.

Ambient ``REPRO_*`` variables are cleared before the package is imported, so
a shell that exports fault plans or shard counts measures the same program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def scrub_environment() -> list[str]:
    """Remove every ``REPRO_*`` variable from this process; returns their names."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def fingerprint(cleared: list[str]) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "cleared_env": cleared,
    }


@contextlib.contextmanager
def gc_paused():
    """Collect once, then keep the cyclic collector out of the timed section."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def make_inputs(spec: dict, dim: int, seed: int, scale: float):
    """Indp points, the Eq. 18 query pool and the query model, all from ``seed``."""
    import numpy as np
    from repro.datasets import independent
    from repro.datasets.workloads import Workload

    n = max(500, int(round(spec["n"] * scale)))
    points = independent(n, dim, spec["low"], spec["high"], rng=np.random.default_rng([seed, 0])).points
    workload = Workload.for_points(
        points, rq=spec["rq"], low=spec["query_low"], high=spec["query_high"],
        inequality_parameter=spec["inequality_parameter"], op=spec["op"],
    )
    queries = workload.sample_queries(spec["query_pool"], rng=np.random.default_rng([seed, 1]))
    return points, queries, workload.model


def served_layers(load, stats, engine, queries, served, tally, tracer) -> dict:
    """Per-layer serving metrics: the engine call replayed locally on served queries."""
    import numpy as np
    from repro.serve.http import render_response

    from library_phases import median

    deadline_s = float(served["service_env"]["REPRO_SERVE_DEADLINE_MS"]) / 1e3
    overhead, render = [], []
    answered = [(w, int(i)) for w in load.reference for i in w.completed() if w.status[i] == 200]
    for request, (window, position) in enumerate(answered[: served["trace_samples"]]):
        body = json.loads(window.bodies[position])
        query = queries[window.query_ids[position]]
        t0 = time.perf_counter_ns()
        answer = engine.query_batch(query.normal[None, :], np.array([query.offset]), query.op, timeout_s=deadline_s)
        t1 = time.perf_counter_ns()
        shard = engine.collections[0].query_batch([query])
        t2 = time.perf_counter_ns()
        root = tracer.span("parallel.query_batch", t0, t1, -1, request)
        tracer.span("parallel.shard_query_batch", t1, t2, root, request)
        tally.record(
            np.array_equal(answer[0].ids, shard[0].ids)
            and np.array_equal(answer[0].ids, np.asarray(body["ids"], dtype=np.int64)),
            "local engine differs from the served answer",
        )
        overhead.append((window.done[position] - window.due[position]) * 1e3 - (t1 - t0) / 1e6)
        t3 = time.perf_counter_ns()
        render_response(200, body)
        render.append((time.perf_counter_ns() - t3) / 1e6)
    late = load.generator_late_ms()
    sizes = [len(w.bodies[i] or b"") for w in load.reference for i in w.completed()]
    return {
        "serve.overhead_ms": median(overhead),
        "serve.render_ms": median(render),
        "serve.response_bytes": median(sizes),
        "serve.mean_batch": float(stats["batching"]["mean_batch"]),
        "serve.shed": float(sum(stats["shed"].values())),
        "serve.expired": float(stats["deadline_expired"]),
        "serve.gen_late_ms": float(np.percentile(late, 99)) if late.size else float("nan"),
        "parallel.query_batch_us": median(tracer.durations_us("parallel.query_batch")),
        "parallel.fanout_us": median(tracer.self_us("parallel.query_batch")),
    }


PHASES = ("query", "topk", "batch", "churn")


def run_workload(args, spec: dict):
    """Set up, run every phase in rounds, check, and return ``(values, tally, tracer)``."""
    import numpy as np
    from repro import FunctionIndex, SequentialScan

    from library_phases import LibraryBench, Tally, median
    from served_phase import Server, ServedLoad, save_artifact
    from tracing import Tracer

    wspec = spec["workloads"][args.workload]
    served = spec["served"]
    shares = wspec["shares"]
    seed = args.seed
    points, queries, model = make_inputs(spec, wspec["dim"], seed, args.scale)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    values: dict[str, float] = {}
    work = WORK / f"run-{os.getpid()}"  # one per process: runs never share files
    work.mkdir(parents=True, exist_ok=True)

    builds = []
    for _ in range(spec["setup_repeats"] if wspec["setup"] == "build" else 1):
        index = None
        gc.collect()
        started = time.perf_counter()
        index = FunctionIndex(points, model, n_indices=spec["n_indices"], rng=seed)
        builds.append(time.perf_counter() - started)
    values["index_bytes_per_point"] = index.memory_bytes() / len(index)

    artifact = save_artifact(index, work)
    server = Server(ROOT, artifact, work, seed, served["service_env"])
    bench = LibraryBench(index, points, queries, spec, tally, np.random.default_rng([seed, 2]), tracer)
    rounds = int(spec["rounds"])
    served_s = shares["served"] * args.seconds
    try:
        spawns = [server.start()]
        if wspec["setup"] == "spawn":
            for _ in range(spec["setup_repeats"] - 1):
                server.stop()
                spawns.append(server.start())
        values["setup_s"] = median(spawns if wspec["setup"] == "spawn" else builds)
        load = ServedLoad(server.address, queries, served)
        step_s = served_s * (1.0 - served["reference_share"]) / served["ladder_steps"]
        with gc_paused():
            load.warmup(served["warmup_seconds"])
        # Every phase gets a slice of every round, so host noise that drifts
        # over tens of seconds is shared by all metrics instead of by one;
        # tail percentiles are taken per round and their median reported,
        # so one stall episode does not decide a run's tail.
        for round_no in range(1, rounds + 1):
            bench.start_round()
            with gc_paused():
                load.reference_window(served_s * served["reference_share"] / rounds)
                if tracer is None:
                    load.ladder_step(step_s)
            for phase in PHASES:
                if shares[phase] > 0:
                    with gc_paused():
                        bench.run(phase, shares[phase] * args.seconds * round_no / rounds)
        while tracer is None and not load.ladder_done():
            with gc_paused():
                load.ladder_step(step_s)
        stats = server.get_json("/stats") if tracer is not None else None
    finally:
        server.stop()
        if server.tracebacks:
            shutil.copy(server.stderr_path, WORK / f"serve-stderr-{args.workload}-{seed}.txt")
        shutil.rmtree(work, ignore_errors=True)
    for code in server.exit_codes:
        tally.record(code == 0, f"repro serve exited with {code}")
    values["serve.stderr_tracebacks"] = float(server.tracebacks)

    oracle = SequentialScan(points)
    cache: dict[int, np.ndarray] = {}

    def oracle_ids(query_id: int) -> np.ndarray:
        if query_id not in cache:
            cache[query_id] = oracle.query(queries[query_id])
        return cache[query_id]

    load.verify(oracle_ids, tally)
    latencies = load.reference_latencies_ms()
    values["served_p50_ms"] = median(latencies)
    values["served_p90_ms"] = load.reference_p90_ms()
    if tracer is None:
        max_rps = load.served_max_rps()
        if max_rps is None:
            tally.fail(f"no fixed rate, the reference included, kept p90 within {load.limit_ms} ms")
        values["served_max_rps"] = max_rps or 0.0
    else:
        from repro.parallel.engine import ShardedFunctionIndex

        # The engine `repro serve --index` builds from the artifact, rebuilt here.
        engine = ShardedFunctionIndex(points, model, n_indices=index.n_indices, rng=seed, n_shards=1)
        try:
            values.update(served_layers(load, stats, engine, queries, served, tally, tracer))
        finally:
            engine.close()
    values.update(bench.end_to_end())
    if tracer is not None:
        values.update(bench.per_layer(spec["reconcile_share"]))
    return values, tally, tracer


def report(args, bench_json: dict, spec: dict, values: dict, tally, print_fn=print) -> dict:
    """Print the metric table and return the result object."""
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    rows = []
    for entry in bench_json[kind]:
        name = entry["name"]
        value = values.get(name, float("nan"))
        if name != "ok_frac" and not (isinstance(value, float) and math.isfinite(value)):
            if kind == "end_to_end":
                tally.fail(f"{name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
        rows.append((name, entry))
    attempted = max(tally.attempted, 1)
    ok = 1.0 - tally.failed / attempted
    if "ok_frac" in metrics:
        metrics["ok_frac"]["value"] = ok
    for name, entry in rows:
        line = f"  {name:30s} {metrics[name]['value']:>14.6g} {entry['unit']:6s} {entry['better']} is better"
        if kind == "per_layer":
            mapping = spec["per_layer"].get(name, {})
            moves = ", ".join(mapping.get("moves", [])) or "-"
            line += f"  -> {moves} on {mapping.get('workload', '-')}"
        print_fn(line)
    print_fn(
        f"  {'failed_frac':30s} {tally.failed / attempted:>14.6g} {'share':6s} lower is better"
        f"  ({tally.failed} failed of {tally.attempted} attempted)"
    )
    if kind == "end_to_end":
        # Reported, not in BENCHMARK.json: too unsteady on a shared 2-core host to gate on.
        for name, unit, better in (("served_p90_ms", "ms", "lower"), ("served_max_rps", "req/s", "higher")):
            value = values.get(name, float("nan"))
            print_fn(f"  {name:30s} {value:>14.6g} {unit:6s} {better} is better  (not gated)")
        print_fn(f"  {'serve.stderr_tracebacks':30s} {values.get('serve.stderr_tracebacks', 0.0):>14.6g} count")
    for note in tally.notes:
        print_fn(f"  failure: {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies n; for smoke tests")
    args = parser.parse_args(argv)

    cleared = scrub_environment()
    # Turn SIGTERM into SystemExit so the cleanup in `finally` stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_path, bench_path = HERE / "spec.json", ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        bench_json = json.loads(bench_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {spec_path.name} / {bench_path.name}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"fingerprint: {json.dumps(fingerprint(cleared))}")
    try:
        values, tally, tracer = run_workload(args, spec)
    except Exception:  # the run is void: report why, print no result
        traceback.print_exc()
        return 1
    result = report(args, bench_json, spec, values, tally)
    if tracer is not None:
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans: {len(tracer)} written to {spans.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
