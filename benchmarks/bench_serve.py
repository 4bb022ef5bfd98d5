"""Benchmark: served throughput with and without micro-batching.

A closed loop of 64 concurrent HTTP clients drives the query service
twice over the same engine and workload: once with the coalescing
window disabled (``window=0`` — every request is its own engine call,
the strict-passthrough baseline) and once with a 5 ms window.  The
micro-batcher turns the concurrent closed loop into
``query_batch`` calls of up to 64 members, so the windowed
configuration must amortize: the acceptance gate is **>= 3x** the
baseline throughput on a multi-core host at full benchmark scale.

Smoke runs (``REPRO_BENCH_SCALE < 1``) and small machines still run
both configurations, verify every request was answered, and print the
measured ratio — they only skip the ratio assertion, like the
core-count gates in ``bench_parallel``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import numpy as np

from repro import QueryModel
from repro.bench import print_table
from repro.parallel import ShardedFunctionIndex
from repro.serve import ServiceConfig, serve_in_thread

from conftest import scaled

_N_POINTS = scaled(40_000)
_N_CLIENTS = 64
_REQUESTS_PER_CLIENT = max(2, scaled(8))


def _client_loop(host: str, port: int, jobs: list) -> int:
    """One closed-loop client: next request only after the previous answer."""
    conn = HTTPConnection(host, port, timeout=60)
    answered = 0
    try:
        for body in jobs:
            conn.request(
                "POST", "/query", body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 200, payload
            answered += 1
    finally:
        conn.close()
    return answered


def _drive(engine, window_s: float, workload: list) -> dict:
    """Serve ``engine`` with one window setting; return throughput stats."""
    config = ServiceConfig(
        batch_window_s=window_s,
        batch_max=_N_CLIENTS,
        queue_depth=1024,
    )
    handle = serve_in_thread(engine, config)
    try:
        per_client = [
            [
                workload[(client + i) % len(workload)]
                for i in range(_REQUESTS_PER_CLIENT)
            ]
            for client in range(_N_CLIENTS)
        ]
        # Warm the path (connection setup, first-touch engine caches).
        _client_loop(handle.host, handle.port, [workload[0]])
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=_N_CLIENTS) as pool:
            answered = sum(
                pool.map(
                    lambda jobs: _client_loop(handle.host, handle.port, jobs),
                    per_client,
                )
            )
        elapsed = time.perf_counter() - start
        stats = handle.service.stats()
        assert answered == _N_CLIENTS * _REQUESTS_PER_CLIENT
        assert stats["shed"] == {"quota": 0, "queue_full": 0, "brownout": 0}
        return {
            "window_ms": window_s * 1000,
            "answered": answered,
            "throughput_qps": answered / elapsed,
            "mean_batch": stats["batching"]["mean_batch"],
            "max_batch": stats["batching"]["max_batch"],
        }
    finally:
        handle.stop()


def test_serve_batching_amortization(benchmark):
    rng = np.random.default_rng(5)
    points = rng.integers(1, 30, size=(_N_POINTS, 6)).astype(np.float64)
    model = QueryModel.uniform(dim=6, low=1.0, high=5.0, rq=4)
    maxima = points.max(axis=0)
    workload = []
    for _ in range(_N_CLIENTS):
        normal = rng.integers(1, 6, size=6).astype(np.float64)
        workload.append({
            "normal": normal.tolist(),
            "offset": float(round(0.25 * normal @ maxima)),
        })

    engine = ShardedFunctionIndex(points, model, n_indices=32, rng=0, n_shards=2)
    try:
        def measure():
            baseline = _drive(engine, 0.0, workload)
            windowed = _drive(engine, 0.005, workload)
            return baseline, windowed

        baseline, windowed = benchmark.pedantic(measure, rounds=1, iterations=1)
    finally:
        engine.close()

    ratio = windowed["throughput_qps"] / baseline["throughput_qps"]
    print_table(
        f"Served throughput, {_N_CLIENTS} closed-loop clients "
        f"({_REQUESTS_PER_CLIENT} requests each)",
        [baseline, windowed],
    )
    print(f"  amortization: {ratio:.2f}x over window=0")
    # The window must actually coalesce under a 64-wide closed loop.
    assert windowed["max_batch"] > 1
    # Throughput gate: needs real cores (the baseline saturates the
    # executor with per-request engine calls) and the full-size dataset
    # (tiny engines answer faster than HTTP overhead, hiding the
    # amortization).  Guarded like the core-count gates in bench_parallel.
    if _N_POINTS >= 40_000 and (os.cpu_count() or 1) >= 4:
        assert ratio >= 3.0, (
            f"micro-batching reached only {ratio:.2f}x over the "
            f"window=0 baseline"
        )
