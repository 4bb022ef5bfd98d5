"""Served phase: ``repro serve`` in a child process, driven by an open loop.

The server is started with ``python -m repro serve --index <artifact>`` on
the workload's own points, one shard, and a service configuration pinned
through its ``REPRO_SERVE_*`` variables. The generator in this process
sends ``POST /query`` on a fixed schedule over at most ``connections``
keep-alive connections. Latency counts from each request's due time, so a
stall also charges the requests that queue behind it; the generator's own
lateness is the send time minus the later of the due time and the moment a
connection was free. Response bodies are kept and checked against the scan
oracle only after the window, so checking does not load the generator.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import save_index

__all__ = ["Server", "ServedLoad", "Window", "open_loop", "save_artifact"]

_HEADERS = {"Content-Type": "application/json"}


class Server:
    """One ``repro serve`` child process over a saved index."""

    def __init__(self, root: Path, artifact: Path, work: Path, seed: int, service_env: dict) -> None:
        self._root = root
        self._artifact = artifact
        self._work = work
        self._seed = seed
        self._env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self._env.update(service_env)
        src = str(root / "src")
        self._env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self._env["PYTHONPATH"]] if self._env.get("PYTHONPATH") else [])
        )
        self._proc: subprocess.Popen | None = None
        self.stderr_path = work / "serve-stderr.txt"
        self.stderr_path.unlink(missing_ok=True)
        self.address: tuple[str, int] | None = None
        self.tracebacks = 0
        self.exit_codes: list[int] = []

    def start(self, timeout_s: float = 90.0) -> float:
        """Spawn the server; returns seconds from spawn until the ready-file appears."""
        ready = self._work / "serve-ready.txt"
        ready.unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--index", str(self._artifact), "--host", "127.0.0.1", "--port", "0",
            "--ready-file", str(ready), "--shards", "1", "--workers", "1",
            "--seed", str(self._seed),
        ]
        with open(self.stderr_path, "ab") as stderr:
            started = time.perf_counter()
            self._proc = subprocess.Popen(
                command, cwd=self._root, env=self._env,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        while True:
            if ready.exists():
                text = ready.read_text(encoding="utf-8").strip()
                if text.count(":") == 1:
                    elapsed = time.perf_counter() - started
                    host, port = text.split(":")
                    self.address = (host, int(port))
                    return elapsed
            if self._proc.poll() is not None:
                code = self._proc.returncode
                self.stop()
                raise RuntimeError(f"repro serve exited with {code} before it was ready")
            if time.perf_counter() - started > timeout_s:
                self.stop()
                raise RuntimeError(f"repro serve was not ready after {timeout_s:.0f} s")
            time.sleep(0.002)

    def get_json(self, path: str) -> dict:
        """GET ``path`` on a fresh connection, closed afterwards."""
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, wait for the drain, then count tracebacks in its stderr."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        self.exit_codes.append(proc.returncode)
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        self.tracebacks = text.count("Traceback (most recent call last)")


def save_artifact(index, work: Path) -> Path:
    """Persist ``index`` for the server to load."""
    artifact = work / "index"
    shutil.rmtree(artifact, ignore_errors=True)
    return save_index(index, artifact)


class Window:
    """Per-request timings, statuses and bodies of one open-loop window."""

    def __init__(self, rate: float, seconds: float, query_ids: np.ndarray) -> None:
        n = max(1, int(round(rate * seconds)))
        self.rate = rate
        self.query_ids = query_ids[:n]
        self.due = np.zeros(n)
        self.picked = np.full(n, np.nan)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.int64)
        self.bodies: list[bytes | None] = [None] * n
        self.aborted = False

    def completed(self) -> np.ndarray:
        """Positions of the requests that were sent and answered or failed."""
        return np.flatnonzero(~np.isnan(self.done))

    def latencies_ms(self) -> np.ndarray:
        """Completion minus due time, for every completed request."""
        mask = ~np.isnan(self.done)
        return (self.done[mask] - self.due[mask]) * 1e3

    def generator_late_ms(self) -> np.ndarray:
        mask = ~np.isnan(self.sent)
        return (self.sent[mask] - np.maximum(self.due[mask], self.picked[mask])) * 1e3

    def passes(self, limit_ms: float) -> bool:
        """p90 within the limit, every request answered 200, no growing backlog.

        A probe holds one to two hundred requests, so p90 is the highest
        percentile with ten samples beyond it.
        """
        sent = self.completed().size
        if self.aborted or sent < len(self.due) or np.any(self.status != 200):
            return False
        if np.percentile(self.latencies_ms(), 90) > limit_ms:
            return False
        tail = max(1, sent // 10)
        backlog_ms = (self.sent[-tail:] - self.due[-tail:]) * 1e3
        return float(np.median(backlog_ms)) <= limit_ms

    def achieved_rps(self) -> float:
        """Requests completed per second, from the first due time to the last completion."""
        mask = ~np.isnan(self.done)
        return float(mask.sum() / (self.done[mask].max() - self.due[0]))


def open_loop(
    address: tuple[str, int],
    bodies: list[bytes],
    query_ids: np.ndarray,
    rate: float,
    seconds: float,
    connections: int,
    abort_ms: float,
    cutoff_s: float | None = None,
) -> Window:
    """Send ``rate`` requests per second for ``seconds`` on a fixed schedule.

    A request whose latency passes ``abort_ms`` stops the window early: the
    rate is already shown to be too high, and the rest would only grow the
    backlog. With ``cutoff_s``, no request is sent after that many seconds,
    whatever is still due: a rate above capacity then measures throughput.
    """
    window = Window(rate, seconds, query_ids)
    n = len(window.due)
    start = time.perf_counter() + 0.01
    window.due[:] = start + np.arange(n) / rate
    last_send = start + (cutoff_s if cutoff_s is not None else math.inf)
    counter = itertools.count()
    stop = threading.Event()

    def worker() -> None:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            while not stop.is_set() and time.perf_counter() < last_send:
                i = next(counter)
                if i >= n:
                    return
                window.picked[i] = time.perf_counter()
                wait = window.due[i] - window.picked[i]
                if wait > 0:
                    time.sleep(wait)
                window.sent[i] = time.perf_counter()
                try:
                    conn.request("POST", "/query", body=bodies[window.query_ids[i]], headers=_HEADERS)
                    response = conn.getresponse()
                    window.bodies[i] = response.read()
                    window.status[i] = response.status
                except (OSError, http.client.HTTPException):
                    window.status[i] = -1
                    conn.close()
                    conn = http.client.HTTPConnection(*address, timeout=60)
                window.done[i] = time.perf_counter()
                if (window.done[i] - window.due[i]) * 1e3 > abort_ms:
                    window.aborted = True
                    stop.set()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"perfbench-conn-{c}") for c in range(connections)]
    # A thread waking for its due time waits for the interpreter lock; the
    # default 5 ms switch interval would show up as generator lateness.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return window


class ServedLoad:
    """The open-loop traffic of one run: warm-up, reference windows, ladder probes.

    The reference rate runs in one short window per round, so a run spreads
    it across its length. The ladder search is done in steps that a run can
    spread the same way: first saturation probes measure throughput with
    every connection busy, then a staircase over the fixed ladder rates
    below it finds the highest rate that passes.
    """

    def __init__(self, address: tuple[str, int], queries: list, served: dict) -> None:
        self.address = address
        self.n_queries = len(queries)
        self.bodies = [
            json.dumps({"normal": q.normal.tolist(), "offset": q.offset, "op": q.op.value}).encode()
            for q in queries
        ]
        self.connections = int(served["connections"])
        self.reference_rps = float(served["reference_rps"])
        self.limit_ms = float(served["latency_limit_ms"])
        self.abort_ms = self.limit_ms * float(served["abort_factor"])
        ladder = served["ladder"]
        self.rungs = [
            round(ladder["start_rps"] * ladder["ratio"] ** i, 1) for i in range(ladder["count"])
        ]
        self.max_probes = int(ladder["max_probes"])
        self.start_share = float(ladder["start_share"])
        self.saturation_probes = int(ladder["saturation_probes"])
        self._saturation: list[float] = []
        self.windows: list[Window] = []
        self.reference: list[Window] = []
        self.capacity_rps: float | None = None
        self.max_rps: float | None = None
        self._next_rung: int | None = None
        self._probes = 0
        self._cursor = 0

    def _run(self, rate: float, seconds: float, connections: int, abort_ms: float, cutoff_s=None) -> Window:
        count = int(round(rate * seconds)) + 1
        ids = (self._cursor + np.arange(count)) % self.n_queries
        window = open_loop(self.address, self.bodies, ids, rate, seconds, connections, abort_ms, cutoff_s)
        self._cursor += window.completed().size
        self.windows.append(window)
        return window

    def _saturate(self, seconds: float) -> Window:
        """Requests back to back on every connection for ``seconds``."""
        return self._run(self.rungs[-1], seconds, self.connections, 6e4, cutoff_s=seconds)

    def warmup(self, seconds: float) -> None:
        """Saturating traffic, checked but not timed.

        A freshly started server answers its first few hundred requests
        markedly slower, so the measured windows start after this.
        """
        self._saturate(seconds)

    def reference_window(self, seconds: float) -> None:
        self.reference.append(
            self._run(self.reference_rps, seconds, self.connections, 1e4)
        )

    def ladder_done(self) -> bool:
        return self._next_rung is None and self.capacity_rps is not None

    def ladder_step(self, seconds: float) -> None:
        """A saturation probe, or the next probe of the staircase below the best one.

        The staircase starts at the highest rate at or below ``start_share``
        of the measured throughput, climbs one rate per pass and stops at the
        first failure after a pass; before any pass it steps down instead. A
        noisy probe near the knee therefore costs one rate, not half the ladder.
        """
        if self.ladder_done():
            return
        if len(self._saturation) < self.saturation_probes:
            self._saturation.append(self._saturate(seconds).achieved_rps())
            if len(self._saturation) == self.saturation_probes:
                # The best probe: a host stall can only lower a probe's throughput.
                self.capacity_rps = max(self._saturation)
                start = [i for i, r in enumerate(self.rungs) if r <= self.start_share * self.capacity_rps]
                self._next_rung = start[-1] if start else 0
            return
        rung = self._next_rung
        window = self._run(self.rungs[rung], seconds, self.connections, self.abort_ms)
        self._probes += 1
        passed = window.passes(self.limit_ms)
        if passed:
            self.max_rps = window.achieved_rps()
        step = 1 if passed else (-1 if self.max_rps is None else 0)
        following = rung + step
        if step == 0 or self._probes >= self.max_probes or not 0 <= following < len(self.rungs):
            self._next_rung = None
        else:
            self._next_rung = following

    def served_max_rps(self) -> float | None:
        """The staircase's result; else the reference rate, if all its windows pass.

        The reference rate is a fixed rate of the run too, so when a slow
        stretch fails every staircase probe it is the rate shown to pass;
        ``None`` means no rate met the limit.
        """
        if self.max_rps is not None:
            return self.max_rps
        if self.reference and all(w.passes(self.limit_ms) for w in self.reference):
            return float(np.median([w.achieved_rps() for w in self.reference]))
        return None

    def reference_latencies_ms(self) -> np.ndarray:
        return np.concatenate([w.latencies_ms() for w in self.reference])

    def reference_p90_ms(self) -> float:
        """The median over reference windows of each window's 90th percentile."""
        return float(np.median([np.percentile(w.latencies_ms(), 90) for w in self.reference]))

    def generator_late_ms(self) -> np.ndarray:
        return np.concatenate([w.generator_late_ms() for w in self.reference])

    def verify(self, oracle_ids, tally) -> None:
        """Check every response of every window against the oracle."""
        verified: dict[int, bytes] = {}
        for window in self.windows:
            verify_window(window, oracle_ids, tally, verified)


def _ids_field(body: bytes) -> bytes | None:
    """The raw ``"ids": [...]`` text of a response body, if it has one."""
    start = body.find(b'"ids": [')
    end = body.find(b"]", start)
    return body[start:end] if start >= 0 and end > start else None


def verify_window(window: Window, oracle_ids, tally, verified: dict[int, bytes]) -> None:
    """Check every response of ``window``; non-200s and mismatches fail.

    ``oracle_ids(query_id)`` gives the scan's answer. A body whose ids text
    is byte-identical to one already checked for the same query passes
    without decoding again; ``verified`` holds those texts.
    """
    for i in window.completed():
        status = int(window.status[i])
        if status != 200:
            tally.fail(f"served /query answered {status}")
            continue
        query_id = int(window.query_ids[i])
        field = _ids_field(window.bodies[i])
        if field is not None and verified.get(query_id) == field:
            tally.record(True, "")
            continue
        try:
            ids = np.asarray(json.loads(window.bodies[i])["ids"], dtype=np.int64)
        except (ValueError, KeyError, TypeError) as exc:
            tally.fail(f"served body unreadable: {exc}")
            continue
        ok = np.array_equal(ids, oracle_ids(query_id))
        tally.record(ok, "served ids differ from the scan")
        if ok and field is not None:
            verified[query_id] = field
