"""Deadlines, breakers, and the health lifecycle on the wire.

These tests boot real services and speak HTTP, so the resilience
machinery is exercised exactly as a client sees it: the
``X-Repro-Deadline-Ms`` header, ``504`` budget breakdowns, ``503``
breaker sheds with ``Retry-After``, and ``/healthz`` state flips.
"""

from __future__ import annotations

import json
import logging
import time
from http.client import HTTPConnection

import pytest

from repro.parallel.process import fork_available
from repro.reliability import faults as _flt
from repro.serve import ServiceConfig, serve_in_thread

from .conftest import build_engine, http_json, integer_queries


def http_json_with_headers(host, port, method, path, body=None, headers=None):
    """Like conftest.http_json, plus caller-supplied request headers."""
    conn = HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        conn.request(method, path, body=payload, headers=merged)
        response = conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = raw.decode("utf-8", "replace")
        return response.status, dict(response.getheaders()), decoded
    finally:
        conn.close()


def _query_body(normals, offsets, i, **extra):
    body = {"normal": normals[i].tolist(), "offset": float(offsets[i])}
    body.update(extra)
    return body


class TestDeadlinePropagation:
    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "inf", "nan"])
    def test_junk_deadline_header_answers_400(self, raw):
        engine, points = build_engine(n=200, dim=3, seed=30)
        normals, offsets = integer_queries(points, m=1, seed=31)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.0))
        try:
            status, _, payload = http_json_with_headers(
                handle.host, handle.port, "POST", "/query",
                _query_body(normals, offsets, 0),
                headers={"X-Repro-Deadline-Ms": raw},
            )
            assert status == 400
            assert "X-Repro-Deadline-Ms" in payload["detail"]
        finally:
            handle.stop()
            engine.close()

    def test_generous_deadline_header_still_answers_200(self):
        engine, points = build_engine(n=200, dim=3, seed=32)
        normals, offsets = integer_queries(points, m=1, seed=33)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.0))
        try:
            status, _, body = http_json_with_headers(
                handle.host, handle.port, "POST", "/query",
                _query_body(normals, offsets, 0),
                headers={"X-Repro-Deadline-Ms": "30000"},
            )
            assert status == 200
            direct = engine.query(normals[0], float(offsets[0]))
            assert body["ids"] == direct.ids.tolist()
        finally:
            handle.stop()
            engine.close()

    def test_tight_deadline_fails_in_budget_time_not_30s(
        self, pristine_faults
    ):
        """The regression the deadline work exists for: a 100 ms budget
        against a stalled engine answers 504 in well under a second —
        the old hard-coded 30 s timeouts never get a say — and the body
        accounts for where the budget went."""
        engine, points = build_engine(n=200, dim=3, seed=34)
        normals, offsets = integer_queries(points, m=1, seed=35)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.001))
        try:
            with _flt.injected("serve.dispatch:stall:ms=700:times=1"):
                start = time.perf_counter()
                status, _, payload = http_json_with_headers(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0),
                    headers={"X-Repro-Deadline-Ms": "100"},
                )
                elapsed = time.perf_counter() - start
            assert status == 504
            assert elapsed < 0.6  # ~the 100ms budget, never the stall
            assert payload["error"] == "deadline_exceeded"
            assert payload["stage"] in ("accept", "await", "dispatch")
            assert payload["budget_ms"] == 100.0
            assert payload["elapsed_ms"] >= 0.0
            assert isinstance(payload["stages_ms"], dict)
            stats = http_json(handle.host, handle.port, "GET", "/stats")[2]
            assert stats["deadline_expired"] >= 1
            metrics = http_json(handle.host, handle.port, "GET", "/metrics")[2]
            assert "repro_serve_deadline_expired_total" in metrics
        finally:
            handle.stop()
            engine.close()


class TestBreakerLifecycle:
    def test_trip_shed_probe_close_over_http(self, pristine_faults):
        """Consecutive engine failures trip the (tenant, op) breaker:
        requests shed 503 + Retry-After while open, /healthz degrades,
        and after the cooldown one probe closes it again."""
        engine, points = build_engine(
            n=200, dim=3, seed=36, failure_policy="raise"
        )
        normals, offsets = integer_queries(points, m=1, seed=37)
        config = ServiceConfig(
            batch_window_s=0.0,
            breaker_threshold=2,
            breaker_cooldown_s=0.2,
        )
        handle = serve_in_thread(engine, config)
        body = _query_body(normals, offsets, 0)
        try:
            with _flt.injected("shard.query:error"):
                for _ in range(2):  # two consecutive engine failures
                    status, _, payload = http_json(
                        handle.host, handle.port, "POST", "/query", body
                    )
                    assert status == 503
                    assert payload["error"] == "unavailable"
                # The breaker is now open: this shed never reaches the
                # engine (the fault plan would fire if it did).
                status, headers, payload = http_json(
                    handle.host, handle.port, "POST", "/query", body
                )
                assert status == 503
                assert payload["error"] == "shed"
                assert payload["reason"] == "breaker"
                assert int(headers["Retry-After"]) >= 1
                health = http_json(
                    handle.host, handle.port, "GET", "/healthz"
                )[2]
                assert health["status"] == "degraded"
                assert health["breakers"]["open"] == 1
                assert health["breakers"]["tripped"] == ["default:query"]
            # Faults disarmed; once the cooldown elapses the half-open
            # probe goes through, succeeds, and the breaker closes.
            time.sleep(0.25)
            status, _, answer = http_json(
                handle.host, handle.port, "POST", "/query", body
            )
            assert status == 200
            direct = engine.query(normals[0], float(offsets[0]))
            assert answer["ids"] == direct.ids.tolist()
            health = http_json(handle.host, handle.port, "GET", "/healthz")[2]
            assert health["status"] == "healthy"
            assert health["breakers"]["open"] == 0
            stats = http_json(handle.host, handle.port, "GET", "/stats")[2]
            assert stats["shed"]["breaker"] >= 1
            metrics = http_json(handle.host, handle.port, "GET", "/metrics")[2]
            assert "repro_breaker_state" in metrics
            assert "repro_breaker_transitions_total" in metrics
        finally:
            handle.stop()
            engine.close()


class TestHealthLifecycle:
    def test_draining_phase_refuses_work_and_fails_healthchecks(self):
        """Once the phase leaves ``running``, /healthz answers 503
        (load balancers pull the instance) and new queries shed with
        an explicit ``draining`` reason instead of a dead socket."""
        engine, points = build_engine(n=200, dim=3, seed=38)
        normals, offsets = integer_queries(points, m=1, seed=39)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.0))
        try:
            service = handle.service
            service._phase = "draining"
            try:
                status, _, health = http_json(
                    handle.host, handle.port, "GET", "/healthz"
                )
                assert status == 503
                assert health["status"] == "draining"
                status, headers, payload = http_json(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0),
                )
                assert status == 503
                assert payload["reason"] == "draining"
                assert "Retry-After" in headers
            finally:
                service._phase = "running"
            # Back to running: the same request answers normally.
            status, _, _ = http_json(
                handle.host, handle.port, "POST", "/query",
                _query_body(normals, offsets, 0),
            )
            assert status == 200
        finally:
            handle.stop()
            engine.close()

    def test_deep_backlog_reports_browned_out(self):
        engine, points = build_engine(n=200, dim=3, seed=40)
        handle = serve_in_thread(
            engine,
            ServiceConfig(
                batch_window_s=0.0, queue_depth=10, brownout_fraction=0.5
            ),
        )
        try:
            batcher = handle.service._batcher
            batcher._outstanding += 7
            try:
                health = http_json(
                    handle.host, handle.port, "GET", "/healthz"
                )[2]
                assert health["status"] == "browned_out"
            finally:
                batcher._outstanding -= 7
        finally:
            handle.stop()
            engine.close()

    def test_stop_transitions_through_draining_to_stopped(self):
        engine, _points = build_engine(n=200, dim=3, seed=41)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.0))
        try:
            assert handle.service.stats()["phase"] == "running"
        finally:
            handle.stop()
            engine.close()
        assert handle.service.stats()["phase"] == "stopped"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stop_closes_idle_keep_alive_connections_cleanly(
        self, caplog, capfd, backend
    ):
        """Stopping while a kept-alive client connection sits idle closes
        it from the server side: the client reads EOF, asyncio logs no
        error, and nothing prints a traceback — also when forked
        process-shard workers hold copies of the client socket."""
        if backend == "process" and not fork_available():
            pytest.skip("process backend requires the fork start method")
        engine, points = build_engine(n=200, dim=3, seed=42, backend=backend)
        normals, offsets = integer_queries(points, m=1, seed=43)
        handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.0))
        conn = HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                conn.request(
                    "POST", "/query",
                    body=json.dumps(_query_body(normals, offsets, 0)),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                handle.stop()
            conn.sock.settimeout(3)
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()
            handle.stop()
            engine.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert "Traceback" not in capfd.readouterr().err
