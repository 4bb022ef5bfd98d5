"""Shared fixtures for the serving-layer tests.

Datasets are integer-valued by default (every scalar product is exact in
float64, so "identical" includes boundary membership and tie-breaks);
``float_dataset`` / ``float_queries`` supply real floating-point data
with offsets on a stored point's score.  Engines are small, and the HTTP
helpers speak plain ``http.client`` so the tests exercise the real
socket path.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import QueryModel, ShardedFunctionIndex
from repro.reliability import faults as _flt


def integer_dataset(n=400, dim=4, seed=0):
    """Integer-valued points + a query model (exact scalar products)."""
    rng = np.random.default_rng(seed)
    points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    return points, model


def integer_queries(points, m=6, seed=1, scale=0.4):
    """Integer-valued normals with offsets rounded to whole numbers."""
    rng = np.random.default_rng(seed)
    normals = rng.integers(1, 6, size=(m, points.shape[1])).astype(np.float64)
    column_max = points.max(axis=0)
    offsets = np.asarray(
        [float(np.round(scale * normal @ column_max)) for normal in normals]
    )
    return normals, offsets


def float_dataset(n=400, dim=4, seed=0):
    """Floating-point points with per-axis scales 10^U(-3, 3)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
    points = rng.uniform(1.0, 30.0, size=(n, dim)) * scales
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    return points, model


def float_queries(points, m=6, seed=1, scale=0.4):
    """Non-integer normals; each offset is a stored point's own score.

    The offset is the score at quantile ``min(scale, 1)``, so some point
    sits on the query hyperplane up to rounding.
    """
    rng = np.random.default_rng(seed)
    normals = rng.uniform(1.0, 6.0, size=(m, points.shape[1]))
    rank = int(min(scale, 1.0) * (points.shape[0] - 1))
    offsets = np.asarray(
        [float(np.sort(points @ normal)[rank]) for normal in normals]
    )
    return normals, offsets


def build_engine(n=400, dim=4, seed=0, n_shards=2, dataset=integer_dataset, **kwargs):
    """A small sharded engine over ``dataset`` (integer-valued by default)."""
    points, model = dataset(n=n, dim=dim, seed=seed)
    engine = ShardedFunctionIndex(
        points, model, n_indices=6, rng=seed, n_shards=n_shards, **kwargs
    )
    return engine, points


def http_json(host, port, method, path, body=None):
    """One request on a fresh connection: (status, headers, decoded body)."""
    conn = HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = raw.decode("utf-8", "replace")
        return response.status, dict(response.getheaders()), decoded
    finally:
        conn.close()


@pytest.fixture
def pristine_faults():
    """Disarm any ambient fault plan (the chaos CI lane arms
    ``REPRO_FAULTS`` process-wide), restoring it afterwards — for tests
    whose clean queries must actually be clean."""
    previous_plan = _flt.active_plan()
    previously_armed = _flt.is_armed()
    _flt.disarm()
    yield
    if previously_armed and previous_plan is not None:
        _flt.arm(previous_plan)
    else:
        _flt.disarm()
