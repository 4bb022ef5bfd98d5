"""Shared fixtures for the benchmark suite.

Benchmarks run at laptop scale (tens of thousands of points instead of the
paper's 1M; hundreds of moving objects instead of 5K) — the reproduced
quantity is the *shape* of each figure, not absolute milliseconds.  Set
``REPRO_BENCH_SCALE`` to scale the dataset sizes (e.g. ``10`` approaches
the paper's setup; default 1).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.datasets import load

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(base: int) -> int:
    """Apply the global scale factor to a dataset size."""
    return int(base * SCALE)


@pytest.fixture(scope="session")
def synthetic_cache():
    """Memoized synthetic datasets keyed by (name, n, dim)."""
    cache: dict[tuple[str, int, int], np.ndarray] = {}

    def get(name: str, n: int, dim: int) -> np.ndarray:
        key = (name, n, dim)
        if key not in cache:
            cache[key] = load(name, n, dim, rng=hash(key) % (2**32)).points
        return cache[key]

    return get


def interleaved_best_of(arm_a, arm_b, rounds=6):
    """Best-of times of two arms timed alternately, round by round.

    Each round runs both arms back to back and swaps which one goes
    first, so drift in the host's speed lands on both arms alike instead
    of deciding a comparison between them.  Returns
    ``(answer_a, seconds_a, answer_b, seconds_b)`` with each arm's last
    answer and its fastest round.
    """
    arms = (arm_a, arm_b)
    answers = [None, None]
    best = [float("inf"), float("inf")]
    for round_no in range(rounds):
        for arm in ((0, 1) if round_no % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            answers[arm] = arms[arm]()
            best[arm] = min(best[arm], time.perf_counter() - start)
    return answers[0], best[0], answers[1], best[1]
