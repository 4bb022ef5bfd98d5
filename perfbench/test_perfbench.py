"""Smoke tests of the benchmark itself: ``python -m pytest perfbench``.

Each workload runs at a tiny scale in both modes and must emit every metric
``BENCHMARK.json`` names; a deliberately wrong index must drive the failure
count above zero; and a checkout without the program must exit non-zero
without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from library_phases import LibraryBench, Tally  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def test_spec_and_benchmark_json_name_the_same_metrics_and_workloads():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert e2e == set(SPEC["end_to_end"])
    assert {m["name"] for m in BENCH["per_layer"]} == set(SPEC["per_layer"])
    for name, mapping in SPEC["per_layer"].items():
        assert set(mapping["moves"]) <= e2e | set(SPEC["reported_only"]), name
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w["why"] for name, w in SPEC["workloads"].items()
    }
    for workload in SPEC["workloads"].values():
        assert sum(workload["shares"].values()) == pytest.approx(1.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_tiny_run_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--scale", "0.03"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = "\n".join(lines[:-1])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in table and f"{metric['better']} is better" in table
    assert "failed_frac" in table


class DropOne:
    """An index whose inequality answers lose their first id."""

    def __init__(self, index):
        self._index = index

    def __getattr__(self, name):
        return getattr(self._index, name)

    def query(self, *args, **kwargs):
        answer = self._index.query(*args, **kwargs)
        return dataclasses.replace(answer, ids=answer.ids[1:])


def test_wrong_answer_drives_failed_frac_above_zero():
    from repro import FunctionIndex

    points, queries, model = run.make_inputs(SPEC, 3, seed=5, scale=0.02)
    index = FunctionIndex(points, model, n_indices=10, rng=5)
    tally = Tally()
    bench = LibraryBench(DropOne(index), points, queries, SPEC, tally, np.random.default_rng(5))
    bench.run("query", 0.2)
    assert tally.failed > 0

    printed: list[str] = []
    args = type("Args", (), {"trace": 0})()
    result = run.report(args, BENCH, SPEC, bench.end_to_end(), tally, print_fn=printed.append)
    assert not result["correct"] and result["failed"] == tally.failed
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    failed_line = next(line for line in printed if line.strip().startswith("failed_frac"))
    assert float(failed_line.split()[1]) > 0.0


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "indp-d6", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
