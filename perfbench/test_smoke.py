"""Smoke check of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload of BENCHMARK.json with ``--tiny`` for one second,
untraced and traced, and asserts that the last line is the result object,
that every listed metric is printed by name with its unit, and that every
check passed.  It also checks that the benchmark refuses to run, without
printing a result, when the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            out[workload, trace] = lines[:-1], json.loads(lines[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    lines, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines), m
        if not trace:
            assert got["value"] > 0, m


def test_every_layer_metric_is_measured_on_some_workload(runs):
    for m in BENCH["per_layer"]:
        measured = [line for w in WORKLOADS for line in runs[w, 1][0]
                    if line.startswith(f"{m['name']} ") and "not exercised" not in line]
        assert measured, m


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run(bare, WORKLOADS[0], 0)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
