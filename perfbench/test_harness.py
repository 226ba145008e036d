"""Smoke test of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_harness.py

Each workload runs for one unit (``seconds=0``). Takes about a minute.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

BENCH = harness.BENCH
WORKLOADS = harness.WORKLOADS


def printed(result):
    out = io.StringIO()
    harness.report(result, out)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    result = harness.run_workload(workload, seed=1, seconds=0, trace=False)
    lines = printed(result)
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    named = BENCH["end_to_end"] + [
        {"name": name, **m} for name, m in harness.MANIFEST["printed"].items()
        if name != "warm_wall_s" or workload == "own256-sparse-batch"
    ]
    for m in named:
        assert any(
            line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    assert "metric failed_frac 0 fraction" in lines


def test_corrupted_expected_value_counts_as_failure():
    expected = json.loads(harness.EXPECTED_PATH.read_text())
    corrupted = copy.deepcopy(expected)
    for entry in corrupted.values():
        if entry["label"].startswith("own256/UN@0.05x"):
            entry["summary"]["throughput"] += 1e-9
    result = harness.run_workload("own256-knee", seed=1, seconds=0, trace=False,
                                  expected=corrupted)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1  # the unit's one knee run
    failed_frac = result["failed"] / result["attempted"]
    assert f"metric failed_frac {failed_frac:.6g} fraction" in printed(result)


@pytest.mark.parametrize(
    "workload, skip_low, skip_high",
    [("own256-knee", 0.0, 0.01), ("own256-sparse-batch", 0.2, 1.0)],
)
def test_traced_run(workload, skip_low, skip_high):
    result = harness.run_workload(workload, seed=1, seconds=0, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # The noc.* self times (with the traffic and fault ticks called from
    # step) partition the traced Simulator.step span.
    assert result["extra"]["step_partition_residual_s"] < 1e-6
    assert skip_low <= metrics["noc.ff_skip_ratio"] <= skip_high
    assert metrics["trace.overhead_ratio"] > 1.0
    spans = ROOT / result["extra"]["spans_file"]
    import numpy as np

    with np.load(spans) as data:
        assert len(data["start_ns"]) == len(data["end_ns"]) == len(data["parent"]) > 0
        assert (data["end_ns"] >= data["start_ns"]).all()


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
