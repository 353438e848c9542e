"""Tiny-size runs of every workload: each declared metric appears with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    record = bench.run(name, 7, 0.2, trace, tmp_path / "work", workloads.TINY)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert not (tmp_path / "work").exists()


def test_adapt_cli_counts_repeat(tmp_path):
    calls = []
    for attempt in range(2):
        record = bench.run("adapt_cli", 7, 0.2, True, tmp_path / str(attempt), workloads.TINY)
        metrics = record["result"]["metrics"]
        calls.append({k: m["value"] for k, m in metrics.items() if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["model.backward_ce.calls"] == 0.0
    assert calls[0]["model.featurize_hops.calls"] == 2.0
    assert calls[0]["io.read_dataset.calls"] == 1.0


def test_run_fails_without_the_lab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt_cli",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
