"""Small-n smoke runs of every workload, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "N_MAX", 300)
    monkeypatch.setattr(workloads, "PROBE_N", 300)
    monkeypatch.setattr(workloads, "MC_REPLICATES", 2)
    monkeypatch.setattr(workloads, "MC_CHECKPOINTS", (100, 300))


def _bench(tmp_path) -> workloads.Bench:
    return workloads.Bench(ROOT, tmp_path, seed=3)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round(small, tmp_path, name):
    bench = _bench(tmp_path)
    values = workloads.WORKLOADS[name][0](bench, 0.0)
    assert bench.errors == []
    assert bench.failed == 0 and bench.attempted > 0
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run(small, tmp_path, name):
    bench = _bench(tmp_path)
    values = workloads.WORKLOADS[name][1](bench)
    assert bench.errors == [] and bench.failed == 0
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    steps = (300 - 2) * (2 if name == "mc-study" else 1)  # 2 replicates in a study
    assert values["adaptive.steps"] == steps
    assert values["estimator.refits"] == values["adaptive.steps"] + (2 if name == "mc-study" else 1)
    assert values["model.mu_calls"] > 0 and values["model.f_calls"] > 0
    assert values["estimator.refit_s"] > 0 and values["adaptive.select_s"] > 0
    study_layers = [k for k in values if k.startswith("analysis.") or k == "design.oracle_s"]
    if name == "mc-study":
        assert all(values[k] > 0 for k in study_layers), values
    else:
        assert all(values[k] == 0 for k in study_layers), values


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session-mm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
