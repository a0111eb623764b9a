"""Smoke checks of the release benchmark: every workload at a tiny size.

The file name keeps it out of a plain ``pytest`` run of the repository; run
it by name from the repository root::

    python3 -m pytest releasebench/check_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "releasebench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_outputs_correct(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, json.loads(lines[-2])["detail"]["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    detail = json.loads(lines[-2])["detail"]
    assert {"nproc", "python", "numpy", "kernel_backend"} <= set(detail["env"])
    assert len(detail["rounds"]) == (2 if trace else 1)


def test_checker_rejects_a_context_without_its_record(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    workload = wl.WORKLOADS["serve_append_mix_zscore20k"].smoke()
    inputs = wl.make_inputs(workload, 3, tmp_path)
    record = inputs.ops[0].record_id
    checker = wl.Checker(inputs)
    exact = {"record_id": record, "dataset_version": 0,
             "context": {"bits": inputs.dataset.record_bits(record)}}
    assert checker.is_valid(exact)
    # The empty context contains no record at all.
    assert not checker.is_valid({**exact, "context": {"bits": 0}})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
