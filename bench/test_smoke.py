"""Smoke test of the benchmark itself, on reduced op sets.

    python -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the seed commit's outputs pass every check, that a corrupted reference
digest shows up as failed ops, and that the benchmark refuses to report
anything when the grwin sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--seconds", "1",
                           "--seed", "7", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, "--workload", workload, "--trace", str(trace))
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    lines = proc.stdout.splitlines()
    for m in expected:
        assert any(line.split()[1:2] == [m["name"]] and line.split()[3] == m["unit"]
                   for line in lines), m["name"]
    assert any(line.split()[1] == "failed_ratio" for line in lines)
    if trace:
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_digest_fails_ops(workload, tmp_path):
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    reference[workload] = {key: "0" * 16 for key in reference[workload]}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    res = result(run(ROOT, "--workload", workload, "--reference", str(path)))
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0])
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
