"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from procs import child_env  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    out = result(bench("--workload", "high_snr", "--seed", "3", "--seconds", "1",
                       "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec


def test_trace_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        out = result(bench("--workload", "high_snr", "--seed", "5", "--seconds", "0",
                           "--trace", "1"))
        counts.append({k: out["metrics"][k]["value"]
                       for k in ("specfun.g2_calls_per_op", "specfun.bisect_evals_per_op")})
    assert counts[0] == counts[1]


def test_invalid_op_and_deadline_miss_count_as_failed():
    invalid = workloads.make_op("analyze", "json", norm=1.0, sigma=-1.0, radius=1.0, level=0.9)
    slow = workloads.make_op("analyze", "json", norm=1e6, sigma=1.0, radius=1e6, level=0.9)
    runs, _ = run.closed_loop([invalid], 60.0, child_env())
    # no interpreter gets numpy imported within 50 ms
    runs += run.closed_loop([slow], 60.0, child_env(), deadline=0.05)[0]
    assert [r.returncode for _, r, _ in runs] == [2, None]
    verdicts = run.verify([op for op, _, _ in runs], [r.stdout for _, r, _ in runs],
                          [r.returncode for _, r, _ in runs])
    assert verdicts == ["exit code 2", "missed its deadline"]


def test_wrong_output_fails_its_check():
    op = workloads.make_op("analyze", "json", norm=3.0, sigma=1.0, radius=2.0, level=0.9)
    proc = subprocess.run([sys.executable, "-m", "confdist", *op.argv], env=child_env(),
                          capture_output=True, text=True, cwd=ROOT, check=True)
    checks.check_op(op, proc.stdout, deep=True)
    fields = json.loads(proc.stdout)
    fields["median_cd"] += 1e-6
    with pytest.raises(checks.CheckError, match="median_cd"):
        checks.check_op(op, json.dumps(fields), deep=True)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "high_snr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
