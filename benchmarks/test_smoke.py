"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload once untraced and once traced for about a second and
checks that every metric of BENCHMARK.json is emitted with its unit, that
no run failed, and that the traced self times add up.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "failed_runs 0/" in proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_no_failed_runs(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_refuses_to_run_without_the_program(tmp_path):
    """Without src/ next to it, the benchmark exits nonzero and prints no result."""
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "benchmarks" / "pinned.json").write_text((HERE / "pinned.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "long-horizon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
