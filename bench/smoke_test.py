"""Smoke test for the benchmark itself, at toy size.

    python3 -m pytest -q bench/smoke_test.py

For every workload, a toy run with tracing off and one with tracing on must
print every metric BENCHMARK.json declares, with its unit, and fail no
operation; the traced spans must nest inside their parents. Without the
package sources the benchmark must refuse to run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / DECLARED["command"][1]), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    if trace:
        spans_files = sorted((BENCH / ".work" / f"{workload}-toy-s3").glob("spans-*.jsonl"))
        assert spans_files
        for path in spans_files:
            spans = [json.loads(line) for line in path.read_text().splitlines()]
            by_id = {s["id"]: s for s in spans}
            for s in spans:
                assert s["start_ns"] <= s["end_ns"]
                if s["parent"] is not None:
                    parent = by_id[s["parent"]]
                    assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
