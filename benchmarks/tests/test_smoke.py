"""Smoke test of the benchmark at tiny size.

Run from the repository root with `python -m pytest benchmarks/tests -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    result = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(REPO / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(REPO / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed(workload, trace):
    proc, result = bench(REPO, workload, trace)
    assert proc.returncode == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert result["metrics"]["trace.missing_layers"]["value"] == 0


def test_changed_report_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    golden_path = root / "benchmarks" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden["dcase2019:tiny:0"]["evaluate"] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    proc, result = bench(root, "dcase2019")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2


def test_changed_corpus_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    golden_path = root / "benchmarks" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden["polyphonic:tiny:0"]["corpus"] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    proc, result = bench(root, "polyphonic")
    assert proc.returncode != 0
    assert "fingerprint" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc, _ = bench(root, "dcase2019")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
