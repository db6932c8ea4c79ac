"""Smoke tests of the benchmark: each workload at its shortest run emits every
metric BENCHMARK.json names, traced counts repeat for one seed, and the
benchmark refuses to run without the source tree.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, kind):
    metrics = _result(workload, trace)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    if trace == 0:
        assert all(m["value"] > 0 for m in metrics.values())


def test_traced_counts_repeat_for_one_seed():
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
    first, second = (_result("mc-seeds", 1, seed=5)["metrics"] for _ in range(2))
    assert first["barrier.left_limit_state_calls"]["value"] > 0
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("demo", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
