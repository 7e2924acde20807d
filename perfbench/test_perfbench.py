"""The benchmark's own tests: tiny-size runs of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit_and_checks_pass(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["end_to_end" if trace == 0 else "per_layer"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_exact_counts_repeat_across_runs_of_one_seed():
    first, second = (_result(_run("fleet_mixed", 1)) for _ in range(2))
    counts = [
        {name: m["value"] for name, m in result["metrics"].items()
         if m["unit"] == "count" or name.endswith("_share") and "bench" not in name}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["service.requests_routed"] > 0


def test_sweep_check_catches_a_wrong_read(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from repro.core.controller import CompressedPCMController
    from workloads import SteadyBatch

    workload = SteadyBatch(tiny=True)
    inputs = workload.inputs(3)
    round_ = workload.open(3, inputs)
    for _ in round_.steps():
        pass
    honest = CompressedPCMController.read

    def corrupt(self, line):
        data = honest(self, line)
        return bytes(64) if line == 5 else data

    monkeypatch.setattr(CompressedPCMController, "read", corrupt)
    _, errors, _ = round_.finish()
    assert len(errors) == 1 and errors[0].startswith("line 5:")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("steady_batch", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
