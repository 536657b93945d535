"""Smoke check of the benchmark harness at a tiny size.

    python -m pytest perfbench -q

Each workload, traced and untraced, must report exactly the metrics
BENCHMARK.json names and pass its correctness gate; a wrong reference
verdict must make the run fail; a directory without foltl sources must
make it exit nonzero without a result line.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(
    backlog_pending=10, backlog_timed=20, stream_pending=2, stream_messages=50, fuzz_cases=30
)


def run_tiny(capsys, workload: str, trace: int) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    status = run.main(argv, sizes=TINY)
    return status, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_every_metric_and_the_gate(capsys, workload, trace):
    status, result = run_tiny(capsys, workload, trace)
    assert status == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {entry["name"]: entry["unit"] for entry in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["monitor_backlog", "cli_stream"])
def test_wrong_monitor_reference_fails(capsys, monkeypatch, workload):
    monkeypatch.setattr(workloads, "expected_verdicts", lambda count: ["INCONCLUSIVE"] * count)
    status, result = run_tiny(capsys, workload, 0)
    assert status == 1
    assert result["correct"] is False and result["failed"] > 0


def test_wrong_oracle_verdict_fails(capsys, monkeypatch):
    honest = workloads.AcceptFuzz.reference

    def flipped(self, index, tracer=None):
        return honest(self, index, tracer) != (index == 0)

    monkeypatch.setattr(workloads.AcceptFuzz, "reference", flipped)
    status, result = run_tiny(capsys, "accept_fuzz", 0)
    assert status == 1
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_foltl_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "monitor_backlog",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
