"""Smoke test of the benchmark itself, each workload at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that every metric is printed by name with its unit, that the accuracy
checks ran, and that the brick-wall ladder ops are the only failures.  Run it
from the repository root; it takes about two minutes on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import E2E_UNITS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workload: str, trace: int) -> tuple[list[str], dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report: "))[len("report: "):])
    return lines, report, json.loads(lines[-1])


def assert_printed(lines: list[str], name: str, unit: str | None) -> None:
    rows = [line.split() for line in lines if line.startswith("  ")]
    row = next((r for r in rows if r[0] == name), None)
    assert row is not None, f"{name} not printed"
    assert row[1] == "n/a" or row[2] == unit, f"{name} printed without its unit {unit}"


def assert_failures_are_rectangular(workload: str, report: dict) -> None:
    assert report["wrong"] == 0
    assert report["checked"] == report["attempted"] - report["raised"] > 0
    failing = {line.split(":", 1)[0] for line in report["failures"]}
    if workload == "ladder":
        assert failing == {"rectangular_bt0.8", "rectangular_bt4"}
    else:
        assert failing == set()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_run(workload):
    lines, report, last = run_bench(workload, 0)
    for name, unit in E2E_UNITS.items():
        assert_printed(lines, name, unit)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert_failures_are_rectangular(workload, report)
    applicable = {"noise": {"trials_per_s"}, "cli": {n for n in E2E_UNITS if n.startswith("cli.")}}
    for name in applicable.get(workload, set()):
        assert report["metrics"][name] > 0


def test_traced_run_reports_every_layer():
    lines, report, last = run_bench("noise", 1)
    for m in BENCH["per_layer"]:
        assert_printed(lines, m["name"], m["unit"])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    for m in BENCH["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            assert isinstance(last["metrics"][m["name"]]["value"], int)
    assert_failures_are_rectangular("noise", report)
