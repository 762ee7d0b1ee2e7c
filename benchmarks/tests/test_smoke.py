"""Smoke self-test of the benchmark at toy size.

    python3 -m pytest benchmarks/tests -q

Runs every workload both untraced and traced, checks that each metric named
in BENCHMARK.json is printed, that a planted wrong output is counted as a
failure, and that the benchmark refuses to run without cobweb's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload: str, trace: int) -> None:
    proc = run(workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = printed_metrics(proc.stdout)
    for name, unit in units.items():
        assert printed[name] == (result["metrics"][name]["value"], unit)
    if trace == 0:
        assert printed["fail_ratio"] == (0.0, "ratio")
        assert all(result["metrics"][m]["value"] > 0 for m in units)
        unscaled = json.loads(next(line for line in proc.stdout.splitlines()
                                   if line.startswith("# unscaled "))[len("# unscaled "):])
        assert set(unscaled) == {"setup_s", "wall_s", "op_p50_ms", "op_p95_ms"}
        assert all(v > 0 for v in unscaled.values())

    env = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("# env "))[6:])
    for key in ("schema", "python", "nproc", "git_sha", "seed"):
        assert key in env
    assert env["seed"] == 3


def test_traced_layers_match_the_workload() -> None:
    layers = {}
    for workload in ("oracle_sweep", "fibonomial_table"):
        proc = run(workload, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        layers[workload] = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    sweep, table = layers["oracle_sweep"], layers["fibonomial_table"]
    assert sweep["chains.enumerate.chains"]["value"] > 0
    assert sweep["chains.guard.refusals"]["value"] > 0
    assert all(v["value"] == 0 for k, v in sweep.items() if k.startswith("zeta."))
    assert table["fibcalc.fibonomial.busy_s"]["value"] > 0
    assert all(v["value"] == 0 for k, v in table.items() if k.startswith(("zeta.", "chains.")))


def test_planted_wrong_output_is_counted() -> None:
    proc = run("fibonomial_table", "--trace", "0", "--plant-wrong")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 1 and result["correct"] is False
    printed = printed_metrics(proc.stdout)
    assert printed["fail_ratio"][0] == pytest.approx(1 / result["attempted"])
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - 1 / result["attempted"])
    assert "FAILED" in proc.stderr


def test_known_defect_is_reported() -> None:
    proc = run("fibonomial_table", "--trace", "0")
    line = next(line for line in proc.stdout.splitlines() if line.startswith("# known defect"))
    assert "reproduced=" in line and "fixed=" in line


def test_refuses_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("oracle_sweep", "--trace", "0", cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
