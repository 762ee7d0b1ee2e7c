"""Run the benchmark over several seeds, report each metric's spread, write the baseline.

    python3 benchmarks/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                 [--baseline benchmarks/BENCH_baseline.json]

Runs `run.py --trace 0` once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds; the workloads take turns seed by seed, so a
slow phase of the host falls on all of them.  Prints per end-to-end metric,
and per timing before host-speed scaling, the median, the quartiles
(statistics.quantiles, n=4) and the spread: the interquartile distance as a
share of the median, the figure the benchmark's bounds are judged against.
With `--baseline PATH` it also makes one `--trace 1` run per workload at the
first seed and writes everything to PATH, in the format of BENCH_baseline.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """One run; returns its JSON result, its `# env` record and its unscaled timings."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were wrong\n{proc.stderr}")

    def record(tag: str) -> dict:
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), {})

    return result, record("# env "), record("# unscaled ")


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def host() -> str:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return f"{platform.machine()} {model}".strip()


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()
    workloads = args.workload or names
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, 0))

    out = {"end_to_end": {}, "unscaled": {}, "per_layer": {}}
    for w in workloads:
        results = [r[0] for r in runs[w]]
        out["end_to_end"][w] = {name: dict(summarise([r["metrics"][name]["value"] for r in results]), unit=unit)
                                for name, unit in units.items()}
        out["unscaled"][w] = {name: summarise([r[2][name] for r in runs[w]]) for name in runs[w][0][2]}
        for section in ("end_to_end", "unscaled"):
            for name, s in out[section][w].items():
                label = name if section == "end_to_end" else f"{name} (unscaled)"
                print(f"{w:17} {label:24} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                      f"q3={s['q3']:<12.6g} spread={s['spread']:.4f}", flush=True)

    if args.baseline is not None:
        for w in workloads:
            result, _, _ = run_once(w, seeds[0], 1)
            out["per_layer"][w] = {name: m["value"] for name, m in result["metrics"].items()}
        env = runs[workloads[0]][0][1]
        baseline = {
            "schema": env.get("schema"),
            "what": (f"Medians and quartiles over seeds {seeds[0]}-{seeds[-1]} of each end-to-end metric, "
                     f"one {SPEC['run_seconds']} s --trace 0 run per seed and workload, and of the timings "
                     f"before host-speed scaling; per-layer figures from one --trace 1 run per workload "
                     f"at seed {seeds[0]}.  Written by benchmarks/spread.py."),
            "host": host(),
            "python": env.get("python"),
            "nproc": env.get("nproc"),
            "git_sha": env.get("git_sha"),
            "src_sha256": env.get("src_sha256"),
            "run_seconds": SPEC["run_seconds"],
            "seeds": [seeds[0], seeds[-1]],
            **out,
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
