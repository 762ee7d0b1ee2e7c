"""cobweb benchmark: run one seeded workload and print its metrics.

    python3 benchmarks/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0

Run from any directory; cobweb is imported from the `src/` next to this
directory, never from an installed copy.  One process, one thread, a closed
loop with one client: each op starts when the previous one has finished.
The op list is repeated in passes until `--seconds` have gone by (at least
MIN_PASSES passes), and every op's output is checked between ops, outside
the timed region.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs half the time
untraced, then wraps cobweb's public functions (spans.py) and prints the
per-layer metrics, each the median over the traced passes, plus the tracing
overhead.  Lines before the last describe the run, among them `# unscaled`
with the timings before host-speed scaling; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import reference

SCHEMA = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INIT = SRC / "cobweb" / "__init__.py"
MIN_PASSES = 3
SETUP_REPEATS = 15
KERNEL_EVERY = 5  # ops between two timings of the reference kernel

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "fibcalc.fibonomial.calls": "count",
    "fibcalc.fibonomial.busy_s": "s",
    "fibcalc.fibonomial_row.busy_s": "s",
    "fibcalc.fib_factorial.busy_s": "s",
    "fibcalc.falling_f_factorial.busy_s": "s",
    "fibcalc.fib.busy_s": "s",
    "fibcalc.fib.max_index": "index",
    "fibcalc.result_bits": "bits",
    "poset.build_cobweb.calls": "count",
    "poset.build_cobweb.busy_s": "s",
    "poset.covers_above.calls": "count",
    "poset.leq.calls": "count",
    "chains.verify_obs1.busy_s": "s",
    "chains.verify_obs2.busy_s": "s",
    "chains.verify_obs3.busy_s": "s",
    "chains.enumerate.calls": "count",
    "chains.enumerate.chains": "count",
    "chains.enumerate.busy_s": "s",
    "chains.enumerate.ns_per_chain": "ns",
    "chains.enumerate.distinct_ratio": "ratio",
    "chains.iter_chains.chains": "count",
    "chains.iter_chains.busy_s": "s",
    "chains.guard.refusals": "count",
    "chains.guard.refuse_ms_max": "ms",
    "zeta.zeta_matrix.busy_s": "s",
    "zeta.staircase_check.busy_s": "s",
    "zeta.to_csv.busy_s": "s",
    "zeta.from_csv.busy_s": "s",
    "zeta.cobweb_from_matrix.busy_s": "s",
    "zeta.cells": "count",
    "zeta.csv_bytes": "bytes",
    "cli.run.calls": "count",
    "cli.run.busy_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}

# Fresh interpreter up to a ready CLI parser, as every `cobweb` command pays.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import cobweb.cli; "
    "cobweb.cli.build_parser(); print(time.monotonic(), cobweb.__file__)"
)


def load_cobweb() -> None:
    """Import cobweb from this checkout's sources; exit with status 1 if they are absent."""
    if not INIT.is_file():
        sys.exit(f"error: no cobweb sources at {INIT}")
    sys.path.insert(0, str(SRC))
    import cobweb

    if Path(cobweb.__file__).resolve() != INIT:
        sys.exit(f"error: imported cobweb from {cobweb.__file__}, not {INIT}")


def time_kernel(fn) -> float:
    """Time one reference kernel with the collector off.

    The kernel shares the interpreter with cobweb; with the collector off,
    however many objects cobweb keeps alive cannot add collection work to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure_setup() -> tuple[float, float]:
    """Median spawn-to-parser-ready time over fresh processes, in seconds.

    Returns it scaled to nominal host speed, and unscaled.  The set-up
    kernel is timed three times before each child.
    """
    kernel, nominal_s = reference.SETUP
    samples, kernel_s = [], []
    for i in range(SETUP_REPEATS + 1):
        kernel_s += [time_kernel(kernel) for _ in range(3)]
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        ready, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve() != INIT:
            sys.exit(f"error: setup child imported cobweb from {path.strip()}")
        if i:  # the first child only warms the file cache
            samples.append(float(ready) - start)
    setup_s = statistics.median(samples)
    return setup_s / (statistics.median(kernel_s) / nominal_s), setup_s


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cobweb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Planted:
    """Stands in for one op's output when the self-test plants a wrong answer."""


def run_op(op) -> tuple[float, object]:
    """Time one op; returns (seconds, output or the exception it raised)."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # noqa: BLE001 - a failing op is a result, not a crash
        out = exc
    elapsed = time.perf_counter() - start
    return elapsed, out


def check_op(op, out) -> bool:
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # noqa: BLE001 - an output the check cannot read is wrong
        ok = False
        out = f"{out!r:.200} (check raised {exc!r})"
    if not ok:
        print(f"FAILED {op.kind} {op.args}: {out!r:.300}", file=sys.stderr)
    return ok


def run_passes(ops, seconds: float, kernels: dict, plant: bool = False, after_pass=None) -> list[dict]:
    """Repeat the op list until `seconds` are up; returns per-pass records.

    Between ops, outside the timed region, each output is checked, and every
    KERNEL_EVERY ops each reference kernel is timed.  A pass's `slowdown`
    holds, per kernel, its median time in the pass over its nominal time.
    """
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        latencies, failed = [], 0
        kernel_s: dict[str, list[float]] = {name: [] for name in kernels}
        for i, op in enumerate(ops):
            elapsed, out = run_op(op)
            if plant and not passes and i == 0:
                out = Planted()
            if check_op(op, out):
                latencies.append(elapsed)
            else:
                failed += 1
                latencies.append(math.inf)  # a failed op misses every latency limit
            if i % KERNEL_EVERY == 0:
                for name, (kernel, _) in kernels.items():
                    kernel_s[name].append(time_kernel(kernel))
        record = {"latencies": latencies, "failed": failed,
                  "wall": sum(x for x in latencies if x != math.inf),
                  "slowdown": {name: statistics.median(kernel_s[name]) / nominal
                               for name, (_, nominal) in kernels.items()}}
        if after_pass is not None:
            record["layers"] = after_pass()
        passes.append(record)
    return passes


def scaled_wall(passes) -> float:
    """Median over passes of the pass wall at nominal host speed."""
    return statistics.median(p["wall"] / p["slowdown"]["workload"] for p in passes)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, setup_s: tuple[float, float]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the timings before host-speed scaling."""
    def scaled(kernel: str) -> list[float]:
        return [x / p["slowdown"][kernel] for p in passes for x in p["latencies"]]

    unscaled = [x for p in passes for x in p["latencies"]]
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": setup_s[0],
        "wall_s": scaled_wall(passes),
        "op_p50_ms": nearest_rank(scaled("light_cli"), 0.50) * 1e3,
        "op_p95_ms": nearest_rank(scaled("workload"), 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / len(unscaled),
    }
    raw = {
        "setup_s": setup_s[1],
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": nearest_rank(unscaled, 0.50) * 1e3,
        "op_p95_ms": nearest_rank(unscaled, 0.95) * 1e3,
    }
    return metrics, raw


def per_layer(untraced, traced) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in PER_LAYER if name != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = scaled_wall(traced) / scaled_wall(untraced)
    return out


def probe_known_defect(probes) -> str:
    """Run the over-4300-digit CLI requests once, untimed, and classify them."""
    tally = {"reproduced": 0, "fixed": 0, "other": 0}
    for op, is_defect in probes:
        _, out = run_op(op)
        if is_defect(out):
            tally["reproduced"] += 1
        elif check_op(op, out):
            tally["fixed"] += 1
        else:
            tally["other"] += 1
    return " ".join(f"{k}={v}" for k, v in tally.items())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(reference.KERNELS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test only")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="replace the first op's output with a wrong one (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_cobweb()
    import workloads

    rng = random.Random(args.seed)
    res = oracle.Residues()
    kernels = {"workload": reference.KERNELS[args.workload], "light_cli": reference.LIGHT_CLI}
    ops = workloads.build(args.workload, rng, args.toy, res)
    env = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "ops_per_pass": len(ops),
        "loop": "closed, 1 client, 1 thread",
    }
    print("# env " + json.dumps(env), flush=True)

    if args.trace == 0:
        setup_s = measure_setup()
        passes = run_passes(ops, args.seconds, kernels, args.plant_wrong)
        metrics, raw = end_to_end(passes, setup_s)
        units = END_TO_END
        every = passes
        print("# host slowdown per pass "
              + json.dumps({name: [round(p["slowdown"][name], 3) for p in passes] for name in kernels}))
        print("# unscaled " + json.dumps(raw))
    else:
        import spans

        untraced = run_passes(ops, args.seconds / 2, kernels, args.plant_wrong)
        tracer = spans.Tracer()
        tracer.install()
        tracer.drain()
        traced = run_passes(ops, args.seconds / 2, kernels, after_pass=tracer.drain)
        metrics, units = per_layer(untraced, traced), PER_LAYER
        every = untraced + traced

    attempted = sum(len(p["latencies"]) for p in every)
    failed = sum(p["failed"] for p in every)
    print(f"# passes={len(every)} attempted={attempted} failed={failed} "
          f"pass_wall_s={[round(p['wall'], 4) for p in every]}")
    if args.trace == 0:
        print(f"metric fail_ratio {failed / attempted} ratio")
    if args.workload == "fibonomial_table" and args.trace == 0:
        print("# known defect, CLI results over 4300 digits exit 2: "
              + probe_known_defect(workloads.known_defect_probe(random.Random(args.seed), res)))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
