"""Check that the reference kernels' times do not depend on cobweb's state.

    python3 benchmarks/kernel_state.py

run.py times the reference kernels inside the workload process, where they
share the heap, the allocator and the CPU caches with cobweb.  This script
times them (as run.py does, collector off) in a fresh process with nothing
of cobweb's alive, and with each of three states cobweb can leave behind:
the `fib` cache grown to F(40000) (about 70 MB), a million live tuples in a
dict (the size of a memo table), and a depth-14 zeta round trip held in
memory.  Each state is measured in A-B-B-A order against the empty one, so
a steady drift of host speed cancels; the state `empty` is measured against
itself, which shows the noise floor.  It prints, per state and kernel, the
median over the cycles of the kernel's time in the state over its time in
the empty state, and the quartiles; 1.00 means no dependence.
"""

from __future__ import annotations

import gc
import statistics

import reference
import run

STATES = ("empty", "fib_cache_70MB", "memo_1M_tuples", "zeta_depth14")
CYCLES = 16  # with fewer, host noise moved single ratios by 10-20%


def kernel_medians(repeats: int = 40) -> dict[str, float]:
    kernels = {"dfs": reference.dfs, "bigint": reference.bigint, "matrix": reference.matrix}
    samples: dict[str, list[float]] = {name: [] for name in kernels}
    for _ in range(repeats):
        for name, fn in kernels.items():
            samples[name].append(run.time_kernel(fn))
    return {name: statistics.median(v) for name, v in samples.items()}


def main() -> int:
    run.load_cobweb()
    from cobweb import fibcalc, poset, zeta

    held: list[object] = []

    def enter(state: str) -> None:
        held.clear()
        del fibcalc._FIB[2:]  # the append-only cache, back to F(0), F(1)
        if state == "fib_cache_70MB":
            fibcalc.fib(40000)
        elif state == "memo_1M_tuples":
            held.append({(i, i + 1): (i,) for i in range(10**6)})
        elif state == "zeta_depth14":
            p = poset.build_cobweb(14)
            m = zeta.zeta_matrix(p)
            text = m.to_csv()
            held.extend([p, m, text, zeta.cobweb_from_matrix(zeta.IncidenceMatrix.from_csv(text))])
        gc.collect()

    kernel_medians()  # warm-up, not counted
    for state in STATES:
        ratios: dict[str, list[float]] = {}
        for _ in range(CYCLES):
            times: list[dict[str, float]] = []
            for s in ("empty", state, state, "empty"):
                enter(s)
                times.append(kernel_medians())
            for name in times[0]:
                ratios.setdefault(name, []).append(
                    (times[1][name] + times[2][name]) / (times[0][name] + times[3][name]))
        print(f"{state:15} " + "  ".join(
            f"{name}={statistics.median(r):.3f} [{q[0]:.3f}, {q[2]:.3f}]"
            for name, r in ratios.items() for q in [statistics.quantiles(r, n=4)]), flush=True)
    enter("empty")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
