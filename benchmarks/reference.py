"""Fixed reference kernels that track how fast the host runs right now.

The host shares its cores with other tenants, and the same op can run up
to twice as slow for tens of seconds at a time.  Each workload has a kernel
that exercises the same kind of interpreter work as its hot path, in code
that does not come from cobweb, so no change to cobweb moves it.  run.py times
the kernel between ops, outside the timed region, and divides each pass's
latencies by that pass's slowdown: the median kernel time in the pass over
the kernel's nominal time.  A pass on a slowed host then reads as it would at
nominal speed.  p50 falls on light CLI ops, which are scaled by their own
kernel, LIGHT_CLI: over ten seeds it kept the spread of op_p50_ms at or
below 0.070 on every workload, where the workload kernel let it reach 0.112
on oracle_sweep (NOTES.md).  The unscaled figures are printed too.
"""

from __future__ import annotations

import argparse

_LEVELS = tuple(tuple(range(size)) for size in (1, 1, 2, 3, 5, 8, 13))
_FACTORS = tuple(range(10**40 + 1, 10**40 + 1 + 3 * 160, 3))
_DIM = 90


def dfs() -> int:
    """Iterator-stack walk over tuple levels, like the DFS chain oracle."""
    count = 0
    stack = [iter(_LEVELS[1])]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
        elif len(stack) == len(_LEVELS) - 1:
            count += 1
        else:
            stack.append(iter(_LEVELS[len(stack) + 1]))
    return count


def bigint() -> int:
    """A product of many factors and one large exact division."""
    product = 1
    for f in _FACTORS:
        product *= f
    quotient, remainder = divmod(product * product, product + 1)
    return quotient.bit_length() + remainder.bit_length()


def matrix() -> int:
    """Dense 0/1 rows: build, serialise, parse, compare cell by cell."""
    rows = [bytes(i) + b"\x01" * (_DIM - i) for i in range(_DIM)]
    text = "".join(",".join("1" if b else "0" for b in r) + "\n" for r in rows)
    parsed = [[1 if c == "1" else 0 for c in line.split(",")] for line in text.splitlines()]
    return sum(1 for i in range(_DIM) for j in range(_DIM) if parsed[i][j] == (1 if j >= i else 0))


def parser() -> int:
    """Build an argparse parser shaped like a ten-verb CLI.

    The light CLI ops, where p50 falls, spend most of their time building
    cobweb's parser, and on a loaded host that slows down unlike the DFS.
    """
    top = argparse.ArgumentParser(prog="reference")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb in range(10):
        p = sub.add_parser(f"verb{verb}", help="a verb")
        p.add_argument("n", type=int)
        p.add_argument("--format", choices=["plain", "csv"], default="plain")
        p.add_argument("--limit", type=int, default=None)
    return len(top.format_usage())


# Kernel for the light CLI ops, with its nominal time.
LIGHT_CLI = (parser, 0.0015)

# Set-up (interpreter start, imports, argparse) is scaled by the DFS kernel.
SETUP = (dfs, 0.0004)

# Kernel per workload, and its median time in seconds on a quiet host
# (2-core Xeon VM at 2.1 GHz, CPython 3.11.7).
KERNELS = {
    "oracle_sweep": (dfs, 0.0004),
    "fibonomial_table": (bigint, 0.0012),
    "zeta_roundtrip": (matrix, 0.0013),
}
