"""Run one Python child and fail when its peak resident set size reaches a bound.

    PYTHONPATH=src python tests/peak_rss.py MIB OUT ARG...

Runs `python ARG...` with this interpreter, its stdout written to the file
OUT (`/dev/null` to discard it), and prints the child's peak RSS in MiB.
Exits 1 when the child exits nonzero or its peak is MIB or more.  The peak
is RUSAGE_CHILDREN's ru_maxrss, the largest of the children waited for, so
the script runs exactly one.  Standard library only; not a pytest module.
"""

from __future__ import annotations

import resource
import shlex
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: peak_rss.py MIB OUT ARG...", file=sys.stderr)
        return 2
    bound, out, child = float(argv[0]), argv[1], argv[2:]
    with open(out, "wb") as stdout:
        code = subprocess.run([sys.executable, *child], stdout=stdout).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{shlex.join(child)}: exit {code}, peak RSS {peak:.1f} MiB, bound {bound:g} MiB")
    return 1 if code or peak >= bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
