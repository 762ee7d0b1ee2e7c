"""Run one Python child and fail when its peak resident set size reaches a bound.

    PYTHONPATH=src python tests/peak_rss.py MIB OUT ARG...

Runs `python ARG...` with this interpreter, its stdout written to the file
OUT (`/dev/null` to discard it, `-` to keep it on this script's stdout), and
prints the child's peak RSS in MiB.  Exits 1 when the child exits nonzero or
its peak is MIB or more.  The peak is the ru_maxrss that `wait4` reports for
that one child: its own peak or that of any process it waited for, and never
a peak of children this process inherited, as a shell's last command does
when the shell execs it.  POSIX and standard library only; not a pytest
module.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: peak_rss.py MIB OUT ARG...", file=sys.stderr)
        return 2
    bound, out, child = float(argv[0]), argv[1], argv[2:]
    with contextlib.nullcontext(None) if out == "-" else open(out, "wb") as stdout:
        actions = [] if stdout is None else [(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1)]
        pid = os.posix_spawn(sys.executable, [sys.executable, *child], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    print(f"{shlex.join(child)}: exit {code}, peak RSS {peak:.1f} MiB, bound {bound:g} MiB")
    return 1 if code or peak >= bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
