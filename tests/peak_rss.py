"""Run one Python child and fail when its peak resident set size reaches a bound.

    PYTHONPATH=src python tests/peak_rss.py MIB OUT ARG...

Runs `python ARG...` with this interpreter, its stdout written to the file
OUT (`/dev/null` to discard it, `-` to keep it on this script's stdout), and
prints the child's peak RSS in MiB.  Exits 1 when the child exits nonzero or
its peak is MIB or more.  The peak is the ru_maxrss that `wait4` reports for
that one child: its own peak or that of any process it waited for, and never
a peak of children this process inherited, as a shell's last command does
when the shell execs it.  On Linux it is also at least this process's own
peak when the child was spawned: `posix_spawn` starts the child in this
process's memory, and the kernel carries that memory's high-water mark over
at exec.  `spawn` and `reap` are also the process runner of
`tests/cli_corpus.py --processes`.  POSIX and standard library only; not a
pytest module.
"""

from __future__ import annotations

import contextlib
import math
import os
import shlex
import signal
import sys
import time


def spawn(args: list[str], stdout: int | None = None, stderr: int | None = None) -> int:
    """Start `python ARGS...` with this interpreter and return its pid.

    Its stdout and stderr are the given file descriptors, or this process's
    own where None.
    """
    actions = [(os.POSIX_SPAWN_DUP2, fd, target) for fd, target in [(stdout, 1), (stderr, 2)] if fd is not None]
    return os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)


def reap(pid: int, deadline: float = math.inf) -> tuple[int, float]:
    """Wait for child `pid`, and return its exit code and peak RSS in MiB.

    A child still running at `deadline`, a `time.monotonic()` time, is
    killed by SIGKILL, and its exit code is then -9.
    """
    while True:
        done, status, usage = os.wait4(pid, 0 if deadline == math.inf else os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
        if time.monotonic() < deadline:
            time.sleep(0.005)
        else:
            os.kill(pid, signal.SIGKILL)
            deadline = math.inf


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: peak_rss.py MIB OUT ARG...", file=sys.stderr)
        return 2
    bound, out, child = float(argv[0]), argv[1], argv[2:]
    with contextlib.nullcontext(None) if out == "-" else open(out, "wb") as stdout:
        code, peak = reap(spawn(child, None if stdout is None else stdout.fileno()))
    print(f"{shlex.join(child)}: exit {code}, peak RSS {peak:.1f} MiB, bound {bound:g} MiB")
    return 1 if code or peak >= bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
