"""The CLI byte-identity corpus: argv, exit code, stdout digest and stderr, one record per case.

Each record of `golden/cli_corpus.json` holds an argv, the exit code, the
byte count and SHA-256 of stdout, and stderr in full.  `bench` timings are
masked as `_s=<t>` before stdout is measured.  A usage error that argparse
reports has `stderr` null: its wording and wrapping vary between the
Python versions CI runs, so only its exit code and stdout are compared.

    PYTHONPATH=src python tests/cli_corpus.py             # check in-process, twice
    PYTHONPATH=src python tests/cli_corpus.py --processes # check as `python -m cobweb.cli`
    PYTHONPATH=src python tests/cli_corpus.py --write     # regenerate the file

Every mode runs with COLUMNS=80.  The in-process check runs every case
twice in one process, the second pass in reverse order, so each case also
runs on parsers that other cases used before it; `tests/test_cli_corpus.py`
runs it in the test suite.  The cases of PROCESS_ONLY write megabytes to
stdout, or take (or once took) a second or more: `--processes` checks them
under the wall bound and `--write` runs them as processes, while the
in-process check and the test suite skip them.  `tests/test_cli_corpus.py`
also checks the listings, exports, `bench` tables, verify reports and
refusals against records it renders, with `tests/naive.py`, from no code of `cobweb`.

`--processes` is the one process-level check of the CLI, and CI runs it with
no wrapper.  Each case is started with `posix_spawn` and reaped with `wait4`
(`tests/peak_rss.py`); its stdout is hashed in 64 KiB blocks as it arrives,
so no output is held whole (the 150 MB `export 18 --format dot` included),
and its stderr goes to a temporary file.  A run fails when its record
differs, when its peak RSS reaches DEFAULT_MIB, the one memory bound of
every run, or when it is still going at WALL_S seconds, when it is killed.
The check also fails when its own peak RSS reaches DEFAULT_MIB: on Linux
each child's reported peak is at least this process's own peak, so a larger
harness would push every run to its bound.  It prints each failing run, the
slowest run and its own peak, and exits 1 on any failure.

To add a case, add its argv to CASES, run `--write` on the code before the
change that needs it, and name every changed record in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import select
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator

from peak_rss import reap, spawn

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"

# Every run as a process is bounded in peak RSS and in wall time.
DEFAULT_MIB = 32
WALL_S = 5.0

# Cases whose stderr is argparse's own usage message.
USAGE_ERRORS = [
    [],
    ["frob"],
    ["fib", "-1"],
    ["fib", "x"],
    ["binom", "5"],
    ["build", "0"],
    ["export", "3"],
    ["chains", "9", "--from", "6"],
    ["verify", "--obs", "4"],
]

# Cases run only as processes: 105 MB, 3.2 MB, 14 MB, 91.5 MB and 150 MB
# of stdout, a counted sweep of 1-2 s, observation 2's sweep to max_n 25
# (held whole, it peaked at 60 and 164 MiB), and numbers of 0.4-12 MB of
# digits that took 0.2-11 s when their text came from int -> str (`build
# 10500` 0.47 s at 53.8 MiB peak; `fib 3000000` 6.1 s, past the wall
# bound, so its record was made in process).
PROCESS_ONLY = [
    ["chains", "9"],
    ["chains", "27", "--from", "26:0"],
    ["chains", "30", "--from", "29:0"],
    ["export", "18", "--format", "csv"],
    ["export", "18", "--format", "dot"],
    ["verify", "--obs", "1", "--max-n", "28", "--unsafe-enumeration-limit", str(10**200)],
    ["verify", "--obs", "2", "--max-n", "25", "--unsafe-enumeration-limit", str(10**200)],
    ["verify", "--obs", "2", "--max-n", "25", "--unsafe-enumeration-limit", str(10**200), "--format", "structured"],
    ["binom", "4000", "2000"],
    ["falling", "3000", "1500"],
    ["fibfact", "2000"],
    ["row", "400"],
    ["row", "700"],
    ["build", "10500"],
    ["fib", "3000000"],
]

# The help of the full parser and of each verb, in help order.
HELP_VERBS = ["fib", "fibfact", "falling", "binom", "row", "build", "export", "chains", "verify", "bench"]
HELP = [["--help"], *([verb, "--help"] for verb in HELP_VERBS)]

CASES = [
    ["fib", "0"],
    ["fib", "1"],
    ["fib", "30000"],
    ["fibfact", "0"],
    ["fibfact", "300"],
    ["falling", "3", "5"],
    ["falling", "10", "4"],
    ["binom", "15", "7"],
    ["binom", "7", "15"],
    ["binom", "1600", "800"],
    ["row", "0"],
    ["row", "1"],
    ["row", "218"],
    ["row", "300", "--format", "csv"],
    ["build", "1"],
    ["build", "30"],
    ["export", "1", "--format", "csv"],
    ["export", "1", "--format", "dot"],
    ["export", "10", "--format", "csv"],
    ["export", "12", "--format", "csv"],
    ["export", "8", "--format", "dot"],
    ["export", "12", "--format", "dot"],
    ["export", "19", "--format", "csv"],
    ["export", "19", "--format", "dot"],
    ["export", "40", "--format", "dot"],
    ["export", "30000", "--format", "dot"],
    ["chains", "1"],
    ["chains", "8"],
    ["chains", "9", "--from", "6:2"],
    ["chains", "9", "--from", "9:0"],
    ["chains", "9", "--from", "10:0"],
    ["chains", "12", "--from", "3:0"],
    ["chains", "12", "--from", "10:3"],
    ["chains", "13", "--from", "12:0"],
    ["chains", "17", "--from", "16:5"],
    ["chains", "500"],
    ["verify"],
    ["verify", "--obs", "all", "--max-n", "9"],
    ["verify", "--obs", "all", "--max-n", "9", "--format", "structured"],
    ["verify", "--obs", "2", "--max-n", "1"],
    ["verify", "--obs", "2", "--max-n", "9", "--format", "structured"],
    ["verify", "--max-n", "1"],
    ["verify", "--obs", "3", "--max-n", "4", "--format", "structured"],
    ["verify", "--obs", "3", "--max-n", "9", "--format", "structured"],
    ["verify", "--obs", "3", "--max-n", "12", "--unsafe-enumeration-limit", "1000000000000000000000000000000", "--format", "structured"],
    ["verify", "--obs", "3", "--max-n", "14", "--unsafe-enumeration-limit", "1000000000000000000000000000000", "--format", "structured"],
    ["verify", "--obs", "3", "--max-n", "16", "--unsafe-enumeration-limit", "1000000000000000000000000000000", "--format", "structured"],
    ["verify", "--max-n", "10"],
    ["verify", "--obs", "1", "--max-n", "10"],
    ["verify", "--obs", "1", "--max-n", "10", "--unsafe-enumeration-limit", "122522400"],
    ["verify", "--obs", "1", "--max-n", "10", "--unsafe-enumeration-limit", "122522399"],
    ["bench", "9"],
    ["bench", "10"],
    *HELP,
    *USAGE_ERRORS,
    *PROCESS_ONLY,
]

_TIMING = re.compile(rb"_s=[0-9]+\.[0-9]+")


def digest(argv: list[str], blocks: Iterable[bytes]) -> tuple[int, str]:
    """The byte count and SHA-256 of stdout, read block by block; `bench` timings masked first."""
    if argv[:1] == ["bench"]:
        blocks = [_TIMING.sub(b"_s=<t>", b"".join(blocks))]
    sha, size = hashlib.sha256(), 0
    for block in blocks:
        sha.update(block)
        size += len(block)
    return size, sha.hexdigest()


def record(argv: list[str], code: int, out: tuple[int, str], err: str) -> dict:
    """The corpus record of one run; `out` is stdout's `digest`."""
    return {
        "argv": argv,
        "exit": code,
        "stdout_bytes": out[0],
        "stdout_sha256": out[1],
        "stderr": None if argv in USAGE_ERRORS else err,
    }


def in_process_records(records: list) -> list:
    """The records of `records` that the in-process check runs: all but PROCESS_ONLY's."""
    return [r for r in records if r["argv"] not in PROCESS_ONLY]


def two_passes(records: list) -> list:
    """`records`, then `records` in reverse order: the in-process check's runs."""
    return [*records, *records[::-1]]


def in_process(argv: list[str]) -> dict:
    """Run one case through `cli.run` in this process (COLUMNS must be 80)."""
    from cobweb import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return record(argv, code, digest(argv, [out.getvalue().encode()]), err.getvalue())


def _blocks(fd: int, deadline: float) -> Iterator[bytes]:
    """Blocks of up to 64 KiB read from `fd` until it ends or `deadline` (a `time.monotonic()` time) passes."""
    while (left := deadline - time.monotonic()) > 0 and select.select([fd], [], [], left)[0]:
        block = os.read(fd, 1 << 16)
        if not block:
            return
        yield block


def as_process(argv: list[str]) -> tuple[dict, float, float]:
    """Run one case as `python -m cobweb.cli` (COLUMNS must be 80).

    Returns its record, its peak RSS in MiB and its wall time in seconds.
    Stdout is hashed in 64 KiB blocks as it arrives, so no case's output is
    held whole.  Stderr goes to a temporary file, so the child never blocks
    on a full stderr pipe while stdout is read.  A child still going at
    WALL_S seconds is killed.
    """
    start = time.monotonic()
    deadline = start + WALL_S
    out_r, out_w = os.pipe()
    with tempfile.TemporaryFile() as err:
        try:
            pid = spawn(["-m", "cobweb.cli", *argv], out_w, err.fileno())
            os.close(out_w)
            out = digest(argv, _blocks(out_r, deadline))
        finally:
            os.close(out_r)
        code, peak = reap(pid, deadline)
        seconds = time.monotonic() - start
        err.seek(0)
        return record(argv, code, out, err.read().decode()), peak, seconds


def check_processes(expected: list) -> int:
    """Run every record as a process under the bounds; print each failure, the slowest run and this check's own peak."""
    failed, slowest = set(), (0.0, "")
    for want in expected:
        name = " ".join(want["argv"]) or "<no argv>"
        got, peak, seconds = as_process(want["argv"])
        slowest = max(slowest, (seconds, name))
        if got != want:
            print(f"differs: {name}\n  expected {want}\n  got      {got}")
            failed.add(name)
        if peak >= DEFAULT_MIB:
            print(f"over its memory bound: {name}: peak RSS {peak:.1f} MiB, bound {DEFAULT_MIB} MiB")
            failed.add(name)
        if seconds >= WALL_S:
            print(f"over the wall bound: {name}: {seconds:.2f} s, bound {WALL_S:g} s")
            failed.add(name)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(failed)} of {len(expected)} records fail as processes; slowest run {slowest[1]}: {slowest[0]:.2f} s")
    print(f"this check's own peak RSS {own:.1f} MiB, bound {DEFAULT_MIB} MiB")
    return 1 if failed or own >= DEFAULT_MIB else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", action="store_true", help="run each case as a process, under the bounds")
    parser.add_argument("--write", action="store_true", help="regenerate the corpus file")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"
    if args.write:
        records = [
            as_process(argv)[0] if args.processes or argv in PROCESS_ONLY else in_process(argv)
            for argv in CASES
        ]
        CORPUS.write_text(json.dumps(records, indent=1) + "\n")
        print(f"wrote {len(CASES)} records to {CORPUS}")
        return 0
    expected = json.loads(CORPUS.read_text())
    if args.processes:
        return check_processes(expected)
    runs = two_passes(in_process_records(expected))
    failed = [(want, got) for want in runs if (got := in_process(want["argv"])) != want]
    for want, got in failed:
        print(f"differs: {' '.join(want['argv'])}\n  expected {want}\n  got      {got}")
    print(f"{len(failed)} of {len(runs)} runs of {len(expected)} records differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
