"""Every case of the CLI byte-identity corpus, run in-process through `cli.run`.

The process-only cases are skipped here; `tests/cli_corpus.py --processes` runs them,
and the last tests check that its bounds fail a run of one small case.  The listings,
exports, `bench` tables, verify reports and refusals of the corpus are also checked
against renderings built here and in `tests/naive.py` from the standard library
alone; `tests/test_package.py` checks that `tests/naive.py` imports no code of `cobweb`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cobweb import cli

import cli_corpus
import naive
from cli_corpus import (
    CASES, CORPUS, PROCESS_ONLY, in_process, in_process_records, two_passes,
)

ALL_RECORDS = json.loads(CORPUS.read_text())
RECORDS = in_process_records(ALL_RECORDS)


def argv_id(record: dict) -> str:
    return " ".join(record["argv"]) or "<no argv>"


def test_corpus_file_holds_every_case():
    assert [r["argv"] for r in ALL_RECORDS] == CASES


@pytest.mark.parametrize("want", RECORDS, ids=argv_id)
def test_case_is_byte_identical(monkeypatch, want):
    monkeypatch.setenv("COLUMNS", "80")
    assert in_process(want["argv"]) == want


EXPORTS = [r for r in RECORDS if r["argv"][:1] == ["export"] and "--help" not in r["argv"] and r["exit"] == 0]


def test_every_export_that_writes_is_checked_with_out():
    assert [" ".join(r["argv"][1:]) for r in EXPORTS] == [
        "1 --format csv", "1 --format dot", "10 --format csv", "12 --format csv", "8 --format dot", "12 --format dot",
    ]


@pytest.mark.parametrize("want", EXPORTS, ids=argv_id)
def test_export_to_a_file_writes_the_record(capsys, tmp_path, want):
    path = tmp_path / "out"
    assert cli.run([*want["argv"], "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert cli_corpus.digest(want["argv"], [path.read_bytes()]) == (want["stdout_bytes"], want["stdout_sha256"])


def test_every_case_twice_in_one_process(monkeypatch):
    # From fresh parsers, then in reverse order on the parsers the first pass built.
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    assert [in_process(want["argv"]) for want in two_passes(RECORDS)] == two_passes(RECORDS)


# Independent renderings of each record: stdout, stderr and exit.

DEFAULT_LIMIT = 10**8  # the chain guard's limit when no override is given
DIM_CAP = 10_000  # the most rows an incidence matrix, or an export, may have
REFUSAL = "use the closed-form counter or raise the limit explicitly"


def named(number: int) -> str:
    """A number as an error message names it: in full up to 4300 digits, else by its bit length."""
    return str(number) if number < 10**4300 else f"(a {number.bit_length()}-bit number)"


def options(argv: list[str]) -> dict[str, str]:
    """{flag: value} of an argv whose every flag takes one value."""
    return {flag: value for flag, value in zip(argv, argv[1:]) if flag.startswith("--")}


def max_n(argv: list[str]) -> int:
    return int(options(argv).get("--max-n", "7"))


def limit(argv: list[str]) -> int:
    return int(options(argv).get("--unsafe-enumeration-limit", DEFAULT_LIMIT))


def chains_verb(argv: list[str]):
    level, index = map(int, options(argv).get("--from", "1:0").split(":"))
    return naive.chain_lines(int(argv[1]), level, index)


def export_verb(argv: list[str]):
    depth = int(argv[1])
    return [naive.zeta_csv(naive.level_sizes(depth))] if options(argv)["--format"] == "csv" else naive.dot_lines(depth)


def verify_verb(argv: list[str]):
    observation = options(argv).get("--obs", "all")
    return naive.verify_lines(["1", "2", "3"] if observation == "all" else [observation], max_n(argv), "structured" in argv)


def bench_verb(argv: list[str]):
    yield "# wall-clock timings below are non-deterministic; counts are exact\n"
    for n in range(1, int(argv[1]) + 1):
        chains = naive.f_factorial(n)
        if chains <= DEFAULT_LIMIT:
            enumeration = f"enumeration={chains} enumeration_s=<t> match=yes"
        else:
            enumeration = "enumeration=skipped enumeration_s=- match=-"
        yield f"n={n} formula={chains} formula_s=<t> {enumeration}\n"


RENDERINGS = {"chains": chains_verb, "export": export_verb, "verify": verify_verb, "bench": bench_verb}


def refusal(argv: list[str]) -> str | None:
    """The guard line of a run that refuses before any work; None if the run is admitted.

    An export refuses past DIM_CAP vertices.  A listing refuses when the
    product of the level sizes above its start passes the limit; a sweep
    admits the root's walk to each level 2..max_n in turn, and refuses at
    the first whose n_F! chains pass it.
    """
    if argv[0] == "export":
        dim = naive.vertex_count(int(argv[1]))
        return None if dim <= DIM_CAP else f"guard: incidence matrix would be {named(dim)}x{named(dim)}; cap is {DIM_CAP} rows\n"
    if argv[0] == "chains":
        level = int(options(argv).get("--from", "1:0").split(":")[0])
        walks = [naive.f_product(level + 1, int(argv[1]))]
    elif argv[0] == "verify":
        walks = [naive.f_factorial(n) for n in range(2, max_n(argv) + 1)]
    else:
        return None
    over = [chains for chains in walks if chains > limit(argv)]
    if not over:
        return None
    return f"guard: enumeration would visit {named(over[0])} chains, over the limit of {limit(argv)}; {REFUSAL}\n"


def stderr(argv: list[str]) -> str:
    """The stderr of a run of argv: an override's warning, `bench`'s skipped levels, then any refusal."""
    text = ""
    if "--unsafe-enumeration-limit" in argv:
        text = f"warning: enumeration guard overridden to {limit(argv)} predicted chains\n"
    if argv[0] == "bench":
        for n in range(1, int(argv[1]) + 1):
            chains = naive.f_factorial(n)
            if chains > DEFAULT_LIMIT:
                text += f"guard: n={n} skipped: enumeration would visit {chains} chains, over the limit of {DEFAULT_LIMIT}; {REFUSAL}\n"
    return text + (refusal(argv) or "")


# Every listing, export, bench table and verify report that exits 0, and
# every refusal; `chains 9` (103 MB) and both `export 18` (91.5 MB and
# 150 MB) are left to `--processes`.
UNRENDERED = [["chains", "9"], ["export", "18", "--format", "csv"], ["export", "18", "--format", "dot"]]
RENDERED = [
    r for r in ALL_RECORDS
    if r["exit"] in (0, 3)
    and r["argv"][0] in RENDERINGS
    and r["argv"] not in UNRENDERED
    and "--help" not in r["argv"]
]


def rendered_record(argv: list[str]) -> dict:
    refused = refusal(argv) is not None
    out = b"" if refused else "".join(RENDERINGS[argv[0]](argv)).encode()
    return {
        "argv": argv,
        "exit": 3 if refused else 0,
        "stdout_bytes": len(out),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stderr": stderr(argv),
    }


@pytest.mark.parametrize("want", RENDERED, ids=argv_id)
def test_record_matches_an_independent_rendering(want):
    assert rendered_record(want["argv"]) == want


# Lines, DOT edges and passing cases of some renderings, each a sum or
# product of level sizes: 65520 = 8_F!, 9282 = F(7)F(8)F(9), 376 = F(1) +
# ... + F(12), 441 = the sum of F(s)F(s+1) for s < 8, 133 = the sum of
# F(k)(9 - k), 387 = 36 + 351 and 1248 = 120 + 1128 (the counted cases to
# max_n, then the closed-form tail to 3 * max_n).
FROZEN_COUNTS = [
    (["chains", "8"], "\n", 65520),
    (["chains", "9", "--from", "6:2"], "\n", 9282),
    (["export", "12", "--format", "csv"], "\n", 376),
    (["export", "8", "--format", "dot"], " -> ", 441),
    (["verify", "--obs", "2", "--max-n", "9", "--format", "structured"], " status=pass\n", 133),
    (["verify", "--obs", "3", "--max-n", "9", "--format", "structured"], " status=pass\n", 387),
    (["verify", "--obs", "3", "--max-n", "16", "--format", "structured"], " status=pass\n", 1248),
]


@pytest.mark.parametrize("argv, marker, count", FROZEN_COUNTS, ids=[" ".join(a) for a, _, _ in FROZEN_COUNTS])
def test_rendering_has_the_frozen_count(argv, marker, count):
    assert sum(line.count(marker) for line in RENDERINGS[argv[0]](argv)) == count


def test_every_verb_with_a_rendering_is_covered():
    # 30 records that exit 0 and the 9 refusals.
    assert sorted({r["argv"][0] for r in RENDERED}) == sorted(RENDERINGS)
    assert [r["exit"] for r in RENDERED].count(3) == 9
    assert len(RENDERED) == 39


def test_tables_name_only_corpus_cases():
    assert all(argv in CASES for argv in PROCESS_ONLY)


@pytest.mark.parametrize(
    "bound, line",
    [("DEFAULT_MIB", "over its memory bound: fib 1: peak RSS "), ("WALL_S", "over the wall bound: fib 1: ")],
)
def test_a_run_past_a_bound_fails_and_is_named(capsys, monkeypatch, bound, line):
    # A bound of 1 KiB, or of 1 ms, is under any run's; a child still going
    # at the wall bound is killed.  No passing run is checked here: on Linux
    # a child's reported peak is at least that of this test process.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli_corpus, bound, 0.001)
    assert cli_corpus.check_processes([r for r in ALL_RECORDS if r["argv"] == ["fib", "1"]]) == 1
    assert line in capsys.readouterr().out

