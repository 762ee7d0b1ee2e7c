"""Every case of the CLI byte-identity corpus, run in-process through `cli.run`.

The process-only cases are skipped here; `tests/cli_corpus.py --processes` runs them.
The listings, exports, `bench` tables and structured verify reports of the corpus
are also checked against renderings built from `itertools`, `math` and `hashlib`
alone, with no code of `cobweb`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest

from cobweb import cli

from cli_corpus import CASES, CORPUS, in_process, in_process_records, two_passes

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


def test_every_case_twice_in_one_process(monkeypatch):
    # From fresh parsers, then in reverse order on the parsers the first pass built.
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    assert [in_process(want["argv"]) for want in two_passes(RECORDS)] == two_passes(RECORDS)


# The independent renderings.  Level s of the cobweb poset holds F(s)
# vertices v{s}_0 .. v{s}_{F(s)-1}, and every vertex of a level lies below
# every vertex of the levels above it.

DEFAULT_LIMIT = 10**8  # the chain guard's limit when no override is given
REFUSAL = "use the closed-form counter or raise the limit explicitly"


def fibonacci(top: int) -> list[int]:
    """F(0..top) by the plain recurrence."""
    fibs = [0, 1]
    while len(fibs) <= top:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


def f_product(fibs: list[int], lo: int, hi: int) -> int:
    """F(lo) * ... * F(hi); 1 when lo > hi."""
    return math.prod(fibs[lo:hi + 1])


def level_ids(depth: int) -> list[list[str]]:
    """The node ids of levels 1..depth."""
    fibs = fibonacci(depth)
    return [[f"v{s}_{i}" for i in range(fibs[s])] for s in range(1, depth + 1)]


def options(argv: list[str]) -> dict[str, str]:
    """{flag: value} of an argv whose every flag takes one value."""
    return {flag: value for flag, value in zip(argv, argv[1:]) if flag.startswith("--")}


def chains_lines(argv: list[str]):
    n = int(argv[1])
    level, index = map(int, options(argv).get("--from", "1:0").split(":"))
    for rest in itertools.product(*level_ids(n)[level:]):
        yield " ".join((f"v{level}_{index}", *rest)) + "\n"


def export_lines(argv: list[str]):
    ids = level_ids(int(argv[1]))
    if options(argv)["--format"] == "csv":
        dim, end = sum(map(len, ids)), 0
        for level in ids:
            end += len(level)
            for i in range(end - len(level), end):
                yield ",".join("1" if j == i or j >= end else "0" for j in range(dim)) + "\n"
    else:
        yield "digraph cobweb {\n  rankdir=BT;\n"
        for level in ids:
            yield f"  {{ rank=same; {'; '.join(level)}; }}\n"
        for low, high in zip(ids, ids[1:]):
            for x, y in itertools.product(low, high):
                yield f"  {x} -> {y};\n"
        yield "}\n"


def verify_lines(argv: list[str]):
    # One (k, n, value) per case, formula and oracle equal: n_F! from the root,
    # F(k+1)...F(n) from each of the F(k) vertices of level k, and the
    # Fibonomial for the counted cases to max_n, then the closed-form tail to
    # 3 * max_n.
    max_n = int(options(argv)["--max-n"])
    fibs = fibonacci(3 * max_n)
    cases = {
        "1": [(1, n, f_product(fibs, 1, n)) for n in range(1, max_n + 1)],
        "2": [
            (k, n, f_product(fibs, k + 1, n))
            for k in range(1, max_n)
            for n in range(k + 1, max_n + 1)
            for _ in range(fibs[k])
        ],
        "3": [
            (k, n, f_product(fibs, n - k + 1, n) // f_product(fibs, 1, k))
            for top in (max_n, 3 * max_n)
            for n in range(2, top + 1)
            for k in range(1, n)
        ],
    }
    observation = options(argv).get("--obs", "all")
    for o in ["1", "2", "3"] if observation == "all" else [observation]:
        for k, n, value in cases[o]:
            yield f"observation={o} k={k} n={n} formula={value} oracle={value} status=pass\n"


def bench_lines(argv: list[str]):
    fibs = fibonacci(int(argv[1]))
    yield "# wall-clock timings below are non-deterministic; counts are exact\n"
    for n in range(1, len(fibs)):
        chains = f_product(fibs, 1, n)
        if chains <= DEFAULT_LIMIT:
            enumeration = f"enumeration={chains} enumeration_s=<t> match=yes"
        else:
            enumeration = "enumeration=skipped enumeration_s=- match=-"
        yield f"n={n} formula={chains} formula_s=<t> {enumeration}\n"


def rendered_stderr(argv: list[str]) -> str:
    limit = options(argv).get("--unsafe-enumeration-limit")
    text = "" if limit is None else f"warning: enumeration guard overridden to {limit} predicted chains\n"
    if argv[0] == "bench":
        fibs = fibonacci(int(argv[1]))
        for n in range(1, len(fibs)):
            chains = f_product(fibs, 1, n)
            if chains > DEFAULT_LIMIT:
                text += f"guard: n={n} skipped: enumeration would visit {chains} chains, over the limit of {DEFAULT_LIMIT}; {REFUSAL}\n"
    return text


RENDERINGS = {"chains": chains_lines, "export": export_lines, "verify": verify_lines, "bench": bench_lines}


def rendered_record(argv: list[str]) -> dict:
    out = "".join(RENDERINGS[argv[0]](argv)).encode()
    return {
        "argv": argv,
        "exit": 0,
        "stdout_bytes": len(out),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stderr": rendered_stderr(argv),
    }


# Every listing, export and bench table that exits 0, and every structured
# verify report; `chains 9` (103 MB) is left to `--processes`.
RENDERED = [
    r for r in ALL_RECORDS
    if r["exit"] == 0
    and r["argv"] != ["chains", "9"]
    and (r["argv"][0] in ("chains", "export", "bench") or "structured" in r["argv"])
]


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
    assert sorted({r["argv"][0] for r in RENDERED}) == sorted(RENDERINGS)
    assert len(RENDERED) == 24
