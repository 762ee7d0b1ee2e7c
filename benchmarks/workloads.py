"""The benchmark's three workloads, each a fixed list of ops built from a seed.

An op is one call into cobweb: a library function, or one CLI verb run
in-process through `cobweb.cli.run(argv)` with stdout and stderr captured.
Each op carries a check that decides, outside the timed region and without
calling cobweb, whether its output is right.

Heavy ops sit on a fixed grid of sizes, and the seed jitters them and picks
start vertices, formats and order.  That keeps the cost of one pass nearly
the same across seeds, so a change in the numbers reflects the code, while
the inputs still differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from cobweb import chains, cli, fibcalc, poset, zeta

import oracle

ENUMERATION_LIMIT = chains.DEFAULT_ENUMERATION_LIMIT
DIM_CAP = zeta.DEFAULT_DIM_CAP


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


@dataclass
class Op:
    kind: str
    args: tuple
    run: Callable[[], object]
    check: Callable[[object], bool]


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(argv: list[str], check: Callable[[CliResult], bool]) -> Op:
    return Op(f"cli.{argv[0]}", tuple(argv), lambda: run_cli(argv), check)


def cli_ok(expected: Callable[[str], bool]) -> Callable[[object], bool]:
    """Check a CLI result that must exit 0 with nothing on stderr."""
    return lambda r: isinstance(r, CliResult) and r.code == 0 and not r.err and expected(r.out)


def cli_refused(*needles: str) -> Callable[[object], bool]:
    """Check an expected guard refusal: exit 3, message naming the cost."""
    return lambda r: (
        isinstance(r, CliResult) and r.code == 3 and not r.out
        and r.err.startswith("guard:") and all(s in r.err for s in needles)
    )


def residues_match(value: object, expected: tuple[int, ...]) -> bool:
    return isinstance(value, int) and oracle.residues_of(value) == expected


def text_int_matches(text: str, expected: tuple[int, ...]) -> bool:
    value = oracle.parse_int(text)
    return value is not None and text.endswith("\n") and text.count("\n") == 1 and residues_match(value, expected)


def row_matches(values: object, n: int, res: oracle.Residues) -> bool:
    """A Fibonomial row: n + 1 entries, palindromic, every residue right."""
    if not isinstance(values, list) or len(values) != n + 1:
        return False
    if values != values[::-1]:
        return False
    return [oracle.residues_of(v) for v in values] == res.row(n)


def row_text_matches(text: str, n: int, sep: str, res: oracle.Residues) -> bool:
    if not text.endswith("\n") or text.count("\n") != 1:
        return False
    values = [oracle.parse_int(cell) for cell in text.split(sep)]
    return None not in values and row_matches(values, n, res)


# -- oracle_sweep --------------------------------------------------------------


def _layer_pairs(lo: int, hi: int, top: int = 17) -> list[tuple[int, int]]:
    """(k, n) pairs whose chain count from one level-k vertex is in [lo, hi]."""
    return [
        (k, n) for n in range(2, top + 1) for k in range(1, n)
        if lo <= oracle.level_product(k + 1, n) <= hi
    ]


def _enumerate_op(rng: random.Random, k: int, n: int) -> Op:
    start = rng.randrange(oracle.fibs(k)[k])
    depth = n + rng.randint(0, 2)
    expected = oracle.level_product(k + 1, n)
    if k == 1 and rng.random() < 0.5:
        return Op("lib.enumerate_from_root", (depth, n),
                  lambda: chains.enumerate_from_root(poset.build_cobweb(depth), n),
                  lambda got: got == expected)
    spec = chains.LayerSpec(poset.Vertex(k, start), n)
    return Op("lib.enumerate_layer_chains", (depth, k, start, n),
              lambda: chains.enumerate_layer_chains(poset.build_cobweb(depth), spec),
              lambda got: got == expected)


def _verify_lib_op(observation: int, max_n: int) -> Op:
    expected = oracle.verify_cases(observation, max_n)

    def check(report: object) -> bool:
        if not isinstance(report, chains.VerificationReport):
            return False
        got = [(c.k, c.n, c.formula, c.oracle, c.passed, c.start) for c in report.cases]
        return report.observation == observation and report.max_n == max_n and got == expected

    return Op("lib.verify_observation", (observation, max_n),
              lambda: chains.verify_observation(observation, max_n), check)


def _verify_cli_op(obs: str, max_n: int, structured: bool) -> Op:
    observations = [1, 2, 3] if obs == "all" else [int(obs)]
    expected = oracle.verify_text(observations, max_n, structured)
    argv = ["verify", "--obs", obs, "--max-n", str(max_n)]
    if structured:
        argv += ["--format", "structured"]
    return cli_op(argv, cli_ok(lambda out: out == expected))


def _listing_op(rng: random.Random, k: int, n: int) -> Op:
    start = rng.randrange(oracle.fibs(k)[k])
    expected = functools.cache(lambda: oracle.digest_lines(oracle.chain_lines(k, start, n)))
    return cli_op(["chains", str(n), "--from", f"{k}:{start}"],
                  cli_ok(lambda out: oracle.digest_text(out) == expected()))


def _refusal_ops(rng: random.Random, count_cli: int, count_lib: int) -> list[Op]:
    pairs = _layer_pairs(ENUMERATION_LIMIT + 1, 10**15, top=20)
    ops = []
    for k, n in rng.sample(pairs, count_cli):
        start = rng.randrange(oracle.fibs(k)[k])
        predicted = oracle.level_product(k + 1, n)
        ops.append(cli_op(["chains", str(n), "--from", f"{k}:{start}"],
                          cli_refused(f"visit {predicted} chains", f"limit of {ENUMERATION_LIMIT}")))
    for k, n in rng.sample(pairs, count_lib):
        start = rng.randrange(oracle.fibs(k)[k])
        predicted = oracle.level_product(k + 1, n)
        spec = chains.LayerSpec(poset.Vertex(k, start), n)
        ops.append(Op("lib.enumerate_layer_chains", (n, k, start, n),
                      lambda spec=spec, n=n: chains.enumerate_layer_chains(poset.build_cobweb(n), spec),
                      lambda got, p=predicted: isinstance(got, chains.EnumerationGuardError)
                      and f"visit {p} chains" in str(got)))
    return ops


def oracle_sweep(rng: random.Random, toy: bool) -> list[Op]:
    """Formula-vs-DFS verification: `verify` sweeps, chain counts, listings."""
    heavy = 6 if toy else 9
    small = range(3, 5) if toy else range(4, 9)
    tier_k, tier_n = (3, 6) if toy else (6, 10)
    ops = [_verify_lib_op(o, heavy) for o in (1, 2, 3)]
    # One size from many start vertices: the count must not depend on the start.
    ops += [_enumerate_op(rng, tier_k, tier_n) for _ in range(8)]
    ops += [_verify_lib_op(o, m) for o in (1, 2, 3) for m in small]
    ops += [_verify_cli_op(obs, m, rng.random() < 0.5)
            for obs in ("1", "2", "3", "all") for m in (3, *small)]
    tiny = _layer_pairs(*((2, 9) if toy else (10, 999)))
    ops += [_enumerate_op(rng, k, n) for k, n in _layer_pairs(*((10, 10**3) if toy else (10**3, 10**6)))]
    ops += [_enumerate_op(rng, k, n) for k, n in tiny]
    ops += [_listing_op(rng, k, n) for k, n in _layer_pairs(*((10, 200) if toy else (10**3, 2 * 10**4)))]
    ops += [_listing_op(rng, k, n) for k, n in rng.sample(tiny, min(10, len(tiny)))]
    ops += _refusal_ops(rng, 15, 5)
    rng.shuffle(ops)
    return ops


# -- fibonomial_table ------------------------------------------------------------


def _jitter(rng: random.Random, grid: list[int], spread: int) -> list[int]:
    return [g - rng.randint(0, spread) for g in grid]


def _cli_k(rng: random.Random, n: int) -> int:
    """A k small enough that C_F(n, k) and falling(n, k) print under the digit cap."""
    k_max = 1
    while oracle.max_digits(n, k_max + 1) < oracle.INT_STR_DIGITS:
        k_max += 1
    return rng.randint(1, k_max)


def fibonomial_table(rng: random.Random, toy: bool, res: oracle.Residues) -> list[Op]:
    """Big-integer Fibonacci arithmetic, as library calls and as CLI verbs."""
    scale = 10 if toy else 1

    # `fn` looks the function up on its module at call time, so that the
    # tracer's wrappers are seen once installed.
    def lib(kind: str, fn: Callable, expected: Callable, *args: int) -> Op:
        return Op(f"lib.{kind}", args, lambda: fn(*args),
                  lambda got: residues_match(got, expected(*args)))

    def binom(n: int, k: int) -> Op:
        return lib("fibonomial", lambda n, k: fibcalc.fibonomial(n, k), res.fibonomial, n, k)

    n = (1600 - rng.randint(0, 10)) // scale
    ops = [binom(n, n // 2 - rng.randint(0, 5 // scale))]
    for _ in range(7):
        n = (1000 - rng.randint(0, 6)) // scale
        ops.append(binom(n, n // 2 - rng.randint(0, 3 // scale)))
    for g, frac in [(600, 0.5), (750, 0.3), (900, 0.35), (1200, 0.2), (1350, 0.15), (1500, 0.12)]:
        n = (g - rng.randint(0, 10)) // scale
        ops.append(binom(n, max(1, round(n * frac) - rng.randint(0, 5 // scale))))
    for _ in range(6):
        n = rng.randint(600, 1600) // scale
        ops.append(binom(n, rng.randint(1, 50 // scale)))
    for n in _jitter(rng, [120, 150, 180, 210], 3):
        n //= scale
        ops.append(Op("lib.fibonomial_row", (n,), lambda n=n: fibcalc.fibonomial_row(n),
                      lambda got, n=n: row_matches(got, n, res)))
    for n in _jitter(rng, [10000, 16000, 22000, 28000, 34000, 40000], 200):
        ops.append(lib("fib", lambda n: fibcalc.fib(n), res.fib, n // scale))
    for n in _jitter(rng, [200, 350, 500, 650], 10):
        ops.append(lib("fib_factorial", lambda n: fibcalc.fib_factorial(n), res.fib_factorial, n // scale))
    for g, frac in [(800, 0.3), (1100, 0.2), (1400, 0.1), (1600, 0.08)]:
        n = (g - rng.randint(0, 10)) // scale
        ops.append(lib("falling_f_factorial", lambda n, k: fibcalc.falling_f_factorial(n, k),
                       res.falling, n, round(n * frac)))

    for verb, count, expected in [("binom", 20, res.fibonomial), ("falling", 12, res.falling)]:
        for _ in range(count):
            n = rng.randint(600, 1600) // scale
            k = _cli_k(rng, n)
            ops.append(cli_op([verb, str(n), str(k)],
                              cli_ok(lambda out, n=n, k=k, e=expected: text_int_matches(out, e(n, k)))))
    for n in _jitter(rng, [130, 160, 190, 220], 3):
        n //= scale
        fmt = rng.choice(["plain", "csv"])
        sep = "," if fmt == "csv" else " "
        ops.append(cli_op(["row", str(n), "--format", fmt],
                          cli_ok(lambda out, n=n, sep=sep: row_text_matches(out, n, sep, res))))
    for verb, grid, spread, expected in [
        ("fib", [10000, 11500, 13000, 15000, 17500, 19500], 300, res.fib),
        ("fibfact", [40, 70, 100, 130, 160, 190], 3, res.fib_factorial),
    ]:
        for n in _jitter(rng, grid, spread):
            n //= scale
            ops.append(cli_op([verb, str(n)], cli_ok(lambda out, n=n, e=expected: text_int_matches(out, e(n)))))
    rng.shuffle(ops)
    return ops


def known_defect_probe(rng: random.Random, res: oracle.Residues) -> list[tuple[Op, Callable[[object], bool]]]:
    """CLI requests whose result is over CPython's 4300-digit int/str cap.

    Each entry pairs the op with a check that recognises the defect, so the
    probe can tell "still broken" from "fixed" and from any other failure.
    """
    fib_n = rng.randint(25000, 40000)
    row_n = rng.randint(300, 320)
    binom_n = rng.randint(600, 700)
    fact_n = rng.randint(250, 300)
    ops = [
        cli_op(["fib", str(fib_n)], cli_ok(lambda out: text_int_matches(out, res.fib(fib_n)))),
        cli_op(["row", str(row_n)], cli_ok(lambda out: row_text_matches(out, row_n, " ", res))),
        cli_op(["binom", str(binom_n), str(binom_n // 2)],
               cli_ok(lambda out: text_int_matches(out, res.fibonomial(binom_n, binom_n // 2)))),
        cli_op(["fibfact", str(fact_n)], cli_ok(lambda out: text_int_matches(out, res.fib_factorial(fact_n)))),
    ]
    def defect(r: object) -> bool:
        return (isinstance(r, CliResult) and r.code == 2 and not r.out
                and "Exceeds the limit" in r.err and "integer string conversion" in r.err)

    return [(op, defect) for op in ops]


# -- zeta_roundtrip ---------------------------------------------------------------


def _roundtrip_ops(depth: int) -> list[Op]:
    """zeta_matrix -> staircase_check -> to_csv -> from_csv -> cobweb_from_matrix.

    Each stage reads the previous stage's output, as a user's pipeline would.
    """
    rows = functools.cache(lambda: oracle.zeta_rows(depth))
    csv = functools.cache(lambda: oracle.digest_lines(oracle.zeta_csv_lines(depth)))
    state: dict[str, object] = {}

    def matrix_ok(m: object) -> bool:
        return isinstance(m, zeta.IncidenceMatrix) and m.dim == len(rows()) and all(
            bytes(m.row(i)) == r for i, r in enumerate(rows()))

    def build():
        state["P"] = poset.build_cobweb(depth)
        state["M"] = zeta.zeta_matrix(state["P"])
        return state["M"]

    def to_csv():
        state["csv"] = state["M"].to_csv()
        return state["csv"]

    def from_csv():
        state["M2"] = zeta.IncidenceMatrix.from_csv(state["csv"])
        return state["M2"]

    def rebuilt_ok(p: object) -> bool:
        state.clear()  # last stage: free the unit's matrices and CSV, outside the timed region
        return isinstance(p, poset.CobwebPoset) and p.depth == depth and p.level_sizes == tuple(oracle.fibs(depth)[1:])

    return [
        Op("lib.zeta_matrix", (depth,), build, matrix_ok),
        Op("lib.staircase_check", (depth,), lambda: zeta.staircase_check(state["M"], state["P"]),
           lambda got: got is True),
        Op("lib.to_csv", (depth,), to_csv,
           lambda got: isinstance(got, str) and oracle.digest_text(got) == csv()),
        Op("lib.from_csv", (depth,), from_csv, matrix_ok),
        Op("lib.cobweb_from_matrix", (depth,), lambda: zeta.cobweb_from_matrix(state["M2"]), rebuilt_ok),
    ]


def _export_op(depth: int, fmt: str) -> Op:
    argv = ["export", str(depth), "--format", fmt]
    if fmt == "csv":
        csv = functools.cache(lambda: oracle.digest_lines(oracle.zeta_csv_lines(depth)))
        return cli_op(argv, cli_ok(lambda out: oracle.digest_text(out) == csv()))
    edges = oracle.dot_edge_count(depth)

    def dot_ok(out: str) -> bool:
        lines = out.splitlines()
        return (lines[:2] == ["digraph cobweb {", "  rankdir=BT;"] and lines[-1] == "}"
                and sum(" -> " in line for line in lines) == edges
                and sum("rank=same" in line for line in lines) == depth)

    return cli_op(argv, cli_ok(dot_ok))


def zeta_roundtrip(rng: random.Random, toy: bool) -> list[Op]:
    """Incidence matrix build, staircase check, CSV round trip, DOT export."""
    grid = [4, 5, 6, 6, 6, 7, 8] if toy else [10, 11, 12, 12, 12, 13, 14]
    small = (1, 4) if toy else (2, 9)
    export_grid = [4, 6, 8] if toy else [8, 10, 12, 13, 14]
    # A round trip is shuffled as one unit so that its stages stay in order.
    units = [_roundtrip_ops(d) for d in grid + [rng.randint(*small) for _ in range(8)]]
    units += [[_export_op(d, fmt)] for d in export_grid for fmt in ("csv", "dot")]
    units += [[_export_op(rng.randint(*small), rng.choice(["csv", "dot"]))] for _ in range(20)]
    for _ in range(4):
        depth = rng.randint(19, 24)
        dim = oracle.vertex_count(depth)
        units.append([cli_op(["export", str(depth), "--format", "csv"],
                             cli_refused(f"{dim}x{dim}", f"cap is {DIM_CAP} rows"))])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def build(name: str, rng: random.Random, toy: bool, res: oracle.Residues) -> list[Op]:
    if name == "oracle_sweep":
        return oracle_sweep(rng, toy)
    if name == "fibonomial_table":
        return fibonomial_table(rng, toy, res)
    if name == "zeta_roundtrip":
        return zeta_roundtrip(rng, toy)
    raise ValueError(f"unknown workload {name!r}")

