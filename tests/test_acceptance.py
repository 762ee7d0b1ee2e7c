"""Acceptance sweep: every criterion at its stated tolerance and time budget.

Each criterion prints one ACCEPTANCE line (run with -s to see them live).
All counts are exact integers; tolerances are zero everywhere.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

from cobweb.chains import (
    count_from_root_formula,
    enumerate_from_root,
    verify_observation,
)
from cobweb.fibcalc import falling_f_factorial, fib_factorial, fibonomial
from cobweb.poset import build_cobweb
from cobweb.zeta import staircase_check, zeta_matrix

import naive

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_root_chains_match_f_factorial():
    with criterion("1 root chains equal the F-factorial for n=1..9"):
        t0 = time.perf_counter()
        P = build_cobweb(9)
        counts = {n: enumerate_from_root(P, n) for n in range(1, 10)}
        for n in range(1, 10):
            assert counts[n] == count_from_root_formula(n) == naive.f_factorial(n), f"mismatch at n={n}"
        assert counts[9] == 2227680
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_layer_chains_match_falling_factorial():
    with criterion("2 layer chains equal the falling F-factorial, all starts, n<=9"):
        t0 = time.perf_counter()
        report = verify_observation(2, 9)
        assert report.passed, report.counterexamples
        assert len(report.cases) == 133  # one case per (k, n, start vertex)
        by_pair: dict[tuple[int, int], set[int]] = {}
        for case in report.cases:
            by_pair.setdefault((case.k, case.n), set()).add(case.oracle)
            assert case.formula == falling_f_factorial(case.n, case.n - case.k) == naive.f_product(case.k + 1, case.n)
        assert all(len(v) == 1 for v in by_pair.values()), "start vertex changed a count"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_quotient_identity_to_60():
    with criterion("3 chain quotient equals the Fibonomial for 1<=k<n<=60"):
        t0 = time.perf_counter()
        for n in range(2, 61):
            for k in range(1, n):
                layer = falling_f_factorial(n, n - k)
                per_copy = fib_factorial(n - k)
                assert layer % per_copy == 0, f"not divisible at k={k}, n={n}"
                assert layer // per_copy == naive.fibonomial(n, k)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_integrality_symmetry_both_forms_to_60():
    with criterion("4 Fibonomial integral, symmetric, both forms agree, n<=60"):
        t0 = time.perf_counter()
        for n in range(61):
            for k in range(n + 1):
                value = fibonomial(n, k)
                assert isinstance(value, int) and value >= 1
                assert value == fibonomial(n, n - k)
                assert value == naive.fibonomial(n, k)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_zeta_structure_and_goldens():
    with criterion("5 zeta staircase, block structure, golden CSVs, n<=8"):
        t0 = time.perf_counter()
        for depth in range(1, 9):
            P = build_cobweb(depth)
            M = zeta_matrix(P)
            assert staircase_check(M, P)
            rows = [bytes(M.entry(i, j) for j in range(M.dim)) for i in range(M.dim)]
            assert rows == list(naive.zeta_rows(naive.level_sizes(depth)))
            assert all(row[i] == 1 and not any(row[:i]) for i, row in enumerate(rows))
        for depth, name in [(1, "zeta_p1.csv"), (3, "zeta_p3.csv"), (5, "zeta_p5.csv")]:
            body = zeta_matrix(build_cobweb(depth)).to_csv()
            assert body.encode() == (GOLDEN / name).read_bytes(), f"golden drift at depth {depth}"
        assert time.perf_counter() - t0 < 5.0


def test_criterion_6_poset_axioms_exhaustive_p6():
    with criterion("6 poset axioms by exhaustion over P_6"):
        t0 = time.perf_counter()
        P = build_cobweb(6)
        verts = P.vertices()
        assert len(verts) == 20
        for x in verts:
            assert P.leq(x, x)
        for x in verts:
            for y in verts:
                if P.leq(x, y) and P.leq(y, x):
                    assert x == y
        for x in verts:
            for y in verts:
                xy = P.leq(x, y)
                for z in verts:
                    if xy and P.leq(y, z):
                        assert P.leq(x, z)
        # transitive closure of covers reproduces leq
        for x in verts:
            reached = set()
            frontier = [x]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in P.covers_above(v):
                        if w not in reached:
                            reached.add(w)
                            nxt.append(w)
                frontier = nxt
            for y in verts:
                assert P.leq(x, y) == (x == y or y in reached)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_7_literal_reading_discrepancy_stays_visible():
    with criterion("7 induced-copy diagnostic differs from the coefficient"):
        # One subset per level 2..4 of P_4, of sizes 1, 1 and 2: a copy of P_3.
        profile = (1, 1, 2)
        literal = math.prod(map(math.comb, naive.level_sizes(4)[1:], profile))
        coefficient = fibonomial(4, 1)
        assert literal == 6
        assert coefficient == 3
        assert literal != coefficient


def test_criterion_8_performance_sanity():
    with criterion("8 fibonomial(1000,500) under 5s; formula >=100x faster than DFS at n=9"):
        t0 = time.perf_counter()
        big = fibonomial(1000, 500)
        assert time.perf_counter() - t0 < 5.0
        assert big == naive.fibonomial(1000, 500)

        P = build_cobweb(9)
        reps = 1000
        t0 = time.perf_counter()
        for _ in range(reps):
            count_from_root_formula(9)
        formula_s = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        enumerated = enumerate_from_root(P, 9)
        enum_s = time.perf_counter() - t0
        assert enumerated == count_from_root_formula(9)
        assert enum_s >= 100 * formula_s, f"speedup only {enum_s / formula_s:.1f}x"
