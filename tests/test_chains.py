"""Chain counting: formula vs DFS oracle, quotient identity, guard, reports."""

from __future__ import annotations

import math
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import chains, cli
from cobweb.chains import (
    ChainVerificationError,
    EnumerationGuardError,
    LayerSpec,
    VerificationCase,
    VerificationReport,
    count_from_root_formula,
    count_layer_chains_formula,
    enumerate_from_root,
    enumerate_layer_chains,
    induced_copy_count,
    iter_chains,
    obs3_quotient,
    verify_observation,
)
from cobweb.fibcalc import fib, fib_factorial, fibonomial
from cobweb.poset import CobwebPoset, GuardError, Vertex, build_cobweb

REPORT_LINE = re.compile(
    r"^observation=[123] k=\d+ n=\d+ formula=\d+ oracle=\d+ status=(pass|fail)$"
)


def naive_count(P: CobwebPoset, v: Vertex, stop_level: int) -> int:
    """Reference oracle: recursive walk that counts leaves one at a time."""
    if v.level == stop_level:
        return 1
    return sum(naive_count(P, w, stop_level) for w in P.covers_above(v))


class CountingPoset(CobwebPoset):
    """A cobweb poset that counts its covers_above calls."""

    __slots__ = ("calls",)

    def __init__(self, depth: int) -> None:
        super().__init__(depth)
        self.calls = 0

    def covers_above(self, x: Vertex) -> tuple[Vertex, ...]:
        self.calls += 1
        return super().covers_above(x)


class PlantedPoset(CobwebPoset):
    """A cobweb poset whose cover relation differs at one planted vertex."""

    __slots__ = ("planted", "planted_covers")

    def __init__(self, depth: int, planted: Vertex, planted_covers: tuple[Vertex, ...]) -> None:
        super().__init__(depth)
        self.planted = planted
        self.planted_covers = planted_covers

    def covers_above(self, x: Vertex) -> tuple[Vertex, ...]:
        if x == self.planted:
            self.check_vertex(x)
            return self.planted_covers
        return super().covers_above(x)


class PassCountedTuple(tuple):
    """A cover tuple that counts the passes made over it."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class PassCountingPoset(CobwebPoset):
    """A cobweb poset that hands out PassCountedTuple covers.

    Shared: one tuple object per level, as the cobweb poset does.  Fresh: a
    new copy on every covers_above call.  `handed` keeps every tuple handed
    out, so no two of them can share an id.
    """

    __slots__ = ("fresh", "shared", "handed")

    def __init__(self, depth: int, fresh: bool) -> None:
        super().__init__(depth)
        self.fresh = fresh
        self.shared: dict[int, PassCountedTuple] = {}
        self.handed: list[PassCountedTuple] = []

    def covers_above(self, x: Vertex) -> tuple[Vertex, ...]:
        covers = None if self.fresh else self.shared.get(x.level)
        if covers is None:
            covers = PassCountedTuple(super().covers_above(x))
            covers.passes = 0
            self.shared[x.level] = covers
        self.handed.append(covers)
        return covers


def naive_chains(P: CobwebPoset, v: Vertex, stop_level: int) -> list[tuple[Vertex, ...]]:
    """Reference listing: every chain from v, recursively, in cover order."""
    if v.level == stop_level:
        return [(v,)]
    return [(v, *rest) for w in P.covers_above(v) for rest in naive_chains(P, w, stop_level)]


@st.composite
def walks(draw):
    depth = draw(st.integers(1, 8))
    k = draw(st.integers(1, depth))
    start = Vertex(k, draw(st.integers(0, fib(k) - 1)))
    return build_cobweb(depth), start, draw(st.integers(k, depth))


class TestRootFormula:
    def test_examples(self):
        assert count_from_root_formula(1) == 1
        assert count_from_root_formula(4) == 6
        assert count_from_root_formula(7) == 3120

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_from_root_formula(0)


class TestRootEnumeration:
    def test_examples(self):
        P5 = build_cobweb(5)
        assert enumerate_from_root(P5, 1) == 1
        assert enumerate_from_root(P5, 4) == 6

    def test_agrees_with_formula_to_seven(self):
        P = build_cobweb(7)
        for n in range(1, 8):
            assert enumerate_from_root(P, n) == count_from_root_formula(n)

    def test_rejects_level_out_of_range(self):
        P = build_cobweb(4)
        with pytest.raises(ValueError):
            enumerate_from_root(P, 0)
        with pytest.raises(ValueError):
            enumerate_from_root(P, 5)

    def test_repeated_runs_identical(self):
        P = build_cobweb(6)
        assert len({enumerate_from_root(P, 6) for _ in range(3)}) == 1


class TestLayerFormula:
    def test_examples(self):
        assert count_layer_chains_formula(2, 4) == 6
        assert count_layer_chains_formula(4, 5) == 5
        assert count_layer_chains_formula(1, 4) == 6

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            count_layer_chains_formula(4, 4)
        with pytest.raises(ValueError):
            count_layer_chains_formula(0, 3)

    @given(st.integers(1, 79), st.integers(2, 80))
    def test_factorial_split(self, k, n):
        if k < n:
            assert count_layer_chains_formula(k, n) * fib_factorial(k) == fib_factorial(n)


class TestLayerEnumeration:
    def test_examples(self):
        P5 = build_cobweb(5)
        assert enumerate_layer_chains(P5, LayerSpec(Vertex(4, 0), 5)) == 5
        assert enumerate_layer_chains(P5, LayerSpec(Vertex(2, 0), 4)) == 6
        assert enumerate_layer_chains(P5, LayerSpec(Vertex(3, 1), 4)) == 3

    def test_start_invariant(self):
        P = build_cobweb(6)
        for k in range(1, 6):
            for n in range(k + 1, 7):
                counts = {
                    enumerate_layer_chains(P, LayerSpec(v, n))
                    for v in P.level_vertices(k)
                }
                assert len(counts) == 1
                assert counts.pop() == count_layer_chains_formula(k, n)

    def test_layer_spec_m(self):
        spec = LayerSpec(Vertex(2, 0), 6)
        assert spec.m == 4

    def test_rejects_invalid_spec(self):
        P = build_cobweb(5)
        with pytest.raises(ValueError):
            enumerate_layer_chains(P, LayerSpec(Vertex(3, 7), 5))
        with pytest.raises(ValueError):
            enumerate_layer_chains(P, LayerSpec(Vertex(3, 0), 3))
        with pytest.raises(ValueError):
            enumerate_layer_chains(P, LayerSpec(Vertex(3, 0), 6))


class TestDfsOracle:
    @staticmethod
    def assert_three_way(P: CobwebPoset, start: Vertex, stop: int) -> None:
        # The memoized counter, the chain-by-chain listing and the recursive
        # leaf count must agree.
        counted = chains._dfs_count(P, stop)(start)
        assert counted == sum(1 for _ in iter_chains(P, start, stop)) == naive_count(P, start, stop)

    @settings(max_examples=60, deadline=None)
    @given(walks())
    def test_matches_naive_walk(self, walk):
        self.assert_three_way(*walk)

    # Planted at level n - 1 = 5 of a depth-7 poset, walked to level n = 6.
    # Level 6 has 8 vertices.  Each plant changes the number of covers of
    # the planted vertex that sit at level 6, or the number of covers, or both.
    LEVEL6 = tuple(Vertex(6, i) for i in range(8))
    PLANTS = {
        "dropped": LEVEL6[:3] + LEVEL6[4:],
        "duplicated": LEVEL6 + LEVEL6[2:3],
        "two_levels_up": LEVEL6 + (Vertex(7, 0),),
        "all_three": LEVEL6[:3] + LEVEL6[4:] + LEVEL6[2:3] + (Vertex(7, 0),),
        "dropped_and_two_up": LEVEL6[1:] + (Vertex(7, 12),),
    }

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    @pytest.mark.parametrize("planted", [Vertex(5, 0), Vertex(5, 3)])
    def test_irregular_cover_relation(self, plant, planted):
        covers = self.PLANTS[plant]
        P = PlantedPoset(7, planted, covers)
        leaves = sum(1 for w in covers if w.level == 6)
        # Chains reaching the planted vertex from the root: 4!_F = 6.
        expected = count_from_root_formula(6) + (leaves - 8) * fib_factorial(4)
        for start in (P.root, Vertex(3, 1), Vertex(4, 2), Vertex(5, 1), planted):
            for stop in (6, 7):
                self.assert_three_way(P, start, stop)
        assert chains._dfs_count(P, 6)(planted) == leaves
        assert chains._dfs_count(P, 6)(P.root) == expected
        # Each plant defeats a shortcut that trusts the size of the cover
        # tuple, or the formula, or both.
        assert leaves != len(covers) or expected != count_from_root_formula(6)

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_memo_is_per_vertex(self, plant):
        # A memo keyed by level would hand the planted vertex's count to its
        # siblings, or theirs to it, whenever the plant has other than 8
        # covers at level 6.
        covers = self.PLANTS[plant]
        planted = Vertex(5, 3)
        P = PlantedPoset(7, planted, covers)
        leaves = sum(1 for w in covers if w.level == 6)
        assert chains._dfs_count(P, 6)(Vertex(5, 0)) == 8
        for v in P.level_vertices(4):
            assert chains._dfs_count(P, 6)(v) == (fib(5) - 1) * 8 + leaves

    @pytest.mark.parametrize("k, n", [(1, 2), (1, 7), (2, 7), (3, 6), (4, 7), (6, 7), (7, 7)])
    def test_covers_above_call_count(self, k, n):
        P = CountingPoset(7)
        start = P.level_vertices(k)[-1]
        counted = chains._dfs_count(P, n)(start)
        # The counter calls covers_above once per distinct vertex below
        # level n: the start, then every vertex of levels k+1..n-1, so
        # 1 + F(k+1) + ... + F(n-1) calls (20 at k=1, n=7).
        assert P.calls == (0 if k == n else 1 + sum(fib(j) for j in range(k + 1, n)))
        # The listing walk calls it once per path: 1 + the sum over
        # j = k+1..n-1 of F(k+1)...F(j) (280 at k=1, n=7).
        P.calls = 0
        assert sum(1 for _ in iter_chains(P, start, n)) == counted
        assert P.calls == (0 if k == n else 1 + sum(
            math.prod(fib(i) for i in range(k + 1, j + 1)) for j in range(k + 1, n)
        ))

    def test_fresh_cover_tuples_count_the_same(self):
        P, fresh = build_cobweb(8), PassCountingPoset(8, fresh=True)
        for stop in range(1, 9):
            shared_count, fresh_count = chains._dfs_count(P, stop), chains._dfs_count(fresh, stop)
            for start in P.vertices():
                if start.level <= stop:
                    assert fresh_count(start) == shared_count(start)

    @pytest.mark.parametrize("fresh", [False, True])
    def test_each_cover_tuple_is_summed_once(self, fresh):
        for stop in range(1, 9):
            for k in range(1, stop + 1):
                P = PassCountingPoset(8, fresh)
                count = chains._dfs_count(P, stop)
                for start in P.level_vertices(k):
                    assert count(start) == (count_layer_chains_formula(k, stop) if k < stop else 1)
                # One covers_above call per vertex of levels k..stop-1, and
                # one pass per distinct tuple: per level when the tuples are
                # shared, per vertex when every call hands out a new one.
                calls = sum(fib(s) for s in range(k, stop))
                assert len(P.handed) == calls
                assert len({id(t) for t in P.handed}) == (calls if fresh else stop - k)
                assert all(t.passes == 1 for t in P.handed)


class TestGuard:
    def test_refuses_just_over_the_limit(self):
        P = build_cobweb(5)
        with pytest.raises(EnumerationGuardError) as exc:
            enumerate_from_root(P, 5, limit=29)  # predicted count is 30
        assert exc.value.predicted == 30
        assert exc.value.limit == 29

    def test_admits_at_the_limit(self):
        P = build_cobweb(5)
        assert enumerate_from_root(P, 5, limit=30) == 30

    def test_default_limit_refuses_depth_ten(self):
        P = build_cobweb(10)
        with pytest.raises(EnumerationGuardError) as exc:
            enumerate_from_root(P, 10)
        assert exc.value.predicted == 122522400

    def test_layer_guard(self):
        P = build_cobweb(6)
        with pytest.raises(EnumerationGuardError):
            enumerate_layer_chains(P, LayerSpec(Vertex(1, 0), 6), limit=100)

    def test_is_the_shared_guard_error(self):
        with pytest.raises(GuardError) as exc:
            enumerate_from_root(build_cobweb(5), 5, limit=29)
        assert isinstance(exc.value, EnumerationGuardError)
        assert isinstance(exc.value, RuntimeError)
        assert (exc.value.predicted, exc.value.limit) == (30, 29)

    def test_message_for_small_numbers(self):
        assert str(EnumerationGuardError(30, 29)) == (
            "enumeration would visit 30 chains, over the limit of 29; "
            "use the closed-form counter or raise the limit explicitly"
        )

    def test_message_past_the_digit_limit(self):
        # 10**5000 has 5001 digits: str() of it raises under the default limit.
        err = EnumerationGuardError(10**5000, 10**8)
        assert (err.predicted, err.limit) == (10**5000, 10**8)
        assert str(err) == (
            f"enumeration would visit (a {(10**5000).bit_length()}-bit number) chains, "
            "over the limit of 100000000; use the closed-form counter or raise the limit explicitly"
        )

    @pytest.mark.parametrize("observation", [1, 2, 3])
    @pytest.mark.parametrize("max_n, limit, predicted", [(10, 10**8, 122522400), (7, 100, 240), (7, 0, 1)])
    def test_sweep_refuses_before_any_walk(self, monkeypatch, observation, max_n, limit, predicted):
        # The refusal names the sweep's first walk over the limit: the root walk
        # to the lowest such level.
        def walk(*args):
            raise AssertionError("a walk started before the sweep was admitted")

        monkeypatch.setattr(chains, "_dfs_count", walk)
        with pytest.raises(EnumerationGuardError) as exc:
            verify_observation(observation, max_n, limit)
        assert (exc.value.predicted, exc.value.limit) == (predicted, limit)

    @settings(max_examples=60, deadline=None)
    @given(walks())
    def test_one_predictor_for_every_entry_point(self, walk):
        P, start, stop = walk
        count = naive_count(P, start, stop)
        entries = [lambda limit: iter_chains(P, start, stop, limit)]
        if start == P.root:
            entries.append(lambda limit: enumerate_from_root(P, stop, limit))
        if stop > start.level:
            entries.append(lambda limit: enumerate_layer_chains(P, LayerSpec(start, stop), limit))
        for entry in entries:
            admitted = entry(count)
            assert (admitted if isinstance(admitted, int) else sum(1 for _ in admitted)) == count
            with pytest.raises(EnumerationGuardError) as exc:
                entry(count - 1)
            assert (exc.value.predicted, exc.value.limit) == (count, count - 1)


class TestIterChains:
    def test_lists_depth_three(self):
        P = build_cobweb(3)
        assert list(iter_chains(P, Vertex(1, 0), 3)) == [
            (Vertex(1, 0), Vertex(2, 0), Vertex(3, 0)),
            (Vertex(1, 0), Vertex(2, 0), Vertex(3, 1)),
        ]

    def test_single_vertex_chain(self):
        P = build_cobweb(3)
        assert list(iter_chains(P, Vertex(2, 0), 2)) == [(Vertex(2, 0),)]

    def test_chains_are_saturated_cover_paths(self):
        P = build_cobweb(5)
        for chain in iter_chains(P, Vertex(2, 0), 5):
            assert [v.level for v in chain] == [2, 3, 4, 5]
            assert all(P.is_cover(a, b) for a, b in zip(chain, chain[1:]))

    def test_stream_matches_counter(self):
        P = build_cobweb(6)
        for start, stop in [(Vertex(1, 0), 6), (Vertex(3, 1), 5), (Vertex(4, 2), 6)]:
            streamed = sum(1 for _ in iter_chains(P, start, stop))
            spec = LayerSpec(start, stop)
            assert streamed == enumerate_layer_chains(P, spec)

    def test_rejects_bad_stop(self):
        P = build_cobweb(4)
        with pytest.raises(ValueError):
            list(iter_chains(P, Vertex(3, 0), 2))

    def test_refuses_when_called_before_any_walk(self):
        P = CountingPoset(20)
        with pytest.raises(ValueError):
            iter_chains(P, Vertex(3, 0), 2)
        with pytest.raises(ValueError):
            iter_chains(P, Vertex(3, 2), 5)
        with pytest.raises(EnumerationGuardError) as exc:
            iter_chains(P, Vertex(3, 1), 20)
        assert exc.value.predicted == count_layer_chains_formula(3, 20)
        assert exc.value.limit == chains.DEFAULT_ENUMERATION_LIMIT
        assert P.calls == 0

    def test_limit_argument(self):
        P = CountingPoset(5)
        with pytest.raises(EnumerationGuardError) as exc:
            iter_chains(P, Vertex(2, 0), 5, limit=29)
        assert (exc.value.predicted, exc.value.limit) == (30, 29)
        assert len(list(iter_chains(P, Vertex(2, 0), 5, limit=30))) == 30
        with pytest.raises(EnumerationGuardError) as exc:
            iter_chains(P, Vertex(5, 0), 5, limit=0)
        assert exc.value.predicted == 1
        assert P.calls == 1 + 2 + 2 * 3


class TestChainBlocks:
    """The chains verb writes a parent block at a time what iter_chains lists."""

    @staticmethod
    def listing(P: CobwebPoset, start: Vertex, stop: int) -> str:
        return "".join(" ".join(v.node_id() for v in chain) + "\n" for chain in iter_chains(P, start, stop))

    @staticmethod
    def chains_verb(capsys, start: Vertex, stop: int) -> str:
        assert cli.run(["chains", str(stop), "--from", f"{start.level}:{start.index}"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def test_every_start_and_stop_to_depth_eight(self, capsys):
        P = build_cobweb(8)
        for stop in range(1, 9):
            for start in P.vertices():
                if start.level <= stop:
                    assert self.chains_verb(capsys, start, stop) == self.listing(P, start, stop)

    @pytest.mark.parametrize("plant", sorted(TestDfsOracle.PLANTS))
    @pytest.mark.parametrize("planted", [Vertex(5, 0), Vertex(5, 3)])
    def test_irregular_cover_relation(self, capsys, monkeypatch, plant, planted):
        # These cover tuples mix levels, so the walk goes vertex by vertex
        # there and must keep the order and drop the off-level covers.
        P = PlantedPoset(7, planted, TestDfsOracle.PLANTS[plant])
        monkeypatch.setattr(cli, "build_cobweb", lambda depth: P)
        for start in (P.root, Vertex(3, 1), Vertex(4, 2), Vertex(5, 1), planted):
            for stop in (6, 7):
                assert list(iter_chains(P, start, stop)) == naive_chains(P, start, stop)
                assert self.chains_verb(capsys, start, stop) == self.listing(P, start, stop)

    def test_blocks_flatten_to_the_listing(self):
        P = build_cobweb(6)
        blocks = list(chains.iter_chain_blocks(P, Vertex(3, 1), 6))
        # One block per path to level 5: the prefix and all of level 6.
        assert len(blocks) == fib(4) * fib(5)
        assert all(len(prefix) == 3 and tops == P.level_vertices(6) for prefix, tops in blocks)
        assert [p + (t,) for p, tops in blocks for t in tops] == list(iter_chains(P, Vertex(3, 1), 6))
        assert list(chains.iter_chain_blocks(P, Vertex(4, 2), 4)) == [((), (Vertex(4, 2),))]
        with pytest.raises(EnumerationGuardError):
            chains.iter_chain_blocks(P, Vertex(3, 1), 6, limit=fib(4) * fib(5) * fib(6) - 1)


class TestObs3Quotient:
    def test_examples(self):
        assert obs3_quotient(2, 4) == 6
        assert obs3_quotient(1, 4) == 3
        for k in range(1, 10):
            assert obs3_quotient(k, k + 1) == fib(k + 1)

    def test_modes_agree_small(self):
        for n in range(2, 7):
            for k in range(1, n):
                assert obs3_quotient(k, n, "formula") == obs3_quotient(k, n, "enumerate")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            obs3_quotient(3, 3)
        with pytest.raises(ValueError):
            obs3_quotient(0, 4)
        with pytest.raises(ValueError):
            obs3_quotient(1, 4, mode="guess")

    # Vertex 3:0 keeps two of its three covers.  From 1:0 to level 4 that
    # leaves 2 + 3 = 5 chains, not divisible by 3_F! = 2; from 3:0 it leaves
    # 2 chains, an exact quotient by 1_F! = 1 that is not C_F(4, 3) = 3.
    PLANTED = (Vertex(3, 0), (Vertex(4, 0), Vertex(4, 1)))

    @pytest.fixture
    def planted(self, monkeypatch):
        monkeypatch.setattr(chains, "build_cobweb", lambda depth: PlantedPoset(depth, *self.PLANTED))

    @pytest.mark.parametrize("k, layer, per_copy, quotient", [(1, 5, 2, None), (3, 2, 1, 2)])
    def test_sweep_reports_planted_fault(self, planted, k, layer, per_copy, quotient):
        report = verify_observation(3, 4)
        [case] = [c for c in report.cases[:6] if (c.k, c.n) == (k, 4)]
        # An inexact layer count is reported raw, an exact one as its quotient.
        oracle = layer if quotient is None else quotient
        assert (case.formula, case.oracle, case.passed) == (fibonomial(4, k), oracle, False)
        line = f"observation=3 k={k} n=4 formula={fibonomial(4, k)} oracle={oracle} status=fail"
        assert line in report.to_text().splitlines()
        with pytest.raises(ChainVerificationError) as exc:
            obs3_quotient(k, 4, "enumerate")
        err = exc.value
        assert (err.k, err.n, err.layer_chains, err.per_copy_chains) == (k, 4, layer, per_copy)
        assert (err.quotient, err.expected) == (quotient, fibonomial(4, k))

    def test_sweep_reports_wrong_fibonomial(self, monkeypatch):
        monkeypatch.setattr(chains, "fibonomial", lambda n, k: fibonomial(n, k) + 1)
        report = verify_observation(3, 3)
        assert len(report.counterexamples) == len(report.cases) == 3 + math.comb(9, 2)
        for c in report.cases:
            assert (c.formula, c.oracle) == (fibonomial(c.n, c.k) + 1, fibonomial(c.n, c.k))
        with pytest.raises(ChainVerificationError) as exc:
            obs3_quotient(2, 5)
        assert (exc.value.quotient, exc.value.expected) == (fibonomial(5, 2), fibonomial(5, 2) + 1)

    def test_error_carries_all_numbers(self):
        err = ChainVerificationError(2, 4, layer_chains=7, per_copy_chains=2, expected=6)
        assert err.quotient is None  # 7/2 is not exact
        assert err.layer_chains == 7
        assert err.per_copy_chains == 2
        assert err.expected == 6
        assert "k=2" in str(err) and "7" in str(err) and "6" in str(err)
        exact = ChainVerificationError(2, 4, layer_chains=8, per_copy_chains=2, expected=6)
        assert exact.quotient == 4


class TestInducedCopyCount:
    def test_examples(self):
        assert induced_copy_count(2, 4, [1, 1]) == 6
        assert induced_copy_count(1, 4, [1, 1, 2]) == 6
        assert induced_copy_count(3, 7, [0, 0, 0, 0]) == 1

    def test_documents_the_overcount(self):
        # the literal induced-copy reading does not reproduce the coefficient
        from cobweb.fibcalc import fibonomial

        assert induced_copy_count(1, 4, [1, 1, 2]) == 6
        assert fibonomial(4, 1) == 3

    def test_matches_binomial_products(self):
        # far past subset enumeration: level 10 has 55 vertices, C(55, 17) ~ 6.8e13
        profile = [1, 1, 2, 3, 5, 8, 13, 21, 17]
        expected = 1
        for j, want in enumerate(profile):
            expected *= math.comb(fib(2 + j), want)
        assert induced_copy_count(1, 10, profile) == expected

    @given(st.integers(1, 5), st.integers(1, 3), st.data())
    def test_matches_subset_enumeration(self, k, m, data):
        sizes = [fib(s) for s in range(k + 1, k + m + 1)]
        profile = [data.draw(st.integers(0, size)) for size in sizes]
        expected = math.prod(sum(1 for _ in combinations(range(size), want)) for size, want in zip(sizes, profile))
        assert induced_copy_count(k, k + m, profile) == expected

    def test_full_levels_count_one_way(self):
        profile = [fib(s) for s in range(2, 7)]
        assert induced_copy_count(1, 6, profile) == 1

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            induced_copy_count(1, 4, [1, 1])  # wrong length
        with pytest.raises(ValueError):
            induced_copy_count(1, 4, [1, 1, 4])  # level 4 has 3 vertices
        with pytest.raises(ValueError):
            induced_copy_count(1, 4, [1, 1, -1])
        with pytest.raises(ValueError):
            induced_copy_count(4, 4, [])


class TestVerifyObservation:
    def test_obs1(self):
        report = verify_observation(1, 6)
        assert report.passed
        assert len(report.cases) == 6
        assert report.counterexamples == ()

    def test_obs2_case_per_start_vertex(self):
        report = verify_observation(2, 5)
        assert report.passed
        # one case per (k, n, start vertex): sum of F(k) * (5 - k)
        assert len(report.cases) == sum(fib(k) * (5 - k) for k in range(1, 5))
        starts = {c.start for c in report.cases}
        assert Vertex(3, 1) in starts

    def test_obs3_both_modes(self):
        report = verify_observation(3, 4)
        assert report.passed
        enumerated = math.comb(4, 2)
        formula_swept = math.comb(12, 2)
        assert len(report.cases) == enumerated + formula_swept

    def test_report_text_schema(self):
        for obs in (1, 2, 3):
            text = verify_observation(obs, 4).to_text()
            lines = text.splitlines()
            assert text.endswith("\n")
            assert all(REPORT_LINE.match(line) for line in lines)
        first = verify_observation(1, 4).to_text().splitlines()[0]
        assert first == "observation=1 k=1 n=1 formula=1 oracle=1 status=pass"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_observation(4, 5)
        with pytest.raises(ValueError):
            verify_observation(1, 0)

    def test_injected_formula_bug_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(chains, "count_from_root_formula", lambda n: 7)
        report = verify_observation(1, 4)
        assert not report.passed
        assert len(report.counterexamples) == 4  # none of 1,1,2,6 equals 7
        assert all("status=fail" in line for line in report.to_text().splitlines())

    def test_guard_propagates(self):
        with pytest.raises(EnumerationGuardError):
            verify_observation(1, 6, limit=10)

    @pytest.mark.parametrize("observation", [1, 2, 3])
    def test_sweep_reads_each_vertex_once_per_target(self, monkeypatch, observation):
        # One counter per target level n serves every start of the sweep, so
        # covers_above runs once per vertex of levels 1..n-1: F(n+1) - 1 calls.
        built: list[CountingPoset] = []

        def build(depth: int) -> CountingPoset:
            built.append(CountingPoset(depth))
            return built[-1]

        monkeypatch.setattr(chains, "build_cobweb", build)
        verify_observation(observation, 7)
        [P] = built
        assert P.calls == sum(fib(n + 1) - 1 for n in range(2, 8)) == 46

    def test_sweep_counts_every_start_of_a_planted_fault(self, monkeypatch):
        # Vertex 5:3 drops one of its 8 covers at level 6.  Every start below
        # it counts fewer chains to levels 6 and 7, and its level-5 siblings
        # count the full number: a sweep that reused a sibling's count, or
        # kept one count per level, would report other counterexamples.
        planted = Vertex(5, 3)
        monkeypatch.setattr(
            chains, "build_cobweb",
            lambda depth: PlantedPoset(depth, planted, TestDfsOracle.PLANTS["dropped"]),
        )
        report = verify_observation(2, 7)
        oracles = {1: (234, 3042), 2: (234, 3042), 3: (117, 1521), 4: (39, 507)}
        expected = {
            (Vertex(k, i), n): oracle
            for k, row in oracles.items()
            for i in range(fib(k))
            for n, oracle in zip((6, 7), row)
        }
        expected.update({(planted, 6): 7, (planted, 7): 91})
        assert {(c.start, c.n): c.oracle for c in report.counterexamples} == expected
        assert len(report.counterexamples) == 16
        for c in report.counterexamples:
            assert c.formula == count_layer_chains_formula(c.k, c.n)
        siblings = [c for c in report.cases if c.start.level == 5 and c.start != planted]
        assert len(siblings) == 8 and all(c.passed for c in siblings)


class TestRecords:
    """LayerSpec, VerificationCase and VerificationReport: immutable values."""

    # Each record is built by a function, so a test can build two equal ones.
    @staticmethod
    def case() -> VerificationCase:
        return VerificationCase(k=1, n=4, formula=6, oracle=6, passed=True)

    @staticmethod
    def failed() -> VerificationCase:
        return VerificationCase(2, 5, 3, 4, False, Vertex(2, 1))

    @classmethod
    def report(cls) -> VerificationReport:
        return VerificationReport(observation=3, max_n=4, cases=(cls.case(), cls.failed()))

    @staticmethod
    def spec() -> LayerSpec:
        return LayerSpec(Vertex(2, 0), 5)

    REPRS = {
        "spec": "LayerSpec(from_vertex=Vertex(level=2, index=0), to_level=5)",
        "case": "VerificationCase(k=1, n=4, formula=6, oracle=6, passed=True, start=None)",
        "failed": "VerificationCase(k=2, n=5, formula=3, oracle=4, passed=False, "
                  "start=Vertex(level=2, index=1))",
        "report": "VerificationReport(observation=3, max_n=4, cases=("
                  "VerificationCase(k=1, n=4, formula=6, oracle=6, passed=True, start=None), "
                  "VerificationCase(k=2, n=5, formula=3, oracle=4, passed=False, "
                  "start=Vertex(level=2, index=1))))",
    }

    @pytest.mark.parametrize("name", REPRS)
    def test_repr(self, name):
        assert repr(getattr(self, name)()) == self.REPRS[name]

    @pytest.mark.parametrize("name", REPRS)
    def test_equal_and_hashable_by_value(self, name):
        record, twin = getattr(self, name)(), getattr(self, name)()
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1

    @pytest.mark.parametrize("name, field", [("spec", "to_level"), ("case", "passed"), ("report", "cases")])
    def test_immutable(self, name, field):
        record = getattr(self, name)()
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_defaults_and_derived_values(self):
        assert self.case().start is None
        assert LayerSpec(to_level=6, from_vertex=Vertex(2, 0)).m == 4
        assert self.report().counterexamples == (self.failed(),)
        assert not self.report().passed
