"""Chain counting: formula vs DFS oracle, quotient identity, guard, reports."""

from __future__ import annotations

import math
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import chains, cli, fibcalc, zeta
from cobweb.chains import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationGuardError,
    LayerSpec,
    VerificationCase,
    VerificationReport,
    count_from_root_formula,
    count_layer_chains_formula,
    enumerate_from_root,
    enumerate_layer_chains,
    iter_chains,
    verify_observation,
)
from cobweb.fibcalc import falling_f_factorial, fib_factorial, fibonomial
from cobweb.poset import CobwebPoset, GuardError, Vertex, _Level, build_cobweb
from cobweb.zeta import IncidenceMatrix, cobweb_from_matrix, staircase_check, zeta_matrix

import naive


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


class SizedPoset(CobwebPoset):
    """A cobweb poset with any positive level sizes: level s holds sizes[s - 1] vertices."""

    __slots__ = ()

    def __init__(self, sizes: Sequence[int]) -> None:
        super().__init__(len(sizes))
        self.level_sizes = tuple(sizes)
        self._levels = tuple(map(_Level, range(1, len(sizes) + 1), sizes))


# Sizes 1, 2, ..., 8: chain counts are factorials.  Sizes 2^s - 1: layer
# counts over the per-copy product are Gaussian binomials at q = 2.
NATURAL = tuple(range(1, 9))
MERSENNE = tuple(2**s - 1 for s in range(1, 13))


def gaussian_binomial_q2(n: int, k: int) -> int:
    """[n choose k] at q = 2 by the q-Pascal rule [m, j] = [m-1, j-1] + 2^j [m-1, j]."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[j - 1] + 2**j * row[j] for j in range(1, m)] + [1]
    return row[k]


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


class CappedFreshPoset(PassCountingPoset):
    """A PassCountingPoset that hands out a fresh tuple on every call, and fails past `cap` calls.

    A walk that reads its covers path by path instead of once per vertex
    hits the cap at once instead of running for hours.
    """

    __slots__ = ("cap",)

    def __init__(self, depth: int, cap: int) -> None:
        super().__init__(depth, fresh=True)
        self.cap = cap

    def covers_above(self, x: Vertex) -> tuple[Vertex, ...]:
        if len(self.handed) >= self.cap:
            raise AssertionError(f"more than {self.cap} covers_above calls")
        return super().covers_above(x)

    def passes_per_value(self) -> dict[tuple[Vertex, ...], int]:
        """The passes made over each distinct cover value handed out."""
        passes: dict[tuple[Vertex, ...], int] = {}
        for t in {id(t): t for t in self.handed}.values():
            passes[t] = passes.get(t, 0) + t.passes
        return passes


def naive_chains(P: CobwebPoset, v: Vertex, stop_level: int) -> list[tuple[Vertex, ...]]:
    """Reference listing: every chain from v, recursively, in cover order."""
    if v.level == stop_level:
        return [(v,)]
    return [(v, *rest) for w in P.covers_above(v) for rest in naive_chains(P, w, stop_level)]


@st.composite
def walks(draw):
    depth = draw(st.integers(1, 8))
    k = draw(st.integers(1, depth))
    start = Vertex(k, draw(st.integers(0, naive.fib(k) - 1)))
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
        expected = naive.f_factorial(6) + (leaves - 8) * naive.f_factorial(4)
        for start in (P.root, Vertex(3, 1), Vertex(4, 2), Vertex(5, 1), planted):
            for stop in (6, 7):
                self.assert_three_way(P, start, stop)
        assert chains._dfs_count(P, 6)(planted) == leaves
        assert chains._dfs_count(P, 6)(P.root) == expected
        # Each plant defeats a shortcut that trusts the size of the cover
        # tuple, or the formula, or both.
        assert leaves != len(covers) or expected != count_from_root_formula(6)

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_memo_is_per_cover_tuple(self, plant):
        # A memo keyed by level would hand the planted vertex's count to its
        # siblings, or theirs to it, whenever the plant has other than 8
        # covers at level 6.  Keyed by cover tuple, the planted vertex's own
        # tuple is summed on its own.
        covers = self.PLANTS[plant]
        planted = Vertex(5, 3)
        P = PlantedPoset(7, planted, covers)
        leaves = sum(1 for w in covers if w.level == 6)
        assert chains._dfs_count(P, 6)(Vertex(5, 0)) == 8
        for v in P.level_vertices(4):
            assert chains._dfs_count(P, 6)(v) == (naive.fib(5) - 1) * 8 + leaves

    @pytest.mark.parametrize("k, n", [(1, 2), (1, 7), (2, 7), (3, 6), (4, 7), (6, 7), (7, 7)])
    def test_covers_above_call_count(self, k, n):
        P = CountingPoset(7)
        start = P.level_vertices(k)[-1]
        counted = chains._dfs_count(P, n)(start)
        # The counter calls covers_above once per distinct vertex below
        # level n: the start, then every vertex of levels k+1..n-1, so
        # 1 + F(k+1) + ... + F(n-1) calls (20 at k=1, n=7).
        assert P.calls == (0 if k == n else 1 + sum(naive.fib(j) for j in range(k + 1, n)))
        # The listing walk calls it once per path: 1 + the sum over
        # j = k+1..n-1 of F(k+1)...F(j) (280 at k=1, n=7).
        P.calls = 0
        assert sum(1 for _ in iter_chains(P, start, n)) == counted
        assert P.calls == (0 if k == n else 1 + sum(naive.f_product(k + 1, j) for j in range(k + 1, n)))

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
                # One covers_above call per vertex visit below stop, and one
                # pass per distinct cover value, shared tuples or fresh: the
                # first start visits every vertex of levels k+1..stop-1 once
                # and the other starts hit the memo, so one call per vertex
                # of levels k..stop-1 and one pass per level.
                calls = sum(naive.fib(s) for s in range(k, stop))
                assert len(P.handed) == calls
                assert len({id(t) for t in P.handed}) == (calls if fresh else stop - k)
                passed = [t for t in {id(t): t for t in P.handed}.values() if t.passes]
                assert all(t.passes == 1 for t in passed)
                assert len(passed) == len(set(passed)) == len(set(P.handed)) == stop - k

    def test_fresh_tuples_cost_what_shared_ones_cost(self):
        # Equal cover tuples share one sum, so counting the root to level 12
        # calls covers_above once per vertex of levels 1..11, F(13) - 1 =
        # 232 times, however the relation hands its tuples out.
        P = CappedFreshPoset(12, cap=10 * (naive.fib(13) - 1))
        assert chains._dfs_count(P, 12)(P.root) == naive.f_factorial(12)
        assert len(P.handed) == naive.fib(13) - 1 == 232
        assert set(P.passes_per_value().values()) == {1}

    def test_memo_holds_one_entry_per_level(self):
        # Counting the root to level 22 (F(23) - 1 = 28,656 vertices below
        # it) keeps one sum per level, not one entry per vertex: a vertex
        # memo held about 1.3 MiB here.  The poset is built first, so only
        # what the counter keeps is traced.
        P = build_cobweb(22)
        tracemalloc.start()
        try:
            count = chains._dfs_count(P, 22)
            counted = count(P.root)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counted == naive.f_factorial(22)
        assert held < 64 * 1024

    def test_poset_and_count_hold_no_level(self):
        # The poset stores one handle per level, and the counter passes over
        # each once without keeping its vertices: building depth 26 and
        # counting from the root to its top holds a few KiB, where keeping
        # the levels' 317,810 vertices held about 33 MB.
        tracemalloc.start()
        try:
            P = build_cobweb(26)
            counted = chains._dfs_count(P, 26)(P.root)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counted == naive.f_factorial(26)
        assert held < 64 * 1024


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

    def test_refusal_under_a_lowered_digit_limit(self, digit_limit_640):
        # 100_F! has 1,021 digits: str() of it raises under a 640-digit limit,
        # so the refusal names it by its bit length.
        bits = naive.f_factorial(100).bit_length()
        with pytest.raises(EnumerationGuardError) as exc:
            enumerate_from_root(build_cobweb(100), 100)
        assert str(exc.value) == (
            f"enumeration would visit (a {bits}-bit number) chains, "
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

    def test_range_errors_name_the_callers_argument(self):
        P = build_cobweb(10)
        calls = {
            "to_level must be in 4..10, got 99": lambda: enumerate_layer_chains(P, LayerSpec(Vertex(3, 0), 99)),
            "to_level must be in 4..10, got 3": lambda: enumerate_layer_chains(P, LayerSpec(Vertex(3, 0), 3)),
            "from_vertex is on level 10, the top of a depth-10 poset; no to_level lies above it": (
                lambda: enumerate_layer_chains(P, LayerSpec(Vertex(10, 0), 10))
            ),
            "level must be in 1..10, got 12": lambda: enumerate_layer_chains(P, LayerSpec(Vertex(12, 0), 13)),
            "target level must be in 1..10, got 11": lambda: enumerate_from_root(P, 11),
            "target level must be in 3..10, got 2": lambda: iter_chains(P, Vertex(3, 0), 2),
        }
        for message, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


class TestDefaultLimitReadAtAdmission:
    """A walk given no limit is held to DEFAULT_ENUMERATION_LIMIT as it reads when admitted."""

    # Each walks from the root up to level n, so it predicts n_F! chains.  The
    # listings are admitted when called, and never consumed here.
    ENTRIES = {
        "enumerate_from_root": lambda n: enumerate_from_root(build_cobweb(11), n),
        "enumerate_layer_chains": lambda n: enumerate_layer_chains(build_cobweb(11), LayerSpec(Vertex(1, 0), n)),
        "iter_chains": lambda n: iter_chains(build_cobweb(11), Vertex(1, 0), n),
        "chain_text": lambda n: chains._chain_text(build_cobweb(11), Vertex(1, 0), n),
        "verify_observation": lambda n: verify_observation(1, n),
    }

    @pytest.mark.parametrize("limit, last", [(10**6, 8), (10**9, 10)])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_patched_default_is_the_boundary(self, monkeypatch, entry, limit, last):
        monkeypatch.setattr(chains, "DEFAULT_ENUMERATION_LIMIT", limit)
        walk = self.ENTRIES[entry]
        assert naive.f_factorial(last) <= limit < naive.f_factorial(last + 1)
        walk(last)
        with pytest.raises(EnumerationGuardError) as exc:
            walk(last + 1)
        assert (exc.value.predicted, exc.value.limit) == (naive.f_factorial(last + 1), limit)


class TestAnyLevelSizes:
    """Counters, listings, guard and zeta read the level sizes of the poset they are given."""

    def test_natural_sizes_from_the_root(self):
        P = SizedPoset(NATURAL)
        assert [enumerate_from_root(P, n) for n in range(1, 9)] == [math.factorial(n) for n in range(1, 9)]

    def test_natural_sizes_from_every_level(self):
        P = SizedPoset(NATURAL)
        for k in range(1, 8):
            for n in range(k + 1, 9):
                for start in (Vertex(k, 0), Vertex(k, k - 1)):
                    layer = enumerate_layer_chains(P, LayerSpec(start, n))
                    assert layer == math.factorial(n) // math.factorial(k)
                    assert layer // math.factorial(n - k) == math.comb(n, k)

    def test_natural_sizes_listing(self):
        P = SizedPoset(NATURAL)
        listed = list(iter_chains(P, P.root, 7))
        assert len(listed) == len(set(listed)) == math.factorial(7)
        assert listed == naive_chains(P, P.root, 7)

    @pytest.mark.parametrize("sizes, top", [(NATURAL, 7), (MERSENNE[:5], 5)], ids=["natural", "mersenne"])
    def test_chain_text(self, monkeypatch, sizes, top):
        # The chains verb's text, from every start vertex, joins to the
        # rendering of what iter_chains lists, at every block.
        P = SizedPoset(sizes)
        for stop in range(1, top + 1):
            for start in P.vertices():
                if start.level <= stop:
                    expected = TestChainBlocks.listing(P, start, stop)
                    for block in TestChainBlocks.BLOCKS:
                        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
                        assert not naive.difference("".join(chains._chain_text(P, start, stop)), expected)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_natural_sizes_refusal_predicts_the_count(self, n):
        with pytest.raises(EnumerationGuardError) as exc:
            enumerate_from_root(SizedPoset(NATURAL), n, limit=math.factorial(n) - 1)
        assert (exc.value.predicted, exc.value.limit) == (math.factorial(n), math.factorial(n) - 1)

    def test_mersenne_sizes_give_gaussian_binomials(self):
        P = SizedPoset(MERSENNE)
        for k in range(1, 12):
            for n in range(k + 1, 13):
                layer = enumerate_layer_chains(P, LayerSpec(Vertex(k, 0), n), limit=10**30)
                per_copy = math.prod(2**s - 1 for s in range(1, n - k + 1))
                assert layer % per_copy == 0
                assert layer // per_copy == gaussian_binomial_q2(n, k)

    @pytest.mark.parametrize("start", [Vertex(1, 0), Vertex(5, 30), Vertex(11, 0)], ids=str)
    def test_mersenne_sizes_refusal_predicts_the_count(self, start):
        P = SizedPoset(MERSENNE)
        count = enumerate_layer_chains(P, LayerSpec(start, 12), limit=10**30)
        if start == P.root:
            assert 8.7e22 < count < 8.8e22
        with pytest.raises(EnumerationGuardError) as exc:
            enumerate_layer_chains(P, LayerSpec(start, 12), limit=count - 1)
        assert exc.value.predicted == count

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.data())
    def test_guard_predicts_the_walked_count(self, sizes, data):
        P = SizedPoset([1] + sizes)
        k = data.draw(st.integers(1, P.depth))
        start = Vertex(k, data.draw(st.integers(0, P.level_sizes[k - 1] - 1)))
        stop = data.draw(st.integers(k, P.depth))
        count = naive_count(P, start, stop)
        assert sum(1 for _ in iter_chains(P, start, stop, count)) == count
        with pytest.raises(EnumerationGuardError) as exc:
            iter_chains(P, start, stop, count - 1)
        assert exc.value.predicted == count

    def test_equality_reads_the_level_sizes(self):
        P, Q = SizedPoset(NATURAL), build_cobweb(8)
        assert P.depth == Q.depth
        assert P != Q and Q != P
        assert P == SizedPoset(NATURAL) and hash(P) == hash(SizedPoset(NATURAL))

    @pytest.mark.parametrize("sizes", [NATURAL, MERSENNE[:5]], ids=["natural", "mersenne"])
    def test_zeta(self, sizes):
        P = SizedPoset(sizes)
        M = zeta_matrix(P)
        vertices = P.vertices()
        assert M.dim == sum(sizes)
        assert all(M.entry(i, j) == P.leq(x, y) for i, x in enumerate(vertices) for j, y in enumerate(vertices))
        assert staircase_check(M, P)
        assert IncidenceMatrix.from_csv(M.to_csv()) == M
        with pytest.raises(ValueError, match="not an initial Fibonacci segment"):
            cobweb_from_matrix(M)


class TestOracleCallsNoClosedForm:
    """Counters, listings and the guard run as before with every closed form made to raise."""

    @staticmethod
    def closed_forms_raise(monkeypatch):
        held = {name for name, value in vars(chains).items() if getattr(value, "__module__", "") == fibcalc.__name__}
        assert held - set(fibcalc.__all__) == {"_product"}  # the guard's product tree, no formula
        for name in fibcalc.__all__:
            original = getattr(fibcalc, name)

            def closed_form(*args, name=name):
                raise AssertionError(f"the oracle side called {name}{args}")

            for module in (fibcalc, chains):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, closed_form)

    WALKS = {
        "enumerate_from_root": lambda P, limit: enumerate_from_root(P, 7, limit),
        "enumerate_layer_chains": lambda P, limit: enumerate_layer_chains(P, LayerSpec(Vertex(3, 1), 8), limit),
        "iter_chains": lambda P, limit: list(iter_chains(P, Vertex(2, 0), 7, limit)),
        "chain_text": lambda P, limit: "".join(chains._chain_text(P, Vertex(4, 2), 8, limit)),
    }

    @pytest.mark.parametrize("walk", WALKS)
    def test_walks_and_refusals(self, monkeypatch, walk):
        P, run = build_cobweb(8), self.WALKS[walk]
        admitted = run(P, DEFAULT_ENUMERATION_LIMIT)
        with pytest.raises(EnumerationGuardError) as unpatched:
            run(P, 10)
        self.closed_forms_raise(monkeypatch)
        with pytest.raises(AssertionError, match="oracle side"):
            fibcalc.fib(5)
        assert run(P, DEFAULT_ENUMERATION_LIMIT) == admitted
        with pytest.raises(EnumerationGuardError) as patched:
            run(P, 10)
        assert (patched.value.predicted, patched.value.limit) == (unpatched.value.predicted, 10)

    def test_sweep_refusal(self, monkeypatch):
        self.closed_forms_raise(monkeypatch)
        with pytest.raises(EnumerationGuardError) as exc:
            verify_observation(1, 10)
        assert (exc.value.predicted, exc.value.limit) == (122522400, DEFAULT_ENUMERATION_LIMIT)


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
            assert all(b in P.covers_above(a) for a, b in zip(chain, chain[1:]))

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
        assert exc.value.predicted == naive.f_product(4, 20)
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

    @pytest.mark.parametrize("plant", sorted(TestDfsOracle.PLANTS))
    @pytest.mark.parametrize("planted", [Vertex(5, 0), Vertex(5, 3)])
    def test_irregular_cover_relation(self, plant, planted):
        # These cover tuples mix levels, or differ from their siblings', so
        # the listing must keep their order, drop the off-level covers, and
        # give the planted vertex's chains to no other vertex.
        P = PlantedPoset(7, planted, TestDfsOracle.PLANTS[plant])
        for start in (P.root, Vertex(3, 1), Vertex(4, 2), Vertex(5, 1), planted):
            for stop in (6, 7):
                assert list(iter_chains(P, start, stop)) == naive_chains(P, start, stop)

    @pytest.mark.parametrize("k, n", [(1, 8), (3, 7), (5, 8), (7, 8)])
    def test_listing_passes_once_over_each_shared_cover(self, k, n):
        # iter_chains keeps a tuple of each cover object it is handed, so a
        # level's one shared object is passed over once per walk, not once
        # per path through it.
        P = PassCountingPoset(8, fresh=False)
        start = P.level_vertices(k)[-1]
        assert list(iter_chains(P, start, n)) == naive_chains(build_cobweb(8), start, n)
        assert sorted(P.shared) == list(range(k, n))
        assert all(t.passes == 1 for t in P.shared.values())
        assert len(P.handed) == 1 + sum(naive.f_product(k + 1, j) for j in range(k + 1, n))

    @pytest.mark.parametrize("k, n", [(1, 8), (3, 8), (6, 9)])
    def test_listing_passes_once_over_each_fresh_cover_value(self, k, n):
        # Fresh equal tuples share one tuple of the walk, so each cover
        # value is passed over once; covers_above is still read once per
        # path below n.
        calls = 1 + sum(naive.f_product(k + 1, j) for j in range(k + 1, n))
        P = CappedFreshPoset(n, cap=10 * calls)
        start = P.level_vertices(k)[-1]
        assert list(iter_chains(P, start, n)) == naive_chains(build_cobweb(n), start, n)
        assert len(P.handed) == calls
        passes = P.passes_per_value()
        assert len(passes) == n - k and set(passes.values()) == {1}


class TestChainBlocks:
    """The chains verb writes, in chunks of whole lines, the text of what iter_chains lists.

    Every listing is checked at several block sizes: at 1 no suffix text
    fits and the walk goes vertex by vertex to the target, at the default
    the whole listing of a small walk is one text.
    """

    BLOCKS = (1, 7, 64, zeta._BLOCK_BYTES)

    @staticmethod
    def listing(P: CobwebPoset, start: Vertex, stop: int) -> str:
        return "".join(" ".join(v.node_id() for v in chain) + "\n" for chain in iter_chains(P, start, stop))

    @staticmethod
    def chains_verb(capsys, start: Vertex, stop: int) -> str:
        assert cli.run(["chains", str(stop), "--from", f"{start.level}:{start.index}"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def test_every_start_and_stop_to_depth_eight(self, capsys, monkeypatch):
        P = build_cobweb(8)
        for stop in range(1, 9):
            for start in P.vertices():
                if start.level <= stop:
                    expected = self.listing(P, start, stop)
                    for block in self.BLOCKS:
                        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
                        assert not naive.difference(self.chains_verb(capsys, start, stop), expected)

    @pytest.mark.parametrize("block", (*BLOCKS, 1 << 20))
    def test_chunks_are_whole_lines_of_the_listing(self, monkeypatch, block):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
        P = build_cobweb(7)
        chunks = list(chains._chain_text(P, Vertex(3, 1), 7))
        text = self.listing(P, Vertex(3, 1), 7)
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert "".join(chunks) == text
        # When no text fits the walk writes one line a chunk, and when the
        # whole listing fits it is one chunk.
        if block < len("v7_0\n"):
            assert len(chunks) == text.count("\n") == 3 * 5 * 8 * 13
        if block >= len(text):
            assert chunks == [text]
        assert list(chains._chain_text(P, Vertex(4, 2), 4)) == ["v4_2\n"]
        with pytest.raises(EnumerationGuardError):
            chains._chain_text(P, Vertex(3, 1), 7, limit=3 * 5 * 8 * 13 - 1)

    @pytest.mark.parametrize("block", [64, 1024])
    def test_target_lines_past_a_block_are_joined(self, monkeypatch, block):
        # The text from 12:0 passes every block here, so the walk writes its
        # 233 target-level lines itself, in chunks of about a block each.
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
        P = build_cobweb(13)
        chunks = list(chains._chain_text(P, Vertex(12, 0), 13))
        text = self.listing(P, Vertex(12, 0), 13)
        assert "".join(chunks) == text and text.count("\n") == 233
        assert all(chunk.endswith("\n") and len(chunk) < block + len("v12_0 v13_232\n") for chunk in chunks)
        assert all(len(chunk) >= block for chunk in chunks[:-1])
        assert len(chunks) <= -(-len(text) // block) < 233

    def test_chains_nine_in_chunks_of_at_most_two_blocks(self, record_stdout):
        chunks = record_stdout()
        assert cli.run(["chains", "9"]) == cli.EXIT_OK
        assert sum(chunk.count("\n") for chunk in chunks) == count_from_root_formula(9) == 2_227_680
        assert all(chunk.endswith("\n") and len(chunk) <= 2 * zeta._BLOCK_BYTES for chunk in chunks)
        first = chunks[0].split("\n", 1)[0]
        assert first == "v1_0 v2_0 v3_0 v4_0 v5_0 v6_0 v7_0 v8_0 v9_0"
        assert chunks[-1].endswith("v1_0 v2_0 v3_1 v4_2 v5_4 v6_7 v7_12 v8_20 v9_33\n")

    def test_reads_one_cover_object_per_level(self, monkeypatch):
        # The listing reads the level structure, not the relation vertex by
        # vertex: one covers_above call per level below the target, at every
        # block, however many paths the walk takes through the levels.
        P = CountingPoset(8)
        for stop in range(1, 9):
            for start in P.vertices():
                if start.level <= stop:
                    for block in self.BLOCKS:
                        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
                        P.calls = 0
                        assert "".join(chains._chain_text(P, start, stop))
                        assert P.calls == stop - start.level

    @pytest.mark.parametrize("k, n", [(1, 7), (4, 8), (6, 9)])
    def test_text_is_built_once_per_fresh_cover_value(self, monkeypatch, k, n):
        # Even when every covers_above call hands out a fresh tuple, the text
        # reads one cover value per level k..n-1 and passes over each once
        # when the whole listing fits in a block; read per path, the walk
        # from the root would hit the cap.  The block is set to the length
        # of the listing (root to 7 is 109,920 bytes, past the default).
        P = CappedFreshPoset(n, cap=10 * (n - k))
        start = P.level_vertices(k)[-1]
        listing = self.listing(build_cobweb(n), start, n)
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", len(listing))
        text = "".join(chains._chain_text(P, start, n))
        assert len(P.handed) == n - k
        passes = P.passes_per_value()
        assert len(passes) == n - k and set(passes.values()) == {1}
        assert not naive.difference(text, listing)

    def test_wide_top_level_is_listed_without_its_vertices_held(self):
        # From 26:0 the walk writes the 196,418 vertices of level 27 as
        # lines, 3,227,996 bytes.  The poset is built and the text joined
        # under the trace, and the peak stays near the text itself: holding
        # level 27 as vertices and their lines peaked at about 28 MB.
        tracemalloc.start()
        try:
            text = "".join(chains._chain_text(build_cobweb(27), Vertex(26, 0), 27))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) == 3_227_996
        assert peak < 16 * 1024 * 1024
        assert not naive.difference(text, self.listing(build_cobweb(27), Vertex(26, 0), 27))


class TestObs3Quotient:
    """The quotient identity, checked by the observation-3 sweep.

    A sweep to max_n checks every pair k < n <= max_n twice: first from the
    counter's layer count, then in the closed-form tail, which runs on to
    n = 3 * max_n in the same (n, k) order.  Both read the Fibonomials from
    one `fibonomial_row(n)` per target level, and the tail's layer counts
    from `_layer_counts`.
    """

    @staticmethod
    def pairs(max_n: int) -> list[tuple[int, int]]:
        counted = [(k, n) for n in range(2, max_n + 1) for k in range(1, n)]
        return counted + [(k, n) for n in range(2, 3 * max_n + 1) for k in range(1, n)]

    def test_examples(self):
        cases = verify_observation(3, 5).cases
        counted = {(c.k, c.n): c.oracle for c in cases[:math.comb(5, 2)]}
        closed = {(c.k, c.n): c.oracle for c in cases[math.comb(5, 2):]}
        for quotients in (counted, closed):
            assert (quotients[2, 4], quotients[1, 4]) == (6, 3)
            assert all(quotients[k, k + 1] == naive.fib(k + 1) for k in range(1, 5))
        assert all(closed[k, k + 1] == naive.fib(k + 1) for k in range(1, 15))

    def test_modes_agree_small(self):
        cases = verify_observation(3, 6).cases
        pairs = math.comb(6, 2)
        assert cases[:pairs] == cases[pairs:2 * pairs]

    def test_rejects_bad_arguments(self):
        # The sweep's own bound, and the pair check of the layer count it divides.
        calls = {
            "max_n must be >= 1, got 0": lambda: verify_observation(3, 0),
            "need 1 <= k < n, got k=3, n=3": lambda: count_layer_chains_formula(3, 3),
            "need 1 <= k < n, got k=0, n=4": lambda: count_layer_chains_formula(0, 4),
        }
        for message, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

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
        assert quotient == (None if layer % per_copy else layer // per_copy)
        oracle = layer if quotient is None else quotient
        assert (case.formula, case.oracle, case.passed) == (naive.fibonomial(4, k), oracle, False)
        line = f"observation=3 k={k} n=4 formula={naive.fibonomial(4, k)} oracle={oracle} status=fail"
        assert line in report.to_text().splitlines()

    def test_inexact_quotient_fails_even_when_its_floor_matches(self, monkeypatch):
        # One chain too many leaves remainder 1 wherever (n-k)_F! > 1, and a
        # floor equal to the Fibonomial: still a failed case, reported raw.
        layer_counts = chains._layer_counts
        monkeypatch.setattr(chains, "_layer_counts", lambda fibs, n: [layer + 1 for layer in layer_counts(fibs, n)])
        tail = verify_observation(3, 2).cases[1:]
        assert len(tail) == math.comb(6, 2)
        assert all((c.oracle, c.passed) == (count_layer_chains_formula(c.k, c.n) + 1, False) for c in tail)

    def test_sweep_reports_wrong_fibonomial(self, monkeypatch):
        monkeypatch.setattr(chains, "fibonomial_row", lambda n: [entry + 1 for entry in fibcalc.fibonomial_row(n)])
        report = verify_observation(3, 3)
        assert len(report.counterexamples) == len(report.cases) == 3 + math.comb(9, 2)
        for c in report.cases:
            assert (c.formula, c.oracle) == (naive.fibonomial(c.n, c.k) + 1, naive.fibonomial(c.n, c.k))

    @pytest.mark.parametrize("max_n", [1, 4, 9])
    def test_one_row_per_target_level_and_no_closed_form_per_case(self, monkeypatch, max_n):
        rows: list[int] = []

        def row(n: int) -> list[int]:
            rows.append(n)
            return fibcalc.fibonomial_row(n)

        def closed_form(*args):
            raise AssertionError(f"a per-case closed form was called with {args}")

        monkeypatch.setattr(chains, "fibonomial_row", row)
        for name in ("fibonomial", "fib_factorial", "falling_f_factorial", "count_layer_chains_formula"):
            for module in (fibcalc, chains):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, closed_form)
        report = verify_observation(3, max_n)
        assert report.passed and len(report.cases) == len(self.pairs(max_n))
        assert rows == list(range(2, 3 * max_n + 1))

    @pytest.mark.parametrize("max_n", range(1, 13))
    def test_matches_the_public_closed_forms(self, max_n):
        expected = []
        for k, n in self.pairs(max_n):
            layer = falling_f_factorial(n, n - k)
            quotient, remainder = divmod(layer, fib_factorial(n - k))
            formula = fibonomial(n, k)
            expected.append((k, n, formula, layer if remainder else quotient, not remainder and quotient == formula))
        report = verify_observation(3, max_n, limit=10**30)
        assert [(c.k, c.n, c.formula, c.oracle, c.passed) for c in report.cases] == expected


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
        assert len(report.cases) == sum(naive.fib(k) * (5 - k) for k in range(1, 5))
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
            assert all(naive.REPORT_LINE.match(line) for line in lines)
        first = verify_observation(1, 4).to_text().splitlines()[0]
        assert first == "observation=1 k=1 n=1 formula=1 oracle=1 status=pass"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_observation(4, 5)
        with pytest.raises(ValueError):
            verify_observation(1, 0)

    def test_smallest_sweep(self):
        # At max_n = 1: the root alone, and the closed-form tail's three pairs
        # up to n = 3.  Observation 2 has no pair k < n <= 1, so it refuses
        # max_n = 1 rather than pass a sweep of nothing; at 2 it has one case.
        one, three = (verify_observation(obs, 1) for obs in (1, 3))
        assert one.cases == (VerificationCase(k=1, n=1, formula=1, oracle=1, passed=True),)
        assert [(c.k, c.n, c.formula, c.oracle) for c in three.cases] == [(1, 2, 1, 1), (1, 3, 2, 2), (2, 3, 2, 2)]
        assert one.passed and three.passed
        with pytest.raises(ValueError, match=r"^observation 2 needs max_n >= 2, got 1$"):
            verify_observation(2, 1)
        two = verify_observation(2, 2)
        assert two.cases == (VerificationCase(k=1, n=2, formula=1, oracle=1, passed=True, start=Vertex(1, 0)),)
        assert two.passed

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
    def test_case_stream_checks_when_called_and_walks_when_read(self, monkeypatch, observation):
        # Arguments, admission and observation 3's rows come at the call; no
        # vertex is read before the first case is.
        built: list[CountingPoset] = []
        rows: list[int] = []

        def build(depth: int) -> CountingPoset:
            built.append(CountingPoset(depth))
            return built[-1]

        def row(n: int) -> list[int]:
            rows.append(n)
            return fibcalc.fibonomial_row(n)

        monkeypatch.setattr(chains, "build_cobweb", build)
        monkeypatch.setattr(chains, "fibonomial_row", row)
        with pytest.raises(EnumerationGuardError):
            chains._cases(observation, 10)
        with pytest.raises(ValueError):
            chains._cases(observation, 0)
        built.clear()
        cases = chains._cases(observation, 6)
        [P] = built
        assert P.calls == 0 and rows == ([] if observation < 3 else list(range(2, 19)))
        first = next(cases)
        assert P.calls > 0 or observation == 1
        assert (first, *cases) == verify_observation(observation, 6).cases

    @pytest.mark.parametrize("observation", [1, 2, 3])
    def test_sweep_reads_each_vertex_once_per_target(self, monkeypatch, observation):
        # One counter per target level n serves every start of the sweep.
        # The first start, the root, visits every vertex of levels 1..n-1
        # once, F(n+1) - 1 covers_above calls; each later start reads its
        # own covers once more and finds their sum in the memo.  Observation
        # 2 starts at every vertex of levels 2..n-1 too, F(n+1) - 2 more
        # calls; observation 3 at one vertex of each, n - 2.
        built: list[CountingPoset] = []

        def build(depth: int) -> CountingPoset:
            built.append(CountingPoset(depth))
            return built[-1]

        monkeypatch.setattr(chains, "build_cobweb", build)
        verify_observation(observation, 7)
        [P] = built
        later = {1: lambda n: 0, 2: lambda n: naive.fib(n + 1) - 2, 3: lambda n: n - 2}[observation]
        calls = sum(naive.fib(n + 1) - 1 + later(n) for n in range(2, 8))
        assert P.calls == calls == {1: 46, 2: 86, 3: 61}[observation]

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
            for i in range(naive.fib(k))
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
        assert self.report().counterexamples == (self.failed(),)
        assert not self.report().passed
