"""Maximal-chain counting: closed-form counts and DFS oracles over the cover relation.

Each closed-form counter has an enumeration twin that walks the poset's
cover relation and never consults the formula.  The counting walk works
per vertex and per cover tuple, not chain by chain: one counter per target
level, memoized by vertex, reads each vertex's covers once and sums each
distinct cover tuple once; in the cobweb poset every vertex of a level
shares one cover tuple, the whole next level, so a level costs one sum.
It serves every start vertex of a sweep.  `iter_chains` is the
chain-by-chain listing, and the tests use it as the counter's ground
truth; `iter_chain_blocks` is the same walk a parent block at a time: the
chains that end in the covers of one vertex one level below the target
share everything but their last vertex, and come as one block.

One admission check validates and guards every walk, counted or listed,
before it starts.  It refuses (EnumerationGuardError) a walk whose
predicted chain count exceeds a limit, so sweeps stay desk-scale by
default; the limit can be raised deliberately.  Its predictor is the
falling F-factorial, not the closed forms under test, so a wrong formula
cannot change what the guard admits.  For the counter the chain count is a
conservative price: each vertex it reads and each cover tuple it sums lies
on a counted chain, and past the smallest walks they are far fewer than the
chains (54 vertices and 8 cover tuples against 2,227,680 chains from the
root to level 9).
"""

from __future__ import annotations

import math
from operator import countOf, itemgetter
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

from .fibcalc import fib, fib_factorial, falling_f_factorial, fibonomial
from .poset import CobwebPoset, GuardError, Vertex, build_cobweb

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "EnumerationGuardError",
    "ChainVerificationError",
    "LayerSpec",
    "VerificationCase",
    "VerificationReport",
    "count_from_root_formula",
    "enumerate_from_root",
    "count_layer_chains_formula",
    "enumerate_layer_chains",
    "iter_chains",
    "obs3_quotient",
    "induced_copy_count",
    "verify_observation",
]

DEFAULT_ENUMERATION_LIMIT = 10**8

_level = itemgetter(0)  # Vertex.level, read in C


class EnumerationGuardError(GuardError):
    """Enumeration refused: the predicted chain count exceeds the guard limit."""

    template = (
        "enumeration would visit {predicted} chains, over the limit of {limit}; "
        "use the closed-form counter or raise the limit explicitly"
    )


class ChainVerificationError(RuntimeError):
    """The chain-quotient identity failed; carries every number involved.

    `quotient` is None when the division itself was not exact.
    """

    def __init__(self, k: int, n: int, layer_chains: int, per_copy_chains: int, expected: int) -> None:
        self.k = k
        self.n = n
        self.layer_chains = layer_chains
        self.per_copy_chains = per_copy_chains
        self.expected = expected
        self.quotient = quotient = _exact_quotient(layer_chains, per_copy_chains)
        super().__init__(
            f"quotient identity failed at k={k}, n={n}: layer chains {layer_chains}, "
            f"per-copy chains {per_copy_chains}, quotient "
            f"{quotient if quotient is not None else f'{layer_chains}/{per_copy_chains} (inexact)'}, "
            f"expected fibonomial {expected}"
        )


class LayerSpec(NamedTuple):
    """A fixed start vertex at level k and a target level n > k."""

    from_vertex: Vertex
    to_level: int

    @property
    def m(self) -> int:
        """Number of levels climbed: n = k + m."""
        return self.to_level - self.from_vertex.level

    def validate(self, P: CobwebPoset) -> None:
        """Reject a spec that climbs no level; the walk admission checks the rest."""
        if self.m < 1:
            raise ValueError(
                f"to_level must be in {self.from_vertex.level + 1}..{P.depth}, got {self.to_level}"
            )


def count_from_root_formula(n: int) -> int:
    """Closed-form count of maximal chains from the root to level n: the n-th F-factorial."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return fib_factorial(n)


def count_layer_chains_formula(k: int, n: int) -> int:
    """Closed-form count of chains from one fixed level-k vertex up to level n.

    Equals the falling F-factorial with n - k descending factors.
    """
    _check_pair(k, n)
    return falling_f_factorial(n, n - k)


def _check_pair(k: int, n: int) -> None:
    if k < 1 or n <= k:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _admit(P: CobwebPoset, start: Vertex, stop_level: int, limit: int) -> None:
    # The one admission check of every walk.  The predictor is the falling
    # F-factorial itself, never a counter under test: from the root it is
    # n_F! because F(1) = 1, and a walk of no steps is its empty product 1.
    P.check_vertex(start)
    if not start.level <= stop_level <= P.depth:
        raise ValueError(f"stop_level must be in {start.level}..{P.depth}, got {stop_level}")
    predicted = falling_f_factorial(stop_level, stop_level - start.level)
    if predicted > limit:
        raise EnumerationGuardError(predicted, limit)


def _dfs_count(P: CobwebPoset, stop_level: int) -> Callable[[Vertex], int]:
    # Returns count(v), the number of chains from v up to stop_level, found by
    # a depth-first walk along cover edges, memoized by vertex.  No closed
    # form anywhere in here: this is the independent oracle.  A vertex counts
    # 1 at stop_level, and otherwise the sum over its covers (0 above
    # stop_level, where no cover leads back down).  The memo holds one count
    # per vertex and lives as long as the counter, so covers_above is called
    # once per distinct vertex, however many start vertices are counted with
    # it.  The sum is a function of the cover tuple alone, so it is also kept
    # by the tuple's identity: vertices handed the same tuple object share
    # one sum, and a vertex handed any other tuple is summed on its own.
    # Each entry holds its tuple, so no other tuple can take over its id.
    covers_above = P.covers_above
    memo: dict[Vertex, int] = {}
    by_tuple: dict[int, tuple[tuple[Vertex, ...], int]] = {}

    def count(v: Vertex) -> int:
        total = memo.get(v)
        if total is None:
            if v.level == stop_level:
                total = 1
            else:
                covers = covers_above(v)
                held = by_tuple.get(id(covers))
                if held is None:
                    total = sum(map(count, covers))
                    by_tuple[id(covers)] = covers, total
                else:
                    total = held[1]
            memo[v] = total
        return total

    return count


def enumerate_from_root(P: CobwebPoset, n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Count maximal chains from the root to any vertex of level n by DFS.

    The walk counts per vertex and per cover tuple, not chain by chain;
    iter_chains is the walk that visits every chain.  Refuses
    (EnumerationGuardError) when the predicted chain count exceeds `limit`.
    """
    _admit(P, P.root, n, limit)
    return _dfs_count(P, n)(P.root)


def enumerate_layer_chains(P: CobwebPoset, spec: LayerSpec, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Count chains from spec.from_vertex up to spec.to_level by DFS.

    The walk counts per vertex and per cover tuple, not chain by chain.  The
    count is the same for every start vertex of the same level; sweeps
    assert that start-invariance explicitly.
    """
    spec.validate(P)
    _admit(P, spec.from_vertex, spec.to_level, limit)
    return _dfs_count(P, spec.to_level)(spec.from_vertex)


def iter_chains(
    P: CobwebPoset, start: Vertex, stop_level: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[tuple[Vertex, ...]]:
    """Stream every maximal chain from `start` up to `stop_level`, in DFS order.

    Chains are yielded as vertex tuples, one vertex per level, next vertex
    chosen by ascending index.  The arguments are validated and the guard
    applied when this is called, before any chain is walked; refuses
    (EnumerationGuardError) when the predicted count exceeds `limit`.
    Lazy, and the chain-by-chain listing: intended for export, debugging
    and as the counters' ground truth; use the counters when only the
    number of chains matters.
    """
    blocks = iter_chain_blocks(P, start, stop_level, limit)
    return (prefix + (top,) for prefix, tops in blocks for top in tops)


def iter_chain_blocks(
    P: CobwebPoset, start: Vertex, stop_level: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]]:
    """Stream the chains of `iter_chains` as (prefix, tops) blocks, in the same order.

    The block's chains are prefix + (top,) for each top in tops.  A vertex
    whose covers all sit at `stop_level` gives one block, its path and its
    whole cover tuple; any other stop-level vertex reached gives a block of
    one.  Admitted like `iter_chains`, when called.
    """
    _admit(P, start, stop_level, limit)
    return _walk_chains(P, start, stop_level)


def _walk_chains(
    P: CobwebPoset, start: Vertex, stop_level: int
) -> Iterator[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]]:
    covers_above = P.covers_above

    def walk(path: tuple[Vertex, ...]) -> Iterator[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]]:
        covers = covers_above(path[-1])
        if covers and countOf(map(_level, covers), stop_level) == len(covers):
            yield path, covers
            return
        for w in covers:
            if w.level == stop_level:
                yield path, (w,)
            else:
                yield from walk(path + (w,))

    if start.level == stop_level:
        yield (), (start,)
    else:
        yield from walk((start,))


Obs3Mode = Literal["formula", "enumerate"]


def obs3_quotient(k: int, n: int, mode: Obs3Mode = "formula", limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Layer-chain count divided by the per-copy chain count; equals the Fibonomial.

    Counts the chains from one fixed level-k vertex up to level n (closed
    form or DFS oracle, per `mode`), divides by the (n-k)-level F-factorial
    (the number of maximal chains each rooted copy carries on its own), and
    checks the quotient against fibonomial(n, k).  Raises
    ChainVerificationError, carrying all the numbers, when the division is
    not exact or the quotient disagrees.
    """
    _check_pair(k, n)
    if mode == "formula":
        layer = count_layer_chains_formula(k, n)
    elif mode == "enumerate":
        P = build_cobweb(n)
        layer = enumerate_layer_chains(P, LayerSpec(Vertex(k, 0), n), limit)
    else:
        raise ValueError(f"mode must be 'formula' or 'enumerate', got {mode!r}")
    case, per_copy = _quotient_case(k, n, layer)
    if not case.passed:
        raise ChainVerificationError(k, n, layer, per_copy, case.formula)
    return case.oracle


def induced_copy_count(k: int, n: int, profile: Sequence[int]) -> int:
    """Ways to choose one subset per level k+1..n with sizes given by `profile`.

    Diagnostic counter for the literal subposet-copy reading: the product of
    ordinary binomials C(level size, profile entry), each from math.comb;
    tests check them against explicit subset enumeration.  Probing different
    profiles shows which copy shapes do or do not reproduce the Fibonomial.
    """
    _check_pair(k, n)
    m = n - k
    if len(profile) != m:
        raise ValueError(f"profile must have {m} entries for levels {k + 1}..{n}, got {len(profile)}")
    total = 1
    for j, want in enumerate(profile):
        ambient = fib(k + 1 + j)
        if not 0 <= want <= ambient:
            raise ValueError(
                f"profile[{j}] = {want} out of range: level {k + 1 + j} has {ambient} vertices"
            )
        total *= math.comb(ambient, want)
    return total


class VerificationCase(NamedTuple):
    """One formula-vs-oracle comparison; `start` is set when a start vertex was fixed."""

    k: int
    n: int
    formula: int
    oracle: int
    passed: bool
    start: Vertex | None = None


class VerificationReport(NamedTuple):
    """Outcome of one observation sweep; failures are data, never exceptions."""

    observation: int
    max_n: int
    cases: tuple[VerificationCase, ...]

    @property
    def counterexamples(self) -> tuple[VerificationCase, ...]:
        return tuple(c for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_text(self) -> str:
        """Line-oriented schema: observation= k= n= formula= oracle= status=."""
        lines = []
        for c in self.cases:
            status = "pass" if c.passed else "fail"
            lines.append(
                f"observation={self.observation} k={c.k} n={c.n} "
                f"formula={c.formula} oracle={c.oracle} status={status}"
            )
        return "".join(line + "\n" for line in lines)


def _compare_case(k: int, n: int, formula: int, oracle: int, start: Vertex | None = None) -> VerificationCase:
    return VerificationCase(k=k, n=n, formula=formula, oracle=oracle, passed=formula == oracle, start=start)


def _exact_quotient(dividend: int, divisor: int) -> int | None:
    quotient, remainder = divmod(dividend, divisor)
    return None if remainder else quotient


def _quotient_case(k: int, n: int, layer: int) -> tuple[VerificationCase, int]:
    # Checks layer / (n-k)_F! against fibonomial(n, k), and returns the case
    # and the divisor.  An inexact division reports the raw layer count.
    expected = fibonomial(n, k)
    per_copy = fib_factorial(n - k)
    quotient = _exact_quotient(layer, per_copy)
    oracle = layer if quotient is None else quotient
    return VerificationCase(k=k, n=n, formula=expected, oracle=oracle, passed=quotient == expected), per_copy


def verify_observation(observation: int, max_n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> VerificationReport:
    """Sweep one observation, comparing closed forms against enumeration oracles.

    Observation 1: chains from the root to level n, for n = 1..max_n.
    Observation 2: chains from every fixed start vertex at level k to level n,
    for all 1 <= k < n <= max_n (one case per start vertex, so start-invariance
    is visible in the report).
    Observation 3: the chain-quotient identity, oracle-backed for n <= max_n
    and closed-form for n <= 3 * max_n.

    Mismatches become counterexample cases in the report; only guard refusals
    and invalid arguments raise, and both before any walk starts.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if observation not in (1, 2, 3):
        raise ValueError(f"observation must be 1, 2 or 3, got {observation}")
    # Every walk is admitted before any starts.  The root's walk to level n
    # predicts the most chains of any walk to n, and 1 at n = 1 and 2, so
    # admitting those in turn refuses the walk the sweep would refuse first.
    P = build_cobweb(max_n)
    for n in range(2, max_n + 1):
        _admit(P, P.root, n, limit)
    # One counter per target level serves every start vertex of the sweep.
    count = {n: _dfs_count(P, n) for n in range(1, max_n + 1)}
    cases: list[VerificationCase] = []
    if observation == 1:
        for n in range(1, max_n + 1):
            cases.append(_compare_case(1, n, count_from_root_formula(n), count[n](P.root)))
    elif observation == 2:
        for k in range(1, max_n):
            for n in range(k + 1, max_n + 1):
                formula = count_layer_chains_formula(k, n)
                for start in P.level_vertices(k):
                    cases.append(_compare_case(k, n, formula, count[n](start), start=start))
    else:
        for n in range(2, max_n + 1):
            for k in range(1, n):
                cases.append(_quotient_case(k, n, count[n](Vertex(k, 0)))[0])
        for n in range(2, 3 * max_n + 1):
            for k in range(1, n):
                cases.append(_quotient_case(k, n, count_layer_chains_formula(k, n))[0])
    return VerificationReport(observation=observation, max_n=max_n, cases=tuple(cases))
