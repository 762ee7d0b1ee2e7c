"""Maximal-chain counting: closed-form counts and DFS oracles over the cover relation.

Each closed-form counter has an enumeration twin that walks the poset's
cover relation and never consults the formula.  The counting walk works
per cover object (a level's handle, or any tuple a relation hands out),
not chain by chain: one counter per target level keeps one memo, one sum
per distinct cover object, and no vertex entries.  Every walk's memo is
keyed by the cover object itself, so a cover object must be hashable and
equal ones share one entry; a cobweb level's handle hashes by identity,
so the memo holds at most one entry per level.  It serves every start
vertex of a sweep.  `iter_chains` is the chain-by-chain listing and the
counter's ground truth in the tests.  The `chains` verb lists the same
chains as text from the level structure alone: every vertex of a level is
covered by every vertex of the next, so it reads one cover object per
level, counts it, and writes the level's ids by one join per block of
indices (`poset._node_ids`), making no vertex.  It builds the text of
every chain from a level up to the target once, from the top level down,
while it fits in a block; a path's ids go before each of its lines by one
`str.replace`.
The counter and `iter_chains` still follow covers_above vertex by vertex,
so the listing is checked against walks that share no code with it.

One admission check validates and guards every walk, counted or listed,
before it starts.  It refuses (EnumerationGuardError) a walk whose
predicted chain count exceeds a limit: the caller's, or the desk-scale
DEFAULT_ENUMERATION_LIMIT as it reads at admission.  Its predictor is the
product of the sizes of the levels the walk crosses, read from the poset it
is given; it calls no closed form under test, so a wrong formula cannot
change what the guard admits.  For the counter the chain count is a
conservative price: each vertex it reads and each cover object it sums
lies on a counted chain, and past the smallest walks they are far fewer
than the chains (54 vertices and 8 cover objects against 2,227,680 chains
from the root to level 9).

`verify_observation` sweeps each of the paper's observations against these
oracles, and is the one check of each.  Its cases come from one private
stream per observation, `_cases`: called, it validates, admits every walk
and builds observation 3's rows, and then it makes each case as it is read.
The report holds them all; the `verify` verb writes each as it comes, with
`_case_lines`, the one renderer of case lines, and holds none.

Observation 3, the quotient identity, divides a layer's chain count by the
(n-k)-level F-factorial and compares the quotient with the Fibonomial; a
mismatch or an inexact division is a failed case in the report, never an
exception.  It works one target level n at a time: the Fibonomials are
the row `fibonomial_row(n)`, the F-factorials one running product, and the
closed-form tail's layer counts a running product over k descending, so
each case costs one multiply and one division.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, NamedTuple

from . import zeta
from .fibcalc import _product, fib, fib_factorial, falling_f_factorial, fibonomial_row
from .poset import CobwebPoset, GuardError, Vertex, _node_ids, build_cobweb

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "EnumerationGuardError",
    "LayerSpec",
    "VerificationCase",
    "VerificationReport",
    "count_from_root_formula",
    "enumerate_from_root",
    "count_layer_chains_formula",
    "enumerate_layer_chains",
    "iter_chains",
    "verify_observation",
]

DEFAULT_ENUMERATION_LIMIT = 10**8


class EnumerationGuardError(GuardError):
    """Enumeration refused: the predicted chain count exceeds the guard limit."""

    template = (
        "enumeration would visit {predicted} chains, over the limit of {limit}; "
        "use the closed-form counter or raise the limit explicitly"
    )


class LayerSpec(NamedTuple):
    """A fixed start vertex at level k and a target level n > k."""

    from_vertex: Vertex
    to_level: int

    def validate(self, P: CobwebPoset) -> None:
        """Reject a start vertex not in P, or a target level not above it and within P."""
        P.check_vertex(self.from_vertex)
        level = self.from_vertex.level
        if level == P.depth:
            raise ValueError(
                f"from_vertex is on level {level}, the top of a depth-{P.depth} poset; no to_level lies above it"
            )
        if not level < self.to_level <= P.depth:
            raise ValueError(f"to_level must be in {level + 1}..{P.depth}, got {self.to_level}")


def count_from_root_formula(n: int) -> int:
    """Closed-form count of maximal chains from the root to level n: the n-th F-factorial."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return fib_factorial(n)


def count_layer_chains_formula(k: int, n: int) -> int:
    """Closed-form count of chains from one fixed level-k vertex up to level n.

    Equals the falling F-factorial with n - k descending factors.
    """
    if k < 1 or n <= k:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return falling_f_factorial(n, n - k)


def _admit(P: CobwebPoset, start: Vertex, stop_level: int, limit: int | None) -> None:
    # The one admission check of every walk, and the one reader of the
    # default limit.  The predictor is the product of the sizes of levels
    # start.level+1..stop_level, read from P, never a closed form or a counter
    # under test.  A walk of no steps is its empty product 1.
    P.check_vertex(start)
    if not start.level <= stop_level <= P.depth:
        raise ValueError(f"target level must be in {start.level}..{P.depth}, got {stop_level}")
    limit = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
    predicted = _product(P.level_sizes[start.level:stop_level])
    if predicted > limit:
        raise EnumerationGuardError(predicted, limit)


def _dfs_count(P: CobwebPoset, stop_level: int) -> Callable[[Vertex], int]:
    # Returns count(v), the number of chains from v up to stop_level, found by
    # a depth-first walk along cover edges.  No closed form anywhere in here:
    # this is the independent oracle.  A vertex counts 1 at stop_level; any
    # other vertex counts the sum over its covers (0 above stop_level).  The
    # sum depends on the cover object alone, so the one memo keeps it by the
    # object.  No vertex takes an entry, so covers_above runs once per vertex
    # visit.
    covers_above = P.covers_above
    sums: dict[Iterable[Vertex], int] = {}

    def count(v: Vertex) -> int:
        if v.level == stop_level:
            return 1
        covers = covers_above(v)
        total = sums.get(covers)
        if total is None:
            total = sums[covers] = sum(map(count, covers))
        return total

    return count


def enumerate_from_root(P: CobwebPoset, n: int, limit: int | None = None) -> int:
    """Count maximal chains from the root to any vertex of level n by DFS.

    The walk counts per cover object, not chain by chain; iter_chains lists
    every chain.  Refuses (EnumerationGuardError) when the predicted chain
    count exceeds `limit`, the default limit when None.
    """
    _admit(P, P.root, n, limit)
    return _dfs_count(P, n)(P.root)


def enumerate_layer_chains(P: CobwebPoset, spec: LayerSpec, limit: int | None = None) -> int:
    """Count chains from spec.from_vertex up to spec.to_level by DFS.

    The walk counts per cover object, not chain by chain, and is guarded
    like enumerate_from_root.  The count is the same for every start vertex
    of the same level; sweeps assert that start-invariance.
    """
    spec.validate(P)
    _admit(P, spec.from_vertex, spec.to_level, limit)
    return _dfs_count(P, spec.to_level)(spec.from_vertex)


def iter_chains(
    P: CobwebPoset, start: Vertex, stop_level: int, limit: int | None = None
) -> Iterator[tuple[Vertex, ...]]:
    """Stream every maximal chain from `start` up to `stop_level`, in DFS order.

    Chains are yielded as vertex tuples, one vertex per level, next vertex
    chosen by ascending index.  The arguments are validated and the guard
    applied when this is called, before any chain is walked; refuses
    (EnumerationGuardError) when the predicted count exceeds `limit`, the
    default limit when None.  Lazy, and the chain-by-chain listing: for
    export, debugging and as the counters' ground truth; use the counters
    when only the number of chains matters.
    """
    _admit(P, start, stop_level, limit)
    return _walk_chains(P, start, stop_level)


def _walk_chains(P: CobwebPoset, start: Vertex, stop_level: int) -> Iterator[tuple[Vertex, ...]]:
    # One pass per distinct cover object: a tuple of it, keyed by the object.
    covers_above = P.covers_above
    held: dict[Iterable[Vertex], tuple[Vertex, ...]] = {}

    def walk(path: tuple[Vertex, ...]) -> Iterator[tuple[Vertex, ...]]:
        covers = covers_above(path[-1])
        got = held.get(covers)
        if got is None:
            got = held[covers] = tuple(covers)
        for w in got:
            if w.level == stop_level:
                yield path + (w,)
            else:
                yield from walk(path + (w,))

    if start.level == stop_level:
        yield (start,)
    else:
        yield from walk((start,))


def _chain_text(P: CobwebPoset, start: Vertex, stop_level: int, limit: int | None = None) -> Iterator[str]:
    """The chains of `iter_chains` as text: each chain's node ids joined by spaces, one line each.

    Admitted like `iter_chains`, when called.  Yields chunks of whole lines.
    """
    _admit(P, start, stop_level, limit)
    return _walk_text(P, start, stop_level)


def _prefixed(head: str, text: str) -> str:
    """`head` put before every line of `text`, newline-terminated lines, in one C-level pass."""
    return head + text[:-1].replace("\n", "\n" + head) + "\n"


def _within(block: int, parts: Iterable[str]) -> str | None:
    """The parts joined, or None once the text passes `block` characters."""
    kept: list[str] = []
    size = 0
    for part in parts:
        size += len(part)
        if size > block:
            return None
        kept.append(part)
    return "".join(kept)


def _walk_text(P: CobwebPoset, start: Vertex, stop_level: int) -> Iterator[str]:
    # Every vertex of a level is covered by every vertex of the next, so the
    # walk reads one cover object per level, from the level's first vertex,
    # in one pass that counts it, and writes the level's ids from a range.
    # The text of every chain from a vertex of one level up to stop_level is
    # then the same for every path below it.  It is built from the top level
    # down while it fits in a block: the one block size of every streamed
    # output, as it reads when the walk starts.  The levels below the lowest
    # text that fits are walked vertex by vertex, and each path writes that
    # text as one chunk, each line led by the path's ids.  When the top
    # level's own lines pass a block, `zeta._chunks` cuts them, as it cuts
    # every variable-width text.  The oracles, _dfs_count and iter_chains,
    # still read covers_above vertex by vertex.
    if start.level == stop_level:
        yield start.node_id() + "\n"
        return
    block = zeta._BLOCK_BYTES
    sizes = [sum(1 for _ in P.covers_above(Vertex(s, 0))) for s in range(start.level, stop_level)]

    def lines(i: int) -> Iterator[str]:
        # The ids of level start.level + 1 + i, one line each, rendered a
        # slice of at most a block of text at a time, so no level is held
        # whole.
        level, size = start.level + 1 + i, sizes[i]
        step = max(1, block // (len(Vertex(level, size - 1).node_id()) + 1))
        for lo in range(0, size, step):
            yield _node_ids(level, lo, min(size, lo + step), "\n") + "\n"

    def ids(i: int) -> Iterator[str]:
        for text in lines(i):
            yield from text.split()

    fit, text = len(sizes), None  # text: every chain from a vertex of level fit up
    for i in reversed(range(len(sizes))):
        if text is None:
            wider = _within(block, lines(i))
        else:
            wider = _within(block, (_prefixed(v + " ", text) for v in ids(i)))
        if wider is None:
            break
        fit, text = i, wider

    def walk(head: str, i: int) -> Iterator[str]:
        if i == fit:
            yield _prefixed(head, text)
        elif i < len(sizes) - 1:
            for v in ids(i):
                yield from walk(head + v + " ", i + 1)
        else:  # the top level's own lines pass a block
            yield from zeta._chunks(head + v + "\n" for v in ids(i))

    yield from walk(start.node_id() + " ", 0)


class VerificationCase(NamedTuple):
    """One formula-vs-oracle comparison; `start` is set when a start vertex was fixed."""

    k: int
    n: int
    formula: int
    oracle: int
    passed: bool
    start: Vertex | None = None


class VerificationReport(NamedTuple):
    """Outcome of one observation sweep, every case held; failures are data, never exceptions.

    `verify_observation` builds it from the sweep's case stream, which the
    `verify` verb reads directly instead, holding no case list.
    """

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
        """Line-oriented schema: observation= k= n= formula= oracle= status=, one line per case."""
        return "".join(_case_lines(self.observation, self.cases))


def _case_lines(observation: int, cases: Iterable[VerificationCase]) -> Iterator[str]:
    """Each case's line of the structured report, newline-terminated: the one renderer of a case line."""
    head = f"observation={observation} k="
    for k, n, formula, oracle, passed, _ in cases:
        yield f"{head}{k} n={n} formula={formula} oracle={oracle} status={'pass' if passed else 'fail'}\n"


def _layer_counts(fibs: list[int], n: int) -> list[int]:
    # [F(k+1) * ... * F(n) for k = 1..n-1], with fibs[i] = F(i): the chains
    # from one level-k vertex up to level n, as a running product over k
    # descending, one multiply per entry.
    return list(itertools.accumulate(reversed(fibs[2:n + 1]), operator.mul))[::-1]


def verify_observation(observation: int, max_n: int, limit: int | None = None) -> VerificationReport:
    """Sweep one observation, comparing closed forms against enumeration oracles.

    Observation 1: chains from the root to level n, for n = 1..max_n.
    Observation 2: chains from every fixed start vertex at level k to level n,
    for all 1 <= k < n <= max_n (one case per start vertex, so start-invariance
    is visible in the report).
    Observation 3: the chain-quotient identity, oracle-backed for n <= max_n
    and closed-form for n <= 3 * max_n.  Each case divides the layer count by
    (n-k)_F!, read from one running product of F(1..3 * max_n), and compares
    the quotient with entry k of `fibonomial_row(n)`, one row per target
    level.  The closed-form tail's layer count is F(k+1) * ... * F(n), built
    per n as a running product over k descending.  An inexact division
    reports the raw layer count.

    Mismatches become counterexample cases; only refusals over `limit` (the
    default limit when None) and bad arguments raise, before any walk starts.
    Observation 2 has no case below max_n = 2, so a smaller max_n raises
    rather than pass a sweep of nothing.
    """
    return VerificationReport(observation, max_n, tuple(_cases(observation, max_n, limit)))


def _cases(observation: int, max_n: int, limit: int | None = None) -> Iterator[VerificationCase]:
    """The cases of `verify_observation`'s sweep, in its order, made one at a time as they are read.

    When called it validates the arguments, admits every walk and builds
    observation 3's rows, which hold the sweep's one integrality check; so
    every exception comes before the first case.  It holds the counters'
    memos and the rows, and no case.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if observation == 2 and max_n < 2:
        raise ValueError(f"observation 2 needs max_n >= 2, got {max_n}")
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
    if observation == 1:
        return _root_cases(P, count)
    if observation == 2:
        return _layer_cases(P, count)
    top = 3 * max_n
    fibs = [fib(i) for i in range(top + 1)]
    factorials = list(itertools.accumulate(fibs[1:], operator.mul, initial=1))
    rows = {n: fibonomial_row(n) for n in range(2, top + 1)}
    counted = ((n, [count[n](Vertex(k, 0)) for k in range(1, n)]) for n in range(2, max_n + 1))
    closed = ((n, _layer_counts(fibs, n)) for n in range(2, top + 1))
    return _quotient_cases(itertools.chain(counted, closed), rows, factorials)


def _root_cases(P: CobwebPoset, count: dict[int, Callable[[Vertex], int]]) -> Iterator[VerificationCase]:
    # Observation 1: n_F! against the chains from the root to level n.
    for n in range(1, P.depth + 1):
        formula, oracle = count_from_root_formula(n), count[n](P.root)
        yield VerificationCase(1, n, formula, oracle, formula == oracle)


def _layer_cases(P: CobwebPoset, count: dict[int, Callable[[Vertex], int]]) -> Iterator[VerificationCase]:
    # Observation 2: the falling F-factorial against the chains from each
    # start vertex of level k to level n.  A level's handle makes its
    # vertices afresh on each pass, so no level is held as vertices.
    for k in range(1, P.depth):
        starts = P.level(k)
        for n in range(k + 1, P.depth + 1):
            formula, walk = count_layer_chains_formula(k, n), count[n]
            for start in starts:
                oracle = walk(start)
                yield VerificationCase(k, n, formula, oracle, formula == oracle, start)


def _quotient_cases(
    layers: Iterable[tuple[int, list[int]]], rows: dict[int, list[int]], factorials: list[int]
) -> Iterator[VerificationCase]:
    # Observation 3: each target level n comes with its layer counts for
    # k = 1..n-1.  A count is divided by (n-k)_F! and the quotient compared
    # with the Fibonomial; an inexact division reports the raw count.
    for n, counts in layers:
        row = rows[n]
        for k, layer in enumerate(counts, 1):
            formula = row[k]
            quotient, remainder = divmod(layer, factorials[n - k])
            oracle = layer if remainder else quotient
            yield VerificationCase(k, n, formula, oracle, not remainder and quotient == formula)
