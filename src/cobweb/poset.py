"""The cobweb poset: level s holds F(s) vertices, consecutive levels fully linked."""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from .fibcalc import _fib_run

__all__ = ["GuardError", "Vertex", "CobwebPoset", "build_cobweb"]

_EXACT_BELOW = 10**4300  # numbers of more digits are named by bit length


class GuardError(RuntimeError):
    """Work refused before it starts: its predicted cost exceeds a limit.

    Subclasses word it by a `template` with {predicted} and {limit} fields,
    each number written by `_number`.
    """

    template = "predicted cost {predicted} exceeds the limit of {limit}"

    def __init__(self, predicted: int, limit: int) -> None:
        super().__init__(self.template.format(predicted=_number(predicted), limit=_number(limit)))
        self.predicted = predicted
        self.limit = limit


def _number(n: int) -> str:
    """A computed integer as an error message names it.

    In full when it has at most 4300 digits and str() takes it under the
    interpreter's current int -> str digit limit; otherwise by its bit
    length, so that wording an error never raises one of its own.
    """
    if abs(n) < _EXACT_BELOW:
        try:
            return str(n)
        except ValueError:  # over the digit limit in force
            pass
    return f"(a {n.bit_length()}-bit number)"


class Vertex(NamedTuple):
    """A poset element addressed by (level, index within level); index is 0-based."""

    level: int
    index: int

    def node_id(self) -> str:
        """Stable textual identifier, shared by the DOT export and chain listings."""
        return f"v{self.level}_{self.index}"


# Vertex of a (level, index) pair, built in C: the same object Vertex(level, index) gives.
_vertex_of = partial(tuple.__new__, Vertex)


def _node_ids(level: int, lo: int, hi: int, sep: str) -> str:
    """The node ids of vertices lo..hi-1 of `level`, joined by `sep`, in one C-level join.

    Each id is `Vertex(level, index).node_id()`; no Vertex is made.  Empty
    when lo >= hi.
    """
    if lo >= hi:
        return ""
    prefix = f"v{level}_"
    return prefix + (sep + prefix).join(map(str, range(lo, hi)))


class _Level:
    """One level of a poset as (level, size): its vertices are made afresh by each pass."""

    __slots__ = ("level", "size")

    def __init__(self, level: int, size: int) -> None:
        self.level = level
        self.size = size

    def __iter__(self) -> Iterator[Vertex]:
        return map(_vertex_of, zip(repeat(self.level), range(self.size)))


class CobwebPoset:
    """Finite truncation of the cobweb poset with levels 1..depth.

    Level s contains exactly fib(s) vertices.  Every vertex of level s lies
    below every vertex of level s+1, and the order relation is the transitive
    closure of those links, which collapses to plain level comparison:
    x <= y iff x == y or x.level < y.level.

    Only the level sizes and one small handle per level are stored, and no
    vertex; relations are computed from levels on demand, so construction is
    cheap even at depths where materializing all vertices would not be.
    Operations that do materialize vertices grow as F(depth + 2).  Instances
    are immutable and safe to share across threads.
    """

    __slots__ = ("depth", "level_sizes", "_levels")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.level_sizes = tuple(_fib_run(1, depth + 1))
        self._levels = tuple(map(_Level, range(1, depth + 1), self.level_sizes))

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.depth:
            raise ValueError(f"level must be in 1..{self.depth}, got {level}")

    def check_vertex(self, v: Vertex) -> None:
        """Reject vertices that do not belong to this poset."""
        level, index = v
        self._check_level(level)
        size = self.level_sizes[level - 1]
        if not 0 <= index < size:
            raise ValueError(f"vertex {v!r} invalid: level {level} has {size} vertices")

    @property
    def vertex_count(self) -> int:
        return sum(self.level_sizes)

    @property
    def root(self) -> Vertex:
        return Vertex(1, 0)

    def level(self, level: int) -> Iterable[Vertex]:
        """One level's shared handle: its vertices in ascending index order, made afresh by each pass."""
        self._check_level(level)
        return self._levels[level - 1]

    def level_vertices(self, level: int) -> tuple[Vertex, ...]:
        """All vertices of one level in ascending index order."""
        return tuple(self.level(level))

    def vertices(self) -> tuple[Vertex, ...]:
        """Canonical ordering: ascending level, then ascending index."""
        return tuple(chain.from_iterable(self._levels))

    def leq(self, x: Vertex, y: Vertex) -> bool:
        """Order relation; same-level vertices are incomparable unless equal."""
        self.check_vertex(x)
        self.check_vertex(y)
        return x == y or x.level < y.level

    def covers_above(self, x: Vertex) -> Iterable[Vertex]:
        """Every vertex covering x: the next level's one shared handle (empty at the top).

        Walks key their memos by the cover object: it must be hashable, and
        equal cover objects share one memo entry.
        """
        self.check_vertex(x)
        return self._levels[x.level] if x.level < self.depth else ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CobwebPoset):
            return NotImplemented
        return self.level_sizes == other.level_sizes

    def __hash__(self) -> int:
        # Equal level sizes have equal depth, so the hash stays with equality.
        return hash(("CobwebPoset", self.depth))

    def __repr__(self) -> str:
        return f"CobwebPoset(depth={self.depth})"


def build_cobweb(depth: int) -> CobwebPoset:
    """Construct the cobweb poset truncated at `depth` levels (depth >= 1)."""
    return CobwebPoset(depth)
