"""Dense 0/1 incidence matrix of a cobweb poset, with CSV round-trip.

The matrix is indexed by the poset's canonical vertex order (level-major,
index-minor).  Under that order the matrix is upper triangular with unit
diagonal and shows the staircase of zero blocks: one identity block per
level on the diagonal, all-ones blocks above, zeros below.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .poset import CobwebPoset, GuardError

__all__ = [
    "DEFAULT_DIM_CAP",
    "IncidenceMatrix",
    "MatrixSizeError",
    "zeta_matrix",
    "staircase_check",
    "cobweb_from_matrix",
]

DEFAULT_DIM_CAP = 10_000

# bytes.translate tables between the entries 0/1 and the CSV digits b"0"/b"1".
_ENTRY_TO_CELL = bytes.maketrans(b"\x00\x01", b"01")
_CELL_TO_ENTRY = bytes.maketrans(b"01", b"\x00\x01")


class MatrixSizeError(GuardError):
    """Dense materialization refused: the matrix would exceed the row cap."""

    template = "incidence matrix would be {predicted}x{predicted}; cap is {limit} rows"

    def __init__(self, dim: int, cap: int) -> None:
        super().__init__(dim, cap)
        self.dim = dim
        self.cap = cap


class IncidenceMatrix:
    """Immutable square 0/1 matrix, one compact bytes row per vertex."""

    __slots__ = ("dim", "_rows")

    def __init__(self, rows: Iterable[bytes | Sequence[int]]) -> None:
        packed = tuple(bytes(r) for r in rows)
        dim = len(packed)
        for r in packed:
            if len(r) != dim:
                raise ValueError(f"matrix must be square; got a row of length {len(r)} in a {dim}-row matrix")
            if r.translate(None, b"\x00\x01"):
                raise ValueError("entries must be 0 or 1")
        self.dim = dim
        self._rows = packed

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._rows[i])

    def to_csv(self) -> str:
        """One comma-separated 0/1 row per line, newline-terminated, no header."""
        width = 2 * self.dim
        body = (bytearray(b",") * (width - 1) + b"\n") * self.dim
        for i, r in enumerate(self._rows):
            body[i * width:(i + 1) * width:2] = r.translate(_ENTRY_TO_CELL)
        return body.decode("ascii")

    @classmethod
    def from_csv(cls, text: str) -> "IncidenceMatrix":
        """Strict inverse of to_csv; rejects anything but a square 0/1 body.

        Lines end at "\n" only.  A line is valid when its even positions
        hold 0/1 cells and its odd positions hold commas.
        """
        if not text or not text.endswith("\n"):
            raise ValueError("CSV body must be nonempty and newline-terminated")
        rows = []
        for line in text.split("\n")[:-1]:
            # Each non-ASCII character becomes one b"?", which fails the check.
            data = line.encode("ascii", "replace")
            cells = data[::2]
            if not len(data) % 2 or data[1::2].translate(None, b",") or cells.translate(None, b"01"):
                bad = next(c for c in line.split(",") if c not in ("0", "1"))
                raise ValueError(f"bad CSV cell {bad!r}; expected '0' or '1'")
            rows.append(cells.translate(_CELL_TO_ENTRY))
        return cls(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IncidenceMatrix(dim={self.dim})"


def _row_templates(level_sizes: Sequence[int]) -> Iterator[bytes]:
    """Every zeta row in canonical order, from the level sizes alone.

    The row of vertex i in the level ending at column block_end is 1 at i and
    at every column from block_end on, and 0 everywhere else.
    """
    dim = sum(level_sizes)
    block_end = 0
    for size in level_sizes:
        block_end += size
        ones_tail = b"\x01" * (dim - block_end)
        for i in range(block_end - size, block_end):
            row = bytearray(dim)
            row[i] = 1
            row[block_end:] = ones_tail
            yield bytes(row)


def zeta_matrix(P: CobwebPoset, dim_cap: int = DEFAULT_DIM_CAP) -> IncidenceMatrix:
    """Incidence matrix over the canonical order: entry(i, j) = 1 iff v_i <= v_j.

    Refuses construction when the dimension exceeds `dim_cap` (dense storage
    is quadratic).  Rows are filled level block by level block, which is the
    order relation evaluated in bulk: a vertex is below exactly itself and
    every vertex of the later levels.
    """
    dim = P.vertex_count
    if dim > dim_cap:
        raise MatrixSizeError(dim, dim_cap)
    return IncidenceMatrix(_row_templates(P.level_sizes))


def staircase_check(M: IncidenceMatrix, P: CobwebPoset) -> bool:
    """Verify the staircase of zeros above the diagonal.

    For every pair i < j in canonical order the entry must be 1 exactly when
    v_j sits on a strictly higher level, and 0 when the two vertices share a
    level.  Each row's strict upper part is compared as bytes with the same
    part of the row template of P's level sizes; the diagonal and the lower
    triangle are not read.  Raises ValueError on a dimension mismatch
    between M and P.
    """
    if M.dim != P.vertex_count:
        raise ValueError(f"dimension mismatch: matrix is {M.dim}, poset has {P.vertex_count} vertices")
    return all(
        row[i + 1:] == template[i + 1:]
        for i, (row, template) in enumerate(zip(M._rows, _row_templates(P.level_sizes)))
    )


def cobweb_from_matrix(M: IncidenceMatrix) -> CobwebPoset:
    """Rebuild the poset a zeta matrix encodes; reject non-cobweb matrices.

    Levels are read off as maximal contiguous runs of vertices incomparable
    with the run's first vertex.  The run sizes must form an initial segment
    of the Fibonacci numbers.  Every whole row must then equal, as bytes, its
    row template for those sizes, which is the rebuilt poset's order relation
    entry for entry.  A row that differs is scanned for its first wrong
    column, so the error names the first bad entry in row-major order.
    """
    if M.dim == 0:
        raise ValueError("empty matrix encodes no poset")
    rows = M._rows
    sizes = []
    start = 0
    while (nxt := rows[start].find(1, start + 1)) >= 0:
        sizes.append(nxt - start)
        start = nxt
    sizes.append(M.dim - start)
    P = CobwebPoset(len(sizes))
    if tuple(sizes) != P.level_sizes:
        raise ValueError(f"level sizes {sizes} are not an initial Fibonacci segment")
    for i, (row, template) in enumerate(zip(rows, _row_templates(P.level_sizes))):
        if row != template:
            j = next(j for j in range(M.dim) if row[j] != template[j])
            raise ValueError(f"entry ({i}, {j}) inconsistent with the cobweb order")
    return P
