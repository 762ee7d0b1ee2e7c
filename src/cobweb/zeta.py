"""Dense 0/1 incidence matrix of a cobweb poset, with CSV round-trip.

The matrix is indexed by the poset's canonical vertex order (level-major,
index-minor).  Under that order the matrix is upper triangular with unit
diagonal and shows the staircase of zero blocks: one identity block per
level on the diagonal, all-ones blocks above, zeros below.

A matrix is held as one row-major bytes buffer of dim * dim cells.  The zeta
matrix is fixed by its level sizes, and one generator, `_zeta_rows`, writes
its rows from them in two alphabets: the 0/1 cells, and the CSV text that the
export streams with no matrix built.  CSV goes in blocks of whole rows, one
Python step per block; the staircase check and the reconstruction are
whole-buffer compares in C.  A per-row scan runs only to name the first bad
cell of an input already found wrong.  `_admit` alone reads DEFAULT_DIM_CAP.
"""

from __future__ import annotations

import io
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

# The one block size of everything built or streamed in pieces: the zeta cells,
# the CSV and DOT exports, the CSV reader, the chain listing's text and the
# `row` verb's line.  Each reads it when it starts, so patching it here moves
# them all.  Fixed-width rows (the cells, the CSV) go as many whole rows a
# block as fit; variable-width text (DOT edges, listing lines, row entries)
# is cut by `_chunks` alone.
# 64 KiB sits below glibc's default 128 KiB mmap threshold, so malloc serves
# every block from the heap and reuses it for the next one instead of mapping
# and faulting in fresh pages, and a few blocks fit in a 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 16


def _chunks(texts: Iterable[str], sep: str = "", end: str = "") -> Iterator[str]:
    """sep.join(texts) + end in chunks of whole texts, never an empty one.

    A chunk closes at the text that brings it to _BLOCK_BYTES, as read at
    the first chunk; the next one starts with `sep`.
    """
    block, kept, size = _BLOCK_BYTES, [], 0
    for text in texts:
        kept.append(text)
        size += len(text)
        if size >= block:
            yield sep.join(kept)
            kept, size = [""], 0  # joined, the "" puts sep first
    if last := sep.join(kept) + end:
        yield last


class MatrixSizeError(GuardError):
    """Dense materialization refused: the matrix would exceed the row cap.

    `predicted` is the matrix's row count and `limit` the cap.
    """

    template = "incidence matrix would be {predicted}x{predicted}; cap is {limit} rows"


class IncidenceMatrix:
    """Immutable square 0/1 matrix, held as one row-major bytes buffer.

    Cell (i, j) is byte i * dim + j.  Indices behave as they would on a
    tuple of rows: negative ones count from the end, and any index outside
    the matrix raises IndexError.
    """

    __slots__ = ("dim", "_cells")

    def __init__(self, rows: Iterable[bytes | Sequence[int]]) -> None:
        packed = tuple(bytes(r) for r in rows)
        dim = len(packed)
        for r in packed:
            if len(r) != dim:
                raise ValueError(f"matrix must be square; got a row of length {len(r)} in a {dim}-row matrix")
            if r.translate(None, b"\x00\x01"):
                raise ValueError("entries must be 0 or 1")
        self.dim = dim
        self._cells = b"".join(packed)

    @classmethod
    def _of_cells(cls, dim: int, cells: bytes) -> "IncidenceMatrix":
        """Wrap dim * dim cells already known to be 0 or 1, unchecked."""
        M = object.__new__(cls)
        M.dim = dim
        M._cells = cells
        return M

    def entry(self, i: int, j: int) -> int:
        dim = self.dim
        return self._cells[range(dim)[i] * dim + range(dim)[j]]

    def row(self, i: int) -> tuple[int, ...]:
        start = range(self.dim)[i] * self.dim
        return tuple(self._cells[start:start + self.dim])

    def to_csv(self) -> str:
        """One comma-separated 0/1 row per line, newline-terminated, no header.

        A line is 2 * dim characters wide, so the cells of every row sit at
        the even offsets of a body of separators.  The text is made in blocks
        of whole rows, about _BLOCK_BYTES each, one strided assignment a
        block, so the work buffers stay one block in size.
        """
        dim, blocks = self.dim, []
        rows = max(1, _BLOCK_BYTES // max(1, 2 * dim))
        body = bytearray(b"," * (2 * dim - 1) + b"\n") * min(rows, dim)
        for start in range(0, dim, rows):
            cells = self._cells[start * dim:(start + rows) * dim]
            del body[2 * len(cells):]
            body[::2] = cells.translate(_ENTRY_TO_CELL)
            blocks.append(body.decode("ascii"))
        return "".join(blocks)

    @classmethod
    def from_csv(cls, text: str) -> "IncidenceMatrix":
        """Strict inverse of to_csv; rejects anything but a square 0/1 body.

        Lines end at "\n" only.  A line is valid when its even positions
        hold 0/1 cells and its odd positions hold commas.  The first line's
        width gives dim, which `_admit` refuses past DEFAULT_DIM_CAP before
        any text is encoded.  A body as long as dim such lines is read in
        blocks of whole rows, about _BLOCK_BYTES of text each: a block is
        encoded, its separators compared with one template and its cells
        translated into the matrix's buffer, so no copy of the whole text is
        held.  If a block fails, a scan line by line names the first bad
        cell, or the constructor the first row of the wrong length.
        """
        if not text or not text.endswith("\n"):
            raise ValueError("CSV body must be nonempty and newline-terminated")
        dim = (text.index("\n") + 1) // 2
        _admit(dim)
        if len(text) == 2 * dim * dim:
            step = max(1, _BLOCK_BYTES // (2 * dim))
            template = (b"," * (dim - 1) + b"\n") * min(step, dim)
            buf = io.BytesIO()
            buf.seek(dim * dim - 1)
            buf.write(b"\0")  # sized once: the buffer never grows and is never copied
            buf.seek(0)
            for start in range(0, dim, step):
                if dim - start < step:
                    template = template[:(dim - start) * dim]
                # Each non-ASCII character becomes one b"?", which fails the checks.
                data = text[2 * dim * start:2 * dim * (start + step)].encode("ascii", "replace")
                cells = data[::2]
                if data[1::2] != template or cells.translate(None, b"01"):
                    break
                buf.write(cells.translate(_CELL_TO_ENTRY))
            else:
                return cls._of_cells(dim, buf.getvalue())
        rows = []
        for line in text.split("\n")[:-1]:
            data = line.encode("ascii", "replace")
            cells = data[::2]
            if not len(data) % 2 or data[1::2].translate(None, b",") or cells.translate(None, b"01"):
                bad = next(c for c in line.split(",") if c not in ("0", "1"))
                raise ValueError(f"bad CSV cell {bad!r}; expected '0' or '1'")
            rows.append(cells.translate(_CELL_TO_ENTRY))
        # Every line is valid, so the body is not square: the constructor says so.
        return cls(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return f"IncidenceMatrix(dim={self.dim})"


def _zeta_rows(level_sizes: Sequence[int], zero: bytes, one: bytes, comma: bytes, newline: bytes) -> Iterator[bytearray]:
    """The zeta matrix's rows from the level sizes alone, in blocks of whole rows.

    A cell is `zero` or `one`, then `comma`, or `newline` (as long) after a
    row's last.  A row of the level ending at column block_end is zero up to
    block_end and one from there on, apart from its one on the diagonal.  A
    block repeats its level's line as often as fits in _BLOCK_BYTES, at least
    once, and one strided assignment sets its diagonal.
    """
    dim, width = sum(level_sizes), len(zero + comma)
    block_end = 0
    for size in level_sizes:
        block_start, block_end = block_end, block_end + size
        line = bytearray((zero + comma) * block_end + (one + comma) * (dim - block_end))
        line[len(line) - len(comma):] = newline
        step = min(size, max(1, _BLOCK_BYTES // len(line)))
        for first in range(block_start, block_end, step):
            rows = min(step, block_end - first)
            block = line * rows
            block[first * width::len(line) + width] = one * rows
            yield block


def _zeta_cells(level_sizes: Sequence[int]) -> bytes:
    """The zeta matrix's row-major cells, held once: BytesIO hands its buffer over uncopied."""
    buf = io.BytesIO()
    buf.writelines(_zeta_rows(level_sizes, b"\x00", b"\x01", b"", b""))
    return buf.getvalue()


def _zeta_csv(level_sizes: Sequence[int]) -> Iterator[str]:
    """The zeta matrix's CSV, as to_csv writes it, in blocks of whole rows, with no matrix built."""
    return (block.decode("ascii") for block in _zeta_rows(level_sizes, b"0", b"1", b",", b"\n"))


def _admit(dim: int) -> None:
    """Refuse a dim x dim matrix, or an output growing like one, past DEFAULT_DIM_CAP rows."""
    if dim > DEFAULT_DIM_CAP:
        raise MatrixSizeError(dim, DEFAULT_DIM_CAP)


def zeta_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """Incidence matrix over the canonical order: entry(i, j) = 1 iff v_i <= v_j.

    Refuses construction past DEFAULT_DIM_CAP rows, as read when it is
    called (dense storage is quadratic).  The cells are built level block
    by level block, which is the order relation evaluated in bulk: a vertex
    is below exactly itself and every vertex of the later levels.
    """
    _admit(P.vertex_count)
    return IncidenceMatrix._of_cells(P.vertex_count, _zeta_cells(P.level_sizes))


def staircase_check(M: IncidenceMatrix, P: CobwebPoset) -> bool:
    """Verify the staircase of zeros above the diagonal.

    For every pair i < j in canonical order the entry must be 1 exactly when
    v_j sits on a strictly higher level, and 0 when the two vertices share a
    level.  A matrix equal to the zeta cells of P's level sizes passes with
    one comparison.  Any other matrix has each row's strict upper part
    compared as bytes with the same part of those cells; the diagonal and
    the lower triangle are not read.  Raises ValueError on a dimension
    mismatch between M and P.
    """
    if M.dim != P.vertex_count:
        raise ValueError(f"dimension mismatch: matrix is {M.dim}, poset has {P.vertex_count} vertices")
    cells, expected = M._cells, _zeta_cells(P.level_sizes)
    if cells == expected:
        return True
    dim = M.dim
    return all(cells[i * dim + i + 1:(i + 1) * dim] == expected[i * dim + i + 1:(i + 1) * dim] for i in range(dim))


def cobweb_from_matrix(M: IncidenceMatrix) -> CobwebPoset:
    """Rebuild the poset a zeta matrix encodes; reject non-cobweb matrices.

    Levels are read off as maximal contiguous runs of vertices incomparable
    with the run's first vertex.  The run sizes must form an initial segment
    of the Fibonacci numbers.  The whole matrix must then equal, as bytes,
    the zeta cells of those sizes, which is the rebuilt poset's order
    relation entry for entry.  Only a matrix that differs is scanned, row by
    row and then along the first wrong row, so the error names the first
    bad entry in row-major order.
    """
    dim = M.dim
    if dim == 0:
        raise ValueError("empty matrix encodes no poset")
    cells = M._cells
    sizes = []
    start = 0
    while (nxt := cells.find(1, start * dim + start + 1, (start + 1) * dim)) >= 0:
        nxt -= start * dim
        sizes.append(nxt - start)
        start = nxt
    sizes.append(dim - start)
    P = CobwebPoset(len(sizes))
    if tuple(sizes) != P.level_sizes:
        raise ValueError(f"level sizes {sizes} are not an initial Fibonacci segment")
    expected = _zeta_cells(P.level_sizes)
    if cells != expected:
        i = next(i for i in range(dim) if cells[i * dim:(i + 1) * dim] != expected[i * dim:(i + 1) * dim])
        j = next(j for j in range(dim) if cells[i * dim + j] != expected[i * dim + j])
        raise ValueError(f"entry ({i}, {j}) inconsistent with the cobweb order")
    return P
