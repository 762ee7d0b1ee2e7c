"""Incidence matrix structure, CSV round-trip, golden files, reconstruction."""

from __future__ import annotations

import functools
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from cobweb import zeta
from cobweb.poset import CobwebPoset, GuardError, build_cobweb
from cobweb.zeta import (
    IncidenceMatrix,
    MatrixSizeError,
    cobweb_from_matrix,
    staircase_check,
    zeta_matrix,
)

import naive

GOLDEN = Path(__file__).parent / "golden"


def oracle_cobweb_from_matrix(M: IncidenceMatrix) -> CobwebPoset:
    """Independent oracle: the per-entry reconstruction, one P.leq per pair."""
    if M.dim == 0:
        raise ValueError("empty matrix encodes no poset")
    sizes = []
    start = 0
    for j in range(1, M.dim):
        if M.entry(start, j):
            sizes.append(j - start)
            start = j
    sizes.append(M.dim - start)
    P = CobwebPoset(len(sizes))
    if sizes != naive.level_sizes(len(sizes)):
        raise ValueError(f"level sizes {sizes} are not an initial Fibonacci segment")
    verts = P.vertices()
    for i, vi in enumerate(verts):
        for j, vj in enumerate(verts):
            if M.entry(i, j) != (1 if P.leq(vi, vj) else 0):
                raise ValueError(f"entry ({i}, {j}) inconsistent with the cobweb order")
    return P


def oracle_rows(depth: int) -> list[bytes]:
    return list(naive.zeta_rows(naive.level_sizes(depth)))


@functools.cache
def oracle_csv(depth: int) -> str:
    return naive.zeta_csv(naive.level_sizes(depth))


def reference_from_csv(text: str) -> IncidenceMatrix:
    """Reference parser: split into lines at "\n", then each line at ",".

    The first cell that is not "0" or "1" in the first bad line names the
    error; a body whose lines are all valid goes to the public constructor.
    """
    if not text or not text.endswith("\n"):
        raise ValueError("CSV body must be nonempty and newline-terminated")
    rows = []
    for line in text.split("\n")[:-1]:
        cells = line.split(",")
        for c in cells:
            if c not in ("0", "1"):
                raise ValueError(f"bad CSV cell {c!r}; expected '0' or '1'")
        rows.append([int(c) for c in cells])
    return IncidenceMatrix(rows)


def one_edit(body: str, edit: str, char: str, data) -> str:
    """`body` with one character deleted, inserted or replaced at a drawn offset."""
    k = data.draw(st.integers(0, len(body) - (edit != "insert")))
    if edit == "delete":
        return body[:k] + body[k + 1:]
    if edit == "insert":
        return body[:k] + char + body[k:]
    return body[:k] + char + body[k + 1:]


def outcome(parse, text: str):
    try:
        M = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return [M.row(i) for i in range(M.dim)]


def flipped(P: CobwebPoset, i: int, j: int) -> IncidenceMatrix:
    """The zeta matrix of P with entry (i, j) flipped."""
    M = zeta_matrix(P)
    rows = [bytearray(M.row(r)) for r in range(M.dim)]
    rows[i][j] ^= 1
    return IncidenceMatrix(rows)


class TestZetaMatrix:
    def test_single_vertex(self):
        M = zeta_matrix(build_cobweb(1))
        assert M.dim == 1
        assert M.row(0) == (1,)

    def test_depth_three_rows(self):
        M = zeta_matrix(build_cobweb(3))
        assert [M.row(i) for i in range(4)] == [
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ]

    def test_depth_five_dim(self):
        assert zeta_matrix(build_cobweb(5)).dim == 12

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_order_relation_entrywise(self, depth):
        P = build_cobweb(depth)
        M = zeta_matrix(P)
        verts = P.vertices()
        for i, x in enumerate(verts):
            for j, y in enumerate(verts):
                assert M.entry(i, j) == (1 if P.leq(x, y) else 0)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_upper_triangular_unit_diagonal(self, depth):
        M = zeta_matrix(build_cobweb(depth))
        for i in range(M.dim):
            assert M.entry(i, i) == 1
            for j in range(i):
                assert M.entry(i, j) == 0

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_level_block_structure(self, depth):
        M = zeta_matrix(build_cobweb(depth))
        assert [bytes(M.row(i)) for i in range(M.dim)] == oracle_rows(depth)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_cells_written_in_blocks(self, monkeypatch, depth, block_bytes):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block_bytes)
        M = zeta_matrix(build_cobweb(depth))
        assert [bytes(M.row(i)) for i in range(M.dim)] == oracle_rows(depth)

    def test_depth_sixteen_splits_levels_into_blocks(self):
        M = zeta_matrix(build_cobweb(16))  # a 2583-byte row: 405 rows a block, F(16) = 987
        rows = oracle_rows(16)
        assert M.dim == len(rows) == 2583
        assert all(bytes(M.row(i)) == r for i, r in enumerate(rows))

    def test_refuses_over_cap(self):
        with pytest.raises(MatrixSizeError) as exc:
            zeta_matrix(build_cobweb(19))  # 10945 vertices
        assert (exc.value.predicted, exc.value.limit) == (10945, 10000)
        with pytest.raises(MatrixSizeError) as exc:
            zeta_matrix(build_cobweb(21))
        assert exc.value.predicted == naive.vertex_count(21)

    def test_custom_cap(self, monkeypatch):
        P = build_cobweb(5)
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 11)
        with pytest.raises(MatrixSizeError):
            zeta_matrix(P)
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 12)
        assert zeta_matrix(P).dim == 12

    def test_is_the_shared_guard_error(self, monkeypatch):
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 11)
        with pytest.raises(GuardError) as exc:
            zeta_matrix(build_cobweb(5))
        assert isinstance(exc.value, MatrixSizeError)
        assert (exc.value.predicted, exc.value.limit) == (12, 11)

    def test_message_for_small_numbers(self):
        assert str(MatrixSizeError(10945, 10000)) == (
            "incidence matrix would be 10945x10945; cap is 10000 rows"
        )

    def test_message_past_the_digit_limit(self):
        bits = (10**5000).bit_length()
        err = MatrixSizeError(10**5000, 10**4)
        assert (err.predicted, err.limit) == (10**5000, 10**4)
        assert str(err) == (
            f"incidence matrix would be (a {bits}-bit number)x(a {bits}-bit number); cap is 10000 rows"
        )


BLOCK_SIZES = [1, 7, 64, 100, 1 << 16]


class TestZetaRows:
    """`_zeta_rows` writes both alphabets: the matrix's cells and the export's CSV."""

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize("depth", range(1, 17))
    def test_csv_blocks_are_whole_rows_of_the_oracle(self, monkeypatch, depth, block_bytes):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block_bytes)
        sizes = build_cobweb(depth).level_sizes
        line = 2 * sum(sizes)
        blocks = list(zeta._zeta_csv(sizes))
        assert not naive.difference("".join(blocks), oracle_csv(depth))
        assert all(len(b) % line == 0 and 0 < len(b) <= max(block_bytes, line) for b in blocks)

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "sizes", [tuple(range(1, 9)), tuple(2 ** s - 1 for s in range(1, 7))], ids=["1..8", "2^s-1"]
    )
    def test_any_level_sizes(self, monkeypatch, sizes, block_bytes):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block_bytes)
        dim = sum(sizes)
        cells = zeta._zeta_cells(sizes)
        assert not naive.difference(cells, b"".join(naive.zeta_rows(sizes)))
        assert not naive.difference("".join(zeta._zeta_csv(sizes)), IncidenceMatrix._of_cells(dim, cells).to_csv())


class TestStaircaseCheck:
    @pytest.mark.parametrize("depth", [1, 5, 8])
    def test_true_on_real_matrices(self, depth):
        P = build_cobweb(depth)
        assert staircase_check(zeta_matrix(P), P) is True

    def test_flipped_same_level_entry_fails(self):
        P = build_cobweb(3)
        rows = [bytearray(r) for r in (zeta_matrix(P).row(i) for i in range(4))]
        rows[2][3] = 1  # make (3,0) comparable to (3,1)
        assert staircase_check(IncidenceMatrix(rows), P) is False

    def test_cleared_cross_level_entry_fails(self):
        P = build_cobweb(3)
        rows = [bytearray(r) for r in (zeta_matrix(P).row(i) for i in range(4))]
        rows[0][3] = 0
        assert staircase_check(IncidenceMatrix(rows), P) is False

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            staircase_check(zeta_matrix(build_cobweb(3)), build_cobweb(4))

    @given(st.integers(1, 7), st.data())
    def test_single_flip_fails_exactly_above_the_diagonal(self, depth, data):
        P = build_cobweb(depth)
        i = data.draw(st.integers(0, P.vertex_count - 1))
        j = data.draw(st.integers(0, P.vertex_count - 1))
        assert staircase_check(flipped(P, i, j), P) is (j <= i)


class TestCsv:
    def test_golden_files(self):
        for depth, name in [(1, "zeta_p1.csv"), (3, "zeta_p3.csv"), (5, "zeta_p5.csv")]:
            body = zeta_matrix(build_cobweb(depth)).to_csv()
            assert body.encode() == (GOLDEN / name).read_bytes()

    def test_depth_three_body(self):
        assert zeta_matrix(build_cobweb(3)).to_csv() == "1,1,1,1\n0,1,1,1\n0,0,1,0\n0,0,0,1\n"

    @pytest.mark.parametrize("block_bytes", [1, 7, 64])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_csv_written_in_blocks(self, monkeypatch, depth, block_bytes):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block_bytes)
        assert not naive.difference(zeta_matrix(build_cobweb(depth)).to_csv(), oracle_csv(depth))

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_round_trip(self, depth):
        M = zeta_matrix(build_cobweb(depth))
        assert IncidenceMatrix.from_csv(M.to_csv()) == M

    def test_from_csv_rejects_garbage(self):
        with pytest.raises(ValueError):
            IncidenceMatrix.from_csv("")
        with pytest.raises(ValueError):
            IncidenceMatrix.from_csv("1,0\n0,1")  # missing final newline
        with pytest.raises(ValueError):
            IncidenceMatrix.from_csv("1,2\n0,1\n")
        with pytest.raises(ValueError):
            IncidenceMatrix.from_csv("1,1\n1\n")

    @pytest.mark.parametrize("text", ["1,1\r\n0,1\r\n", "1,1\x0c0,1\n", "1,1\u20280,1\n"])
    def test_from_csv_splits_on_newline_only(self, text):
        with pytest.raises(ValueError, match="bad CSV cell"):
            IncidenceMatrix.from_csv(text)

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_valid_body_equals_the_constructed_matrix(self, depth):
        rows = oracle_rows(depth)
        M = IncidenceMatrix.from_csv(oracle_csv(depth))
        assert M == IncidenceMatrix(rows)
        assert [bytes(M.row(i)) for i in range(M.dim)] == rows

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,\n0,1\n", "bad CSV cell ''; expected '0' or '1'"),  # odd-width first line
            ("1,0,1\n", "matrix must be square; got a row of length 3 in a 1-row matrix"),
            ("\n", "bad CSV cell ''; expected '0' or '1'"),
        ],
    )
    def test_from_csv_names_the_error(self, text, message):
        with pytest.raises(ValueError) as exc:
            IncidenceMatrix.from_csv(text)
        assert str(exc.value) == message
        assert outcome(reference_from_csv, text) == (ValueError, message)

    @given(
        st.integers(1, 7),
        st.sampled_from(["delete", "insert", "replace"]),
        st.sampled_from("01,\n\r2 \u00e9"),
        st.data(),
    )
    def test_one_edit_parses_as_the_reference(self, depth, edit, char, data):
        text = one_edit(zeta_matrix(build_cobweb(depth)).to_csv(), edit, char, data)
        assert outcome(IncidenceMatrix.from_csv, text) == outcome(reference_from_csv, text)

    # At these block sizes the body is read a row or a few rows at a time,
    # so edits land in later blocks and in a short last block.
    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1000])
    @given(
        st.integers(1, 7),
        st.sampled_from(["delete", "insert", "replace"]),
        st.sampled_from("01,\n\r2 \u00e9"),
        st.data(),
    )
    def test_one_edit_in_small_blocks_parses_as_the_reference(self, block_bytes, depth, edit, char, data):
        text = one_edit(zeta_matrix(build_cobweb(depth)).to_csv(), edit, char, data)
        with mock.patch.object(zeta, "_BLOCK_BYTES", block_bytes):
            assert outcome(IncidenceMatrix.from_csv, text) == outcome(reference_from_csv, text)

    @pytest.mark.parametrize("depth, dim", [(16, 2583), (17, 4180)])
    def test_body_is_read_in_blocks(self, depth, dim):
        # Read whole (encoded, split into cells and separators, translated),
        # the body peaked at about 4 * dim**2 bytes.  Depth 17 also checks
        # that the matrix's buffer is sized once: grown write by write, it
        # overshoots dim**2 by up to 12.5%, 1.6 MB there.
        M = zeta_matrix(build_cobweb(depth))
        body = M.to_csv()
        tracemalloc.start()
        try:
            read = IncidenceMatrix.from_csv(body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == M and M.dim == dim
        assert peak < M.dim ** 2 + 8 * zeta._BLOCK_BYTES

    def test_width_is_admitted_before_the_body_is_read(self, monkeypatch):
        class FirstLineOnly(str):
            """A body whose text past the first line cannot be sliced, encoded or split."""

            def __getitem__(self, *args):
                raise AssertionError("the body was read past its first line")

            encode = split = __getitem__

        wide = FirstLineOnly(",".join("1" * 10_001) + "\n" + "0,1\n" * 10_000)
        with pytest.raises(MatrixSizeError) as exc:
            IncidenceMatrix.from_csv(wide)
        assert (exc.value.predicted, exc.value.limit) == (10_001, 10_000)
        # The cap is read at each call, and a later line's bad cell is never reached.
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 2)
        with pytest.raises(MatrixSizeError) as exc:
            IncidenceMatrix.from_csv("1,1,1\n0,1,x\n0,0,1\n")
        assert (exc.value.predicted, exc.value.limit) == (3, 2)
        assert IncidenceMatrix.from_csv("1,1\n0,1\n") == zeta_matrix(build_cobweb(2))


class TestMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IncidenceMatrix([b"\x01\x00"])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            IncidenceMatrix([[2]])

    @given(st.integers(1, 5), st.integers(2, 255), st.data())
    def test_rejects_any_other_byte_anywhere(self, depth, value, data):
        M = zeta_matrix(build_cobweb(depth))
        rows = [bytearray(M.row(r)) for r in range(M.dim)]
        i = data.draw(st.integers(0, M.dim - 1))
        j = data.draw(st.integers(0, M.dim - 1))
        rows[i][j] = value
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            IncidenceMatrix(rows)

    def test_negative_indices_count_from_the_end(self):
        M = zeta_matrix(build_cobweb(3))
        assert M.row(-1) == (0, 0, 0, 1)
        assert M.row(-4) == M.row(0) == (1, 1, 1, 1)
        assert M.entry(-1, -1) == 1
        assert M.entry(0, -1) == 1
        assert M.entry(-2, -1) == 0

    @pytest.mark.parametrize("i, j", [(0, 4), (4, 0), (-5, 0), (0, -5), (1, 9)])
    def test_entry_outside_the_matrix_raises(self, i, j):
        with pytest.raises(IndexError):
            zeta_matrix(build_cobweb(3)).entry(i, j)

    @pytest.mark.parametrize("i", [4, -5])
    def test_row_outside_the_matrix_raises(self, i):
        with pytest.raises(IndexError):
            zeta_matrix(build_cobweb(3)).row(i)

    def test_first_offending_row_names_the_error(self):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            IncidenceMatrix([[2, 0], [1]])
        with pytest.raises(ValueError, match="must be square; got a row of length 1 in a 2-row matrix"):
            IncidenceMatrix([[1, 0], [1]])

    def test_rows_are_immutable_copies(self):
        source = [bytearray([1, 0]), bytearray([0, 1])]
        M = IncidenceMatrix(source)
        source[0][1] = 1
        assert M.row(0) == (1, 0)


class TestReconstruction:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_rebuilds_the_same_poset(self, depth):
        P = build_cobweb(depth)
        assert cobweb_from_matrix(zeta_matrix(P)) == P

    def test_rejects_non_fibonacci_blocks(self):
        with pytest.raises(ValueError):
            cobweb_from_matrix(IncidenceMatrix.from_csv("1,0,0\n0,1,0\n0,0,1\n"))

    def test_rejects_tampered_relation(self):
        rows = [bytearray(zeta_matrix(build_cobweb(3)).row(i)) for i in range(4)]
        rows[1][0] = 1  # breaks antisymmetry with row 0
        with pytest.raises(ValueError):
            cobweb_from_matrix(IncidenceMatrix(rows))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cobweb_from_matrix(IncidenceMatrix(()))

    @given(st.integers(1, 7), st.data())
    def test_single_flip_raises_the_oracle_error(self, depth, data):
        P = build_cobweb(depth)
        i = data.draw(st.integers(0, P.vertex_count - 1))
        j = data.draw(st.integers(0, P.vertex_count - 1))
        M = flipped(P, i, j)
        with pytest.raises(ValueError) as expected:
            oracle_cobweb_from_matrix(M)
        with pytest.raises(ValueError) as got:
            cobweb_from_matrix(M)
        assert str(got.value) == str(expected.value)
