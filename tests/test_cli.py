"""CLI behavior: verb outputs, exit-status contract, golden exports, round-trip."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cobweb import chains, cli, fibcalc, zeta
from cobweb.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, run
from cobweb.poset import build_cobweb
from cobweb.zeta import IncidenceMatrix, cobweb_from_matrix

import naive
from cli_corpus import CORPUS, HELP_VERBS, digest

GOLDEN = Path(__file__).parent / "golden"
CLI_CORPUS = json.loads(CORPUS.read_text())


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestScalarVerbs:
    def test_binom(self, capsys):
        assert run(["binom", "5", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "15\n"

    def test_binom_above_diagonal(self, capsys):
        assert run(["binom", "2", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "0\n"

    def test_fib(self, capsys):
        assert run(["fib", "10"]) == EXIT_OK
        assert capsys.readouterr().out == "55\n"

    def test_fibfact(self, capsys):
        assert run(["fibfact", "10"]) == EXIT_OK
        assert capsys.readouterr().out == "122522400\n"

    def test_falling(self, capsys):
        assert run(["falling", "5", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "15\n"

    def test_large_output_is_plain_decimal(self, capsys):
        assert run(["fib", "300"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.isdigit() and "e" not in out

    def test_row_plain_and_csv(self, capsys):
        assert run(["row", "4"]) == EXIT_OK
        assert capsys.readouterr().out == "1 3 6 3 1\n"
        assert run(["row", "4", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == "1,3,6,3,1\n"

    @pytest.mark.parametrize("fmt, sep", [("plain", " "), ("csv", ",")])
    def test_row_text_is_every_entry_converted(self, capsys, fmt, sep):
        # The verb converts the first half of the base-10 row and mirrors
        # its text; the expected text is the decimal text of every entry.
        for n, texts in enumerate(row_texts()):
            assert run(["row", str(n), "--format", fmt]) == EXIT_OK
            assert not naive.difference(capsys.readouterr().out, sep.join(texts) + "\n")

    @pytest.mark.parametrize("block", [1, 7, 64, 1000, 1 << 16])
    def test_row_is_written_in_blocks(self, monkeypatch, record_stdout, block):
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", block)
        for n, fmt, sep in [(0, "plain", " "), (1, "csv", ","), (40, "plain", " "), (300, "csv", ",")]:
            chunks = record_stdout()
            assert run(["row", str(n), "--format", fmt]) == EXIT_OK
            texts = row_texts()[n]
            assert not naive.difference("".join(chunks), sep.join(texts) + "\n")
            # A block's digits reach the block size at its last entry, and
            # only there; the last block is what is left, and the newline.
            digits = [[len(t) for t in c.strip(sep + "\n").split(sep)] for c in chunks]
            assert all(sum(d) >= block > sum(d[:-1]) for d in digits[:-1])
            assert sum(digits[-1][:-1]) < block and chunks[-1].endswith("\n")

    @pytest.mark.parametrize(
        "argv, attribute, call",
        [
            (["fib", "7"], "fib", (7,)),
            (["fibfact", "7"], "_in_base_ten", ("fib_factorial", 7)),
            (["falling", "7", "3"], "_in_base_ten", ("falling_f_factorial", 7, 3)),
            (["binom", "7", "3"], "_in_base_ten", ("fibonomial", 7, 3)),
        ],
        ids=["fib", "fibfact", "falling", "binom"],
    )
    def test_function_looked_up_when_verb_runs(self, capsys, monkeypatch, argv, attribute, call):
        # A wrapper set on fibcalc after import (as the benchmark tracer does)
        # must be the one the verb calls: `fib` itself, or the base-10 entry
        # that the other value verbs call with their public function's name.
        received = []

        def spy(*args):
            received.append(args)
            return 987654321987654321

        monkeypatch.setattr(fibcalc, attribute, spy)
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == "987654321987654321\n"
        assert received == [call]


@functools.cache
def row_texts() -> list[list[str]]:
    """The decimal text of each entry of rows 0..300 of C_F, from the division-free rows."""
    return [list(map(naive.decimal_text, row)) for row in naive.fibonomial_rows(300)]


def digit_limit() -> int | None:
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return None if get_limit is None else get_limit()


class TestResultsOverDigitLimit:
    """Results of more than 4300 digits print in full and leave the limit as it was."""

    def test_fib_30000(self, capsys):
        before = digit_limit()
        assert run(["fib", "30000"]) == EXIT_OK
        assert digit_limit() == before
        out, err = out_of(capsys)
        assert err == ""
        assert len(out) > 4301
        assert not naive.difference(out, naive.decimal_text(naive.fib(30000)) + "\n")

    def test_row_300(self, capsys):
        before = digit_limit()
        assert run(["row", "300", "--format", "csv"]) == EXIT_OK
        assert digit_limit() == before
        assert not naive.difference(capsys.readouterr().out, ",".join(row_texts()[300]) + "\n")

    def test_without_a_digit_limit(self, capsys, monkeypatch):
        # Pythons before 3.10.7 have no limit and no sys.get_int_max_str_digits.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert run(["binom", "10", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "136136\n"


# Per verb: argvs that parse, and argvs that a verb-specific check rejects
# (a missing argument, a bad value).  The tests add an unknown option, an
# extra positional and help to the first valid argv of each.
PARSE_CORPUS = {
    "fib": ([["5"], ["0"]], [[], ["-1"], ["x"]]),
    "fibfact": ([["7"]], [[], ["1.5"]]),
    "falling": ([["10", "3"]], [["10"], ["10", "-3"]]),
    "binom": ([["10", "5"], ["5", "9"]], [["5"], ["x", "2"]]),
    "row": ([["6"], ["6", "--format", "csv"]], [[], ["6", "--format", "dot"], ["6", "--format"]]),
    "build": ([["4"]], [[], ["0"]]),
    "export": (
        [["3", "--format", "csv"], ["3", "--format", "dot", "--out", "m.dot"]],
        [["3"], ["0", "--format", "csv"], ["3", "--format", "svg"]],
    ),
    "chains": (
        [["4"], ["5", "--from", "2:1", "--unsafe-enumeration-limit", "9"]],
        [[], ["4", "--from", "nonsense"], ["4", "--unsafe-enumeration-limit", "0"]],
    ),
    "verify": ([[], ["--obs", "2", "--max-n", "4", "--format", "structured"]], [["--obs", "9"], ["--max-n"], ["--max-n", "0"]]),
    "bench": ([["6"], ["6", "--unsafe-enumeration-limit", "10"]], [[], ["x"]]),
}
VALID_ARGVS = [[verb, *argv] for verb, (valid, _) in PARSE_CORPUS.items() for argv in valid]
REJECTED_ARGVS = [
    [verb, *argv]
    for verb, (valid, rejected) in PARSE_CORPUS.items()
    for argv in [*rejected, [*valid[0], "--bogus"], [*valid[0], "9"], ["--help"], [*valid[0], "-h"]]
]


def parse_outcome(parser, argv, capsys):
    """The namespace a parse gives, or its exit code and what it printed."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out_of(capsys)


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of every `ArgumentParser` constructed from here on, `run`'s parsers emptied first."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    return built


class TestOneVerbParser:
    """`build_parser(verb)` parses and rejects that verb's argvs as the full parser does."""

    def test_corpus_covers_every_verb(self):
        assert list(PARSE_CORPUS) == HELP_VERBS == list(cli._VERBS)

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_same_namespace(self, capsys, argv):
        narrowed = parse_outcome(cli.build_parser(argv[0]), argv, capsys)
        assert isinstance(narrowed, argparse.Namespace)
        assert narrowed == parse_outcome(cli.build_parser(), argv, capsys)

    @pytest.mark.parametrize("argv", REJECTED_ARGVS, ids=" ".join)
    def test_same_exit_and_messages(self, capsys, argv):
        narrowed = parse_outcome(cli.build_parser(argv[0]), argv, capsys)
        assert not isinstance(narrowed, argparse.Namespace)
        assert narrowed == parse_outcome(cli.build_parser(), argv, capsys)

    @pytest.mark.parametrize(
        "argv, verb",
        [(["fib", "5"], "fib"), (["verify", "--max-n", "2"], "verify"), (["fib", "-1"], "fib"),
         ([], None), (["--help"], None), (["frob"], None), (["-h", "fib"], None)],
    )
    def test_run_builds_each_parser_once(self, capsys, built_parsers, argv, verb):
        verbs = [verb] if verb else list(cli._VERBS)
        run(argv)
        assert built_parsers == ["cobweb", *(f"cobweb {name}" for name in verbs)]
        built_parsers.clear()
        run(argv)
        capsys.readouterr()
        assert built_parsers == []

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser("fib") is not cli.build_parser("fib")
        assert cli.build_parser() is not cli.build_parser()

    def test_full_parser_is_shared_by_help_unknown_verb_and_empty_argv(self, capsys, built_parsers):
        for argv in [[], ["--help"], ["frob"], ["-h", "fib"]] * 2:
            run(argv)
        capsys.readouterr()
        assert built_parsers == ["cobweb", *(f"cobweb {name}" for name in cli._VERBS)]

    def test_run_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cobweb", "binom", "10", "5"])
        assert run() == EXIT_OK
        assert out_of(capsys) == ("136136\n", "")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "3"],
            ["binom", "5"],
            ["binom", "5", "2", "9"],
            ["binom", "5", "2", "--bogus"],
            ["binom", "-1", "2"],
            ["row", "4", "--format", "dot"],
            ["export", "3"],  # --format is required
            ["export", "0", "--format", "csv"],
            ["chains", "4", "--from", "nonsense"],
            ["verify", "--obs", "9"],
            ["bench"],
        ],
    )
    def test_rejected(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["fib", "x"], "cobweb fib: error: argument n: expected a nonnegative integer, got x"),
            (["binom", "5", "2.0"], "cobweb binom: error: argument k: expected a nonnegative integer, got 2.0"),
            (["chains", "4", "--unsafe-enumeration-limit", "1e9"],
             "cobweb chains: error: argument --unsafe-enumeration-limit: expected a positive integer, got 1e9"),
            (["bench", "x"], "cobweb bench: error: argument max_n: expected a positive integer, got x"),
        ],
    )
    def test_non_integer_names_the_integer_expected(self, capsys, argv, line):
        assert run(argv) == EXIT_USAGE
        out, err = out_of(capsys)
        assert out == ""
        assert err.endswith(f"\n{line}\n")

    def test_unknown_verb_is_named(self, capsys):
        # The corpus records this case's exit code and stdout only, since
        # argparse words it differently across Python versions.
        assert run(["frob"]) == EXIT_USAGE
        out, err = out_of(capsys)
        assert out == ""
        assert "invalid choice: 'frob'" in err

    def test_invalid_start_vertex_is_usage_error(self, capsys):
        assert run(["chains", "4", "--from", "3:9"]) == EXIT_USAGE
        assert "invalid" in capsys.readouterr().err


class TestBuild:
    def test_summary(self, capsys):
        assert run(["build", "5"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "depth=5\nlevel_sizes=1,1,2,3,5\nvertices=12\nedges=24\n"
        )

    def test_deep_poset_succeeds_without_warning(self, capsys):
        assert run(["build", "30"]) == EXIT_OK
        out, err = out_of(capsys)
        assert "vertices=2178308\n" in out  # F(32) - 1
        assert err == ""

    def test_past_the_digit_limit(self, capsys):
        # F(3100) has 648 digits, over a limit lowered to 640 for this test
        # on a Python that has one.
        sizes = naive.level_sizes(3100)
        edges = sum(a * b for a, b in zip(sizes, sizes[1:]))
        expected = (
            f"depth=3100\nlevel_sizes={','.join(map(naive.decimal_text, sizes))}\n"
            f"vertices={naive.decimal_text(sum(sizes))}\nedges={naive.decimal_text(edges)}\n"
        )
        before = digit_limit()
        if before is not None:
            sys.set_int_max_str_digits(640)
        try:
            assert run(["build", "3100"]) == EXIT_OK
            assert digit_limit() == (None if before is None else 640)
        finally:
            if before is not None:
                sys.set_int_max_str_digits(before)
        out, err = out_of(capsys)
        assert not naive.difference(out, expected) and err == ""


class TestExport:
    def test_csv_depth_one(self, capsys):
        assert run(["export", "1", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == "1\n"

    def test_csv_depth_three(self, capsys):
        assert run(["export", "3", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == "1,1,1,1\n0,1,1,1\n0,0,1,0\n0,0,0,1\n"

    def test_csv_depth_five_matches_golden(self, tmp_path, capsys):
        target = tmp_path / "p5.csv"
        assert run(["export", "5", "--format", "csv", "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == (GOLDEN / "zeta_p5.csv").read_bytes()

    def test_csv_over_cap_refused(self, capsys):
        assert run(["export", "19", "--format", "csv"]) == EXIT_GUARD
        out, err = out_of(capsys)
        assert out == ""
        assert "10945" in err

    def test_dot_depth_three(self, capsys):
        assert run(["export", "3", "--format", "dot"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "digraph cobweb {\n"
            "  rankdir=BT;\n"
            "  { rank=same; v1_0; }\n"
            "  { rank=same; v2_0; }\n"
            "  { rank=same; v3_0; v3_1; }\n"
            "  v1_0 -> v2_0;\n"
            "  v2_0 -> v3_0;\n"
            "  v2_0 -> v3_1;\n"
            "}\n"
        )

    def test_dot_edge_counts(self, capsys):
        assert run(["export", "2", "--format", "dot"]) == EXIT_OK
        assert capsys.readouterr().out.count("->") == 1
        assert run(["export", "5", "--format", "dot"]) == EXIT_OK
        assert capsys.readouterr().out.count("->") == 24

    def test_dot_depth_six_matches_golden(self, tmp_path, capsys):
        golden = (GOLDEN / "hasse_p6.dot").read_bytes()
        assert run(["export", "6", "--format", "dot"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == golden
        target = tmp_path / "p6.dot"
        assert run(["export", "6", "--format", "dot", "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == golden

    def test_dot_streams_one_chunk_per_level_pair(self):
        chunks = list(cli._hasse_dot(build_cobweb(6)))
        assert len(chunks) == 7  # header and ranks, 5 level pairs, closing brace
        assert [c.count("->") for c in chunks[1:-1]] == [1, 2, 6, 15, 40]
        assert "".join(chunks).encode() == (GOLDEN / "hasse_p6.dot").read_bytes()

    @pytest.mark.parametrize("depth", [6, 11, 15])
    def test_dot_streams_about_one_mib_of_whole_source_vertices_a_chunk(self, depth):
        def source(line):
            return line.split()[0]

        # Chunks are about one block each, zeta._BLOCK_BYTES (1 MiB when this test was named).
        # Every edge on its own line, level pair by level pair: what the edge chunks must join to.
        edges = [line for line in naive.dot_lines(depth) if " -> " in line]
        chunks = list(cli._hasse_dot(build_cobweb(depth)))
        assert not naive.difference("".join(chunks[1:-1]), "".join(edges))
        assert chunks[0].startswith("digraph cobweb {\n") and chunks[-1] == "}\n"
        # A chunk's edges reach a block only at its last source vertex.
        for c in chunks[1:-1]:
            sources = [sum(map(len, lines)) for _, lines in itertools.groupby(c.splitlines(True), key=source)]
            assert c.endswith(";\n") and sum(sources[:-1]) < zeta._BLOCK_BYTES
        # Each level pair's edges are cut by the chunker of every
        # variable-width text, at whole source vertices.
        expected = []
        for _, pair in itertools.groupby(edges, key=lambda line: line.split("_")[0]):  # by the source's level
            expected += zeta._chunks("".join(lines) for _, lines in itertools.groupby(pair, key=source))
        assert chunks[1:-1] == expected
        if depth == 6:
            assert len(chunks) == depth + 1  # the header, one chunk per level pair, the brace
        else:
            assert len(chunks) > depth + 1  # the edges from level 10 to 11 alone take 96 kB

    def test_csv_streams_whole_rows_of_about_one_block_a_chunk(self, record_stdout):
        chunks = record_stdout()
        assert run(["export", "15", "--format", "csv"]) == EXIT_OK
        line = 2 * 1596  # 1596 vertices at depth 15
        rows = zeta._BLOCK_BYTES // line  # 20 rows at 64 KiB
        assert all(len(c) % line == 0 and 0 < len(c) <= zeta._BLOCK_BYTES for c in chunks)
        # Chunks end at level boundaries, so each of the 15 levels may add one short chunk.
        assert len(chunks) <= -(-1596 // rows) + 15
        assert not naive.difference("".join(chunks), naive.zeta_csv(naive.level_sizes(15)))

    @pytest.mark.parametrize("depth", range(1, 17))
    def test_csv_export_builds_no_matrix(self, capsys, monkeypatch, depth):
        expected = naive.zeta_csv(naive.level_sizes(depth))
        monkeypatch.setattr(zeta, "zeta_matrix", refuse_work)
        monkeypatch.setattr(zeta, "_zeta_cells", refuse_work)
        monkeypatch.setattr(IncidenceMatrix, "_of_cells", refuse_work)
        assert run(["export", str(depth), "--format", "csv"]) == EXIT_OK
        out, err = out_of(capsys)
        assert not naive.difference(out, expected) and err == ""

    def test_csv_export_holds_about_one_block(self, monkeypatch):
        # Built as a matrix first, the 13.3 MB export at depth 16 peaked at
        # about 7 MB under tracemalloc; streamed from the level sizes it holds
        # a block or two of text.
        class Discard:
            def writelines(self, chunks):
                for _ in chunks:
                    pass

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert run(["export", "16", "--format", "csv"]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_round_trip_depth_six(self, tmp_path, capsys):
        target = tmp_path / "p6.csv"
        assert run(["export", "6", "--format", "csv", "--out", str(target)]) == EXIT_OK
        capsys.readouterr()
        rebuilt = cobweb_from_matrix(IncidenceMatrix.from_csv(target.read_text()))
        assert rebuilt == build_cobweb(6)

    def test_stdout_reads_back_at_depth_ten(self, capsys):
        # The bytes of the corpus record `export 10 --format csv`.
        assert run(["export", "10", "--format", "csv"]) == EXIT_OK
        rebuilt = cobweb_from_matrix(IncidenceMatrix.from_csv(capsys.readouterr().out))
        assert rebuilt.depth == 10 and rebuilt == build_cobweb(10)


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the guard refused")


class TestGuardRefusals:
    """Every refusing request exits 3 before any work, with nothing on stdout."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        for owner, name in [(chains, "_dfs_count"), (chains, "_walk_text"),
                            (zeta, "_zeta_cells"), (zeta, "_zeta_rows"), (cli, "_hasse_dot")]:
            monkeypatch.setattr(owner, name, refuse_work)

    @pytest.mark.parametrize(
        "argv",
        [
            ["chains", "12", "--from", "3:0"],
            ["chains", "500"],  # predicts an 86,374-bit count, past the digit limit
            ["verify", "--max-n", "10"],
            ["verify", "--max-n", "10", "--format", "structured"],
            ["export", "19", "--format", "csv"],
            ["export", "19", "--format", "dot"],
            ["export", "40", "--format", "dot"],
            ["export", "30000", "--format", "dot"],
        ],
        ids=" ".join,
    )
    def test_refused_before_work(self, capsys, no_work, argv):
        t0 = time.perf_counter()
        assert run(argv) == EXIT_GUARD
        elapsed = time.perf_counter() - t0
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("guard:")
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "depth, dim",
        [(19, "10945"), (40, "267914295"), (30000, "(a 20828-bit number)")],
    )
    def test_export_refuses_before_it_builds_the_poset(self, capsys, monkeypatch, depth, dim):
        monkeypatch.setattr(cli, "build_cobweb", refuse_work)
        for form in ("csv", "dot"):
            assert run(["export", str(depth), "--format", form]) == EXIT_GUARD
            assert out_of(capsys) == ("", f"guard: incidence matrix would be {dim}x{dim}; cap is 10000 rows\n")

    def test_export_admits_the_vertex_count(self):
        # F(1) + ... + F(d) = F(d + 2) - 1, the count export admits before it builds.
        for d in range(1, 301):
            assert naive.vertex_count(d) == naive.fib(d + 2) - 1 == build_cobweb(d).vertex_count

    def test_export_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 12)
        assert run(["export", "5", "--format", "dot"]) == EXIT_OK  # 12 vertices
        out, err = out_of(capsys)
        assert (out.count("->"), err) == (24, "")
        monkeypatch.setattr(cli, "_hasse_dot", refuse_work)
        assert run(["export", "6", "--format", "dot"]) == EXIT_GUARD  # 20 vertices
        assert out_of(capsys) == ("", "guard: incidence matrix would be 20x20; cap is 12 rows\n")


    @pytest.mark.parametrize("cap", [11, 12, 19, 20])
    def test_one_cap_for_the_matrix_and_both_formats(self, capsys, monkeypatch, cap):
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", cap)
        for depth, dim in [(5, 12), (6, 20)]:
            status = EXIT_OK if dim <= cap else EXIT_GUARD
            assert [run(["export", str(depth), "--format", f]) for f in ("csv", "dot")] == [status, status]
            out, err = out_of(capsys)
            if dim <= cap:
                assert zeta.zeta_matrix(build_cobweb(depth)).dim == dim
                assert err == ""
            else:
                with pytest.raises(zeta.MatrixSizeError):
                    zeta.zeta_matrix(build_cobweb(depth))
                assert (out, err) == ("", f"guard: incidence matrix would be {dim}x{dim}; cap is {cap} rows\n" * 2)

    def test_raised_cap_admits_the_matrix_and_both_formats(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 20000)
        monkeypatch.setattr(zeta, "_zeta_rows", admitted)
        monkeypatch.setattr(cli, "_hasse_dot", admitted)
        for argv in (["export", "19", "--format", "csv"], ["export", "19", "--format", "dot"]):
            with pytest.raises(Admitted):
                run(argv)  # 10945 vertices
        with pytest.raises(Admitted):
            zeta.zeta_matrix(build_cobweb(19))

    @pytest.mark.parametrize("limit, last", [(10**6, 8), (10**9, 10)])
    def test_verbs_share_the_walks_boundary(self, capsys, monkeypatch, limit, last):
        # Each verb walks from the root, so the walk to level n predicts n_F!
        # chains.  The chains verb lists nothing here: at 10^9 it would list
        # 122,522,400 chains.
        monkeypatch.setattr(chains, "DEFAULT_ENUMERATION_LIMIT", limit)
        monkeypatch.setattr(chains, "_walk_text", lambda *args: iter(()))
        refusal = (
            f"enumeration would visit {naive.f_factorial(last + 1)} chains, over the limit of {limit}; "
            "use the closed-form counter or raise the limit explicitly\n"
        )
        assert run(["chains", str(last)]) == EXIT_OK
        assert out_of(capsys) == ("", "")
        assert run(["chains", str(last + 1)]) == EXIT_GUARD
        assert out_of(capsys) == ("", "guard: " + refusal)
        assert run(["verify", "--obs", "1", "--max-n", str(last)]) == EXIT_OK
        assert out_of(capsys) == (f"Observation 1: PASS ({last} cases, max_n={last})\nRESULT: PASS\n", "")
        assert run(["verify", "--max-n", str(last + 1)]) == EXIT_GUARD
        assert out_of(capsys) == ("", "guard: " + refusal)
        assert run(["bench", str(last + 1)]) == EXIT_OK
        out, err = out_of(capsys)
        rows = out.splitlines()[1:]
        assert [row.endswith(" match=yes") for row in rows] == [True] * last + [False]
        assert rows[-1].endswith(" enumeration=skipped enumeration_s=- match=-")
        assert err == f"guard: n={last + 1} skipped: " + refusal


class TestChainsVerb:
    def test_from_root(self, capsys):
        assert run(["chains", "3"]) == EXIT_OK
        assert capsys.readouterr().out == "v1_0 v2_0 v3_0\nv1_0 v2_0 v3_1\n"

    def test_from_fixed_vertex(self, capsys):
        assert run(["chains", "4", "--from", "3:1"]) == EXIT_OK
        assert capsys.readouterr().out == "v3_1 v4_0\nv3_1 v4_1\nv3_1 v4_2\n"

    def test_guard_refusal(self, capsys):
        assert run(["chains", "10"]) == EXIT_GUARD
        out, err = out_of(capsys)
        assert out == ""
        assert "122522400" in err

    @pytest.mark.parametrize("start, n", [("1:0", 6), ("4:2", 7), ("5:4", 5), ("6:7", 8)])
    def test_listing_is_product_of_levels(self, capsys, start, n):
        expected = "".join(naive.chain_lines(n, *map(int, start.split(":"))))
        assert run(["chains", str(n), "--from", start]) == EXIT_OK
        assert out_of(capsys) == (expected, "")

    def test_guard_refusal_text(self, capsys):
        predicted = naive.f_product(4, 12)
        assert run(["chains", "12", "--from", "3:1"]) == EXIT_GUARD
        assert out_of(capsys) == ("", (
            f"guard: enumeration would visit {predicted} chains, over the limit of "
            f"{chains.DEFAULT_ENUMERATION_LIMIT}; use the closed-form counter or raise the limit explicitly\n"
        ))

    def test_override_is_loud(self, capsys):
        # The walk to level 4 predicts 6 chains.
        cases = [("2", EXIT_GUARD, 0), ("5", EXIT_GUARD, 0), ("6", EXIT_OK, 6), ("1000", EXIT_OK, 6)]
        for limit, status, listed in cases:
            assert run(["chains", "4", "--unsafe-enumeration-limit", limit]) == status
            out, err = out_of(capsys)
            assert len(out.splitlines()) == listed
            assert err.startswith(f"warning: enumeration guard overridden to {limit} predicted chains\n")


class TestRunsInOneProcess:
    """No run leaks state into the next run in the same process."""

    def test_override_does_not_stick(self, capsys):
        assert run(["chains", "4", "--unsafe-enumeration-limit", "1000"]) == EXIT_OK
        assert "overridden" in out_of(capsys)[1]
        assert run(["chains", "4"]) == EXIT_OK
        out, err = out_of(capsys)
        assert (len(out.splitlines()), err) == (6, "")

    def test_format_does_not_stick(self, capsys):
        row = naive.fibonomial_row(6)
        assert run(["row", "6", "--format", "csv"]) == EXIT_OK
        assert out_of(capsys) == (",".join(map(str, row)) + "\n", "")
        assert run(["row", "6"]) == EXIT_OK
        assert out_of(capsys) == (" ".join(map(str, row)) + "\n", "")

    def test_refusal_after_an_override(self, capsys):
        argv = ["verify", "--obs", "1", "--max-n", "10"]
        assert run([*argv, "--unsafe-enumeration-limit", "122522400"]) == EXIT_OK
        assert "overridden" in out_of(capsys)[1]
        assert run(argv) == EXIT_GUARD
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("guard: ") and "warning" not in err

    def test_start_vertex_does_not_stick(self, capsys):
        assert run(["chains", "9", "--from", "6:2"]) == EXIT_OK
        assert out_of(capsys)[0].startswith("v6_2 ")
        assert run(["chains", "4"]) == EXIT_OK
        out, err = out_of(capsys)
        assert (out.splitlines()[0], len(out.splitlines()), err) == ("v1_0 v2_0 v3_0 v4_0", 6, "")

    def test_out_file_does_not_stick(self, capsys, tmp_path):
        argv = ["export", "3", "--format", "dot"]
        assert run([*argv, "--out", str(tmp_path / "m.dot")]) == EXIT_OK
        assert out_of(capsys) == ("", "")
        assert run(argv) == EXIT_OK
        assert out_of(capsys) == ((tmp_path / "m.dot").read_text(), "")

    @pytest.mark.parametrize("verb", [None, *HELP_VERBS], ids=lambda verb: verb or "cobweb")
    def test_help_width_is_read_when_help_prints(self, capsys, monkeypatch, verb):
        argv = [verb, "--help"] if verb else ["--help"]
        monkeypatch.setenv("COLUMNS", "40")
        assert run(argv) == EXIT_OK
        narrow = out_of(capsys)[0]
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv) == EXIT_OK
        out, err = out_of(capsys)
        want = next(r for r in CLI_CORPUS if r["argv"] == argv)
        assert (digest(argv, [out.encode()]), err) == ((want["stdout_bytes"], want["stdout_sha256"]), "")
        assert digest(argv, [narrow.encode()]) != digest(argv, [out.encode()])

    @pytest.mark.parametrize("argv", [["binom", "5"], ["row", "4", "--format", "dot"], ["frobnicate"], []])
    def test_usage_error_then_valid_verb(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == EXIT_USAGE
        usage = out_of(capsys)
        for _ in range(2):
            assert run(argv) == EXIT_USAGE
            assert out_of(capsys) == usage
            assert run(["binom", "5", "2"]) == EXIT_OK
            assert out_of(capsys) == ("15\n", "")


@pytest.fixture
def wrong_f7(cold_parts):
    """The cached F(7) = 13 set to 14, with the primitive parts and spans emptied; `cold_parts` puts every cache back."""
    fibcalc.fib(400)
    fibcalc._FIB[7] = 14


class TestInexactDivision:
    """A failed integrality check exits 1, the verification-failure status, with one stderr line."""

    # The sweep and row meet their first inexact division in the row
    # recurrence, the one Fibonomial route of observation 3; binom in the
    # direct quotient.  The sweep builds its rows before it writes a case,
    # in either format.  binom and row run it over Decimals: the message
    # names the same bit lengths as the int route's.
    MESSAGES = {
        "verify --max-n 9": (
            "integrality check failed: fibonomial_row(15) at k=7: "
            "non-exact division of a 43-bit numerator by a 4-bit denominator\n"
        ),
        "verify --max-n 9 --format structured": (
            "integrality check failed: fibonomial_row(15) at k=7: "
            "non-exact division of a 43-bit numerator by a 4-bit denominator\n"
        ),
        "binom 15 7": (
            "integrality check failed: fibonomial(15, 7): "
            "non-exact division of a 51-bit numerator by a 12-bit denominator\n"
        ),
        "row 15": (
            "integrality check failed: fibonomial_row(15) at k=7: "
            "non-exact division of a 43-bit numerator by a 4-bit denominator\n"
        ),
    }

    @pytest.mark.parametrize("argv", MESSAGES)
    def test_exits_one_without_a_traceback(self, capsys, monkeypatch, wrong_f7, argv):
        # At a block of one character every chunked line goes out as it is
        # made, so a line written before the failure would show on stdout.
        monkeypatch.setattr(zeta, "_BLOCK_BYTES", 1)
        assert run(argv.split()) == EXIT_VERIFICATION
        assert out_of(capsys) == ("", self.MESSAGES[argv])

    def test_other_assertion_errors_are_not_caught(self, monkeypatch):
        monkeypatch.setattr(fibcalc, "_in_base_ten", refuse_work)
        with pytest.raises(AssertionError, match="work started"):
            run(["binom", "15", "7"])


class TestVerifyVerb:
    def test_structured_all(self, capsys):
        assert run(["verify", "--obs", "all", "--max-n", "5", "--format", "structured"]) == EXIT_OK
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert len(lines) == 134  # 5 + 14 + (10 + 105)
        assert all(naive.REPORT_LINE.match(line) for line in lines)
        assert all(line.endswith("status=pass") for line in lines)
        assert lines[0] == "observation=1 k=1 n=1 formula=1 oracle=1 status=pass"

    def test_plain_summary(self, capsys):
        assert run(["verify", "--max-n", "4"]) == EXIT_OK
        out, _ = out_of(capsys)
        assert "Observation 1: PASS" in out
        assert "Observation 2: PASS" in out
        assert "Observation 3: PASS" in out
        assert out.rstrip().endswith("RESULT: PASS")

    def test_single_observation(self, capsys):
        assert run(["verify", "--obs", "1", "--max-n", "6", "--format", "structured"]) == EXIT_OK
        out, _ = out_of(capsys)
        assert len(out.splitlines()) == 6

    def test_injected_bug_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "count_from_root_formula", lambda n: 7)
        assert run(["verify", "--obs", "1", "--max-n", "4"]) == EXIT_VERIFICATION
        out, _ = out_of(capsys)
        assert "FAIL" in out
        assert "counterexample" in out

    def test_injected_bug_exits_one_in_structured_format(self, capsys, monkeypatch):
        # The structured sweep finds its failures in the cases it writes.
        monkeypatch.setattr(
            chains, "count_layer_chains_formula", lambda k, n: 1 if (k, n) == (3, 5) else naive.f_product(k + 1, n)
        )
        assert run(["verify", "--obs", "all", "--max-n", "5", "--format", "structured"]) == EXIT_VERIFICATION
        out, err = out_of(capsys)
        failed = [line for line in out.splitlines() if not line.endswith("status=pass")]
        assert failed == ["observation=2 k=3 n=5 formula=1 oracle=15 status=fail"] * 2 and err == ""
        assert len(out.splitlines()) == 134

    @pytest.mark.parametrize("argv", [["verify", "--obs", "2", "--max-n", "1"], ["verify", "--max-n", "1"]])
    def test_sweep_of_no_case_is_a_usage_error(self, capsys, argv):
        # Observation 2 needs 1 <= k < n <= max_n, so max_n = 1 has nothing to pass.
        assert run(argv) == EXIT_USAGE
        assert out_of(capsys) == ("", "error: observation 2 needs max_n >= 2, got 1\n")
        assert run([*argv[:-1], "2"]) == EXIT_OK
        assert "Observation 2: PASS (1 cases, max_n=2)\n" in out_of(capsys)[0]

    def test_guard_refusal(self, capsys):
        assert run(["verify", "--obs", "1", "--max-n", "10"]) == EXIT_GUARD
        _, err = out_of(capsys)
        assert "guard" in err

    def test_override_admits_the_sweep(self, capsys):
        assert run(["verify", "--obs", "1", "--max-n", "10", "--unsafe-enumeration-limit", "122522400"]) == EXIT_OK
        out, err = out_of(capsys)
        assert out.endswith("\nRESULT: PASS\n")
        assert err == "warning: enumeration guard overridden to 122522400 predicted chains\n"

    def test_override_one_under_refuses(self, capsys):
        assert run(["verify", "--obs", "1", "--max-n", "10", "--unsafe-enumeration-limit", "122522399"]) == EXIT_GUARD
        assert out_of(capsys) == ("", (
            "warning: enumeration guard overridden to 122522399 predicted chains\n"
            "guard: enumeration would visit 122522400 chains, over the limit of 122522399; "
            "use the closed-form counter or raise the limit explicitly\n"
        ))

    def test_structured_sweep_holds_no_case_list(self, monkeypatch):
        # Held as a case list and then one report text, observation 2's sweep
        # peaked at about 5 MB under tracemalloc to max_n 18, and 13 MB to 20,
        # growing as phi^n.  Streamed to a stdout that discards it, each peaks
        # near 0.3 MB, and the two differ by less than a block.
        class Discard:
            def writelines(self, chunks):
                for _ in chunks:
                    pass

        monkeypatch.setattr(sys, "stdout", Discard())
        peaks = []
        for max_n in (18, 20):
            argv = ["verify", "--obs", "2", "--max-n", str(max_n), "--format", "structured"]
            tracemalloc.start()
            try:
                assert run([*argv, "--unsafe-enumeration-limit", str(10**200)]) == EXIT_OK
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < 1 << 20
        assert abs(peaks[1] - peaks[0]) < zeta._BLOCK_BYTES


class TestBenchVerb:
    def test_small_sweep_matches(self, capsys):
        assert run(["bench", "5"]) == EXIT_OK
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert lines[0].startswith("#")
        data = lines[1:]
        assert len(data) == 5
        assert all("match=yes" in line for line in data)
        assert "formula=30" in data[4]

    def test_guard_skips_but_formula_rows_emitted(self, capsys):
        assert run(["bench", "11"]) == EXIT_OK
        out, err = out_of(capsys)
        data = out.splitlines()[1:]
        assert len(data) == 11
        assert "enumeration=skipped" in data[9] and "enumeration=skipped" in data[10]
        assert "match=yes" in data[8]
        assert err.count("skipped") == 2

    def test_override_admits_level_ten(self, capsys):
        assert run(["bench", "10", "--unsafe-enumeration-limit", "122522400"]) == EXIT_OK
        out, err = out_of(capsys)
        rows = out.splitlines()[1:]
        assert len(rows) == 10
        assert all(row.endswith(" match=yes") for row in rows)
        assert "enumeration=skipped" not in out
        assert err == "warning: enumeration guard overridden to 122522400 predicted chains\n"

    def test_mismatch_aborts_with_one(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "count_from_root_formula", lambda n: 7)
        assert run(["bench", "3"]) == EXIT_VERIFICATION
        out, _ = out_of(capsys)
        assert "match=no" in out
        # The row names the two ints compared, not n_F! from the base-10 route.
        assert out.splitlines()[1].startswith("n=1 formula=7 formula_s=")

    def test_formulas_past_the_digit_limit(self, capsys):
        # 210_F! has more than 4300 digits; the formula column once stopped
        # at n = 205 with a usage error.
        before = digit_limit()
        assert run(["bench", "210"]) == EXIT_OK
        assert digit_limit() == before
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 211
        assert lines[-1].startswith("n=210 formula=")
        formula = lines[-1].split()[1].removeprefix("formula=")
        assert len(formula) > 4300
        assert formula == naive.decimal_text(naive.f_factorial(210))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cobweb.cli", "binom", "10", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "136136\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_pipe_ends_the_process_by_sigpipe():
    # `cobweb chains 9 | head -1`: the reader leaves after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cobweb.cli", "chains", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"v1_0 v2_0 v3_0 v4_0 v5_0 v6_0 v7_0 v8_0 v9_0\n"
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_import_leaves_out_dataclasses_and_inspect():
    # Under -S, so that .pth files in site-packages add no imports of their own.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cobweb.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_decimal_is_imported_when_a_base_ten_verb_runs():
    # Under -S, as above.  `fib` prints from ints; `binom` computes in base 10.
    code = (
        "import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); from cobweb import cli; "
        "seen = ['decimal' in sys.modules]; out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    for argv in (['fib', '9'], ['binom', '9', '4']):\n"
        "        cli.run(argv); seen.append('decimal' in sys.modules)\n"
        "print(seen, out.getvalue().split())"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[False, False, True] ['34', '12376']\n", "")
