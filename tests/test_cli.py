"""CLI behavior: verb outputs, exit-status contract, golden exports, round-trip."""

from __future__ import annotations

import argparse
import itertools
import math
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cobweb import chains, cli, fibcalc, zeta
from cobweb.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, run
from cobweb.poset import build_cobweb
from cobweb.zeta import IncidenceMatrix, cobweb_from_matrix

GOLDEN = Path(__file__).parent / "golden"

REPORT_LINE = re.compile(
    r"^observation=[123] k=\d+ n=\d+ formula=\d+ oracle=\d+ status=(pass|fail)$"
)


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

    @pytest.mark.parametrize(
        "argv, function",
        [
            (["fib", "7"], "fib"),
            (["fibfact", "7"], "fib_factorial"),
            (["falling", "7", "3"], "falling_f_factorial"),
            (["binom", "7", "3"], "fibonomial"),
        ],
        ids=["fib", "fibfact", "falling", "binom"],
    )
    def test_function_looked_up_when_verb_runs(self, capsys, monkeypatch, argv, function):
        # A wrapper set on fibcalc after import (as the benchmark tracer does)
        # must be the one the verb calls.
        received = []

        def spy(*args):
            received.append(args)
            return 987654321987654321

        monkeypatch.setattr(fibcalc, function, spy)
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == "987654321987654321\n"
        assert received == [tuple(int(a) for a in argv[1:])]


def digit_limit() -> int | None:
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return None if get_limit is None else get_limit()


def exact_text(values: list[int], sep: str = " ") -> str:
    """Decimal text of values, with the int/str digit limit lifted meanwhile."""
    previous = digit_limit()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return sep.join(map(str, values)) + "\n"
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


class TestResultsOverDigitLimit:
    """Results of more than 4300 digits print in full and leave the limit as it was."""

    def test_fib_30000(self, capsys):
        a, b = 0, 1
        for _ in range(30000):
            a, b = b, a + b
        before = digit_limit()
        assert run(["fib", "30000"]) == EXIT_OK
        assert digit_limit() == before
        out, err = out_of(capsys)
        assert err == ""
        assert len(out) > 4301
        assert out == exact_text([a])

    def test_row_300(self, capsys):
        before = digit_limit()
        assert run(["row", "300", "--format", "csv"]) == EXIT_OK
        assert digit_limit() == before
        assert capsys.readouterr().out == exact_text(fibcalc.fibonomial_row(300), ",")

    def test_without_a_digit_limit(self, capsys, monkeypatch):
        # Pythons before 3.10.7 have no limit and no sys.get_int_max_str_digits.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert run(["binom", "10", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "136136\n"


HELP_VERBS = ["fib", "fibfact", "falling", "binom", "row", "build", "export", "chains", "verify", "bench"]


@pytest.mark.parametrize("verb", [None, *HELP_VERBS], ids=lambda verb: verb or "cobweb")
def test_help_matches_golden(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [verb] if verb else []
    assert run([*argv, "--help"]) == EXIT_OK
    out, err = out_of(capsys)
    assert err == ""
    assert out.encode() == (GOLDEN / "help" / f"{verb or 'cobweb'}.txt").read_bytes()


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
    def test_run_builds_the_named_verb_only(self, capsys, monkeypatch, argv, verb):
        asked, build_parser = [], cli.build_parser

        def build(name=None):
            asked.append(name)
            return build_parser(name)

        monkeypatch.setattr(cli, "build_parser", build)
        run(argv)
        capsys.readouterr()
        assert asked == [verb]

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
        # F(3100) has 648 digits, over a limit lowered to 640 for this test.
        sizes = [fibcalc.fib(s) for s in range(1, 3101)]
        expected = (
            "depth=3100\nlevel_sizes=" + exact_text(sizes, ",")
            + "vertices=" + exact_text([sum(sizes)])
            + "edges=" + exact_text([sum(a * b for a, b in zip(sizes, sizes[1:]))])
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
        assert out_of(capsys) == (expected, "")


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

    def test_round_trip_depth_six(self, tmp_path, capsys):
        target = tmp_path / "p6.csv"
        assert run(["export", "6", "--format", "csv", "--out", str(target)]) == EXIT_OK
        capsys.readouterr()
        rebuilt = cobweb_from_matrix(IncidenceMatrix.from_csv(target.read_text()))
        assert rebuilt == build_cobweb(6)


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the guard refused")


class TestGuardRefusals:
    """Every refusing request exits 3 before any work, with nothing on stdout."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        for owner, name in [(chains, "_dfs_count"), (chains, "_walk_chains"),
                            (zeta, "_row_templates"), (cli, "_hasse_dot")]:
            monkeypatch.setattr(owner, name, refuse_work)

    @pytest.mark.parametrize(
        "argv",
        [
            ["chains", "12", "--from", "3:0"],
            ["chains", "500"],  # predicts an 86,374-bit count, past the digit limit
            ["verify", "--max-n", "10"],
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

    def test_export_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(zeta, "DEFAULT_DIM_CAP", 12)
        assert run(["export", "5", "--format", "dot"]) == EXIT_OK  # 12 vertices
        out, err = out_of(capsys)
        assert (out.count("->"), err) == (24, "")
        monkeypatch.setattr(cli, "_hasse_dot", refuse_work)
        assert run(["export", "6", "--format", "dot"]) == EXIT_GUARD  # 20 vertices
        assert out_of(capsys) == ("", "guard: incidence matrix would be 20x20; cap is 12 rows\n")


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
        level, index = map(int, start.split(":"))
        names = [[f"v{s}_{i}" for i in range(fibcalc.fib(s))] for s in range(level + 1, n + 1)]
        expected = "".join(
            " ".join((f"v{level}_{index}", *rest)) + "\n" for rest in itertools.product(*names)
        )
        assert run(["chains", str(n), "--from", start]) == EXIT_OK
        assert out_of(capsys) == (expected, "")

    def test_guard_refusal_text(self, capsys):
        predicted = math.prod(fibcalc.fib(s) for s in range(4, 13))
        assert run(["chains", "12", "--from", "3:1"]) == EXIT_GUARD
        assert out_of(capsys) == ("", (
            f"guard: enumeration would visit {predicted} chains, over the limit of "
            f"{chains.DEFAULT_ENUMERATION_LIMIT}; use the closed-form counter or raise the limit explicitly\n"
        ))

    def test_override_is_loud(self, capsys):
        assert run(["chains", "4", "--unsafe-enumeration-limit", "2"]) == EXIT_GUARD
        _, err = out_of(capsys)
        assert "overridden" in err
        assert run(["chains", "4", "--unsafe-enumeration-limit", "1000"]) == EXIT_OK
        out, err = out_of(capsys)
        assert len(out.splitlines()) == 6
        assert "overridden" in err


class TestRunsInOneProcess:
    """No run leaks state into the next run in the same process."""

    def test_override_does_not_stick(self, capsys):
        assert run(["chains", "4", "--unsafe-enumeration-limit", "1000"]) == EXIT_OK
        assert "overridden" in out_of(capsys)[1]
        assert run(["chains", "4"]) == EXIT_OK
        out, err = out_of(capsys)
        assert (len(out.splitlines()), err) == (6, "")

    def test_format_does_not_stick(self, capsys):
        row = fibcalc.fibonomial_row(6)
        assert run(["row", "6", "--format", "csv"]) == EXIT_OK
        assert out_of(capsys) == (",".join(map(str, row)) + "\n", "")
        assert run(["row", "6"]) == EXIT_OK
        assert out_of(capsys) == (" ".join(map(str, row)) + "\n", "")

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


class TestVerifyVerb:
    def test_structured_all(self, capsys):
        assert run(["verify", "--obs", "all", "--max-n", "5", "--format", "structured"]) == EXIT_OK
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert len(lines) == 134  # 5 + 14 + (10 + 105)
        assert all(REPORT_LINE.match(line) for line in lines)
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

    def test_guard_refusal(self, capsys):
        assert run(["verify", "--obs", "1", "--max-n", "10"]) == EXIT_GUARD
        _, err = out_of(capsys)
        assert "guard" in err


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

    def test_mismatch_aborts_with_one(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "count_from_root_formula", lambda n: 7)
        assert run(["bench", "3"]) == EXIT_VERIFICATION
        out, _ = out_of(capsys)
        assert "match=no" in out


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
