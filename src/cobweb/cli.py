"""Command-line front end: tables, poset exports, verification sweeps, benchmarks.

Exit status contract: 0 success, 1 verification failure (any counterexample,
benchmark mismatch or failed integrality check), 2 usage error, 3 guard
refusal (any GuardError, raised before work starts).  A closed output
pipe ends the `cobweb` process by SIGPIPE where the platform has it, as it
ends `seq`, with nothing on stderr; `run` itself, called in-process,
reports it as an error with status 2.  All numeric data output is exact
decimal; timings are wall-clock, labeled non-deterministic, and formatted
in fixed point.

`run` builds each parser it needs (one verb's, or the full one) once per
process and reuses it: parsing leaves a parser unchanged, every default is
immutable, and argparse reads the terminal width and the output streams
when it prints, not when it builds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import chains, fibcalc, zeta
from .poset import CobwebPoset, GuardError, Vertex, _node_ids, build_cobweb

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _integer(text: str, least: int, kind: str) -> int:
    """`int(text)` if it is at least `least`; otherwise a usage error naming the `kind` expected."""
    try:
        value = int(text)
        if value >= least:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")


def _nonnegative(text: str) -> int:
    return _integer(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _integer(text, 1, "positive")


def _vertex(text: str) -> Vertex:
    level, sep, index = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LEVEL:INDEX, got {text!r}")
    try:
        return Vertex(int(level), int(index))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LEVEL:INDEX, got {text!r}") from None


def _resolve_limit(args: argparse.Namespace) -> int | None:
    limit = args.unsafe_enumeration_limit
    if limit is not None:
        print(f"warning: enumeration guard overridden to {limit} predicted chains", file=sys.stderr)
    return limit


def _hasse_dot(P: CobwebPoset) -> Iterator[str]:
    """DOT digraph of the Hasse diagram: nodes v{level}_{index}, edges low -> high.

    Yields the header with the rank groups, then the edges of each pair of
    consecutive levels in chunks of whole source vertices, cut by
    `zeta._chunks`, then the closing brace, so the whole diagram is never
    held as one string.
    """
    ids = [_node_ids(s, 0, size, " ").split(" ") for s, size in enumerate(P.level_sizes, 1)]
    yield "digraph cobweb {\n  rankdir=BT;\n" + "".join(
        f"  {{ rank=same; {'; '.join(level)}; }}\n" for level in ids
    )
    for low, high in zip(ids, ids[1:]):
        yield from zeta._chunks(f"  {x} -> " + f";\n  {x} -> ".join(high) + ";\n" for x in low)
    yield "}\n"


def _cmd_value(args: argparse.Namespace) -> int:
    # Looked up on fibcalc by name when the verb runs, so a wrapper set on
    # that module attribute is the one called.  `fib` stays on int and str:
    # below an index of about 50,000 its fast doubling is faster on ints.
    values = [getattr(args, name) for name in args.arg_names]
    if args.function == "fib":
        print(fibcalc.fib(*values))
    else:
        print(fibcalc._in_base_ten(args.function, *values))
    return EXIT_OK


def _cmd_row(args: argparse.Namespace) -> int:
    # The row is palindromic: its first half goes to text, and the text is
    # mirrored, so no entry is converted twice.
    n = args.n
    half = [str(entry) for entry in fibcalc._in_base_ten("fibonomial_row", n)[: n // 2 + 1]]
    texts = itertools.chain(half, reversed(half[: (n + 1) // 2]))
    sys.stdout.writelines(zeta._chunks(texts, "," if args.format == "csv" else " ", "\n"))
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    P = build_cobweb(args.depth)
    sizes = P.level_sizes
    print(f"depth={P.depth}")
    print("level_sizes=" + ",".join(map(str, sizes)))
    print(f"vertices={P.vertex_count}")
    print(f"edges={sum(a * b for a, b in zip(sizes, sizes[1:]))}")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    # One admission for both formats, before the poset is built: its
    # F(1) + ... + F(depth) = F(depth + 2) - 1 vertices meet the matrix cap,
    # and a DOT edge list grows like the matrix.
    zeta._admit(fibcalc.fib(args.depth + 2) - 1)
    P = build_cobweb(args.depth)
    chunks = zeta._zeta_csv(P.level_sizes) if args.format == "csv" else _hasse_dot(P)
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        with args.out.open("w") as f:
            f.writelines(chunks)
    return EXIT_OK


def _cmd_chains(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    P = build_cobweb(args.n)
    sys.stdout.writelines(chains._chain_text(P, args.from_vertex, args.n, limit))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    observations = [1, 2, 3] if args.obs == "all" else [int(args.obs)]
    # Each stream validates and admits its sweep, and builds observation 3's
    # rows, when it is made, so a refusal or a failed integrality check comes
    # before any output.  Then the cases go to text as they are made: plain
    # output keeps a count and the counterexamples, structured output none.
    streams = [(o, chains._cases(o, args.max_n, limit)) for o in observations]
    if args.format == "structured":
        failed = False

        def checked(cases: Iterator[chains.VerificationCase]) -> Iterator[chains.VerificationCase]:
            nonlocal failed
            for c in cases:
                failed = failed or not c.passed
                yield c

        lines = itertools.chain.from_iterable(chains._case_lines(o, checked(cases)) for o, cases in streams)
        sys.stdout.writelines(zeta._chunks(lines))
        return EXIT_VERIFICATION if failed else EXIT_OK
    failures = 0
    for o, cases in streams:
        total, counterexamples = 0, []
        for total, c in enumerate(cases, 1):
            if not c.passed:
                counterexamples.append(c)
        failures += len(counterexamples)
        print(f"Observation {o}: {'FAIL' if counterexamples else 'PASS'} ({total} cases, max_n={args.max_n})")
        for c in counterexamples:
            where = f" start={c.start.node_id()}" if c.start is not None else ""
            print(f"  counterexample: k={c.k} n={c.n}{where} formula={c.formula} oracle={c.oracle}")
    print(f"RESULT: {'FAIL' if failures else 'PASS'}")
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    P = build_cobweb(args.max_n)
    print("# wall-clock timings below are non-deterministic; counts are exact")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        formula = chains.count_from_root_formula(n)
        formula_s = time.perf_counter() - t0
        # The count is n_F!; its text comes from fibcalc's base-10 route,
        # in linear time.  A mismatch prints the two ints compared.
        text = fibcalc._in_base_ten("fib_factorial", n)
        try:
            t0 = time.perf_counter()
            enumerated = chains.enumerate_from_root(P, n, limit)
            enum_s = time.perf_counter() - t0
        except chains.EnumerationGuardError as exc:
            print(f"guard: n={n} skipped: {exc}", file=sys.stderr)
            print(f"n={n} formula={text} formula_s={formula_s:.6f} enumeration=skipped enumeration_s=- match=-")
            continue
        if enumerated != formula:
            print(
                f"n={n} formula={formula} formula_s={formula_s:.6f} "
                f"enumeration={enumerated} enumeration_s={enum_s:.6f} match=no"
            )
            return EXIT_VERIFICATION
        print(f"n={n} formula={text} formula_s={formula_s:.6f} enumeration={text} enumeration_s={enum_s:.6f} match=yes")
    return EXIT_OK


def _value_args(function: str, *arg_names: str) -> Callable[[argparse.ArgumentParser], None]:
    """Declare a verb that prints fibcalc.<function> of its nonnegative arguments."""

    def declare(p: argparse.ArgumentParser) -> None:
        for name in arg_names:
            p.add_argument(name, type=_nonnegative)
        p.set_defaults(handler=_cmd_value, function=function, arg_names=arg_names)

    return declare


def _row_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=_nonnegative)
    p.add_argument("--format", choices=["plain", "csv"], default="plain")
    p.set_defaults(handler=_cmd_row)


def _build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("depth", type=_positive)
    p.set_defaults(handler=_cmd_build)


def _export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("depth", type=_positive)
    p.add_argument("--format", choices=["csv", "dot"], required=True)
    p.add_argument("--out", type=Path, default=None, help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_export)


def _chains_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=_positive, help="target level")
    p.add_argument("--from", dest="from_vertex", type=_vertex, default=Vertex(1, 0),
                   metavar="LEVEL:INDEX", help="fixed start vertex (default 1:0, the root)")
    p.add_argument("--unsafe-enumeration-limit", type=_positive, default=None)
    p.set_defaults(handler=_cmd_chains)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", choices=["1", "2", "3", "all"], default="all")
    p.add_argument("--max-n", type=_positive, default=7)
    p.add_argument("--format", choices=["plain", "structured"], default="plain")
    p.add_argument("--unsafe-enumeration-limit", type=_positive, default=None)
    p.set_defaults(handler=_cmd_verify)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("max_n", type=_positive)
    p.add_argument("--unsafe-enumeration-limit", type=_positive, default=None)
    p.set_defaults(handler=_cmd_bench)


# Every verb, in help order: its summary, and what declares its arguments
# and handler on its sub-parser.
_VERBS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "fib": ("print the n-th Fibonacci number", _value_args("fib", "n")),
    "fibfact": ("print the n-th F-factorial", _value_args("fib_factorial", "n")),
    "falling": ("print the falling F-factorial with k factors", _value_args("falling_f_factorial", "n", "k")),
    "binom": ("print the Fibonomial coefficient", _value_args("fibonomial", "n", "k")),
    "row": ("print one row of the Fibonomial triangle", _row_args),
    "build": ("print the shape of the cobweb poset at a depth", _build_args),
    "export": ("export the incidence matrix (csv) or Hasse diagram (dot)", _export_args),
    "chains": ("list maximal chains up to level n, one per line", _chains_args),
    "verify": ("sweep the counting observations, formula vs oracle", _verify_args),
    "bench": ("time formula counting against DFS enumeration", _bench_args),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a verb, it holds that verb's sub-parser alone.

    A one-verb parser parses that verb's argv, and reports its errors, as
    the full parser does; only the full parser lists the verbs.
    """
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact Fibonomial tables and cobweb-poset chain counting, formula vs enumeration.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="<verb>")
    for name in _VERBS if verb is None else [verb]:
        summary, declare = _VERBS[name]
        declare(sub.add_parser(name, help=summary))
    return parser


@functools.cache
def _parser(verb: str | None) -> argparse.ArgumentParser:
    """`build_parser(verb)`, built at the first call per verb and then reused."""
    return build_parser(verb)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute one verb; returns the exit status.

    Only the named verb's parser is used; help, an unknown verb and an
    empty argv get the full parser.  Each is built once per process and
    reused by later runs; parsing leaves it unchanged.  Handlers print
    their numbers with `str`.  `binom`, `falling`, `fibfact`, `row` and
    `bench`'s formula column print Decimals from fibcalc's base-10 routes,
    whose text is linear and has no digit limit.  The other numbers are
    ints: CPython 3.10.7 and later refuse int -> str past a digit limit
    (4300 by default).  Argv is parsed under that limit; it is lifted only
    while the verb's handler runs, so every exact number it prints comes
    out whole, and then put back.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    previous = None if get_limit is None else get_limit()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except fibcalc._InexactDivision as exc:
        print(f"integrality check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def main() -> None:
    # A closed output pipe (`cobweb chains 9 | head -1`) ends the process by
    # SIGPIPE, as it ends `seq` or `cat`.  Imported here, so that importing
    # the module does not pay for `signal`'s enum set-up.
    import signal

    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
