"""Command-line front end: tables, poset exports, verification sweeps, benchmarks.

Exit status contract: 0 success, 1 verification failure (any counterexample
or benchmark mismatch), 2 usage error, 3 guard refusal (any GuardError, raised
before work starts).  A closed output pipe ends the `cobweb` process by
SIGPIPE where the platform has it, as it ends `seq`, with nothing on stderr;
`run` itself, called in-process, reports it as an error with status 2.  All
numeric data output is exact decimal; timings are wall-clock, labeled
non-deterministic, and formatted in fixed point.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import chains, fibcalc, zeta
from .poset import CobwebPoset, GuardError, Vertex, build_cobweb

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _vertex(text: str) -> Vertex:
    level, sep, index = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LEVEL:INDEX, got {text!r}")
    try:
        return Vertex(int(level), int(index))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LEVEL:INDEX, got {text!r}") from None


def _resolve_limit(args: argparse.Namespace) -> int:
    limit = args.unsafe_enumeration_limit
    if limit is None:
        return chains.DEFAULT_ENUMERATION_LIMIT
    print(f"warning: enumeration guard overridden to {limit} predicted chains", file=sys.stderr)
    return limit


def _hasse_dot(P: CobwebPoset) -> Iterator[str]:
    """DOT digraph of the Hasse diagram: nodes v{level}_{index}, edges low -> high.

    Yields the header with the rank groups, then one chunk per pair of
    consecutive levels, then the closing brace, so the whole diagram is
    never held as one string.
    """
    ids = [[v.node_id() for v in P.level_vertices(s)] for s in range(1, P.depth + 1)]
    yield "digraph cobweb {\n  rankdir=BT;\n" + "".join(
        f"  {{ rank=same; {'; '.join(level)}; }}\n" for level in ids
    )
    for low, high in zip(ids, ids[1:]):
        yield "".join(f"  {x} -> " + f";\n  {x} -> ".join(high) + ";\n" for x in low)
    yield "}\n"


def _print_ints(values: Sequence[int], sep: str = " ", prefix: str = "") -> None:
    """Print exact decimals on one line after `prefix`, whatever their number of digits.

    CPython 3.10.7 and later refuse int -> str past a digit limit (4300
    by default).  The limit is lifted for this conversion only and then put
    back, so the rest of the process keeps its protection.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        text = sep.join(map(str, values))
    else:
        previous = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            text = sep.join(map(str, values))
        finally:
            sys.set_int_max_str_digits(previous)
    print(prefix + text)


def _cmd_value(args: argparse.Namespace) -> int:
    # Looked up on fibcalc by name when the verb runs, so a wrapper set on
    # that module attribute is the one called.
    function = getattr(fibcalc, args.function)
    _print_ints([function(*(getattr(args, name) for name in args.arg_names))])
    return EXIT_OK


def _cmd_row(args: argparse.Namespace) -> int:
    _print_ints(fibcalc.fibonomial_row(args.n), "," if args.format == "csv" else " ")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    P = build_cobweb(args.depth)
    sizes = P.level_sizes
    print(f"depth={P.depth}")
    _print_ints(sizes, ",", "level_sizes=")
    _print_ints([P.vertex_count], prefix="vertices=")
    _print_ints([sum(a * b for a, b in zip(sizes, sizes[1:]))], prefix="edges=")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    # One admission for both formats: a DOT edge list grows like the matrix.
    P = build_cobweb(args.depth)
    if P.vertex_count > zeta.DEFAULT_DIM_CAP:
        raise zeta.MatrixSizeError(P.vertex_count, zeta.DEFAULT_DIM_CAP)
    if args.format == "csv":
        chunks: Iterable[str] = [zeta.zeta_matrix(P).to_csv()]
    else:
        chunks = _hasse_dot(P)
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        with args.out.open("w") as f:
            f.writelines(chunks)
    return EXIT_OK


class _NodeIds(dict):
    """Vertex -> node id, each id worked out on first use and then looked up."""

    def __missing__(self, v: Vertex) -> str:
        self[v] = name = v.node_id()
        return name


def _cmd_chains(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    P = build_cobweb(args.n)
    blocks = chains.iter_chain_blocks(P, args.from_vertex, args.n, limit)
    ids = _NodeIds()
    write = sys.stdout.write
    # One write per block: its chains share the prefix, so its text is the
    # prefix's ids once per top, joined in one pass.
    for prefix, tops in blocks:
        head = "".join(ids[v] + " " for v in prefix)
        write(head + ("\n" + head).join(map(ids.__getitem__, tops)) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    observations = [1, 2, 3] if args.obs == "all" else [int(args.obs)]
    reports = [chains.verify_observation(o, args.max_n, limit) for o in observations]
    if args.format == "structured":
        for report in reports:
            sys.stdout.write(report.to_text())
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"Observation {report.observation}: {status} ({len(report.cases)} cases, max_n={report.max_n})")
            for c in report.counterexamples:
                where = f" start={c.start.node_id()}" if c.start is not None else ""
                print(f"  counterexample: k={c.k} n={c.n}{where} formula={c.formula} oracle={c.oracle}")
        print(f"RESULT: {'PASS' if all(r.passed for r in reports) else 'FAIL'}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


def _cmd_bench(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    P = build_cobweb(args.max_n)
    print("# wall-clock timings below are non-deterministic; counts are exact")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        formula = chains.count_from_root_formula(n)
        formula_s = time.perf_counter() - t0
        try:
            t0 = time.perf_counter()
            enumerated = chains.enumerate_from_root(P, n, limit)
            enum_s = time.perf_counter() - t0
        except chains.EnumerationGuardError as exc:
            print(f"guard: n={n} skipped: {exc}", file=sys.stderr)
            print(f"n={n} formula={formula} formula_s={formula_s:.6f} enumeration=skipped enumeration_s=- match=-")
            continue
        match = "yes" if enumerated == formula else "no"
        print(
            f"n={n} formula={formula} formula_s={formula_s:.6f} "
            f"enumeration={enumerated} enumeration_s={enum_s:.6f} match={match}"
        )
        if enumerated != formula:
            return EXIT_VERIFICATION
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


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute one verb; returns the exit status.

    Only the named verb's sub-parser is built; help, an unknown verb and an
    empty argv get the full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


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
