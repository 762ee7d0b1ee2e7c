"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces cobweb's public functions at every module that
imported them (`cobweb.chains.fibonomial`, `cobweb.cli.build_cobweb`, ...), so
calls made inside the library are seen as well as the benchmark's own.  Each
call of a traced function becomes a span (name, start, end, parent, busy
time) kept in memory.  The hot per-call methods `CobwebPoset.covers_above`
and `CobwebPoset.leq` are only counted.  `drain()` turns what was recorded
into the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

import cobweb
from cobweb import chains, cli, fibcalc, poset, zeta

_MODULES = (cobweb, fibcalc, poset, zeta, chains, cli)

BUSY = (
    "fibcalc.fibonomial", "fibcalc.fibonomial_row", "fibcalc.fib_factorial",
    "fibcalc.falling_f_factorial", "fibcalc.fib", "poset.build_cobweb",
    "chains.verify_obs1", "chains.verify_obs2", "chains.verify_obs3",
    "chains.enumerate", "chains.iter_chains", "zeta.zeta_matrix",
    "zeta.staircase_check", "zeta.to_csv", "zeta.from_csv",
    "zeta.cobweb_from_matrix", "cli.run",
)
CALLS = ("fibcalc.fibonomial", "poset.build_cobweb", "chains.enumerate", "cli.run")


class Span:
    __slots__ = ("name", "start", "end", "parent", "busy", "children_busy")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.busy = 0.0
        self.children_busy = 0.0


class Tracer:
    """Spans and counters of one process, read out and reset by `drain()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.walks: list[tuple[int, int, int]] = []
        self.fib_max = 0
        self.refuse_s: list[float] = []

    def _reset(self) -> None:
        # In place: the counting wrappers hold a reference to `counts`.
        self.spans.clear()
        self.counts.clear()
        self.walks.clear()
        self.fib_max = 0
        self.refuse_s.clear()

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        return span

    def _charge(self, span: Span, started: float) -> None:
        """Close one busy interval of `span` that began at `started`."""
        now = time.perf_counter()
        span.end = now
        span.busy += now - started
        if span.parent is not None:
            span.parent.children_busy += now - started

    def _spanned(self, name: str | Callable, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap `fn` in a span; `after(span, args, result)` records counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self._charge(span, span.start)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _generator(self, name: str, fn: Callable, per_item: str) -> Callable:
        """Wrap a generator function; only time spent inside it is busy."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open(name)
            while True:
                started = time.perf_counter()
                self.stack.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.stack.pop()
                    self._charge(span, started)
                self.counts[per_item] += 1
                yield item

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- what each traced call records ------------------------------------

    def _fibcalc(self, span: Span, args: tuple, result) -> None:
        if span.name == "fibcalc.fib":
            self.fib_max = max(self.fib_max, args[0])
        # Bits handed out of the layer: calls nested in another fibcalc call
        # are that call's intermediate work.
        if span.parent is None or not span.parent.name.startswith("fibcalc."):
            values = result if isinstance(result, list) else (result,)
            self.counts["fibcalc.result_bits"] += sum(v.bit_length() for v in values)

    def _enumerate(self, span: Span, args: tuple, result: int) -> None:
        P, target = args[0], args[1]
        if isinstance(target, chains.LayerSpec):
            start = target.from_vertex
            self.walks.append((start.level, start.index, target.to_level))
        else:
            self.walks.append((P.root.level, P.root.index, target))
        self.counts["chains.enumerate.chains"] += result

    def _matrix(self, span: Span, args: tuple, result) -> None:
        self.counts["zeta.cells"] += result.dim * result.dim

    def _csv_out(self, span: Span, args: tuple, text: str) -> None:
        self.counts["zeta.csv_bytes"] += len(text)

    def _csv_in(self, span: Span, args: tuple, result) -> None:
        self.counts["zeta.csv_bytes"] += len(args[1])
        self._matrix(span, args, result)

    def _cli_run(self, fn: Callable) -> Callable:
        spanned = self._spanned("cli.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = sys.stdout.tell()
            code = spanned(*args, **kwargs)
            self.counts["cli.stdout_bytes"] += sys.stdout.tell() - before
            self.counts["cli.exit_nonzero"] += code != 0
            return code

        return wrapper

    def _guard_init(self, init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(exc, *args, **kwargs):
            init(exc, *args, **kwargs)
            now = time.perf_counter()
            self.refuse_s.append(now - (self.stack[0].start if self.stack else now))

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every import site of the traced functions with a wrapper.

        The benchmark's ops run stdout into an in-memory buffer, which
        `cli.run`'s wrapper reads the position of.
        """
        def verify_name(observation, *args, **kwargs) -> str:
            return f"chains.verify_obs{observation}"

        spanned = [
            (fibcalc.fib, "fibcalc.fib", self._fibcalc),
            (fibcalc.fib_factorial, "fibcalc.fib_factorial", self._fibcalc),
            (fibcalc.falling_f_factorial, "fibcalc.falling_f_factorial", self._fibcalc),
            (fibcalc.fibonomial, "fibcalc.fibonomial", self._fibcalc),
            (fibcalc.fibonomial_row, "fibcalc.fibonomial_row", self._fibcalc),
            (poset.build_cobweb, "poset.build_cobweb", None),
            (zeta.zeta_matrix, "zeta.zeta_matrix", self._matrix),
            (zeta.staircase_check, "zeta.staircase_check", None),
            (zeta.cobweb_from_matrix, "zeta.cobweb_from_matrix", None),
            (chains.enumerate_from_root, "chains.enumerate", self._enumerate),
            (chains.enumerate_layer_chains, "chains.enumerate", self._enumerate),
            (chains.verify_observation, verify_name, None),
        ]
        for fn, name, after in spanned:
            self._replace(fn, self._spanned(name, fn, after))
        self._replace(chains.iter_chains,
                      self._generator("chains.iter_chains", chains.iter_chains, "chains.iter_chains.chains"))
        self._replace(cli.run, self._cli_run(cli.run))

        cls = poset.CobwebPoset
        cls.covers_above = self._counted("poset.covers_above.calls", cls.covers_above)
        cls.leq = self._counted("poset.leq.calls", cls.leq)

        matrix = zeta.IncidenceMatrix
        matrix.to_csv = self._spanned("zeta.to_csv", matrix.to_csv, self._csv_out)
        from_csv = vars(matrix)["from_csv"].__func__
        matrix.from_csv = classmethod(self._spanned("zeta.from_csv", from_csv, self._csv_in))

        error = chains.EnumerationGuardError
        error.__init__ = self._guard_init(error.__init__)

    @staticmethod
    def _replace(original: Callable, wrapped: Callable) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    # -- readout -------------------------------------------------------------

    def drain(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last drain."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        cli_self = 0.0
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += span.busy
            if span.name == "cli.run":
                cli_self += span.busy - span.children_busy
        counts = self.counts
        n_chains = counts["chains.enumerate.chains"]
        out = {f"{name}.busy_s": busy[name] for name in BUSY}
        out.update({f"{name}.calls": calls[name] for name in CALLS})
        out.update({
            "fibcalc.fib.max_index": self.fib_max,
            "fibcalc.result_bits": counts["fibcalc.result_bits"],
            "poset.covers_above.calls": counts["poset.covers_above.calls"],
            "poset.leq.calls": counts["poset.leq.calls"],
            "chains.enumerate.chains": n_chains,
            "chains.enumerate.ns_per_chain": busy["chains.enumerate"] / n_chains * 1e9 if n_chains else 0.0,
            "chains.enumerate.distinct_ratio": len(set(self.walks)) / len(self.walks) if self.walks else 0.0,
            "chains.iter_chains.chains": counts["chains.iter_chains.chains"],
            "chains.guard.refusals": len(self.refuse_s),
            "chains.guard.refuse_ms_max": max(self.refuse_s, default=0.0) * 1e3,
            "zeta.cells": counts["zeta.cells"],
            "zeta.csv_bytes": counts["zeta.csv_bytes"],
            "cli.self_s": cli_self,
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
            "cli.exit_nonzero": counts["cli.exit_nonzero"],
        })
        self._reset()
        return out
