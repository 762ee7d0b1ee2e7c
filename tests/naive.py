"""The reference values of the tests, from the standard library alone.

Every expected value that a test compares with a `cobweb` result comes from
here, or is written out in the test.  This module imports no code of
`cobweb` (`tests/test_package.py` scans its imports), so a wrong value in
`cobweb` never reaches the expected side of a comparison.  Each reference
is the plainest definition: Fibonacci numbers by F(s) = F(s - 1) + F(s - 2),
products and exact quotients of them, and the cobweb poset's levels, zeta
rows and CLI text rendered from those.

Level s of the cobweb poset holds F(s) vertices v{s}_0 .. v{s}_{F(s)-1},
and every vertex of a level lies below every vertex of the levels above it.
"""

from __future__ import annotations

import itertools
import math
import re

# Fibonacci values, their products and quotients.


def fibonacci_stream():
    """F(0), F(1), F(2), ... by the plain recurrence, two terms held at a time."""
    a, b = 0, 1
    while True:
        yield a
        a, b = b, a + b


def fibonacci(top: int) -> list[int]:
    """F(0..top)."""
    return list(itertools.islice(fibonacci_stream(), top + 1))


def fib(n: int) -> int:
    """F(n)."""
    return next(itertools.islice(fibonacci_stream(), n, None))


def f_product(lo: int, hi: int) -> int:
    """F(lo) * ... * F(hi); 1 when lo > hi."""
    return math.prod(fibonacci(hi)[lo:hi + 1])


def f_factorial(n: int) -> int:
    """n_F! = F(1) * ... * F(n)."""
    return f_product(1, n)


def fibonomial(n: int, k: int) -> int:
    """C_F(n, k) = n_F! / (k_F! (n - k)_F!), the division checked exact; 0 when k > n."""
    if k > n:
        return 0
    fibs = fibonacci(n)
    quotient, remainder = divmod(math.prod(fibs[1:]), math.prod(fibs[1:k + 1]) * math.prod(fibs[1:n - k + 1]))
    assert remainder == 0, f"ratio form not integral at n={n}, k={k}"
    return quotient


def fibonomial_rows(top: int):
    """Rows 0..top of C_F, by C_F(m, k) = F(k - 1) C_F(m - 1, k) + F(m - k + 1) C_F(m - 1, k - 1): no division."""
    fibs = fibonacci(top + 1)
    row = [1]
    yield row
    for m in range(1, top + 1):
        row = [1] + [fibs[k - 1] * row[k] + fibs[m - k + 1] * row[k - 1] for k in range(1, m)] + [1]
        yield row


def fibonomial_row(n: int) -> list[int]:
    """Row n of C_F, by the division-free recurrence."""
    for row in fibonomial_rows(n):
        pass
    return row


def primitive_parts(top: int) -> dict[int, int]:
    """{d: P_d} for d in 1..top, from F(d) = the product of P_e over the divisors e of d.

    P_d is F(d) divided, exactly, by the P_e of d's proper divisors.
    """
    fibs = fibonacci(top)
    below = [1] * (top + 1)  # below[m]: the product of the P_e found so far with e | m, e < m
    parts = {}
    for d in range(1, top + 1):
        parts[d], remainder = divmod(fibs[d], below[d])
        assert remainder == 0, f"F({d}) is not a multiple of its proper divisors' parts"
        for m in range(2 * d, top + 1, d):
            below[m] *= parts[d]
    return parts


_PIECE = 10**600  # under 640 digits, the lowest int -> str limit a Python accepts


def decimal_text(n: int) -> str:
    """The decimal digits of n >= 0, converted 600 digits at a time, so no int -> str limit applies."""
    pieces = []
    while n >= _PIECE:
        n, piece = divmod(n, _PIECE)
        pieces.append(f"{piece:0600d}")
    return str(n) + "".join(reversed(pieces))


def difference(got, want) -> str | None:
    """None when two texts (or bytes) are equal; otherwise a short note of where they first differ.

    Compare long texts as `assert not difference(got, want)`: a failed `==`
    of two long texts has pytest run difflib over both, for minutes on a
    megabyte.  The note names the first differing offset, the two lengths
    and about 40 characters of each side from there.
    """
    if got == want:
        return None
    step = 1 << 12
    at = next(i for i in range(0, max(len(got), len(want)) + 1, step) if got[i:i + step] != want[i:i + step])
    at += next(i for i in range(step) if got[at + i:at + i + 1] != want[at + i:at + i + 1])
    sides = f"{got[at:at + 40]!r} != {want[at:at + 40]!r}"
    return f"first difference at offset {at}, lengths {len(got)} and {len(want)}: {sides}"


# The cobweb poset and its zeta matrix.


def level_sizes(depth: int) -> list[int]:
    """F(1..depth), the sizes of levels 1..depth."""
    return fibonacci(depth)[1:]


def vertex_count(depth: int) -> int:
    """F(1) + ... + F(depth)."""
    return sum(itertools.islice(fibonacci_stream(), 1, depth + 1))


def level_ids(depth: int, lo: int = 1) -> list[list[str]]:
    """The node ids of levels lo..depth."""
    return [[f"v{s}_{i}" for i in range(size)] for s, size in enumerate(level_sizes(depth)[lo - 1:], lo)]


def zeta_rows(sizes):
    """Each zeta row, as bytes, of the poset with these level sizes: 1 at i and on every level above i's."""
    dim, end = sum(sizes), 0
    for size in sizes:
        end += size
        for i in range(end - size, end):
            yield bytes(i) + b"\x01" + bytes(end - i - 1) + b"\x01" * (dim - end)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def zeta_csv(sizes) -> str:
    """The zeta rows as CSV text, one line of "0"s and "1"s a row."""
    return "".join(",".join(row.translate(_DIGITS).decode()) + "\n" for row in zeta_rows(sizes))


# The CLI's text: listings, the DOT export and verify reports.

REPORT_LINE = re.compile(r"^observation=[123] k=\d+ n=\d+ formula=\d+ oracle=\d+ status=(pass|fail)$")


def chain_lines(n: int, level: int = 1, index: int = 0):
    """The chains from v{level}_{index} to level n, one line each."""
    for rest in itertools.product(*level_ids(n, level + 1)):
        yield " ".join((f"v{level}_{index}", *rest)) + "\n"


def dot_lines(depth: int):
    """The Hasse diagram in DOT: the ranks, then every edge between adjacent levels."""
    ids = level_ids(depth)
    yield "digraph cobweb {\n  rankdir=BT;\n"
    for level in ids:
        yield f"  {{ rank=same; {'; '.join(level)}; }}\n"
    for low, high in zip(ids, ids[1:]):
        for x, y in itertools.product(low, high):
            yield f"  {x} -> {y};\n"
    yield "}\n"


def verify_cases(observation: str, max_n: int) -> list[tuple[int, int, int]]:
    """One (k, n, value) per case of one observation, formula and oracle equal.

    n_F! from the root; F(k+1)...F(n) from each of the F(k) vertices of
    level k; the Fibonomial for the counted cases to max_n, then the
    closed-form tail to 3 * max_n.
    """
    if observation == "1":
        return [(1, n, f_factorial(n)) for n in range(1, max_n + 1)]
    if observation == "2":
        sizes = fibonacci(max_n)
        return [
            (k, n, f_product(k + 1, n)) for k in range(1, max_n) for n in range(k + 1, max_n + 1) for _ in range(sizes[k])
        ]
    return [(k, n, fibonomial(n, k)) for top in (max_n, 3 * max_n) for n in range(2, top + 1) for k in range(1, n)]


def verify_lines(observations: list[str], max_n: int, structured: bool):
    """The report of a passing `verify` of these observations: a line per case, or a summary per observation."""
    for o in observations:
        cases = verify_cases(o, max_n)
        if structured:
            for k, n, value in cases:
                yield f"observation={o} k={k} n={n} formula={value} oracle={value} status=pass\n"
        else:
            yield f"Observation {o}: PASS ({len(cases)} cases, max_n={max_n})\n"
    if not structured:
        yield "RESULT: PASS\n"
