"""Reference values the benchmark checks cobweb's outputs against.

Nothing here imports cobweb.  Fibonacci values are recomputed by plain
iteration, big results are compared through their residues modulo fixed
primes, chain counts are products of level sizes, and listings, CSV and DOT
bodies are rebuilt from the output contracts in the README.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import sys
from typing import Iterator

# Mersenne primes: a wrong integer matches all three residues with
# probability about 2**-257.
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)

LOG10_PHI = 0.20898764024997873

# CPython's default cap on int <-> str conversion (3.11+).
INT_STR_DIGITS = 4300


@contextlib.contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift the int/str conversion cap for the checker's own parsing only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def fibs(n: int) -> list[int]:
    """Exact F(0..n) by iteration; meant for small n (level sizes)."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


def level_product(lo: int, hi: int) -> int:
    """F(lo) * F(lo+1) * ... * F(hi); 1 when the range is empty."""
    f = fibs(max(hi, 1))
    out = 1
    for s in range(lo, hi + 1):
        out *= f[s]
    return out


def small_fibonomial(n: int, k: int) -> int:
    """C_F(n, k) as a ratio of level products, for the small n of verify sweeps."""
    return level_product(n - k + 1, n) // level_product(1, k)


def max_digits(n: int, k: int) -> int:
    """Upper estimate of the decimal digits of C_F(n, k) and of falling(n, k)."""
    return int(k * n * LOG10_PHI) + 2


class Residues:
    """Residues of Fibonacci products; tables of F(j) mod p, extended on demand."""

    def __init__(self) -> None:
        self._seq = [[0, 1] for _ in PRIMES]

    def _upto(self, n: int) -> None:
        for p, seq in zip(PRIMES, self._seq):
            while len(seq) <= n:
                seq.append((seq[-1] + seq[-2]) % p)

    def _product(self, lo: int, hi: int) -> tuple[int, ...]:
        self._upto(hi)
        out = []
        for p, seq in zip(PRIMES, self._seq):
            acc = 1
            for j in range(lo, hi + 1):
                acc = acc * seq[j] % p
            out.append(acc)
        return tuple(out)

    def fib(self, n: int) -> tuple[int, ...]:
        # Isolated large F(n) by fast doubling, so the tables stay as short as
        # the products need and add little to the workload's peak RSS.
        return tuple(fib_mod(n, p) for p in PRIMES)

    def fib_factorial(self, n: int) -> tuple[int, ...]:
        return self._product(1, n)

    def falling(self, n: int, k: int) -> tuple[int, ...]:
        if k > n:
            return (0,) * len(PRIMES)
        return self._product(n - k + 1, n)

    def fibonomial(self, n: int, k: int) -> tuple[int, ...]:
        if k > n:
            return (0,) * len(PRIMES)
        num = self._product(n - k + 1, n)
        den = self._product(1, k)
        if not all(den):
            raise RuntimeError(f"a prime divides F(1..{k}); pick other primes")
        return tuple(a * pow(b, -1, p) % p for a, b, p in zip(num, den, PRIMES))

    def row(self, n: int) -> list[tuple[int, ...]]:
        """Residues of C_F(n, 0..n), by the same ratio taken incrementally."""
        self._upto(n)
        out = []
        for p, seq in zip(PRIMES, self._seq):
            col = [1]
            num = den = 1
            for k in range(1, n + 1):
                num = num * seq[n - k + 1] % p
                den = den * seq[k] % p
                col.append(num * pow(den, -1, p) % p)
            out.append(col)
        return list(zip(*out))


def fib_mod(n: int, p: int) -> int:
    """F(n) mod p by fast doubling: F(2j) = F(j)(2F(j+1) - F(j)), F(2j+1) = F(j)^2 + F(j+1)^2."""
    a, b = 0, 1  # F(j), F(j+1), with j the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a) % p, (a * a + b * b) % p
        if bit == "1":
            a, b = b, (a + b) % p
    return a


def residues_of(value: int) -> tuple[int, ...]:
    return tuple(value % p for p in PRIMES)


def parse_int(text: str) -> int | None:
    """Decimal integer from one output line; None when it is not one."""
    with unlimited_int_digits():
        try:
            return int(text.strip())
        except ValueError:
            return None


def chain_lines(level: int, index: int, stop: int) -> Iterator[str]:
    """The `chains` listing from vertex level:index up to `stop`, in DFS order."""
    f = fibs(stop)
    head = f"v{level}_{index}"
    ranges = [range(f[s]) for s in range(level + 1, stop + 1)]
    names = [
        [f"v{s}_{i}" for i in range(f[s])] for s in range(level + 1, stop + 1)
    ]
    for picks in itertools.product(*ranges):
        yield " ".join([head, *(names[j][i] for j, i in enumerate(picks))]) + "\n"


def digest_lines(lines) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode())
        count += 1
    return count, h.hexdigest()


def digest_text(text: str) -> tuple[int, str]:
    return text.count("\n"), hashlib.sha256(text.encode()).hexdigest()


def zeta_rows(depth: int) -> list[bytes]:
    """Rows of the zeta matrix: 1 on the diagonal and on every later level."""
    sizes = fibs(depth)[1:]
    dim = sum(sizes)
    rows = []
    offset = 0
    for size in sizes:
        end = offset + size
        for i in range(offset, end):
            rows.append(bytes(i) + b"\x01" + bytes(end - i - 1) + b"\x01" * (dim - end))
        offset = end
    return rows


def zeta_csv_lines(depth: int) -> Iterator[str]:
    for row in zeta_rows(depth):
        yield ",".join("1" if b else "0" for b in row) + "\n"


def dot_edge_count(depth: int) -> int:
    """Cover pairs of the Hasse diagram: sum of F(s) * F(s+1)."""
    f = fibs(depth)
    return sum(f[s] * f[s + 1] for s in range(1, depth))


def vertex_count(depth: int) -> int:
    return sum(fibs(depth)[1:])


def verify_cases(observation: int, max_n: int) -> list[tuple]:
    """Expected (k, n, formula, oracle, passed, start) rows of one sweep.

    The row order is the sweep order documented by `verify_observation`.
    """
    f = fibs(max_n)
    rows = []
    if observation == 1:
        for n in range(1, max_n + 1):
            c = level_product(1, n)
            rows.append((1, n, c, c, True, None))
    elif observation == 2:
        for k in range(1, max_n):
            for n in range(k + 1, max_n + 1):
                c = level_product(k + 1, n)
                rows.extend((k, n, c, c, True, (k, i)) for i in range(f[k]))
    else:
        for top in (max_n, 3 * max_n):
            for n in range(2, top + 1):
                for k in range(1, n):
                    c = small_fibonomial(n, k)
                    rows.append((k, n, c, c, True, None))
    return rows


def verify_text(observations: list[int], max_n: int, structured: bool) -> str:
    """Expected stdout of `cobweb verify` when every case passes."""
    out = []
    for o in observations:
        cases = verify_cases(o, max_n)
        if structured:
            out.extend(
                f"observation={o} k={k} n={n} formula={a} oracle={b} status=pass\n"
                for k, n, a, b, _, _ in cases
            )
        else:
            out.append(f"Observation {o}: PASS ({len(cases)} cases, max_n={max_n})\n")
    if not structured:
        out.append("RESULT: PASS\n")
    return "".join(out)
