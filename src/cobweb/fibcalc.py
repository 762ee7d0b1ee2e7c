"""Exact Fibonacci and Fibonomial arithmetic on arbitrary-precision integers.

Everything here is pure integer math: no floating point, no rounding, no
overflow.  All functions are total on nonnegative indices and safe to call
from multiple threads.

No routine divides one big number by another big number:

- F-factorials and falling F-factorials are balanced product trees, so the
  large multiplies meet operands of like size (Karatsuba, not schoolbook).
- A Fibonomial C_F(n, k) with j = min(k, n - k) of at least
  _PRIMITIVE_MIN_K is a product of Fibonacci primitive parts P_d.  Each
  composite d costs one small exact division when its part is produced.
  Below that, the falling F-factorial of length j divided by j_F! is
  cheaper, as the divisor is small.
- A Fibonomial row comes from its step recurrence, one division by F(j)
  per entry.

Every division is checked for a zero remainder and raises
`_InexactDivision`, an AssertionError, otherwise; the CLI reports it as a
verification failure.  This is the integrality self-check: the quotients
are integers by theory, so a remainder means a wrong Fibonacci value or a
bug.  It sees only values that enter a division: a prime p has
P_p = F(p), taken as is.

Two bounded, append-only caches keep what depends on the index alone:

- Every Fibonacci value comes from one producer, `_fib_run`; `fib` is its
  run of one.  F(0.._FIB_CAP) are cached once computed, about 0.35 * CAP^2
  bits, under 1 MB.
- Every primitive part comes from one producer, `_parts`, which builds
  only the parts a call asks for.  The P_d with d <= _FIB_CAP are cached
  once computed, at most about 0.21 * CAP^2 bits, about 440 KB; every
  part up to n = 1600 takes about 70 KB.  So the self-check sees each
  composite part's division once per process, when the part is produced,
  and a warm primitive-part route reads no F value.

Past the cap a Fibonacci run goes on by fast doubling, and parts are
built per call; both are dropped when the call returns, so the memory kept
between calls is bounded.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

__all__ = [
    "fib",
    "fib_factorial",
    "falling_f_factorial",
    "fibonomial",
    "fibonomial_row",
]

# Largest cached index of both caches.  At 4096 the Fibonacci cache holds
# about 0.35 * CAP^2 bits, under 1 MB, and the primitive parts about
# 0.21 * CAP^2 bits, about 440 KB; an uncapped cache grown to F(40000) held
# 76 MB.
_FIB_CAP = 4096

# Smallest min(k, n - k) that takes the primitive-part route.  Measured for
# n = 400..3000, the primitive route took 1.04-1.14x the time of the direct
# quotient at j = 176 and 0.91-0.98x at j = 192, whatever n was.
_PRIMITIVE_MIN_K = 184

# Product-tree leaves of at most this many factors go to math.prod.  Leaves
# of 8 to 32 measured alike; one flat math.prod over F(1..650) took 2.5x as
# long as the tree.
_PRODUCT_LEAF = 16

# Append-only sequence cache of F(0.._FIB_CAP).  The lock guards extension;
# readers only index below the published length, which is safe because
# entries never change.
_FIB = [0, 1]
_FIB_LOCK = threading.Lock()

# Append-only cache of the primitive parts, P_d keyed by d for d up to
# _FIB_CAP.  Entries never change, and each growth step is one update of a
# dict with int keys, which CPython runs whole, so neither readers nor the
# writer take a lock.
_PART: dict[int, int] = {}


def _check_index(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling, from the top bit of n down.

    F(2m) = F(m) * (2F(m+1) - F(m)) and F(2m+1) = F(m)^2 + F(m+1)^2.
    """
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def _fib_run(lo: int, hi: int) -> list[int]:
    """[F(lo), ..., F(hi - 1)]: the one producer of Fibonacci values.

    A run that starts at or below _FIB_CAP grows the cache, under _FIB_LOCK,
    to cover it up to the cap.  The rest of the run goes on by fast doubling
    from its first uncached index and is not cached.
    """
    if len(_FIB) < hi and lo < hi and lo <= _FIB_CAP:
        with _FIB_LOCK:
            while len(_FIB) < hi and len(_FIB) <= _FIB_CAP:
                _FIB.append(_FIB[-1] + _FIB[-2])
    run = _FIB[lo:hi]
    start = lo + len(run)
    if start < hi:
        a, b = _fib_pair(start)
        for _ in range(start, hi):
            run.append(a)
            a, b = b, a + b
    return run


def _product(factors: Sequence[int]) -> int:
    """Product of factors by a balanced tree, so big multiplies meet like sizes."""
    if len(factors) <= _PRODUCT_LEAF:
        return math.prod(factors)
    mid = len(factors) // 2
    return _product(factors[:mid]) * _product(factors[mid:])


class _InexactDivision(AssertionError):
    """A division that theory makes exact left a remainder: a wrong Fibonacci value or a bug."""


def _exact_div(numerator: int, denominator: int, what: str, *args: int) -> int:
    """numerator // denominator; a nonzero remainder raises _InexactDivision.

    The message names the division as what.format(*args), built only on
    failure.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise _InexactDivision(
            f"{what.format(*args)}: non-exact division of a {numerator.bit_length()}-bit "
            f"numerator by a {denominator.bit_length()}-bit denominator"
        )
    return quotient


def fib(n: int) -> int:
    """Return the n-th Fibonacci number, with F(0)=0 and F(1)=F(2)=1.

    The run of one from `_fib_run`: an index up to _FIB_CAP is served from
    the cache, and a larger one takes O(log n) multiplies by fast doubling
    and is not cached.
    """
    _check_index(n, "n")
    return _fib_run(n, n + 1)[0]


def fib_factorial(n: int) -> int:
    """Product F(1)*F(2)*...*F(n); the empty product (n = 0) is 1."""
    _check_index(n, "n")
    return _product(_fib_run(1, n + 1))


def falling_f_factorial(n: int, k: int) -> int:
    """Product of k descending factors F(n)*F(n-1)*...*F(n-k+1).

    Returns 1 for k = 0 (empty product).  For k > n the descending product
    meets or crosses F(0) = 0, so the result is 0 without evaluating factors
    at negative indices.
    """
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return 0
    return _product(_fib_run(n - k + 1, n + 1))


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[m] = the smallest prime factor of m for 2 <= m <= n; spf[1] = 1."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _primitive_part(d: int, spf: list[int], fibs: list[int]) -> int:
    """P_d = product over e | d of F(e)^mu(d/e), with fibs[e] = F(e).

    Only a squarefree d/e counts, so e runs over d divided by the products
    of distinct primes of d.  A prime d has P_d = F(d).  Any other d takes
    one exact division of numbers of O(d) bits.
    """
    if spf[d] == d:
        return fibs[d]
    terms = [(d, 1)]
    m = d
    while m > 1:
        p = spf[m]
        while m % p == 0:
            m //= p
        terms += [(e // p, -sign) for e, sign in terms]
    numerator = math.prod([fibs[e] for e, sign in terms if sign > 0])
    denominator = math.prod([fibs[e] for e, sign in terms if sign < 0])
    return _exact_div(numerator, denominator, "primitive part P_{}", d)


def _parts(ds: list[int]) -> list[int]:
    """[P_d for d in ds], ds ascending: the one producer of primitive parts.

    Parts not yet cached are built from one Fibonacci run up to the largest
    of them and published, those up to the cap, by one update, only once
    every division among them came out exact.  Parts past the cap are built
    per call and not cached.
    """
    missing = [d for d in ds if d not in _PART]
    if not missing:
        return [_PART[d] for d in ds]
    spf = _smallest_prime_factors(missing[-1])
    fibs = _fib_run(0, missing[-1] + 1)
    new = {d: _primitive_part(d, spf, fibs) for d in missing}
    _PART.update({d: part for d, part in new.items() if d <= _FIB_CAP})
    return [new[d] if d in new else _PART[d] for d in ds]


def fibonomial(n: int, k: int) -> int:
    """Fibonomial coefficient C_F(n, k) = n_F! / (k_F! * (n-k)_F!).

    Returns 0 for k > n, mirroring the ordinary binomial convention.  With
    j = min(k, n - k) below _PRIMITIVE_MIN_K the result is the exact
    quotient of the falling F-factorial of length j by j_F!.

    Otherwise it is a product of primitive parts.  F(m) is the product of
    P_d over the d dividing m (Carmichael 1913), so C_F(n, k) is the
    product of P_d^(floor(n/d) - floor(k/d) - floor((n-k)/d)).  Each
    exponent is 0 or 1, and it is 1 exactly when n mod d < k mod d (Knuth
    & Wilf 1989).  That route costs a product tree over the result's bits,
    instead of a schoolbook division of the whole result; the parts come
    from `_parts`, whose cache pays one small exact division per composite
    P_d once per process.  A nonzero remainder in any division
    raises AssertionError.
    """
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return 0
    j = min(k, n - k)
    if j < _PRIMITIVE_MIN_K:
        falling = _product(_fib_run(n - j + 1, n + 1))
        return _exact_div(falling, _product(_fib_run(1, j + 1)), "fibonomial({}, {})", n, k)
    return _product(_parts([d for d in range(1, n + 1) if n % d < j % d]))


def fibonomial_row(n: int) -> list[int]:
    """Row [C_F(n,0), ..., C_F(n,n)] of the Fibonomial triangle; palindromic.

    The first half comes from C_F(n, j) = C_F(n, j-1) * F(n-j+1) / F(j).
    Each step is an exact division by F(j), and a nonzero remainder raises
    AssertionError.  The second half mirrors the first.
    """
    _check_index(n, "n")
    fibs = _fib_run(0, n + 1)
    half = [1]
    for j in range(1, n // 2 + 1):
        half.append(_exact_div(half[-1] * fibs[n - j + 1], fibs[j], "fibonomial_row({}) at k={}", n, j))
    return half + [half[n - k] for k in range(len(half), n + 1)]
