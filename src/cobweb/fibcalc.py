"""Exact Fibonacci and Fibonomial arithmetic on arbitrary-precision integers.

Everything here is pure integer math: no floating point, no rounding, no
overflow.  All functions are total on nonnegative indices and safe to call
from multiple threads.

No routine divides one big number by another big number:

- F-factorials and falling F-factorials are balanced product trees, split
  by size, so the large multiplies meet operands of like size (Karatsuba,
  not schoolbook).
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

Each route except `fib` is written once, over a `lift` of the values those
two producers hand out.  The public functions pass the values as they are
and return ints.  The private `_in_base_ten` lifts each value to
`decimal.Decimal` and runs the same route under `_exact_context()`: the
widest precision and exponent range, with Inexact and Rounded trapped, so a
rounding raises instead of giving a wrong digit.  Its routes use only *,
divmod and the integrality check on integral values, never /, and never
convert a Decimal back to an int but to name bit lengths in a failed
check's message.  libmpdec multiplies huge operands by number-theoretic
transform, and `str` of an integral Decimal is linear, where CPython 3.10
and 3.11 convert an int to str in quadratic time; the CLI verbs `binom`,
`falling`, `fibfact`, `row` and `bench` print from this entry.  `decimal`
is imported only when it runs.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from typing import Callable, Sequence

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

# Smallest min(k, n - k) that takes the primitive-part route.  The value is
# the crossover with the part cache cold (emptied before each call, the
# Fibonacci cache warm) at n = 400: the parts route took 1.10x the time of
# the direct quotient at j = 176 and 0.98x at j = 192.  The cold crossover
# falls as n grows (0.98x at j = 160 for n = 1000, 0.94x at j = 128 for
# n = 3000).  With the parts cached the parts route is the faster one from
# about j = 48: 0.31-0.88x the direct route's time at j = 64..192 for
# n = 400..3000 (best of 7-15 calls, CPython 3.11.7, 2-core host).
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


def _product(factors: Sequence) -> object:
    """Product of factors by a balanced tree, so big multiplies meet like sizes.

    Each split halves the factors' total size, not their count: a run of
    Fibonacci values or of ascending parts grows along the run, and a split
    by count put about 3/4 of the bits on the right.  The size of an int is
    its bit length, and that of a Decimal its adjusted exponent (digits - 1).
    """
    if len(factors) <= _PRODUCT_LEAF:
        return math.prod(factors)
    size = int.bit_length if type(factors[0]) is int else type(factors[0]).adjusted
    return _tree(factors, list(itertools.accumulate(map(size, factors))), 0, len(factors))


def _tree(factors: Sequence, ends: list[int], lo: int, hi: int) -> object:
    """Product of factors[lo:hi], split where ends, the running total of sizes, passes half its part."""
    if hi - lo <= _PRODUCT_LEAF:
        return math.prod(factors[lo:hi])
    half = ((ends[lo - 1] if lo else 0) + ends[hi - 1]) // 2
    mid = bisect.bisect_left(ends, half, lo, hi - 2) + 1
    return _tree(factors, ends, lo, mid) * _tree(factors, ends, mid, hi)


class _InexactDivision(AssertionError):
    """A division that theory makes exact left a remainder: a wrong Fibonacci value or a bug."""


def _exact_div(numerator, denominator, what: str, *args: int):
    """numerator // denominator; a nonzero remainder raises _InexactDivision.

    Both are ints, or both integral Decimals.  The message names the
    division as what.format(*args), and the bit lengths of its operands,
    built only on failure.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise _InexactDivision(
            f"{what.format(*args)}: non-exact division of a {int(numerator).bit_length()}-bit "
            f"numerator by a {int(denominator).bit_length()}-bit denominator"
        )
    return quotient


def _as_is(values: list[int]) -> list[int]:
    """The lift of the int routes: the values as they are."""
    return values


def fib(n: int) -> int:
    """Return the n-th Fibonacci number, with F(0)=0 and F(1)=F(2)=1.

    The run of one from `_fib_run`: an index up to _FIB_CAP is served from
    the cache, and a larger one takes O(log n) multiplies by fast doubling
    and is not cached.
    """
    _check_index(n, "n")
    return _fib_run(n, n + 1)[0]


# Each route below is written once, over the values that `_fib_run` and
# `_parts` hand out, passed through `lift`: `_as_is` for the public
# functions, which return ints, and a lift to Decimal for `_in_base_ten`.


def _fib_factorial(n: int, lift: Callable[[list[int]], list]):
    _check_index(n, "n")
    return _product(lift(_fib_run(1, n + 1)))


def fib_factorial(n: int) -> int:
    """Product F(1)*F(2)*...*F(n); the empty product (n = 0) is 1."""
    return _fib_factorial(n, _as_is)


def _falling_f_factorial(n: int, k: int, lift: Callable[[list[int]], list]):
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return lift([0])[0]
    return _product(lift(_fib_run(n - k + 1, n + 1)))


def falling_f_factorial(n: int, k: int) -> int:
    """Product of k descending factors F(n)*F(n-1)*...*F(n-k+1).

    Returns 1 for k = 0 (empty product).  For k > n the descending product
    meets or crosses F(0) = 0, so the result is 0 without evaluating factors
    at negative indices.
    """
    return _falling_f_factorial(n, k, _as_is)


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


def _fibonomial(n: int, k: int, lift: Callable[[list[int]], list]):
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return lift([0])[0]
    j = min(k, n - k)
    if j < _PRIMITIVE_MIN_K:
        return _exact_div(_falling_f_factorial(n, j, lift), _fib_factorial(j, lift), "fibonomial({}, {})", n, k)
    return _product(lift(_parts([d for d in range(1, n + 1) if n % d < j % d])))


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
    return _fibonomial(n, k, _as_is)


def _fibonomial_row(n: int, lift: Callable[[list[int]], list]) -> list:
    _check_index(n, "n")
    fibs = lift(_fib_run(0, n + 1))
    half = lift([1])
    for j in range(1, n // 2 + 1):
        half.append(_exact_div(half[-1] * fibs[n - j + 1], fibs[j], "fibonomial_row({}) at k={}", n, j))
    return half + [half[n - k] for k in range(len(half), n + 1)]


def fibonomial_row(n: int) -> list[int]:
    """Row [C_F(n,0), ..., C_F(n,n)] of the Fibonomial triangle; palindromic.

    The first half comes from C_F(n, j) = C_F(n, j-1) * F(n-j+1) / F(j).
    Each step is an exact division by F(j), and a nonzero remainder raises
    AssertionError.  The second half mirrors the first.
    """
    return _fibonomial_row(n, _as_is)


# The routes of `_in_base_ten`, by the name of their public function.
_ROUTES: dict[str, Callable] = {
    "fib_factorial": _fib_factorial,
    "falling_f_factorial": _falling_f_factorial,
    "fibonomial": _fibonomial,
    "fibonomial_row": _fibonomial_row,
}


def _in_base_ten(function: str, *args: int):
    """The value of the public `function` at args, computed in base 10.

    The same route as the public function, over its values lifted to
    `decimal.Decimal`, under `_exact_context()`.  Returns a Decimal (a list
    of them for fibonomial_row) whose `str` is the text of the int, made in
    linear time; an empty product is the int 1.  Raises as the public
    function does.
    """
    from decimal import Decimal, localcontext

    with localcontext(_exact_context()):
        return _ROUTES[function](*args, lambda values: list(map(Decimal, values)))


def _exact_context():
    """A decimal context under which integer *, +, - and divmod are exact or raise.

    Its precision and exponent range are the widest there are, and a
    rounding raises (Inexact and Rounded are trapped) instead of giving a
    wrong digit.
    """
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    return context
