"""Exact Fibonacci and Fibonomial arithmetic on arbitrary-precision integers.

Everything here is pure integer math: no floating point, no rounding, no
overflow.  All functions are total on nonnegative indices and safe to call
from multiple threads.

No routine divides one big number by another big number:

- F-factorials and falling F-factorials are products of runs of
  Fibonacci values, cut along one fixed tree of spans split by size, so
  the large multiplies meet operands of like size (Karatsuba, not
  schoolbook).
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

Three bounded, append-only caches keep what depends on the index alone:

- Every Fibonacci value comes from one producer, `_fib_run`; `fib` is its
  run of one.  F(0.._FIB_CAP) are cached once computed, about 0.35 * CAP^2
  bits, under 1 MB.
- Every primitive part comes from one producer, `_parts`, which builds
  only the parts a call asks for.  The P_d with d <= _FIB_CAP are cached
  once computed, at most about 0.21 * CAP^2 bits, about 440 KB; every
  part up to n = 1600 takes about 70 KB.  So the self-check sees each
  composite part's division once per process, when the part is produced,
  and a warm primitive-part route reads no F value.
- Every run product of the int routes, over F(lo..hi-1) or P_lo..P_(hi-1),
  is cut along one fixed tree over the indices 1.._FIB_CAP, and the
  products of its spans are cached, separately for the two producers
  (`_FIB_SPAN`, `_PART_SPAN`).  Only spans at depth _SPAN_MIN_DEPTH or
  deeper and wider than _SPAN_MIN_WIDTH indices are kept: at most about
  0.9 * CAP^2 bits of Fibonacci spans and 0.55 * CAP^2 bits of part
  spans, about 3.0 MB together, and about 630 KB for every span below
  index 1600.  A repeated or overlapping call reads the spans inside its
  range and multiplies only near the range's ends and at the top.  The
  cache adds no division, so the self-check sees what it saw without it.

Past the cap a Fibonacci run goes on by fast doubling (`_fib_pair`), parts
are built per call, and a run product reads and stores no span; what is
built is dropped when the call returns, so the memory kept between calls
is bounded.

Each route, and a Fibonacci run past the cap, is written once and takes
the number type it computes in.  The public functions pass int, and their
run products read the span caches.  The private `_in_base_ten` passes
`decimal.Decimal`: the values the two producers hand out are lifted to it,
`_product` multiplies them without the span caches (lifting a cached
product to Decimal would cost quadratic time), and the route runs under
`_exact_context()`: the widest precision and exponent range, with Inexact
and Rounded trapped, so a rounding raises instead of giving a wrong digit.
Its routes use only +, -, *, divmod and the integrality check on integral
values, never /, and never convert a Decimal back to an int but to name
bit lengths in a failed check's message.  libmpdec multiplies huge
operands by number-theoretic transform, and `str` of an integral Decimal
is linear, where CPython 3.10 and 3.11 convert an int to str in quadratic
time; every number the CLI prints past the int -> str digit limit comes
from this entry.  `decimal` is imported only when it runs.
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

# Smallest min(k, n - k) = j that takes the primitive-part route, for the
# int and the base-ten routes alike.  It is the crossover at small n with
# the part and span caches cold (emptied before each call, the Fibonacci
# cache warm).  Ratios of the parts route's time to the direct quotient's,
# best of 5-9 calls, CPython 3.11.7 on a 2-core host:
# - int: 0.89-1.07 at j = 184 and 1.09-1.29 at j = 160-176 for
#   n = 400-500; 0.81-1.04 at j = 160 for n = 700-3000;
# - Decimal: 0.78-1.05 at j = 184 and 1.03-1.06 at j = 160 for
#   n = 400-700; 0.85-0.96 at j = 160 for n = 1000-3000.
# With both routes called once before, the parts route is the faster one
# well below this (0.45-0.87 int, 0.62-0.78 Decimal at j = 160), but the
# route does not depend on what the caches hold.
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

# Which spans of the span tree are cached: those at this depth or deeper,
# the root, [1, _FIB_CAP], being at depth 0, and wider than this many
# indices.  A span above that depth is cut into its halves instead.  Each
# level of the tree holds every value's bits once, about 1.2 MB for both
# producers at the cap, so caching every span would keep about 9 MB; the
# narrow spans near the leaves are cheap to build again.
_SPAN_MIN_DEPTH = 4
_SPAN_MIN_WIDTH = 3 * _PRODUCT_LEAF

# Append-only caches of span products, keyed by the span (lo, hi): the
# product of F(lo..hi-1), and of P_lo..P_(hi-1).  Entries never change, and
# each growth step is one store of a tuple key, which CPython runs whole, so
# neither readers nor writers take a lock; two threads that build the same
# span store equal values.
_FIB_SPAN: dict[tuple[int, int], int] = {}
_PART_SPAN: dict[tuple[int, int], int] = {}


def _check_index(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _product(values: Sequence, start: int = 0, lo: int = 0, spans: dict | None = None) -> object:
    """Product of values, of which values[start:] is the run at the indices lo, lo + 1, ...

    The one product of the module.  Given spans, an int run of at least two
    leaves that ends by index _FIB_CAP is cut along one fixed tree over the
    indices 1.._FIB_CAP, whose spans depend on the index alone, so calls
    that share indices share the spans cached in spans; values[:start] are
    one more piece, and the pieces are multiplied smallest first.  Any
    other product, Decimals among them, reads and stores no span: it is one
    balanced tree over all the values.

    That tree halves the values' total size at each split, not their count:
    a run of Fibonacci values or of ascending parts grows along the run,
    and a split by count put about 3/4 of the bits on the right.  The size
    of an int is its bit length, and that of a Decimal its adjusted
    exponent (digits - 1).
    """
    hi = lo + len(values) - start
    if spans is not None and 2 * _PRODUCT_LEAF <= hi - lo and hi <= _FIB_CAP + 1 and type(values[start]) is int:
        pieces = [_product(values[:start])] if start else []
        _cover(values, start - lo, spans, lo, hi, 1, _FIB_CAP + 1, 0, pieces)
        return _smallest_first(pieces)
    if len(values) <= _PRODUCT_LEAF:
        return math.prod(values)
    size = int.bit_length if type(values[0]) is int else type(values[0]).adjusted
    return _tree(values, list(itertools.accumulate(map(size, values))), 0, len(values))


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


def _split(lo: int, hi: int) -> int:
    """Where the span tree splits [lo, hi): the bits of its two halves balance.

    F(i) has about 0.69 * i bits, and P_i on average about 0.42 * i, so the
    bits of [lo, m) grow as m^2 - lo^2 for both, and balance those of
    [m, hi) at m = sqrt((lo^2 + hi^2) / 2).
    """
    return math.isqrt((lo * lo + hi * hi) // 2)


def _span(values: list[int], shift: int, spans: dict, a: int, b: int) -> int:
    """Product of the span [a, b) of the tree; values[i + shift] is the value at index i.

    A span of more than _SPAN_MIN_WIDTH indices is read from spans, or
    built from its two halves and stored there.
    """
    if b - a <= _PRODUCT_LEAF:
        return math.prod(values[a + shift : b + shift])
    if (a, b) in spans:
        return spans[a, b]
    m = _split(a, b)
    product = _span(values, shift, spans, a, m) * _span(values, shift, spans, m, b)
    if b - a > _SPAN_MIN_WIDTH:
        spans[a, b] = product
    return product


def _cover(
    values: list[int], shift: int, spans: dict, lo: int, hi: int, a: int, b: int, depth: int, pieces: list[int]
) -> None:
    """Append to pieces the products of the values at the indices in both [lo, hi) and the span [a, b).

    Each span of the tree inside [lo, hi) at _SPAN_MIN_DEPTH or deeper is
    one piece; a leaf that [lo, hi) cuts gives the product of the values
    it shares.
    """
    if lo <= a and b <= hi and depth >= _SPAN_MIN_DEPTH:
        pieces.append(_span(values, shift, spans, a, b))
    elif b - a <= _PRODUCT_LEAF:
        pieces.append(math.prod(values[max(lo, a) + shift : min(hi, b) + shift]))
    else:
        m = _split(a, b)
        if lo < m:
            _cover(values, shift, spans, lo, hi, a, m, depth + 1, pieces)
        if m < hi:
            _cover(values, shift, spans, lo, hi, m, b, depth + 1, pieces)


def _smallest_first(pieces: list[int]) -> int:
    """Product of pieces, each multiply taking the two smallest left.

    The pieces of a range are spans of unlike sizes, so multiplying them in
    index order meets lopsided operands; this meets operands of like size.
    """
    pieces.sort(key=int.bit_length)
    while len(pieces) > 1:
        bisect.insort(pieces, pieces.pop(0) * pieces.pop(0), key=int.bit_length)
    return pieces[0]


def _fib_pair(n: int, kind: type) -> tuple:
    """(F(n), F(n+1)) as kind, int or Decimal, by fast doubling from the top bit of n down.

    It doubles the pair (F(i), L(i)), L the Lucas numbers, by two multiplies
    a bit: F(2i) = F(i)L(i) and L(2i) = L(i)^2 - 2(-1)^i.  A set bit steps
    on by F(i+1) = (F(i) + L(i)) / 2, checked exact, and L(i+1) = 2F(i) + F(i+1).
    """
    f, lucas = kind(0), kind(2)
    odd = False
    for bit in bin(n)[2:]:
        f, lucas = f * lucas, lucas * lucas - (-2 if odd else 2)
        odd = bit == "1"
        if odd:
            half = _exact_div(f + lucas, 2, "fast doubling to F({})", n)
            f, lucas = half, 2 * f + half
    return f, _exact_div(f + lucas, 2, "fast doubling to F({})", n + 1)


def _fib_run(lo: int, hi: int, kind: type = int) -> list:
    """[F(lo), ..., F(hi - 1)] as kind, int or Decimal: the one producer of Fibonacci values.

    A run that starts at or below _FIB_CAP grows the cache, under _FIB_LOCK,
    to cover it up to the cap, and lifts what it reads there to kind.  The
    rest, not cached, goes on in kind: fast doubling to its first index,
    then sums.
    """
    if len(_FIB) < hi and lo < hi and lo <= _FIB_CAP:
        with _FIB_LOCK:
            while len(_FIB) < hi and len(_FIB) <= _FIB_CAP:
                _FIB.append(_FIB[-1] + _FIB[-2])
    run = _FIB[lo:hi]
    start = lo + len(run)
    if kind is not int:  # ints go as cached: a lift call costs them 8% of fib_factorial(9)
        run = list(map(kind, run))
    if start < hi:
        a, b = _fib_pair(start, kind)
        for _ in range(start, hi):
            run.append(a)
            a, b = b, a + b
    return run


# Each route below is written once, over the values that `_fib_run` and
# `_parts` hand out, as the kind it computes in: int for the public
# functions, Decimal for `_in_base_ten`.


def _fib(n: int, kind: type):
    _check_index(n, "n")
    return _fib_run(n, n + 1, kind)[0]


def fib(n: int) -> int:
    """Return the n-th Fibonacci number, with F(0)=0 and F(1)=F(2)=1: the run of one from `_fib_run`."""
    return _fib(n, int)


def _fib_factorial(n: int, kind: type):
    _check_index(n, "n")
    return _product(_fib_run(1, n + 1, kind), 0, 1, _FIB_SPAN)


def fib_factorial(n: int) -> int:
    """Product F(1)*F(2)*...*F(n); the empty product (n = 0) is 1."""
    return _fib_factorial(n, int)


def _falling_f_factorial(n: int, k: int, kind: type):
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return kind(0)
    return _product(_fib_run(n - k + 1, n + 1, kind), 0, n - k + 1, _FIB_SPAN)


def falling_f_factorial(n: int, k: int) -> int:
    """Product of k descending factors F(n)*F(n-1)*...*F(n-k+1).

    Returns 1 for k = 0 (empty product).  For k > n the descending product
    meets or crosses F(0) = 0, so the result is 0 without evaluating factors
    at negative indices.
    """
    return _falling_f_factorial(n, k, int)


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


def _fibonomial(n: int, k: int, kind: type):
    _check_index(n, "n")
    _check_index(k, "k")
    if k > n:
        return kind(0)
    j = min(k, n - k)
    if j < _PRIMITIVE_MIN_K:
        return _exact_div(_falling_f_factorial(n, j, kind), _fib_factorial(j, kind), "fibonomial({}, {})", n, k)
    # Every d in (n - j, n] has n mod d = n - d < j = j mod d: a run.
    lower = [d for d in range(1, n - j + 1) if n % d < j % d]
    parts = _parts(lower + list(range(n - j + 1, n + 1)))
    if kind is not int:
        parts = list(map(kind, parts))
    return _product(parts, len(lower), n - j + 1, _PART_SPAN)


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
    return _fibonomial(n, k, int)


def _fibonomial_row(n: int, kind: type) -> list:
    _check_index(n, "n")
    fibs = _fib_run(0, n + 1, kind)
    half = [kind(1)]
    for j in range(1, n // 2 + 1):
        half.append(_exact_div(half[-1] * fibs[n - j + 1], fibs[j], "fibonomial_row({}) at k={}", n, j))
    return half + [half[n - k] for k in range(len(half), n + 1)]


def fibonomial_row(n: int) -> list[int]:
    """Row [C_F(n,0), ..., C_F(n,n)] of the Fibonomial triangle; palindromic.

    The first half comes from C_F(n, j) = C_F(n, j-1) * F(n-j+1) / F(j).
    Each step is an exact division by F(j), and a nonzero remainder raises
    AssertionError.  The second half mirrors the first.
    """
    return _fibonomial_row(n, int)


# The routes of `_in_base_ten`, by the name of their public function or producer.
_ROUTES: dict[str, Callable] = {
    "fib": _fib,
    "fib_run": _fib_run,
    "fib_factorial": _fib_factorial,
    "falling_f_factorial": _falling_f_factorial,
    "fibonomial": _fibonomial,
    "fibonomial_row": _fibonomial_row,
}


def _in_base_ten(function: str, *args: int):
    """The value of `function`, a key of _ROUTES, at args, computed in base 10.

    The same route as the public function, computed in `decimal.Decimal`,
    under `_exact_context()`.  Returns a Decimal (a list of them for
    fibonomial_row and fib_run) whose `str` is the text of the int, made in
    linear time; an empty product is the int 1.  Raises as the public
    function does.
    """
    from decimal import Decimal, localcontext

    with localcontext(_exact_context()):
        return _ROUTES[function](*args, Decimal)


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
