"""Exactness checks for the F-arithmetic: frozen examples, oracles, properties."""

from __future__ import annotations

import decimal
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from cobweb import fibcalc
from cobweb.fibcalc import (
    falling_f_factorial,
    fib,
    fib_factorial,
    fibonomial,
    fibonomial_row,
)

import naive

# F(0)..F(12), unrolled by hand.
FIB_PREFIX = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


class TestFib:
    def test_examples(self):
        assert fib(1) == 1
        assert fib(5) == 5
        assert fib(10) == 55

    def test_prefix(self):
        assert [fib(n) for n in range(13)] == FIB_PREFIX

    def test_matches_naive_recurrence_to_1000(self):
        oracle = naive.fibonacci(1000)
        assert [fib(n) for n in range(1001)] == oracle

    def test_known_value_at_100(self):
        assert fib(100) == 354224848179261915075

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_strictly_increasing_and_nonzero(self):
        values = [fib(n) for n in range(1, 301)]
        assert all(v != 0 for v in values)
        assert all(b > a for a, b in zip(values[1:], values[2:]))

    def test_concurrent_calls_agree(self):
        expected = naive.fibonacci(800)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fib, range(801)))
        assert results == expected

    def test_above_cache_cap_matches_naive_recurrence(self):
        cap = fibcalc._FIB_CAP
        oracle = naive.fibonacci(cap + 300)
        assert [fib(n) for n in range(cap - 5, cap + 301)] == oracle[cap - 5:]
        assert len(fibcalc._FIB) <= cap + 1

    def test_isolated_large_index_by_fast_doubling(self):
        assert fib(20000) == naive.fib(20000)
        assert len(fibcalc._FIB) <= fibcalc._FIB_CAP + 1

    def test_bulk_routes_above_cache_cap(self):
        cap = fibcalc._FIB_CAP
        oracle = naive.fibonacci(cap + 60)
        assert falling_f_factorial(cap + 60, 81) == naive.f_product(cap - 20, cap + 60)
        assert fibonomial(cap + 60, 3) == oracle[cap + 60] * oracle[cap + 59] * oracle[cap + 58] // 2
        assert len(fibcalc._FIB) <= cap + 1

    def test_concurrent_growth_across_cache_cap(self):
        cap = fibcalc._FIB_CAP
        indices = list(range(cap - 400, cap + 400))
        random.Random(0).shuffle(indices)
        oracle = naive.fibonacci(cap + 400)
        del fibcalc._FIB[2:]  # every worker now races to grow the cache
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(fib, indices, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [oracle[n] for n in indices]
        assert fibcalc._FIB == naive.fibonacci(cap)[: len(fibcalc._FIB)]

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_one_producer_below_at_and_above_the_cap(self, monkeypatch, cache):
        cap = fibcalc._FIB_CAP
        oracle = naive.fibonacci(cap + 10)
        if cache == "cold":
            del fibcalc._FIB[2:]
        else:
            fib(cap)
        produce = fibcalc._fib_run
        seen = []

        def spy(lo, hi):
            seen.append((lo, hi))
            return produce(lo, hi)

        monkeypatch.setattr(fibcalc, "_fib_run", spy)
        before = len(fibcalc._FIB)
        assert fib(cap + 10) == oracle[cap + 10]
        assert len(fibcalc._FIB) == before  # above the cap: a cold cache stays cold
        indices = [cap + 1, 0, 1, 7, cap - 1, cap]
        assert [fib(n) for n in indices] == [oracle[n] for n in indices]
        assert seen == [(n, n + 1) for n in [cap + 10, *indices]]
        assert fibcalc._FIB == oracle[: cap + 1]


class TestFibFactorial:
    def test_examples(self):
        assert fib_factorial(0) == 1
        assert fib_factorial(4) == 6
        assert fib_factorial(10) == 122522400

    def test_equals_full_falling_product(self):
        for n in range(61):
            assert falling_f_factorial(n, n) == fib_factorial(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fib_factorial(-3)


class TestFallingFFactorial:
    def test_examples(self):
        assert falling_f_factorial(5, 2) == 15
        assert falling_f_factorial(7, 0) == 1
        assert falling_f_factorial(3, 4) == 0

    def test_zero_whenever_k_exceeds_n(self):
        assert falling_f_factorial(3, 100) == 0
        for n in range(20):
            assert falling_f_factorial(n, n + 1) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            falling_f_factorial(-1, 0)
        with pytest.raises(ValueError):
            falling_f_factorial(3, -2)

    @given(st.integers(0, 120), st.integers(0, 120))
    def test_factorial_split_identity(self, n, k):
        # k descending factors times the remaining factorial rebuild n_F!.
        if k <= n:
            assert falling_f_factorial(n, k) * fib_factorial(n - k) == fib_factorial(n)


class TestFibonomial:
    def test_examples(self):
        assert fibonomial(5, 2) == 15
        assert fibonomial(7, 0) == 1
        assert fibonomial(10, 5) == 136136

    def test_zero_above_diagonal(self):
        assert fibonomial(2, 5) == 0
        assert fibonomial(0, 1) == 0

    def test_edges(self):
        for n in range(30):
            assert fibonomial(n, 0) == 1
            assert fibonomial(n, n) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonomial(-1, 0)
        with pytest.raises(ValueError):
            fibonomial(5, -1)

    def test_symmetry_and_ratio_form_exhaustive(self):
        for n in range(41):
            for k in range(n + 1):
                value = fibonomial(n, k)
                assert value == fibonomial(n, n - k)
                assert value == naive.fibonomial(n, k)

    @given(st.integers(0, 300), st.data(), st.sampled_from(["quotient", "primitive"]))
    def test_both_routes_match_ratio_oracle(self, n, data, route):
        # min(k, n - k) <= 150 here, all below the real crossover, so the
        # crossover is moved to put each draw on the chosen side of it.
        k = data.draw(st.integers(0, n + 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fibcalc, "_PRIMITIVE_MIN_K", 0 if route == "primitive" else n + 1)
            assert fibonomial(n, k) == naive.fibonomial(n, k)

    def test_both_sides_of_the_real_crossover(self):
        cross = fibcalc._PRIMITIVE_MIN_K
        n = 2 * cross + 40
        for k in (cross - 1, cross, n - cross, n - cross + 1, n // 2):
            assert fibonomial(n, k) == naive.fibonomial(n, k)

    def test_symmetry_reads_the_shorter_side(self, monkeypatch, cold_parts):
        # C_F(400, 390) = C_F(400, 10): ten falling factors over 10_F!.  At
        # j = 120 both runs are long enough to be cut into spans, and every
        # span cached lies in one of them.
        produce = fibcalc._fib_run
        seen = []

        def spy(lo, hi):
            seen.append((lo, hi))
            return produce(lo, hi)

        monkeypatch.setattr(fibcalc, "_fib_run", spy)
        for n, k in [(400, 390), (400, 280)]:
            j = n - k
            del seen[:]
            assert fibonomial(n, k) == naive.fibonomial(n, j)
            assert seen == [(n - j + 1, n + 1), (1, j + 1)]
        assert fibcalc._FIB_SPAN
        assert all(281 <= a and b <= 401 or b <= 121 for a, b in fibcalc._FIB_SPAN)

    def test_primitive_parts_rebuild_fibonacci(self):
        # F(m) is the product of P_d over the divisors d of m.
        seq = naive.fibonacci(200)
        spf = fibcalc._smallest_prime_factors(200)
        parts = [0] + [fibcalc._primitive_part(d, spf, seq) for d in range(1, 201)]
        assert parts[1:] == list(naive.primitive_parts(200).values())
        for m in range(1, 201):
            product = 1
            for d in range(1, m + 1):
                if m % d == 0:
                    product *= parts[d]
            assert product == seq[m]

    def test_a_plant_reaches_every_product_on_a_warm_cache(self, request):
        # Warm the span caches first; `cold_parts` must empty them too, or
        # the products would read spans built from the true values.
        factorial, falling = fib_factorial(1000), falling_f_factorial(1000, 995)
        fibonomial(1000, 500)
        assert fibcalc._FIB_SPAN and fibcalc._PART_SPAN
        request.getfixturevalue("cold_parts")
        fib(400)
        fibcalc._FIB[7] += 1  # F(7) = 13 becomes 14
        assert fib_factorial(1000) == factorial // 13 * 14 != naive.f_factorial(1000)
        assert falling_f_factorial(1000, 995) == falling // 13 * 14 != naive.f_product(6, 1000)
        with pytest.raises(AssertionError, match="non-exact"):
            fibonomial(1000, 500)  # primitive parts: P_21 divides by F(7)

    def test_corrupted_fibonacci_value_fails_integrality_check(self, cold_parts):
        fib(400)
        fibcalc._FIB[7] += 1  # F(7) = 13 becomes 14; the parts cache is cold, so the plant enters its divisions
        with pytest.raises(AssertionError, match="non-exact"):
            fibonomial(20, 10)  # direct quotient
        with pytest.raises(AssertionError, match="non-exact"):
            fibonomial(400, 200)  # primitive parts: P_21 is the first to divide by F(7)
        with pytest.raises(AssertionError, match="non-exact"):
            fibonomial_row(20)
        fibcalc._FIB[7] -= 1
        assert fibonomial(400, 200) == naive.fibonomial(400, 200)

    def test_inexact_division_is_its_own_assertion_error(self):
        with pytest.raises(fibcalc._InexactDivision) as exc:
            fibcalc._exact_div(7, 2, "seven halves at {}", 1)
        assert isinstance(exc.value, AssertionError)
        assert str(exc.value) == "seven halves at 1: non-exact division of a 3-bit numerator by a 2-bit denominator"
        assert fibcalc._exact_div(8, 2, "eight halves") == 4

    @given(st.integers(0, 150), st.integers(0, 150))
    def test_multiplicative_identity(self, n, k):
        # Cross-multiplied factorial-ratio form: holds exactly or the value is 0.
        if k <= n:
            assert fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k) == fib_factorial(n)
        else:
            assert fibonomial(n, k) == 0


@pytest.fixture
def divisions(monkeypatch):
    """The d of every primitive part divided from here on, in order."""
    divide = fibcalc._exact_div
    seen: list[int] = []

    def spy(numerator, denominator, what, *args):
        if what.startswith("primitive part"):
            seen.append(args[0])
        return divide(numerator, denominator, what, *args)

    monkeypatch.setattr(fibcalc, "_exact_div", spy)
    return seen


class TestPrimitivePartCache:
    def test_warm_call_divides_nothing(self, cold_parts, divisions):
        cold = fibonomial(1000, 500)
        selected = [d for d in range(1, 1001) if 1000 % d < 500 % d]
        oracle = naive.primitive_parts(1000)
        assert fibcalc._PART == {d: oracle[d] for d in selected}
        del divisions[:]
        assert fibonomial(1000, 500) == cold
        assert divisions == []

    def test_only_the_selected_parts_are_built(self, monkeypatch, cold_parts, divisions):
        # The same divisions as a call that keeps no parts: one per selected
        # composite d, and past the cap once more on every call.
        cap = fibcalc._FIB_CAP
        n = cap + 60
        seq = naive.fibonacci(n)
        selected = [d for d in range(1, n + 1) if n % d < 3 % d]
        composite = [d for d in selected if any(d % e == 0 for e in range(2, math.isqrt(d) + 1))]
        expected = seq[n] * seq[n - 1] * seq[n - 2] // 2
        monkeypatch.setattr(fibcalc, "_PRIMITIVE_MIN_K", 0)
        assert fibonomial(n, 3) == expected
        assert divisions == composite
        del divisions[:]
        assert fibonomial(n, 3) == expected
        assert divisions == [d for d in composite if d > cap] != []
        assert sorted(fibcalc._PART) == [d for d in selected if d <= cap]

    def test_concurrent_growth(self, cold_parts):
        cap = fibcalc._FIB_CAP
        his = list(range(1, 700)) + [cap - 1, cap + 1, cap + 20]
        random.Random(0).shuffle(his)
        oracle = naive.primitive_parts(cap + 20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda hi: fibcalc._parts(list(range(1, hi))), his, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [[oracle[d] for d in range(1, hi)] for hi in his]
        assert fibcalc._PART == {d: oracle[d] for d in range(1, cap + 1)}

    def test_past_the_cap_parts_are_dropped(self, monkeypatch):
        cap = fibcalc._FIB_CAP
        seq = naive.fibonacci(cap + 60)
        monkeypatch.setattr(fibcalc, "_PRIMITIVE_MIN_K", 0)
        assert fibonomial(cap + 60, 3) == seq[cap + 60] * seq[cap + 59] * seq[cap + 58] // 2
        assert len(fibcalc._PART) <= cap and max(fibcalc._PART) <= cap

    @pytest.mark.parametrize("n", [400, 777, 1000, 1601])
    def test_cold_and_warm_calls_match_the_row(self, cold_parts, n):
        row = fibonomial_row(n)  # the row recurrence: no primitive part
        for k in (185, 200, n // 2):
            fibcalc._PART.clear()  # a cold primitive-part cache
            cold = fibonomial(n, k)
            assert cold == fibonomial(n, k) == row[k], (n, k)
        assert max(fibcalc._PART) <= fibcalc._FIB_CAP

    def test_a_growth_step_that_raises_publishes_nothing(self, cold_parts):
        fib(400)
        fibcalc._FIB[7] += 1  # F(7) = 13 becomes 14, and P_7 = F(7)
        with pytest.raises(AssertionError, match="non-exact"):
            fibonomial(400, 200)
        fibcalc._FIB[7] -= 1
        assert fibcalc._PART == {}
        assert fibonomial(400, 200) == naive.fibonomial(400, 200)
        assert fibcalc._PART[7] == 13


class Untouchable(dict):
    """A span cache that fails any test that reads or writes it."""

    def __contains__(self, key):
        raise AssertionError(f"span cache read at {key}")

    __getitem__ = get = __contains__

    def __setitem__(self, key, value):
        raise AssertionError(f"span cache written at {key}")


def span_visits(monkeypatch) -> list[tuple[int, int]]:
    """The spans [a, b) that `_cover` and `_span` visit from here on, in order; each visit multiplies at most once."""
    seen: list[tuple[int, int]] = []
    cover, span = fibcalc._cover, fibcalc._span

    def cover_spy(values, shift, spans, lo, hi, a, b, depth, pieces):
        seen.append((a, b))
        return cover(values, shift, spans, lo, hi, a, b, depth, pieces)

    def span_spy(values, shift, spans, a, b):
        seen.append((a, b))
        return span(values, shift, spans, a, b)

    monkeypatch.setattr(fibcalc, "_cover", cover_spy)
    monkeypatch.setattr(fibcalc, "_span", span_spy)
    return seen


@pytest.mark.usefixtures("cold_parts")
class TestSpanCache:
    def test_no_span_passes_the_cap_and_calls_past_it_add_none(self, monkeypatch):
        cap = fibcalc._FIB_CAP
        fibs = naive.fibonacci(cap + 60)
        top = falling_f_factorial(cap, 400)
        fibonomial(cap, 200)
        before = dict(fibcalc._FIB_SPAN), dict(fibcalc._PART_SPAN)
        assert max(b for spans in before for _, b in spans) == cap + 1
        assert falling_f_factorial(cap + 60, 100) == math.prod(fibs[cap - 39 :])
        assert falling_f_factorial(cap + 1, 401) == top * fibs[cap + 1]
        monkeypatch.setattr(fibcalc, "_PRIMITIVE_MIN_K", 0)  # parts, with a run of 40 across the cap
        assert fibonomial(cap + 60, 40) == math.prod(fibs[cap + 21 :]) // math.prod(fibs[1:41])
        assert (fibcalc._FIB_SPAN, fibcalc._PART_SPAN) == before

    def test_the_caches_stay_under_the_stated_bound_at_the_cap(self):
        # The module docstring: at most about 0.9 * CAP^2 bits of Fibonacci
        # spans and 0.55 * CAP^2 bits of part spans.  Each run below covers
        # the whole tree, so every span that can be kept is.
        cap = fibcalc._FIB_CAP
        fib_factorial(cap)
        falling_f_factorial(cap, cap // 3)
        fibcalc._run_product(fibcalc._parts(list(range(1, cap + 1))), 0, 1, fibcalc._PART_SPAN)
        fibonomial(cap, cap // 2)
        fib_bits = sum(v.bit_length() for v in fibcalc._FIB_SPAN.values())
        part_bits = sum(v.bit_length() for v in fibcalc._PART_SPAN.values())
        assert fib_bits <= 0.9 * cap**2 and part_bits <= 0.55 * cap**2
        assert (fib_bits + part_bits) / 8 < 4e6

    def test_concurrent_overlapping_ranges_on_an_empty_cache(self):
        rng = random.Random(0)
        fibs = naive.fibonacci(1300)
        parts = naive.primitive_parts(1300)
        calls = []  # (function, args, expected)
        for n in rng.sample(range(600, 1300), 24):
            k = rng.randint(40, n)
            calls.append((falling_f_factorial, (n, k), math.prod(fibs[n - k + 1 : n + 1])))
        calls += [(fib_factorial, (n,), math.prod(fibs[1 : n + 1])) for n in rng.sample(range(300, 1300), 12)]
        for n in rng.sample(range(500, 900), 8):
            k = n // 2 - rng.randint(0, 40)
            calls.append((fibonomial, (n, k), naive.fibonomial(n, k)))
        rng.shuffle(calls)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda call: call[0](*call[1]), calls, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected for _, _, expected in calls]
        assert all(span == math.prod(fibs[a:b]) for (a, b), span in fibcalc._FIB_SPAN.items())
        assert all(span == math.prod(parts[d] for d in range(a, b)) for (a, b), span in fibcalc._PART_SPAN.items())

    @pytest.mark.parametrize("function, args", [(fib_factorial, (1000,)), (fibonomial, (1000, 500))])
    def test_a_warm_repeat_adds_no_span_and_visits_log_n_spans(self, monkeypatch, function, args):
        seen = span_visits(monkeypatch)
        value = function(*args)
        cold = len(seen)
        before = dict(fibcalc._FIB_SPAN), dict(fibcalc._PART_SPAN)
        del seen[:]
        assert function(*args) == value
        assert (fibcalc._FIB_SPAN, fibcalc._PART_SPAN) == before
        assert len(seen) <= 4 * args[0].bit_length() < cold

    def test_a_short_run_visits_no_span(self, monkeypatch):
        seen = span_visits(monkeypatch)
        for n in range(31):
            for k in range(n + 1):
                falling_f_factorial(n, k)
                fibonomial(n, k)
            fib_factorial(n)
        assert seen == [] and fibcalc._FIB_SPAN == {} and fibcalc._PART_SPAN == {}

    @pytest.mark.usefixtures("no_digit_limit")
    def test_base_ten_neither_reads_nor_fills_the_span_caches(self, monkeypatch):
        for spans in ("_FIB_SPAN", "_PART_SPAN"):
            monkeypatch.setattr(fibcalc, spans, Untouchable())
        for function, args in [
            ("fib_factorial", (1000,)),
            ("falling_f_factorial", (1000, 300)),
            ("fibonomial", (1000, 100)),
            ("fibonomial", (1000, 500)),
        ]:
            assert str(fibcalc._in_base_ten(function, *args)) == str(naive_value(function, *args))
        with pytest.raises(AssertionError, match="span cache"):
            fib_factorial(1000)  # the int route does read them


def naive_value(function: str, *args: int) -> int:
    if function == "fib_factorial":
        return naive.f_factorial(*args)
    if function == "falling_f_factorial":
        n, k = args
        return naive.f_product(n - k + 1, n)
    return naive.fibonomial(*args)


class TestFibonomialRow:
    def test_examples(self):
        assert fibonomial_row(0) == [1]
        assert fibonomial_row(4) == [1, 3, 6, 3, 1]
        assert fibonomial_row(5) == [1, 5, 15, 15, 5, 1]

    def test_palindromic(self):
        for n in range(26):
            row = fibonomial_row(n)
            assert len(row) == n + 1
            assert row == row[::-1]

    def test_recurrence_matches_per_entry_to_120(self):
        for n in range(121):
            assert fibonomial_row(n) == [fibonomial(n, k) for k in range(n + 1)]

    def test_matches_pascal_oracle_at_300(self):
        assert fibonomial_row(300) == naive.fibonomial_row(300)

    def test_spot_check_at_600(self):
        row = fibonomial_row(600)
        assert len(row) == 601 and row == row[::-1]
        for k in (0, 1, 2, 97, fibcalc._PRIMITIVE_MIN_K - 1, fibcalc._PRIMITIVE_MIN_K, 299, 300, 451, 600):
            assert row[k] == fibonomial(600, k)
        assert row[300] == naive.fibonomial(600, 300)


class TestProduct:
    @pytest.mark.parametrize("lift", [int, decimal.Decimal], ids=["int", "Decimal"])
    def test_equals_the_flat_product(self, lift):
        rng = random.Random(5)
        for length in [*range(40), 100, 257]:
            # Sizes from 1 to 2000 bits, in random order, and a run ascending by size.
            factors = [rng.getrandbits(rng.randint(1, 2000)) | 1 for _ in range(length)]
            for values in (factors, sorted(factors)):
                with decimal.localcontext(fibcalc._exact_context()):
                    assert fibcalc._product([lift(v) for v in values]) == lift(math.prod(values))

    def test_splits_an_ascending_run_by_size(self, monkeypatch):
        # F(1..1000): the first split by size falls at 708, near 1000/sqrt(2),
        # where a split by count would fall at 500.
        spans = []
        tree = fibcalc._tree

        def spy(factors, ends, lo, hi):
            spans.append((lo, hi))
            return tree(factors, ends, lo, hi)

        monkeypatch.setattr(fibcalc, "_tree", spy)
        assert fibcalc._product(naive.fibonacci(1000)[1:]) == naive.f_factorial(1000)
        assert spans[:2] == [(0, 1000), (0, 708)]

    def test_the_span_tree_splits_by_size(self, cold_parts):
        # The root, [1, 4097), splits at 2897, where a split by count would
        # fall at 2049; every cached Fibonacci span's halves hold bits
        # within 3% of each other, and those of part spans within 4%.
        cap = fibcalc._FIB_CAP
        assert fibcalc._split(1, cap + 1) == 2897
        fib_factorial(1500)
        fibcalc._run_product(fibcalc._parts(list(range(1, 1501))), 0, 1, fibcalc._PART_SPAN)
        for spans, tolerance in [(fibcalc._FIB_SPAN, 0.03), (fibcalc._PART_SPAN, 0.04)]:
            halves = [(a, fibcalc._split(a, b), b) for a, b in spans]
            halves = [(a, m, b) for a, m, b in halves if (a, m) in spans and (m, b) in spans]
            assert len(halves) >= 10
            for a, m, b in halves:
                bits = spans[a, m].bit_length(), spans[m, b].bit_length()
                assert abs(bits[0] - bits[1]) <= tolerance * sum(bits), (a, m, b)


def base_ten_text(function: str, *args: int) -> str:
    return str(fibcalc._in_base_ten(function, *args))


@pytest.mark.usefixtures("no_digit_limit")
class TestBaseTen:
    """`_in_base_ten` runs each route over Decimals: its text is `str` of the public function's int."""

    # Every pair to n = 400 takes about a minute on CPython 3.11, whose int ->
    # str is quadratic: every pair to 150, then every third n to 400.
    def test_every_pair_to_150(self):
        for n in range(151):
            assert base_ten_text("fib_factorial", n) == str(fib_factorial(n))
            for k in range(n + 2):
                assert base_ten_text("fibonomial", n, k) == str(fibonomial(n, k))
                assert base_ten_text("falling_f_factorial", n, k) == str(falling_f_factorial(n, k))

    def test_every_third_n_to_400(self):
        for n in range(151, 401, 3):
            assert base_ten_text("fib_factorial", n) == str(fib_factorial(n))
            for k in (1, n // 5, n // 2, n - 1):
                assert base_ten_text("fibonomial", n, k) == str(fibonomial(n, k))
                assert base_ten_text("falling_f_factorial", n, k) == str(falling_f_factorial(n, k))

    def test_either_side_of_the_primitive_route(self):
        cross = fibcalc._PRIMITIVE_MIN_K
        for n in (2 * cross, 2 * cross + 1, 400, 1000):
            for j in (cross - 1, cross):
                for k in (j, n - j):
                    assert base_ten_text("fibonomial", n, k) == str(fibonomial(n, k))

    @pytest.mark.parametrize(
        "function, args",
        [
            ("fib_factorial", (0,)),
            ("falling_f_factorial", (0, 0)),
            ("falling_f_factorial", (0, 1)),
            ("falling_f_factorial", (9, 0)),
            ("falling_f_factorial", (3, 5)),
            ("falling_f_factorial", (400, 401)),
            ("fibonomial", (0, 0)),
            ("fibonomial", (0, 1)),
            ("fibonomial", (9, 0)),
            ("fibonomial", (2, 5)),
            ("fibonomial", (400, 0)),
            ("fibonomial", (400, 401)),
        ],
    )
    def test_empty_products_zeros_and_n_zero(self, function, args):
        assert base_ten_text(function, *args) == str(getattr(fibcalc, function)(*args))

    def test_rows(self):
        for n in (0, 1, 2, 41, 218, 300):
            assert list(map(str, fibcalc._in_base_ten("fibonomial_row", n))) == list(map(str, fibonomial_row(n)))

    def test_values_are_integral_decimals(self):
        # Exponent 0: str gives the digits alone, in linear time.
        values = [
            fibcalc._in_base_ten("fib_factorial", 650),
            fibcalc._in_base_ten("falling_f_factorial", 1000, 300),
            fibcalc._in_base_ten("fibonomial", 1000, 100),
            fibcalc._in_base_ten("fibonomial", 1000, 500),
            *fibcalc._in_base_ten("fibonomial_row", 120),
        ]
        assert all(type(v) is decimal.Decimal and v.as_tuple().exponent == 0 for v in values)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibcalc._in_base_ten("fibonomial", 5, -1)
        with pytest.raises(ValueError):
            fibcalc._in_base_ten("fibonomial_row", -1)

    def test_a_corrupted_value_fails_the_check_with_the_int_message(self, cold_parts):
        fib(400)
        fibcalc._FIB[7] += 1  # F(7) = 13 becomes 14
        for function, args in [("fibonomial", (20, 10)), ("fibonomial", (400, 200)), ("fibonomial_row", (20,))]:
            with pytest.raises(fibcalc._InexactDivision) as lifted:
                fibcalc._in_base_ten(function, *args)
            with pytest.raises(fibcalc._InexactDivision) as plain:
                getattr(fibcalc, function)(*args)
            assert str(lifted.value) == str(plain.value)

    def test_the_context_is_exact_and_traps_rounding(self):
        context = fibcalc._exact_context()
        assert (context.prec, context.Emax, context.Emin) == (decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN)
        assert context.traps[decimal.Inexact] and context.traps[decimal.Rounded]
        # The same traps at a precision a product can pass: a rounding
        # that loses a digit, and one that drops only zeros, both raise.
        narrow = context.copy()
        narrow.prec = 3
        with pytest.raises(decimal.Inexact):
            narrow.multiply(decimal.Decimal(999), decimal.Decimal(999))
        with pytest.raises(decimal.Rounded):
            narrow.multiply(decimal.Decimal(1000), decimal.Decimal(1))

    def test_the_callers_context_is_left_as_it_was(self):
        before = decimal.getcontext().copy()
        fibcalc._in_base_ten("fibonomial", 300, 150)
        after = decimal.getcontext()
        assert (after.prec, after.traps, after.flags) == (before.prec, before.traps, before.flags)
