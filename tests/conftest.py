"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
import types

import pytest

from cobweb import fibcalc


@pytest.fixture
def digit_limit_640():
    """The int -> str digit limit lowered to 640 digits, put back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int -> str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture
def no_digit_limit():
    """The int -> str digit limit lifted, put back afterwards."""
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


@pytest.fixture
def cold_parts():
    """fibcalc's primitive-part and span caches emptied; they and the Fibonacci cache are put back afterwards.

    So a test may plant a wrong value in fibcalc._FIB: the empty part cache
    makes the plant enter the parts' divisions, the empty span caches make
    it enter every product, and the plant goes when the Fibonacci cache is
    put back.
    """
    fibs = list(fibcalc._FIB)
    kept = [(cache, dict(cache)) for cache in (fibcalc._PART, fibcalc._FIB_SPAN, fibcalc._PART_SPAN)]
    for cache, _ in kept:
        cache.clear()
    yield
    fibcalc._FIB[:] = fibs
    for cache, entries in kept:
        cache.clear()
        cache.update(entries)


@pytest.fixture
def record_stdout(monkeypatch):
    """A call that sets sys.stdout to a recorder and returns the list of chunks written to it with writelines.

    It is called in the test: pytest sets sys.stdout again after the fixtures are set up.
    """

    def record() -> list[str]:
        chunks: list[str] = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(writelines=chunks.extend))
        return chunks

    return record
