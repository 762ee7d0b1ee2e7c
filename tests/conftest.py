"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


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
