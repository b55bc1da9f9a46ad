"""The bounded-time check every "ends within N s" test goes through."""

import math

import pytest

from helpers import within


def test_within_fails_a_call_that_holds_the_gil_past_its_budget():
    # math.factorial(150000) is one C call of 0.3-0.5 s (CPython 3.11,
    # x86-64) that never releases the GIL, so a join with a timeout cannot
    # return before it ends; a join alone passes it, the clock does not
    with pytest.raises(AssertionError, match="over its 0.05 s budget"):
        within(0.05, lambda: math.factorial(150000))


def test_within_returns_the_value_or_reraises_the_exception_unchanged():
    assert within(1, lambda: "answer") == "answer"
    error = LookupError("raised by the call")

    def call():
        raise error

    with pytest.raises(LookupError) as raised:
        within(1, call)
    assert raised.value is error
