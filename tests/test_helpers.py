"""The bounded-time check every "ends within N s" test goes through."""

import math
import threading

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


def test_within_fails_at_once_while_an_overrun_call_still_runs():
    # Event.wait releases the GIL, so the join times out and the worker is
    # left running; the next call must not start another thread beside it
    event, workers = threading.Event(), []

    def overrun():
        workers.append(threading.current_thread())
        event.wait(0.3)

    try:
        with pytest.raises(AssertionError, match="still running after 0.05 s"):
            within(0.05, overrun)
        # a call that would return at once is refused instead
        with pytest.raises(AssertionError, match="overran its 0.05 s budget and is still running"):
            within(1, lambda: "answer")
    finally:
        event.set()
    workers[0].join()
    assert within(1, lambda: "answer") == "answer"
