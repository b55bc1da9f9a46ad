"""Shared test helpers: a bounded-time call and the check of a value
class's protocol."""

import copy
import pickle
import threading
import time

import pytest


# (call, budget, worker) of the last call that overran its budget while its
# worker thread was still running, or None
_overrun = None


def within(seconds, call):
    """call()'s value, or the exception it raised, re-raised here; fails
    the test unless call ends within seconds of wall-clock time.

    call runs on a daemon thread joined with the budget.  A join cannot
    time out while one C call holds the GIL, so the clock is read too.
    A worker that overran is left running, since a thread cannot be
    stopped; while it runs, every later call fails at once, so that it
    does not slow the tests that follow unnoticed.
    """
    global _overrun
    if _overrun is not None:
        earlier, budget, worker = _overrun
        assert not worker.is_alive(), \
            f"an earlier call, {earlier!r}, overran its {budget} s budget and is still running"
        _overrun = None
    outcome = []

    def attempt():
        try:
            outcome.append((True, call()))
        except BaseException as exc:  # re-raised in the test's own thread
            outcome.append((False, exc))

    worker = threading.Thread(target=attempt, daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(seconds)
    elapsed = time.perf_counter() - start
    if worker.is_alive():
        _overrun = call, seconds, worker
        raise AssertionError(f"still running after {seconds} s")
    assert elapsed < seconds, f"took {elapsed:.3f} s, over its {seconds} s budget"
    returned, value = outcome[0]
    if returned:
        return value
    raise value


def check_value_protocol(value, fields: dict, text: str):
    """Fails unless value, an instance of one of the package's frozen value
    classes with the given fields (in declaration order), behaves as a
    value: its repr is text; it equals and hashes as an instance built from
    the fields, and hashes as their tuple; it differs from that tuple and
    from an instance of another class (a subclass) with the same fields; it
    refuses assignment and deletion of each field; and pickle, copy.copy
    and copy.deepcopy give an equal instance of its class."""
    cls, values = type(value), tuple(fields.values())
    assert repr(value) == text
    twin = cls(**fields)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(values)
    other = type("Other", (cls,), {})(**fields)
    for stranger in (values, other):
        assert value != stranger and stranger != value and not value == stranger
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == field
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value

