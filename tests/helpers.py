"""Shared test helpers: a bounded-time call, the check of a value class's
protocol, and numeric embeddings of cyclotomic elements for cross-checks.

The library itself never produces floating-point values; the embeddings
evaluate an element's coefficient vector at a numerical root of unity so
tests can compare exact results against independent float computations.
"""

import cmath
import copy
import pickle
import threading
import time

import mpmath
import pytest


def within(seconds, call):
    """call()'s value, or the exception it raised, re-raised here; fails
    the test unless call ends within seconds of wall-clock time.

    call runs on a daemon thread joined with the budget.  A join cannot
    time out while one C call holds the GIL, so the clock is read too.
    """
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
    assert not worker.is_alive(), f"still running after {seconds} s"
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


def embed_complex(elem) -> complex:
    """Double-precision value of the element under zeta_N -> e^(2*pi*i/N)."""
    root = cmath.exp(2j * cmath.pi / elem.order)
    return sum(complex(c) * root**j for j, c in enumerate(elem.coefficients))


def embed_mp(elem, dps: int = 50):
    """High-precision (mpmath) value of the element."""
    with mpmath.workdps(dps):
        root = mpmath.exp(2j * mpmath.pi / elem.order)
        total = mpmath.mpc(0)
        for j, c in enumerate(elem.coefficients):
            if c:
                total += mpmath.mpf(c.numerator) / c.denominator * root**j
        return total
