"""Shared test helpers: a bounded-time call, and numeric embeddings of
cyclotomic elements for cross-checks.

The library itself never produces floating-point values; the embeddings
evaluate an element's coefficient vector at a numerical root of unity so
tests can compare exact results against independent float computations.
"""

import cmath
import threading
import time

import mpmath


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
