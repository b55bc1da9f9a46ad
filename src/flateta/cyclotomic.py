"""Exact cotangents in cyclotomic fields Q(zeta_N).

An element is a polynomial in the primitive N-th root of unity reduced
modulo the N-th cyclotomic polynomial Phi_N, over the power basis
``1, z, ..., z^(phi(N)-1)`` of Q(zeta_N).  It is stored on integers only:
an integer numerator vector over that basis and one positive
denominator, in lowest terms.  Because the basis is a Q-basis, an
element is a rational number exactly when every coefficient past the
constant term vanishes, and a rational value is stored at order 1.

Nothing in this module rounds, and there is no field arithmetic on
elements: ``cot_exact`` returns cot(k*pi/n) as a frozen value that
compares within one order and reads as coefficients, and that is all.
:mod:`flateta.dedekind` does not use this module: its cotangent route
sums Galois traces on plain integers.
Only the benchmark's trace-mode staging of a cold field and this
module's own tests read it; the tests compare its values with mpmath
and check the reduction itself.  Under ``cot_exact`` are two steps:

* **Integer cotangent rows.**  cot(r*pi/n) = i*X(w), X(w) = (w + 1)/(w - 1)
  and w = zeta_n^r of order m.  As 1/(w - 1) = (1/m) * sum_{j<m} j*w^j,
  m*i*X(w) is the integer row over Q(zeta_M), M = lcm(4, 2n), with m - 1 at
  i = zeta_M^(M/4) and 2j - 1 at i*w^j = zeta_M^(M/4 + j*r*M/n), 0 < j < m.
* **Sparse reduction.**  ``_reduce_int_mod_phi`` folds with y^n = s
  (n = N/2, s = -1 for even N; n = N, s = 1 for odd N), then long-divides
  by Phi_N, each step touching only Phi's nonzero coefficients (5 of 161
  at N = 400, 441 of 1321 at N = 3972).  ``_reduction`` works them out once
  per field, in the module's one cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .dedekind import COT_ALPHA_MAX, _squarefree
from .errors import DomainError, PoleError, Value, shown

# Largest field order N this module builds, checked before any O(N) list
# is allocated.  It bounds the fields the benchmark's staging and the
# tests reach, cot(k*pi/alpha) in Q(zeta_M) with M = lcm(4, 2*alpha) <=
# 4*alpha for alpha <= COT_ALPHA_MAX = 1000 (3996 at alpha = 999).
FIELD_ORDER_MAX = 4 * COT_ALPHA_MAX


def _check_order(order: int) -> None:
    if type(order) is not int:
        raise DomainError(f"order must be an int, got {shown(order)}")
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > FIELD_ORDER_MAX:
        raise DomainError(f"field order {shown(order)} is above "
                          f"FIELD_ORDER_MAX = {FIELD_ORDER_MAX}")


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense ascending coefficient lists)
# ---------------------------------------------------------------------------


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_N as an ascending coefficient tuple.

    With r = rad(N), Phi_N(x) = Phi_r(x^(N/r)) and Phi_r is the product of
    (x^d - 1)^mu(r/d) over the divisors d of r: multiply out the factors
    with mu = +1, then divide exactly by the two-term x^d - 1 of the rest.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    _check_order(order)
    squarefree = _squarefree(order)  # (e, mu(e)) for every e dividing rad(N)
    rad = squarefree[-1][0]
    poly, divisors = [1], []
    for e, mu in squarefree:
        if mu < 0:
            divisors.append(rad // e)
        else:  # poly *= x^d - 1
            d = rad // e
            poly = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly[: len(poly) - d]):
                poly[i + d] -= c
    for d in divisors:  # poly /= x^d - 1: the quotient is poly[d:]
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i - d] += poly[i]
        if any(poly[:d]):
            raise AssertionError(f"inexact division building Phi_{order}")
        poly = poly[d:]
    step = order // rad
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


@lru_cache
def _reduction(order: int) -> tuple:
    """(n, s, deg Phi_order, Phi's nonzero lower terms), cached per field:
    Phi_N divides y^n - s, n = N/2 and s = -1 for even N, n = N and s = 1
    for odd N."""
    phi = cyclotomic_polynomial(order)
    degree = len(phi) - 1
    n, s = (order // 2, -1) if order % 2 == 0 else (order, 1)
    terms = tuple((j, c) for j, c in enumerate(phi[:degree]) if c)
    return n, s, degree, terms


def _reduce_int_mod_phi(vec: list[int], order: int) -> list[int]:
    """Trimmed remainder of an integer polynomial of any degree mod the
    monic Phi_order.

    The fold divides by y^n - s, a multiple of Phi_order, so the
    remainder is that of plain long division; only the work shrinks.
    """
    n, s, degree, terms = _reduction(order)
    rem = vec[:n]
    sign = 1
    for start in range(n, len(vec), n):  # y^n = s folds chunk c in with s^c
        sign *= s
        chunk = vec[start:start + n]
        rem[:len(chunk)] = list(map(add if sign > 0 else sub, rem, chunk))
    for i in range(len(rem) - degree - 1, -1, -1):  # y^i * Phi clears y^(i + degree)
        c = rem[i + degree]
        if c:
            for j, d in terms:
                rem[i + j] -= c * d
    rem = rem[:degree]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


class CyclotomicElement(Value):
    """An exact cotangent value in Q(zeta_N), as returned by ``cot_exact``.

    Stored as ``order`` N, an integer ``numerator`` vector over the power
    basis and one positive ``denominator``: the value
    ``sum(numerator[j] * zeta_N^j) / denominator``.  Only ``cot_exact``
    builds canonical values (numerator reduced mod Phi_N and trimmed,
    lowest terms, a rational value at order 1, there
    ``numerator[0] / denominator``, 0 when empty), unique for a given
    order.  ``==`` and ``hash`` compare fields, so they compare the
    values of canonical elements of one order; a value built through the
    constructor is taken as given.  ``promoted`` reads a value in its own
    field, and a rational value in any; ``coefficients`` gives its
    deg(Phi_N) coefficients.

    >>> cot_exact(1, 6)
    CyclotomicElement(order=12, numerator=(0, 2, 0, -1), denominator=1)
    """

    __slots__ = ("order", "numerator", "denominator")

    def __init__(self, order: int, numerator: tuple[int, ...], denominator: int):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The deg(Phi_order) coefficients over the power basis."""
        padding = (Fraction(0),) * (_reduction(self.order)[2] - len(self.numerator))
        return tuple(Fraction(c, self.denominator) for c in self.numerator) + padding

    def promoted(self, order: int) -> "CyclotomicElement":
        """The same value read in Q(zeta_order): the element itself, for
        its own order or for a rational value, which stays at order 1
        since its vector is the same in every field.  Any other order is
        refused."""
        _check_order(order)
        if order != self.order and self.order != 1:
            raise DomainError(f"a value of Q(zeta_{self.order}) is not promoted "
                              f"to another field (order {order})")
        return self


# ---------------------------------------------------------------------------
# exact cotangents
# ---------------------------------------------------------------------------


def cot_exact(k: int, n: int) -> CyclotomicElement:
    """cot(k*pi/n) as an exact element of Q(zeta_M), M = lcm(4, 2n).

    Writes cot(k*pi/n) = i*(w + 1)/(w - 1) with w = zeta_n^k = zeta_M^(k*M/n)
    and i = zeta_M^(M/4).

    >>> cot_exact(1, 4)
    CyclotomicElement(order=1, numerator=(1,), denominator=1)
    """
    if not (type(k) is int and type(n) is int):
        raise DomainError(f"k and n must be ints, got {shown(k)} and {shown(n)}")
    if n < 1:
        raise DomainError("cotangent denominator n must be >= 1")
    if k % n == 0:
        raise PoleError(f"cot({shown(k)}*pi/{shown(n)}) is a pole")
    order = lcm(4, 2 * n)
    _check_order(order)
    # m*i*X(w), m the order of w: m - 1 at i, 2j - 1 at i*w^j for 0 < j < m
    r, quarter, step = k % n, order // 4, order // n
    m = n // gcd(n, r)
    row = [0] * order
    row[quarter] = m - 1
    for j in range(1, m):
        row[(quarter + j * r * step) % order] = 2 * j - 1
    # the reduced row over m, canonical: in lowest terms, a rational value at order 1
    rem = _reduce_int_mod_phi(row, order)
    g = gcd(m, *rem)
    return CyclotomicElement(order if len(rem) > 1 else 1, tuple(c // g for c in rem), m // g)
