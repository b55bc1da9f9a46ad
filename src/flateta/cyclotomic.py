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
compares within one order, promotes to a larger field or reads as
coefficients, and that is all.  :mod:`flateta.dedekind` does not use
this module: its cotangent route sums Galois traces on plain integers.
What reads these values is the benchmark's staged set-up of a cold
field and the tests, which compare them with mpmath and use the
reduction as an independent trace of the Dedekind route's vectors.
Under ``cot_exact`` are two things:

* **Sparse reduction.**  ``_reduce_int_mod_phi`` divides by two sparse
  multiples of Phi_N before dividing by Phi_N itself, so its remainder is
  that of plain long division.  First it folds with y^n = s (n = N/2,
  s = -1 for even N; n = N, s = 1 for odd N), one elementwise pass per
  length-n chunk.  Then, with p the least odd prime of N and L = n/p,
  Phi_N divides sum_{i<p} s^i y^(i*L), so one elementwise pass subtracts
  the top L entries, tiled with signs s^i, from the first n - L.  Last,
  long division by Phi_N runs the n - L - deg Phi_N steps that are left
  (none when N has at most one odd prime), each touching only Phi's
  nonzero terms: ``Phi_N(x) = Phi_rad(N)(x^(N/rad N))`` has a handful
  of them (5 at N = 400, degree 160).  ``_reduction`` works out n, s,
  the cut n - L and those terms once per field, in the module's one
  cache; Phi_N itself is built from two-term factors x^d - 1, multiplied
  out and divided exactly.
* **Integer cotangent rows.**  cot(r*pi/n) = i*X with
  X = (w + 1)/(w - 1), w = zeta_n^r, and X lies in Q(zeta_n).  ``_coth``
  builds m*X, m the order of w, as an integer remainder mod Phi_n,
  without a cache.  ``cot_exact`` spreads the row onto Q(zeta_M),
  M = lcm(4, 2n), shifts it by M/4 (i = zeta_M^(M/4)) and reduces it
  mod Phi_M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from .dedekind import COT_ALPHA_MAX
from .errors import DomainError, PoleError, shown

# Largest field order N this module builds, checked before any O(N) list
# is allocated: ``cot_exact`` and ``promoted`` reach Q(zeta_M),
# M = lcm(4, 2*alpha) <= 4*alpha (3996 at alpha = 999), for every
# cotangent in a sum the Dedekind route accepts.
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


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_N as an ascending coefficient tuple.

    With r = rad(N), Phi_N(x) = Phi_r(x^(N/r)) and Phi_r is the product of
    (x^d - 1)^mu(r/d) over the divisors d of r: multiply out the factors
    with mu = +1, then divide exactly by the two-term x^d - 1 of the rest.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    _check_order(order)
    primes, rest, p = [], order, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    squarefree = [(1, 1)]  # (e, mu(e)) for every e dividing rad(N)
    for p in primes:
        squarefree += [(e * p, -mu) for e, mu in squarefree]
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


@lru_cache(maxsize=None)
def _reduction(order: int) -> tuple:
    """What ``_reduce_int_mod_phi`` needs to know of Phi_order, cached per
    field: (n, s, cut, deg Phi_order, Phi's nonzero lower terms).

    Phi_N divides y^n - s, with n = N/2, s = -1 for even N and n = N,
    s = 1 for odd N.  With p the least odd prime of N and L = n/p, it also
    divides D = sum_{i<p} s^i y^(i*L), monic of degree cut = n - L (p - 1
    is even); without an odd prime (N a power of two, or 1) cut = n.
    """
    phi = cyclotomic_polynomial(order)
    degree = len(phi) - 1
    n, s = (order // 2, -1) if order % 2 == 0 else (order, 1)
    p = odd = order // (order & -order)  # p: the least prime of the odd part, or 1
    for q in range(3, isqrt(odd) + 1, 2):
        if odd % q == 0:
            p = q
            break
    cut = n - n // p if p > 1 else n
    terms = tuple((j, c) for j, c in enumerate(phi[:degree]) if c)
    return n, s, cut, degree, terms


def _reduce_int_mod_phi(vec: list[int], order: int) -> list[int]:
    """Trimmed remainder of an integer polynomial of any degree mod the
    monic Phi_order.

    Each stage divides by a multiple of Phi_order, so the remainder is
    that of plain long division; only the work shrinks.
    """
    n, s, cut, degree, terms = _reduction(order)
    rem = vec[:n]
    sign = 1
    for start in range(n, len(vec), n):  # y^n = s folds chunk c in with s^c
        sign *= s
        chunk = vec[start:start + n]
        rem[:len(chunk)] = list(map(add if sign > 0 else sub, rem, chunk))
    if len(rem) > cut:
        # y^cut = -sum_{i<p-1} s^i y^(i*L) clears the top L entries at once:
        # subtract them, tiled with signs s^i, from the first cut entries.
        top = rem[cut:] + [0] * (n - len(rem))
        if s < 0:
            top += list(map(neg, top))
        rem = list(map(sub, rem, top * (cut // len(top))))
    for i in range(len(rem) - degree - 1, -1, -1):  # y^i * Phi clears y^(i + degree)
        c = rem[i + degree]
        if c:
            for j, d in terms:
                rem[i + j] -= c * d
    return _trim(rem[:degree])


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicElement:
    """An exact cotangent value in Q(zeta_N), as returned by ``cot_exact``.

    Stored as ``order`` N, an integer ``numerator`` vector over the power
    basis and one positive ``denominator``: the value
    ``sum(numerator[j] * zeta_N^j) / denominator``.  Only ``cot_exact`` and
    ``promoted`` build canonical values (through ``_element``: numerator
    reduced mod Phi_N and trimmed, lowest terms, a rational value at order
    1, there ``numerator[0] / denominator``, 0 when empty), unique for a
    given order.  ``==`` and ``hash`` compare fields, so they compare the
    values of canonical elements of one order; a value built through the
    dataclass constructor is taken as given.  ``promoted`` brings a value
    to a larger order; ``coefficients`` gives its deg(Phi_N) coefficients.

    >>> cot_exact(1, 6)
    CyclotomicElement(order=12, numerator=(0, 2, 0, -1), denominator=1)
    """

    order: int
    numerator: tuple[int, ...]
    denominator: int

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The deg(Phi_order) coefficients over the power basis."""
        padding = (Fraction(0),) * (_reduction(self.order)[3] - len(self.numerator))
        return tuple(Fraction(c, self.denominator) for c in self.numerator) + padding

    def promoted(self, order: int) -> "CyclotomicElement":
        """The same value expressed in Q(zeta_order); order must be a
        multiple of self.order.

        A rational value stays at order 1: its vector is the same in
        every field.
        """
        _check_order(order)
        if order % self.order:
            raise DomainError(f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        if order == self.order or self.order == 1:
            return self
        step = order // self.order
        spread = [0] * ((len(self.numerator) - 1) * step + 1)
        spread[::step] = self.numerator
        return _element(order, _reduce_int_mod_phi(spread, order), self.denominator)


def _element(order: int, rem, den: int) -> CyclotomicElement:
    """The element rem(zeta_order) / den, for an integer vector rem already
    reduced mod Phi_order and den > 0, in canonical form: rem trimmed, the
    pair in lowest terms and a rational value at order 1."""
    rem = _trim(list(rem))
    g = gcd(den, *rem)
    if g > 1:
        rem = [c // g for c in rem]
        den //= g
    return CyclotomicElement(order if len(rem) > 1 else 1, tuple(rem), den)


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
    rem, m = _coth(k % n, n)
    # zeta_n^j = zeta_M^(j*step), and multiplying by i shifts by M/4
    step, quarter = order // n, order // 4
    spread = [0] * (quarter + step * len(rem))
    spread[quarter::step] = rem
    return _element(order, _reduce_int_mod_phi(spread, order), m)


def _coth(r: int, n: int) -> tuple[list[int], int]:
    """m*(w + 1)/(w - 1) for w = zeta_n^r of order m, r not a multiple of n,
    as (rem, m): rem the trimmed integer remainder mod Phi_n, empty at w = -1.
    ``cot_exact`` is its one caller.
    """
    # 1/(w - 1) = (1/m) * sum_{j<m} j*w^j makes it (m - 1) + sum_{j=1}^{m-1}
    # (2j - 1)*w^j, with no polynomial gcd per row.  For even n,
    # zeta_n^(n/2) = -1 folds every exponent below n/2 before the division.
    m = n // gcd(n, r)
    size = n // 2 if n % 2 == 0 else n
    vec = [0] * size
    vec[0] = m - 1
    for j in range(1, m):
        e = j * r % n
        if e < size:
            vec[e] += 2 * j - 1
        else:
            vec[e - size] -= 2 * j - 1
    return _reduce_int_mod_phi(vec, n), m
