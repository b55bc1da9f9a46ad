"""Exact Dedekind sums by two independent routes.

``dedekind_sawtooth`` is the elementary arithmetic form

    s(beta, alpha) = sum_{k=1}^{alpha-1} ((k/alpha)) ((k*beta/alpha))

and ``dedekind_cot`` is the cotangent form

    s(beta, alpha) = (1/(4*alpha)) * sum_{k=1}^{alpha-1}
                        cot(k*pi*beta/alpha) * cot(k*pi/alpha)

evaluated exactly in a cyclotomic field.  The two must agree on every
coprime pair; the sawtooth route is deliberately kept free of any shared
machinery so it can serve as an oracle for the cotangent route.

The cotangent route runs on integers (see :mod:`flateta.cyclotomic`).
Every cotangent in Q(zeta_M), M = lcm(4, 2*alpha), is zeta_M^parity,
parity = M/4 mod 2, times a polynomial in y = zeta_M^2 = zeta_(M/2)
reduced mod Phi_(M/2); the entries of the other parity are zero, because
Phi_M(x) = Phi_(M/2)(x^2).  ``_cot_table`` holds those half rows, the
deg Phi_(M/2) = deg(Phi_M)/2 coefficients in y of cot(k*pi/alpha) for
every k, over one shared denominator, each packed into one int.  With D
the largest |coefficient| of the table and deg = deg Phi_(M/2), a
coefficient of the sum in ``_cot_sum`` is a sum of at most alpha/2 pairs
of rows times deg products, so its absolute value is at most
(alpha//2 + 1) * deg * D^2; the slot width is chosen with that bound
below 2^(bits-1), so the alpha/2 big-int multiply-adds never carry
between slots.  The sum is unpacked once, multiplied by y when parity is
1 (the two factors zeta_M^parity make y^parity), reduced once mod
Phi_(M/2) and certified rational before it is returned; its constant
term is that of the sum in Q(zeta_M).  The route is refused above
``COT_ALPHA_MAX``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import (
    FIELD_ORDER_MAX,
    _cot_half,
    _pack,
    _reduce_int_mod_phi,
    _slot_bits,
    _unpack,
    cyclotomic_polynomial,
)
from .errors import DomainError


def sawtooth(x) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for non-integers, 0 at integers.

    >>> sawtooth(Fraction(7, 3))
    Fraction(-1, 6)
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def _check_pair(beta: int, alpha: int) -> None:
    if not (isinstance(beta, int) and isinstance(alpha, int)):
        raise DomainError(f"beta and alpha must be ints, got {beta!r} and {alpha!r}")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    if gcd(beta, alpha) != 1:
        raise DomainError(
            f"gcd({beta}, {alpha}) != 1: Dedekind sums need coprime arguments"
        )


# Largest alpha the cotangent route accepts, 1000, so that its fields stay
# within the cyclotomic module's ceiling.  Its cost follows deg Phi_M,
# which peaks at prime alpha (deg = 2*(alpha - 1)): a cold alpha = 997 takes
# about 1 s (README has the table).
COT_ALPHA_MAX = FIELD_ORDER_MAX // 4


def dedekind_sawtooth(beta: int, alpha: int) -> Fraction:
    """Dedekind sum by direct summation of sawtooth products.

    Brute force on purpose: this is the independent oracle for
    ``dedekind_cot``.  alpha = 1 gives the empty sum 0.
    """
    _check_pair(beta, alpha)
    total = Fraction(0)
    for k in range(1, alpha):
        total += sawtooth(Fraction(k, alpha)) * sawtooth(Fraction(k * beta, alpha))
    return total


def dedekind_cot(beta: int, alpha: int) -> Fraction:
    """Dedekind sum through exact cyclotomic cotangent products.

    The summand has period alpha in beta and the k and alpha-k terms are
    equal (both cotangent factors flip sign), which the implementation
    exploits; the arithmetic itself is exact integer products of the
    cotangents' coefficient vectors, whose total is certified rational
    before being returned.  alpha above
    COT_ALPHA_MAX is refused with DomainError rather than left to run.
    """
    _check_pair(beta, alpha)
    if alpha > COT_ALPHA_MAX:
        raise DomainError(
            f"alpha = {alpha} is above {COT_ALPHA_MAX}, the largest alpha "
            "the cyclotomic Dedekind route accepts"
        )
    if alpha == 1:
        return Fraction(0)
    return _cot_sum(beta % alpha, alpha)


@lru_cache(maxsize=None)
def _cot_sum(beta: int, alpha: int) -> Fraction:
    order, parity, den, bits, rows = _cot_table(alpha)
    # Pair k with alpha-k: equal terms, so sum halves and doubles at the
    # end.  For even alpha the middle term k = alpha/2 is cot(pi/2) = 0.
    packed = 0
    for k in range(1, (alpha + 1) // 2):
        packed += rows[k * beta % alpha] * rows[k]
    # One unpacking, times y^parity, and one reduction mod Phi_(M/2) for
    # the whole sum.
    degree = len(cyclotomic_polynomial(order // 2)) - 1
    product = _unpack(packed, 2 * degree - 1, bits)
    if parity:
        product.insert(0, 0)
    rem = _reduce_int_mod_phi(product, order // 2)
    # The sum is rational exactly when nothing past the constant term is
    # left (the power basis is a Q-basis); certify that before returning.
    constant, *rest = rem or [0]
    if any(rest):
        raise RuntimeError(
            "internal error: cotangent Dedekind sum failed rationality "
            f"certification for ({beta}, {alpha})"
        )
    return Fraction(2 * constant, den * den * 4 * alpha)


@lru_cache(maxsize=None)
def _cot_table(alpha: int) -> tuple[int, int, int, int, tuple[int, ...]]:
    """cot(k*pi/alpha), k = 1..alpha-1, in Q(zeta_M), M = lcm(4, 2*alpha),
    as half rows (their deg Phi_(M/2) coefficients in y = zeta_M^2, see
    the module docstring) over one shared denominator, each packed into
    one int at a slot width that no sum in ``_cot_sum`` can carry out of.

    Returns (M, parity, denominator, slot bits, rows) with rows 1-indexed.
    """
    order = lcm(4, 2 * alpha)
    # cot(pi - x) = -cot(x): compute k <= alpha/2, negate the packed rest.
    cots = [_cot_half(k, alpha) for k in range(1, alpha // 2 + 1)]
    parity = cots[0][0]  # M/4 mod 2, the same for every row
    den = lcm(*(m for _, _, m in cots))
    vectors = [[c * (den // m) for c in half] for _, half, m in cots]
    top = max(max(map(abs, vec)) for vec in vectors)
    # A slot of the sum in _cot_sum adds at most alpha//2 pairs of rows,
    # each contributing at most deg Phi_(M/2) products of two coefficients.
    bits = _slot_bits((alpha // 2 + 1) * len(vectors[0]) * top * top)
    rows = [_pack(vec, bits) for vec in vectors]
    return order, parity, den, bits, (0, *rows, *(-row for row in reversed(rows[: (alpha - 1) // 2])))
