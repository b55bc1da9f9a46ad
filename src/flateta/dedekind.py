"""Exact Dedekind sums by two independent routes.

``dedekind_sawtooth`` is the elementary arithmetic form

    s(beta, alpha) = sum_{k=1}^{alpha-1} ((k/alpha)) ((k*beta/alpha))

and ``dedekind_cot`` is the cotangent form

    s(beta, alpha) = (1/(4*alpha)) * sum_{k=1}^{alpha-1}
                        cot(k*pi*beta/alpha) * cot(k*pi/alpha)

evaluated exactly in a cyclotomic field.  The two must agree on every
coprime pair; the sawtooth route is deliberately kept free of any shared
machinery so it can serve as an oracle for the cotangent route.  It sums
the alpha - 1 products as integers over one denominator 4*alpha^2, and
tests pin it to the sum of ``sawtooth`` products itself; it is refused
above ``SAWTOOTH_ALPHA_MAX``.

The cotangent route runs on integers in Q(zeta_alpha): with
X_k = (zeta_alpha^k + 1)/(zeta_alpha^k - 1), cot(k*pi/alpha) = i*X_k, so
each term is -X_(k*beta) * X_k.  ``_cot_table`` builds the rows m*X_k
for k <= alpha/2, m the order of zeta_alpha^k, as integers reduced mod
Phi_alpha by :mod:`flateta.cyclotomic`, and packs them in one pass, each
padded to the longest row's ``slots``, into one int
``sum v[i] * 2^(bits*i)`` (Kronecker substitution), so a polynomial
product is one big-int multiplication.  Packing is linear, so it then
scales each row to the least common denominator alpha/g (every m
divides alpha, and m = alpha at k = 1), g = gcd(alpha, (alpha/m) *
gcd(row) over the rows): times alpha/m, then divided by g, exactly, as
g divides every coefficient.  The slot width is exact: with D the
largest |coefficient|, a coefficient of the sum in ``_cot_sum`` adds at
most alpha/2 pairs of rows times ``slots`` products, so it is at most
(alpha//2 + 1) * slots * D^2 in absolute value; with that bound and
every unscaled coefficient below 2^(bits-1), each slot holds its
balanced digit in (-2^(bits-1), 2^(bits-1)) without carrying, and
anything left above the top slot is an internal error.  So is a width
past 64 bits, the packer's 8-byte entries: no alpha up to
``COT_ALPHA_MAX`` needs more (at most 56 bits, first at alpha = 595).
The sum is unpacked once, reduced mod Phi_alpha and certified rational
before it is returned.  The route is refused above ``COT_ALPHA_MAX``.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import FIELD_ORDER_MAX, _coth, _reduce_int_mod_phi
from .errors import DomainError, shown

_FLIP = bytes(b ^ 128 for b in range(256))  # translate: each byte with its top bit flipped


def sawtooth(x) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for non-integers, 0 at integers.

    >>> sawtooth(Fraction(7, 3))
    Fraction(-1, 6)
    """
    try:
        x = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"x must be a rational number, got {shown(x)}") from None
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def _check_pair(beta: int, alpha: int) -> None:
    if not (type(beta) is int and type(alpha) is int):
        raise DomainError(f"beta and alpha must be ints, got {shown(beta)} and {shown(alpha)}")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {shown(alpha)}")
    if gcd(beta, alpha) != 1:
        raise DomainError(f"gcd({shown(beta)}, {shown(alpha)}) != 1: "
                          "Dedekind sums need coprime arguments")


# Largest alpha the cotangent route accepts, 1000, so that its fields stay
# within the cyclotomic module's ceiling.  Its cost follows deg Phi_alpha,
# which peaks at prime alpha (deg = alpha - 1): a cold alpha = 997 takes
# about 0.5 s, most of it the first convolution (README has the table).
COT_ALPHA_MAX = FIELD_ORDER_MAX // 4


# Largest alpha the sawtooth route sums: its alpha - 1 integer products
# take about 1.5 ms at 10^4 (CPython 3.11, x86-64) and grow linearly, so a
# larger alpha is refused rather than left to run.
SAWTOOTH_ALPHA_MAX = 10**4


def dedekind_sawtooth(beta: int, alpha: int) -> Fraction:
    """Dedekind sum by direct summation of sawtooth products.

    Brute force on purpose: this is the independent oracle for
    ``dedekind_cot``.  alpha = 1 gives the empty sum 0; alpha above
    SAWTOOTH_ALPHA_MAX is refused with DomainError.
    """
    _check_pair(beta, alpha)
    if alpha > SAWTOOTH_ALPHA_MAX:
        raise DomainError(
            f"alpha = {shown(alpha)} is above SAWTOOTH_ALPHA_MAX = {SAWTOOTH_ALPHA_MAX}, "
            "the largest alpha the sawtooth route sums"
        )
    # For coprime beta and 0 < k < alpha neither k/alpha nor k*beta/alpha is
    # an integer, so ((k/alpha)) = (2k - alpha)/(2*alpha) and
    # ((k*beta/alpha)) = (2*(k*beta mod alpha) - alpha)/(2*alpha).
    b = beta % alpha
    total = sum((2 * k - alpha) * (2 * (k * b % alpha) - alpha) for k in range(1, alpha))
    return Fraction(total, 4 * alpha * alpha)


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
            f"alpha = {shown(alpha)} is above {COT_ALPHA_MAX}, the largest alpha "
            "the cyclotomic Dedekind route accepts"
        )
    if alpha == 1:
        return Fraction(0)
    return _cot_sum(beta % alpha, alpha)


def _slot_bits(bound: int) -> int:
    """Slot width, in whole bytes, for packed vectors whose product sums
    have every coefficient of absolute value at most ``bound``: a slot
    holds any value in (-2^(bits-1), 2^(bits-1)), so no slot carries."""
    return ((bound.bit_length() + 1 + 7) // 8) * 8


def _bias(slots: int, bits: int) -> int:
    """2^(bits-1) in every one of ``slots`` slots."""
    return int.from_bytes((b"\0" * (bits // 8 - 1) + b"\x80") * slots, "little")


def _pack_rows(vectors, slots: int, bits: int) -> list[int]:
    """Each vector, zero-padded to ``slots`` entries, as the integer
    sum vec[i] * 2^(bits*i), for |vec[i]| < 2^(bits-1) and bits <= 64, in
    one pass: all rows go into one zeroed buffer as 8-byte two's
    complement, each slot keeps their low bytes with its top bit flipped
    (+2^(bits-1)), and each row is read back as one int less the bias."""
    raw = bytearray(8 * slots * len(vectors))
    for r, vec in enumerate(vectors):
        struct.pack_into(f"<{len(vec)}q", raw, 8 * slots * r, *vec)
    width = bits // 8
    out = bytearray(len(raw) // 8 * width)
    for j in range(width):
        out[j::width] = raw[j::8]
    out[width - 1::width] = out[width - 1::width].translate(_FLIP)
    size, bias = slots * width, _bias(slots, bits)
    return [int.from_bytes(out[i:i + size], "little") - bias for i in range(0, len(out), size)]


def _unpack(packed: int, slots: int, bits: int) -> list[int]:
    """Balanced digits of a packed value, lowest slot first.

    Adding 2^(bits-1) to every slot makes each digit non-negative, so the
    digits are plain bytes; anything left above the top slot means a slot
    overflowed, which the slot width rules out.
    """
    width = bits // 8
    biased = packed + _bias(slots, bits)
    if biased < 0 or biased >> (slots * bits):
        raise RuntimeError("internal error: packed convolution overflowed its slots")
    raw = biased.to_bytes(slots * width, "little")
    half = 1 << (bits - 1)
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, slots * width, width)]


@lru_cache(maxsize=None)
def _cot_sum(beta: int, alpha: int) -> Fraction:
    den, bits, slots, rows = _cot_table(alpha)
    # Pair k with alpha-k: equal terms, so sum halves and doubles at the
    # end.  For even alpha the middle term k = alpha/2 is cot(pi/2) = 0.
    packed = 0
    for k in range(1, (alpha + 1) // 2):
        packed += rows[k * beta % alpha] * rows[k]
    rem = _reduce_int_mod_phi(_unpack(packed, 2 * slots - 1, bits), alpha)
    # The sum is rational exactly when nothing past the constant term is
    # left (the power basis is a Q-basis); certify that before returning.
    constant, *rest = rem or [0]
    if any(rest):
        raise RuntimeError(
            "internal error: cotangent Dedekind sum failed rationality "
            f"certification for ({beta}, {alpha})"
        )
    # cot * cot = (i*X) * (i*X') = -X * X'
    return Fraction(-2 * constant, den * den * 4 * alpha)


@lru_cache(maxsize=None)
def _cot_table(alpha: int) -> tuple[int, int, int, tuple[int, ...]]:
    """X_k = (zeta_alpha^k + 1)/(zeta_alpha^k - 1), k = 1..alpha-1, as
    packed rows over their least common denominator, packed first and
    scaled after (see the module docstring for both and the slot width).

    Returns (denominator, slot bits, slots, rows) with rows 1-indexed and
    slots the length of the longest row, at least 1 (alpha = 2's one row,
    X_1 = 0, is empty).
    """
    # X_(alpha-k) = -X_k: compute k <= alpha/2, negate the packed rest.
    xs = [_coth(k, alpha) for k in range(1, alpha // 2 + 1)]
    slots = max(1, *(len(row) for row, _ in xs))
    scales = [alpha // m for _, m in xs]
    g = gcd(alpha, *(scale * gcd(*row) for scale, (row, _) in zip(scales, xs)))
    peaks = [max(max(row, default=0), -min(row, default=0)) for row, _ in xs]
    top = max(peak * scale // g for peak, scale in zip(peaks, scales))
    bits = _slot_bits(max((alpha // 2 + 1) * slots * top * top, *peaks))
    if bits > 64:
        raise RuntimeError(f"internal error: the table of alpha = {alpha} needs {bits}-bit slots")
    packed = _pack_rows([row for row, _ in xs], slots, bits)
    rows = [row * scale // g for row, scale in zip(packed, scales)]  # exact: see module docstring
    return alpha // g, bits, slots, (0, *rows, *(-row for row in reversed(rows[: (alpha - 1) // 2])))
