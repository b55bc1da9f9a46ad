"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as a coefficient vector over the power basis
``1, z, ..., z^(phi(N)-1)`` of Q(zeta_N), i.e. a polynomial in the
primitive N-th root of unity reduced modulo the N-th cyclotomic
polynomial.  Because that basis is a Q-basis, an element is a rational
number exactly when every coefficient past the constant term vanishes,
so rationality certification is a syntactic check.

Coefficients are exact rationals throughout; nothing in this module
rounds.  The main consumer is :mod:`flateta.dedekind`, which needs exact
values of cot(k*pi/n).  Its hot path never touches a Fraction; it runs on
plain integers in three steps:

* **Sparse reduction.**  ``Phi_N(x) = Phi_rad(N)(x^(N/rad N))`` has only a
  handful of nonzero terms (5 at N = 400, degree 160), and the division
  mod Phi_N loops over those alone.  Phi_N itself is built by the same
  division, from two-term factors x^d - 1.
* **Integer cotangents.**  ``_cot_reduced`` gives cot(r*pi/n) as an integer
  remainder mod Phi_M plus its denominator m, cached once; ``cot_exact``
  wraps that pair in an element.
* **Packed convolution (Kronecker substitution).**  An integer vector is
  packed into one int, ``sum v[i] * 2^(bits*i)``, so a polynomial product
  is one big-int multiplication.  The slot width is exact, not heuristic:
  when every coefficient of the (summed) product has absolute value at
  most B and ``B < 2^(bits-1)``, each slot holds its balanced digit in
  (-2^(bits-1), 2^(bits-1)) without carrying into the next, so the digits
  read back are exactly the coefficients; anything left above the top
  slot would mean the bound was broken and is an internal error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import neg

from .errors import CertificationError, DomainError, PoleError

# The universal exact scalar: arbitrary-precision fractions, always reduced,
# denominator always positive.  The stdlib type satisfies every invariant we
# need, so we use it directly.
Rational = Fraction


def rational_normalize(p: int, q: int) -> Fraction:
    """Reduced fraction p/q with positive denominator.

    >>> rational_normalize(6, -9)
    Fraction(-2, 3)
    """
    if q == 0:
        raise DomainError("denominator must be nonzero")
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense ascending coefficient lists)
# ---------------------------------------------------------------------------


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divmod_monic_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; den must be monic.

    Monic divisor keeps everything in the integers, no fractions appear.
    Each quotient step touches only the nonzero terms of den, which is
    what makes reduction mod Phi_N cheap: Phi_N has a handful of them.
    """
    num = list(num)
    dd = len(den) - 1
    if len(num) <= dd:
        return [], _trim(num)
    terms = [(j, c) for j, c in enumerate(den[:dd]) if c]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            base = i - dd
            quot[base] = c
            for j, d in terms:
                num[base + j] -= c * d
    return _trim(quot), _trim(num[:dd])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_N as an ascending coefficient tuple.

    With r = rad(N), Phi_N(x) = Phi_r(x^(N/r)) and Phi_r is the product of
    (x^d - 1)^mu(r/d) over the divisors d of r: multiply out the factors
    with mu = +1, then divide exactly by the two-term x^d - 1 of the rest.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if order < 1:
        raise DomainError("cyclotomic polynomial order must be >= 1")
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
    for d in divisors:
        poly, rem = _divmod_monic_int(poly, [-1] + [0] * (d - 1) + [1])
        if rem:
            raise AssertionError(f"inexact division building Phi_{order}")
    step = order // rad
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


def _reduce_int_mod_phi(vec: list[int], order: int) -> list[int]:
    """Reduce an integer polynomial of any degree modulo Phi_order."""
    _, rem = _divmod_monic_int(vec, list(cyclotomic_polynomial(order)))
    return rem


# ---------------------------------------------------------------------------
# packed integer convolution (Kronecker substitution)
# ---------------------------------------------------------------------------


def _slot_bits(bound: int) -> int:
    """Slot width, in whole bytes, for packed vectors whose product sums
    have every coefficient of absolute value at most ``bound``: a slot
    holds any value in (-2^(bits-1), 2^(bits-1)), so no slot carries."""
    return ((bound.bit_length() + 1 + 7) // 8) * 8


def _bias(slots: int, bits: int) -> int:
    """2^(bits-1) in every one of ``slots`` slots."""
    return int.from_bytes((b"\0" * (bits // 8 - 1) + b"\x80") * slots, "little")


def _pack(vec, bits: int) -> int:
    """The integer sum vec[i] * 2^(bits*i), for |vec[i]| < 2^(bits-1):
    each entry is written biased into its own bytes, then the bias is
    taken off again (negative entries borrow from the slot above)."""
    half = 1 << (bits - 1)
    raw = b"".join(map(int.to_bytes, map(half.__add__, vec),
                       repeat(bits // 8), repeat("little")))
    return int.from_bytes(raw, "little") - _bias(len(vec), bits)


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


def _int_product(a: list[int], b: list[int]) -> list[int]:
    """The integer convolution of a and b by one big-int multiplication."""
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bits = _slot_bits(max(top_a, top_b, min(len(a), len(b)) * top_a * top_b))
    return _unpack(_pack(a, bits) * _pack(b, bits), len(a) + len(b) - 1, bits)


# Fraction-coefficient division and extended gcd, used for inversion.


def _divmod_frac(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) <= dd:
        return [], _trim(num)
    quot = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            c = c / lead
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return _trim(quot), _trim(num[:dd])


def _poly_sub_mul(a: list[Fraction], q: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a - q*b for fraction polynomials."""
    out = list(a) + [Fraction(0)] * max(0, len(q) + len(b) - 1 - len(a))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                out[i + j] -= qi * bj
    return _trim(out)


def _xgcd_frac(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Extended euclidean algorithm over Q[x]: returns (g, s) with
    s*a = g (mod b).  When b is irreducible and a is nonzero mod b, g is a
    nonzero constant, so s/g inverts a."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _divmod_frac(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub_mul(s0, q, s1)
    return r0, s0


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


class CyclotomicElement:
    """An element of Q(zeta_N), exact and immutable.

    Supports ``+ - * /`` and integer powers; operands of different orders
    are promoted to the lcm of the orders via zeta_N -> zeta_M^(M/N).
    Rational values are canonicalized down to order 1, so e.g.
    ``root_of_unity(4) * root_of_unity(4) == -1``.
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients):
        if order < 1:
            raise DomainError("order must be >= 1")
        coeffs = [Fraction(c) for c in coefficients]
        reduced = _reduce_fractions(coeffs, order)
        if order > 1 and not any(reduced[1:]):
            order, reduced = 1, reduced[:1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CyclotomicElement":
        return cls(1, [Fraction(value)])

    @staticmethod
    def zero() -> "CyclotomicElement":
        return CyclotomicElement(1, [0])

    @staticmethod
    def one() -> "CyclotomicElement":
        return CyclotomicElement(1, [1])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coefficients)

    @property
    def is_rational(self) -> bool:
        return not any(self.coefficients[1:])

    def to_rational(self) -> Fraction:
        """The element as a Fraction, or CertificationError if it is not one.

        The error carries the index of the first nonzero non-constant
        coefficient of the reduced representation.
        """
        for idx in range(1, len(self.coefficients)):
            if self.coefficients[idx]:
                raise CertificationError(
                    f"element of Q(zeta_{self.order}) is not rational: "
                    f"coefficient {idx} is {self.coefficients[idx]}",
                    index=idx,
                )
        return self.coefficients[0]

    def promoted(self, order: int) -> "CyclotomicElement":
        """The same value expressed in Q(zeta_order); order must be a
        multiple of self.order.

        The result keeps the requested order (no canonicalization back
        down), so its coefficient vector always has deg(Phi_order)
        entries; binary operations rely on that.
        """
        if order == self.order:
            return self
        if order % self.order:
            raise DomainError(f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        out = [Fraction(0)] * ((len(self.coefficients) - 1) * step + 1)
        for j, c in enumerate(self.coefficients):
            out[j * step] = c
        return _raw(order, _reduce_fractions(out, order))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = lcm(self.order, other.order)
        a = self.promoted(order).coefficients
        b = other.promoted(order).coefficients
        return CyclotomicElement(order, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, [-c for c in self.coefficients])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = lcm(self.order, other.order)
        a = self.promoted(order)
        b = other.promoted(order)
        an, ad = _cleared(a.coefficients)
        bn, bd = _cleared(b.coefficients)
        rem = _reduce_int_mod_phi(_int_product(an, bn), order)
        den = ad * bd
        return _from_int_remainder(order, rem, den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse via the extended polynomial gcd with
        Phi_N (irreducible over Q, so every nonzero element is a unit)."""
        if self.is_zero:
            raise DomainError("division by the zero element")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s = _xgcd_frac(list(self.coefficients), phi)
        if len(g) != 1:
            raise AssertionError(f"Phi_{self.order} is not irreducible?")
        inv = [c / g[0] for c in s]
        return CyclotomicElement(self.order, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = lcm(self.order, other.order)
        return self.promoted(order) * other.promoted(order).inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicElement.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = lcm(self.order, other.order)
        return self.promoted(order).coefficients == other.promoted(order).coefficients

    __hash__ = None  # values compare across orders; hashing would break that

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coefficients):
            if c:
                terms.append(str(c) if j == 0 else f"({c})*z^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in Q(zeta_{self.order})>"


def _reduce_fractions(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Reduce a fraction polynomial in z modulo z^order = 1 and Phi_order,
    padded to deg(Phi_order) coefficients."""
    folded = [Fraction(0)] * order
    for e, c in enumerate(coeffs):
        if c:
            folded[e % order] += c
    num, den = _cleared(folded)
    rem = _reduce_int_mod_phi(num, order)
    return _padded_fractions(order, rem, den)


def _cleared(coeffs) -> tuple[list[int], int]:
    """Clear denominators: (integer vector, common denominator)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coeffs], den


def _padded_fractions(order: int, rem: list[int], den: int) -> list[Fraction]:
    degree = len(cyclotomic_polynomial(order)) - 1
    out = [Fraction(0)] * degree
    for i, c in enumerate(rem):
        if c:  # most coefficients of a cotangent are zero
            out[i] = Fraction(c, den)
    return out


def _raw(order: int, coeffs: list[Fraction]) -> CyclotomicElement:
    # Trusted constructor: coeffs already reduced mod Phi_order and padded.
    elem = object.__new__(CyclotomicElement)
    object.__setattr__(elem, "order", order)
    object.__setattr__(elem, "coefficients", tuple(coeffs))
    return elem


def _from_int_remainder(order: int, rem: list[int], den: int) -> CyclotomicElement:
    coeffs = _padded_fractions(order, rem, den)
    if order > 1 and not any(coeffs[1:]):
        order, coeffs = 1, coeffs[:1]
    return _raw(order, coeffs)


def root_of_unity(order: int, power: int = 1) -> CyclotomicElement:
    """zeta_order^power, i.e. e^(2*pi*i*power/order)."""
    if order < 1:
        raise DomainError("order must be >= 1")
    power %= order
    return CyclotomicElement(order, [0] * power + [1])


# ---------------------------------------------------------------------------
# exact cotangents
# ---------------------------------------------------------------------------


def cot_exact(k: int, n: int) -> CyclotomicElement:
    """cot(k*pi/n) as an exact element of Q(zeta_M), M = lcm(4, 2n).

    Writes cot(theta) = i*(e^(i*theta) + e^(-i*theta)) / (e^(i*theta) -
    e^(-i*theta)) with e^(i*pi/n) = zeta_M^(M/(2n)) and i = zeta_M^(M/4).

    >>> cot_exact(1, 4).to_rational()
    Fraction(1, 1)
    """
    if n < 1:
        raise DomainError("cotangent denominator n must be >= 1")
    if k % n == 0:
        raise PoleError(f"cot({k}*pi/{n}) is a pole")
    rem, m = _cot_reduced(k % n, n)
    return _from_int_remainder(lcm(4, 2 * n), list(rem), m)


@lru_cache(maxsize=None)
def _cot_reduced(r: int, n: int) -> tuple[tuple[int, ...], int]:
    """cot(r*pi/n) = rem(zeta_M) / m for 1 <= r < n, M = lcm(4, 2n): the
    integer remainder rem, padded to deg(Phi_M) entries, and m."""
    if 2 * r > n:  # cot(pi - x) = -cot(x)
        rem, m = _cot_reduced(n - r, n)
        return tuple(map(neg, rem)), m
    # With w = e^(2i*r*pi/n) = zeta_M^t, a primitive m-th root of unity,
    #   cot(r*pi/n) = i*(w + 1)/(w - 1)  and  1/(w - 1) = (1/m) * sum_{j<m} j*w^j,
    # so m*cot = i*((m - 1) + sum_{j=1}^{m-1} (2j - 1)*w^j), with i = zeta_M^(M/4);
    # this avoids a polynomial gcd per cotangent.
    order = lcm(4, 2 * n)
    t = (r * (order // n)) % order
    m = order // gcd(order, t)
    # zeta_M^(M/2) = -1 folds every exponent below M/2 before the division.
    quarter, half = order // 4, order // 2
    vec = [0] * half
    vec[quarter] = m - 1
    for j in range(1, m):
        e = (quarter + t * j) % order
        if e < half:
            vec[e] += 2 * j - 1
        else:
            vec[e - half] -= 2 * j - 1
    rem = _reduce_int_mod_phi(vec, order)
    degree = len(cyclotomic_polynomial(order)) - 1
    return tuple(rem) + (0,) * (degree - len(rem)), m
