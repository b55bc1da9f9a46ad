"""Volume <-> Euler characteristic for finite-volume hyperbolic 4-manifolds.

In dimension four, Vol(M) = (4*pi^2/3) * chi(M), so volumes form the lattice
of positive integer multiples of 4*pi^2/3, carried exactly as a rational
coefficient of pi^2; every verdict and rendered digit is worked out on integers.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import (AmbiguousToleranceError, DomainError, NoLatticePointError, Value, digit_limit,
                     shown)

LATTICE_COEFFICIENT = Fraction(4, 3)  # one unit of Euler characteristic is (4/3)*pi^2 of volume
TOLERANCE = Fraction(1, 10**6)  # the default of chi_from_volume and of --tol
_DECIMAL = Context(traps=[])  # reads decimal text exactly, and an exponent past its range as NaN
_INFINITE = 2**1024 - 2**970  # the least value that rounds to an infinite float


@lru_cache
def _pi_squared(bits: int) -> tuple[int, int]:
    """Integers lo < pi^2 * 4^bits < hi, by pi = 16*atan(1/5) - 4*atan(1/239).
    Term k of atan(1/x) * 2^bits is taken by nested floor divisions, which give its
    floor, less than 1 off, up to the first floor of 0, whose alternating tail is below
    1: n terms are off by less than n + 1, so the bound grows with the terms taken."""
    total = error = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k = (1 << bits) // x, 0
        while power:
            total += weight * (power // (2 * k + 1))
            power, k, weight = power // (x * x), k + 1, -weight
        error += abs(weight) * (k + 1)
    return (total - error) ** 2, (total + error) ** 2


def _certain(at):
    """at(bound, shift) once it is the same at both bounds on pi^2 * 2^shift: ``at``
    rounds a monotone function of pi^2, so it is the same at pi^2 itself."""
    bits = 64
    while (found := [at(bound, 2 * bits) for bound in _pi_squared(bits)])[0] != found[1]:
        bits *= 2
    return found[0]


class VolumeValue(Value):
    """A volume ``coefficient * pi^2`` and its text ``approx``, correctly rounded
    to max(12, k + 6) significant digits, k those before the point: within
    5e-7 of the volume, so chi_from_volume reads it back by default."""

    __slots__ = ("coefficient", "approx")

    def __init__(self, coefficient: Fraction, approx: str):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "approx", approx)


def volume_from_chi(chi: int) -> VolumeValue:
    """Volume of a finite-volume hyperbolic 4-manifold of Euler
    characteristic chi: (4*pi^2/3) * chi.

    >>> volume_from_chi(1).approx
    '13.1594725348'
    """
    if type(chi) is not int:
        raise DomainError(f"chi must be an int, got {shown(chi)}")
    if chi < 1:
        raise DomainError(f"chi must be >= 1, got {shown(chi)}: finite-volume hyperbolic "
                          "4-manifolds have positive Euler characteristic")
    coefficient = LATTICE_COEFFICIENT * chi

    def rounded(bound: int, shift: int):  # (places, digits), or None where a float is infinite
        scale, volume = coefficient.denominator << shift, coefficient.numerator * bound
        if volume >= _INFINITE * scale:
            return None
        places = max(12 - len(str(volume // scale)), 6)
        return places, (2 * 10**places * volume + scale) // (2 * scale)

    if (found := _certain(rounded)) is None:
        raise DomainError("chi is too large: its volume (4*pi^2/3)*chi overflows a float")
    places, digits = found
    text = f"{digits // 10**places}.{digits % 10**places:0{places}}"
    return VolumeValue(coefficient=coefficient, approx=text.rstrip("0").removesuffix("."))


def real(value, name: str = "value") -> Fraction | float:
    """``value`` exactly, or as an infinite or nan float: text float() reads and a Decimal
    digit by digit, an int, float or Fraction as it is, anything else through float().
    DomainError naming ``name`` when float() refuses it, and for a decimal of more than
    digit_limit() digits written out."""
    try:
        if not isinstance(value, (int, Fraction)):
            number = float(value)  # refuses text with a misplaced "_", which Decimal() drops
            exact = Decimal(value, _DECIMAL) if isinstance(value, (str, Decimal)) else None
            value = exact if exact is not None and exact.is_finite() else number
    except Exception:  # float() runs a caller's __float__, which may raise anything
        raise DomainError(f"{name} must be a real number, got {shown(value)}") from None
    if type(value) is float and not math.isfinite(value):
        return value
    if isinstance(value, Decimal):
        _, digits, exponent = value.as_tuple()
        limit = digit_limit()
        if limit < max(len(digits), -exponent) + max(exponent, 0):
            raise DomainError(f"{name} has more than {limit} digits")
    value = value if type(value) is Fraction else Fraction(value)
    if abs(value.numerator) >= _INFINITE * value.denominator:  # messages and the JSON echo show a float
        return math.inf if value > 0 else -math.inf
    return value


def chi_from_volume(volume, tolerance=TOLERANCE) -> int:
    """The unique positive integer chi, among the nearest lattice point and
    the two beside it, with |volume - (4*pi^2/3)*chi| <= tolerance, both
    read by ``real``.  Raises NoLatticePointError when no integer matches
    and AmbiguousToleranceError when more than one does."""
    vol, tol = real(volume, "volume"), real(tolerance, "tolerance")
    for rule, refused in (("finite", lambda n: type(n) is float), ("positive", lambda n: n <= 0)):
        for name, number in (("volume", vol), ("tolerance", tol)):
            if refused(number):
                raise DomainError(f"{name} must be {rule}, got {float(number)}")
    a, b, t, u = vol.numerator, vol.denominator, tol.numerator, tol.denominator

    def nearest(bound: int, shift: int) -> tuple[int, int, int]:
        # all scaled by 3 * 2^shift * b * u: the nearest chi, and the least and greatest within tol
        spacing, mid, reach = 4 * b * u * bound, 3 * a * u << shift, 3 * t * b << shift
        return (2 * mid + spacing) // (2 * spacing), -((reach - mid) // spacing), (mid + reach) // spacing

    center, first, last = _certain(nearest)
    matches = list(range(max(center - 1, first, 1), min(center + 1, last) + 1))
    if len(matches) == 1:
        return matches[0]
    spacing = volume_from_chi(1).approx
    if not matches:
        raise NoLatticePointError(f"no integer chi with |{float(vol)} - (4*pi^2/3)*chi| <= {float(tol)}; "
                                  "hyperbolic 4-manifold volumes lie on the lattice (4*pi^2/3)*chi "
                                  f"with spacing {spacing}")
    raise AmbiguousToleranceError(f"tolerance {float(tol)} admits chi in {matches}; the lattice spacing "
                                  f"4*pi^2/3 = {spacing} only separates integers up to half that")


def doubled_euler(chi_w: int) -> int:
    """Euler characteristic of the double of a compact 4-manifold W along
    its boundary.

    The boundary is a closed 3-manifold, so chi(boundary) = 0 and
    chi(DW) = 2*chi(W) - chi(boundary) = 2*chi(W).
    """
    if type(chi_w) is not int:
        raise DomainError(f"chi_w must be an int, got {shown(chi_w)}")
    return 2 * chi_w
