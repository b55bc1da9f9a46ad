"""Volume <-> Euler characteristic for finite-volume hyperbolic 4-manifolds.

In dimension four, Vol(M) = (4*pi^2/3) * chi(M), so volumes form the
lattice of positive integer multiples of 4*pi^2/3.  Volumes are carried
exactly as a rational coefficient of pi^2; decimal text is rendered on
demand and never feeds back into exact state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousToleranceError, DomainError, NoLatticePointError, shown

# Lattice spacing: one unit of Euler characteristic is (4/3)*pi^2 of volume.
LATTICE_COEFFICIENT = Fraction(4, 3)

_RENDER_DIGITS = 12


@dataclass(frozen=True)
class VolumeValue:
    """A volume ``coefficient * pi^2`` with a 12-significant-digit
    decimal rendering."""

    coefficient: Fraction
    approx: str


def _render(coefficient: Fraction) -> str:
    try:
        value = float(coefficient) * math.pi ** 2
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("chi is too large: its volume (4*pi^2/3)*chi overflows a float")
    return f"{value:.{_RENDER_DIGITS}g}"


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
    return VolumeValue(coefficient=coefficient, approx=_render(coefficient))


def _finite(name: str, value) -> float:
    """``value`` as a finite float, or DomainError naming ``name``."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {shown(value)}") from None
    if not math.isfinite(number):
        raise DomainError(f"{name} must be finite, got {number}")
    return number


def chi_from_volume(volume, tolerance=1e-6) -> int:
    """The unique positive integer chi with |volume - (4*pi^2/3)*chi| <=
    tolerance.

    Raises NoLatticePointError when no integer matches and
    AmbiguousToleranceError when the tolerance is so large that more than
    one does.
    """
    vol = _finite("volume", volume)
    tol = _finite("tolerance", tolerance)
    if vol <= 0:
        raise DomainError(f"volume must be positive, got {vol}")
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    spacing = 4 * math.pi**2 / 3
    center = round(vol / spacing)
    matches = [
        n for n in (center - 1, center, center + 1)
        if n >= 1 and abs(vol - spacing * n) <= tol
    ]
    if not matches:
        raise NoLatticePointError(
            f"no integer chi with |{vol} - (4*pi^2/3)*chi| <= {tol}; "
            f"hyperbolic 4-manifold volumes lie on the lattice "
            f"(4*pi^2/3)*chi with spacing {spacing:.12g}"
        )
    if len(matches) > 1:
        raise AmbiguousToleranceError(
            f"tolerance {tol} admits chi in {matches}; the lattice "
            f"spacing 4*pi^2/3 = {spacing:.12g} only separates integers "
            "up to half that"
        )
    return matches[0]


def doubled_euler(chi_w: int) -> int:
    """Euler characteristic of the double of a compact 4-manifold W along
    its boundary.

    The boundary is a closed 3-manifold, so chi(boundary) = 0 and
    chi(DW) = 2*chi(W) - chi(boundary) = 2*chi(W).
    """
    if type(chi_w) is not int:
        raise DomainError(f"chi_w must be an int, got {shown(chi_w)}")
    return 2 * chi_w
