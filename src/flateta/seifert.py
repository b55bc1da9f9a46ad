"""Seifert fibered descriptions of flat 3-manifolds.

Data model restricted to orientable base surfaces S^2 and T^2, which
covers every orientable flat 3-manifold that admits a Seifert fibration
over an orientable base.  A fibration carries a Euclidean geometry
exactly when both its Euler number e = -(b + sum beta_i/alpha_i) and the
orbifold Euler characteristic of the base vanish.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ValidationError


class BaseSurface(enum.Enum):
    S2 = "S2"
    T2 = "T2"


_GENUS = {BaseSurface.S2: 0, BaseSurface.T2: 1}


@dataclass(frozen=True)
class FiberPair:
    """Exceptional fiber invariants: multiplicity alpha >= 2 and Seifert
    coefficient beta, coprime to alpha (beta may be negative)."""

    alpha: int
    beta: int


@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants (base, b, (alpha_1, beta_1), ...).

    ``genus`` is read off the base (0 for S2, 1 for T2); fibers may be
    given as FiberPair instances or bare (alpha, beta) pairs.
    Construction only checks the base; see :func:`validate` for the rest.
    """

    base: BaseSurface
    b: int = 0
    fibers: tuple[FiberPair, ...] = ()

    def __post_init__(self):
        if not isinstance(self.base, BaseSurface):
            try:
                object.__setattr__(self, "base", BaseSurface(self.base))
            except ValueError:
                raise ValidationError(f"base must be 'S2' or 'T2', got {self.base!r}") from None
        object.__setattr__(
            self,
            "fibers",
            tuple(f if isinstance(f, FiberPair) else FiberPair(*f) for f in self.fibers),
        )

    @property
    def genus(self) -> int:
        return _GENUS[self.base]


def validate(s: SeifertData) -> SeifertData:
    """Return ``s`` unchanged if every structural invariant holds.

    Raises ValidationError naming the offending field otherwise.
    """
    if not isinstance(s.b, int):
        raise ValidationError(f"b must be an int, got {s.b!r}")
    for i, fiber in enumerate(s.fibers):
        for name, value in (("alpha", fiber.alpha), ("beta", fiber.beta)):
            if not isinstance(value, int):
                raise ValidationError(f"fibers[{i}]: {name} must be an int, got {value!r}")
        if fiber.alpha < 2:
            raise ValidationError(f"fibers[{i}]: alpha must be >= 2, got {fiber.alpha}")
        if gcd(fiber.alpha, fiber.beta) != 1:
            raise ValidationError(f"fibers[{i}]: gcd({fiber.alpha},{fiber.beta}) != 1")
    return s


def _flatness(s: SeifertData) -> tuple[Fraction, Fraction]:
    """(e, chi_orb) of validated data: the Euler number and the orbifold
    Euler characteristic, whose vanishing is flatness.  Validates once."""
    validate(s)
    e = -(s.b + sum((Fraction(f.beta, f.alpha) for f in s.fibers), Fraction(0)))
    cone = sum((1 - Fraction(1, f.alpha) for f in s.fibers), Fraction(0))
    return e, 2 - 2 * s.genus - cone


def euler_number(s: SeifertData) -> Fraction:
    """Euler number e = -(b + sum beta_i/alpha_i) of the fibration."""
    return _flatness(s)[0]


def orbifold_euler_characteristic(s: SeifertData) -> Fraction:
    """chi_orb = 2 - 2*genus - sum (1 - 1/alpha_i) of the base orbifold."""
    return _flatness(s)[1]


@dataclass(frozen=True)
class CatalogEntry:
    """One orientable flat 3-manifold: name, holonomy label, Seifert data
    over an orientable base when one exists, and its eta-invariant."""

    name: str
    holonomy: str
    seifert: SeifertData | None
    eta: Fraction | None
    eta_integral: bool
    note: str


# Seifert presentations with orientable base; coefficients chosen so the
# Euler number vanishes, which eta_flat re-checks at catalog build (it
# raises NotFlatError otherwise).
_CATALOG_SHAPE = (
    (
        "G1",
        "trivial",
        SeifertData(BaseSurface.T2),
        "3-torus: circle bundle over T2, no exceptional fibers.",
    ),
    (
        "G2",
        "Z2",
        SeifertData(BaseSurface.S2, 0, ((2, 1), (2, 1), (2, -1), (2, -1))),
        "Fibers over the S2(2,2,2,2) orbifold.",
    ),
    (
        "G3",
        "Z3",
        SeifertData(BaseSurface.S2, 0, ((3, 2), (3, -1), (3, -1))),
        "Unique orientable flat manifold fibering over S2(3,3,3); "
        "eta is not an integer.",
    ),
    (
        "G4",
        "Z4",
        SeifertData(BaseSurface.S2, 0, ((2, 1), (4, -1), (4, -1))),
        "Fibers over the S2(2,4,4) orbifold.",
    ),
    (
        "G5",
        "Z6",
        SeifertData(BaseSurface.S2, 0, ((2, 1), (3, -1), (6, -1))),
        "Unique orientable flat manifold fibering over S2(2,3,6); "
        "eta is not an integer.",
    ),
    (
        "G6",
        "Z2xZ2",
        None,
        "Hantzsche-Wendt manifold: its Seifert fibration has a "
        "non-orientable base orbifold, outside this data model, so no eta "
        "value is computed here; the eta-invariant is known to be an "
        "integer.  Counting note: some sources speak of seven orientable "
        "flat 3-manifolds, but the classification has exactly six, all "
        "listed in this catalog.",
    ),
)


def flat_catalog() -> list[CatalogEntry]:
    """The six orientable flat 3-manifolds G1..G6.

    Eta values for G1..G5 are computed (not tabulated) from their Seifert
    data; G6 carries no computable presentation here and records only the
    known integrality of its eta-invariant.
    """
    from .eta import eta_flat  # deferred: eta builds on this module

    entries = []
    for name, holonomy, seifert, note in _CATALOG_SHAPE:
        if seifert is None:
            entries.append(CatalogEntry(name, holonomy, None, None, True, note))
        else:
            result = eta_flat(seifert)
            entries.append(
                CatalogEntry(name, holonomy, seifert, result.value, result.integral, note)
            )
    return entries
