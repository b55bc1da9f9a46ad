"""Eta-invariants of flat Seifert fibered 3-manifolds and the integrality
obstructions to geometric bounding.

For flat Seifert data the eta-invariant is assembled from classical
Dedekind sums over the exceptional fibers:

    eta(M) = 4 * sum_i s(beta_i, alpha_i)

A flat or hyperbolic 3-manifold that is the totally geodesic boundary of
a compact hyperbolic 4-manifold W satisfies sign(W) = -eta(M) with a
vanishing Pontryagin term, so eta must be an integer; the same
integrality holds when M is the cusp cross-section of a one-cusped
finite-volume hyperbolic 4-manifold.  A non-integral eta therefore
obstructs both roles, and an integral eta pins down the signature any
such W must have.  ``flat_catalog`` lists the six orientable flat
3-manifolds with the eta computed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .dedekind import dedekind_cot
from .errors import DomainError, NotFlatError, ObstructionError, Value, shown
from .seifert import BaseSurface, FiberPair, SeifertData, _flatness

# The cusp obstruction only applies to one-cusped fillings; every flat
# 3-manifold is known to appear as a cusp cross-section if several cusps
# are allowed.
MULTI_CUSP_NOTE = (
    "cross-sections of multi-cusped hyperbolic 4-manifolds are not "
    "obstructed by this test"
)


class EtaResult(Value):
    """Exact eta-invariant with its per-fiber Dedekind-sum breakdown.

    value = 4 * sum of the fiber contributions.
    """

    __slots__ = ("value", "integral", "fiber_contributions")

    def __init__(self, value: Fraction, integral: bool,
                 fiber_contributions: tuple[tuple[FiberPair, Fraction], ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "fiber_contributions", fiber_contributions)


class ObstructionReport(Value):
    """Verdicts for the two geometric bounding roles of a flat 3-manifold.

    Both flags equal ``not eta.integral``: one integrality test decides
    both the totally-geodesic-boundary and the one-cusped cross-section
    obstruction.  ``predicted_signature`` is present exactly when eta is
    integral, and then equals -eta.
    """

    __slots__ = ("eta", "geodesic_boundary_obstructed", "one_cusped_cross_section_obstructed",
                 "predicted_signature")

    def __init__(self, eta: EtaResult, geodesic_boundary_obstructed: bool,
                 one_cusped_cross_section_obstructed: bool, predicted_signature: int | None):
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "geodesic_boundary_obstructed", geodesic_boundary_obstructed)
        object.__setattr__(self, "one_cusped_cross_section_obstructed",
                           one_cusped_cross_section_obstructed)
        object.__setattr__(self, "predicted_signature", predicted_signature)


def eta_flat(s: SeifertData) -> EtaResult:
    """Exact eta-invariant of flat Seifert data.

    Refuses non-flat input rather than extrapolating: the per-fiber
    formula is only asserted where a flat metric exists (and there the
    value is metric-independent).  The empty fiber list gives eta = 0.
    The fiber sums add as integers over the lcm D of their denominators.
    """
    e, chi_orb, lcm_alpha = _flatness(s)
    if e or chi_orb:  # not flat: Fractions only for the message
        problems = [(n, Fraction(v, lcm_alpha)) for n, v in (("e", e), ("chi_orb", chi_orb)) if v]
        raise NotFlatError("not flat: " + ", ".join(f"{n} = {shown(v, str)}" for n, v in problems))
    contributions = tuple((f, dedekind_cot(f.beta, f.alpha)) for f in s.fibers)
    den = lcm(*(c.denominator for _, c in contributions))
    value = Fraction(4 * sum(c.numerator * (den // c.denominator) for _, c in contributions), den)
    return EtaResult(
        value=value,
        integral=value.denominator == 1,
        fiber_contributions=contributions,
    )


def predicted_signature(eta) -> int:
    """Signature of any hyperbolic 4-manifold bounded geometrically by a
    manifold with the given (integral) eta-invariant: sign(W) = -eta.

    The curvature integral in the signature formula vanishes for
    hyperbolic W (the Pontryagin form is conformally invariant and
    hyperbolic manifolds are conformally flat), so the boundary term is
    the whole story.
    """
    try:
        value = Fraction(eta)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"eta must be a rational number, got {shown(eta)}") from None
    if value.denominator != 1:
        raise ObstructionError(f"eta = {shown(value, str)} is not an integer; "
                               "no geometric filler exists")
    return -int(value)


def obstruction_report(s: SeifertData) -> ObstructionReport:
    """Full verdict for flat Seifert data: eta, both obstruction flags,
    and the predicted filler signature when eta is integral."""
    result = eta_flat(s)
    obstructed = not result.integral
    signature = None if obstructed else predicted_signature(result.value)
    return ObstructionReport(
        eta=result,
        geodesic_boundary_obstructed=obstructed,
        one_cusped_cross_section_obstructed=obstructed,
        predicted_signature=signature,
    )


class CatalogEntry(Value):
    """One orientable flat 3-manifold: name, holonomy label, Seifert data
    over an orientable base when one exists, and its eta-invariant."""

    __slots__ = ("name", "holonomy", "seifert", "eta", "eta_integral", "note")

    def __init__(self, name: str, holonomy: str, seifert: SeifertData | None,
                 eta: Fraction | None, eta_integral: bool, note: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "seifert", seifert)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_integral", eta_integral)
        object.__setattr__(self, "note", note)


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
