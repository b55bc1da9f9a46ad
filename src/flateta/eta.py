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
such W must have.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dedekind import dedekind_cot
from .errors import NotFlatError, ObstructionError
from .seifert import FiberPair, SeifertData, _flatness

# The cusp obstruction only applies to one-cusped fillings; every flat
# 3-manifold is known to appear as a cusp cross-section if several cusps
# are allowed.
MULTI_CUSP_NOTE = (
    "cross-sections of multi-cusped hyperbolic 4-manifolds are not "
    "obstructed by this test"
)


@dataclass(frozen=True)
class EtaResult:
    """Exact eta-invariant with its per-fiber Dedekind-sum breakdown.

    value = 4 * sum of the fiber contributions.
    """

    value: Fraction
    integral: bool
    fiber_contributions: tuple[tuple[FiberPair, Fraction], ...]


@dataclass(frozen=True)
class ObstructionReport:
    """Verdicts for the two geometric bounding roles of a flat 3-manifold.

    Both flags equal ``not eta.integral``: one integrality test decides
    both the totally-geodesic-boundary and the one-cusped cross-section
    obstruction.  ``predicted_signature`` is present exactly when eta is
    integral, and then equals -eta.
    """

    eta: EtaResult
    geodesic_boundary_obstructed: bool
    one_cusped_cross_section_obstructed: bool
    predicted_signature: int | None


def eta_flat(s: SeifertData) -> EtaResult:
    """Exact eta-invariant of flat Seifert data.

    Refuses non-flat input rather than extrapolating: the per-fiber
    formula is only asserted where a flat metric exists (and there the
    value is metric-independent).  The empty fiber list gives eta = 0.
    """
    e, chi_orb = _flatness(s)
    problems = []
    if e != 0:
        problems.append(f"e = {e}")
    if chi_orb != 0:
        problems.append(f"chi_orb = {chi_orb}")
    if problems:
        raise NotFlatError("not flat: " + ", ".join(problems))
    contributions = tuple((f, dedekind_cot(f.beta, f.alpha)) for f in s.fibers)
    value = 4 * sum((c for _, c in contributions), Fraction(0))
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
    value = Fraction(eta)
    if value.denominator != 1:
        raise ObstructionError(
            f"eta = {value} is not an integer; no geometric filler exists"
        )
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
