"""Exact eta-invariants of orientable flat Seifert fibered 3-manifolds,
integrality obstructions to geometric bounding, and hyperbolic
4-manifold volume <-> Euler characteristic conversion.

All public values are exact (arbitrary-precision rationals or cyclotomic
field elements), and no float decides anything.
"""

from .cyclotomic import CyclotomicElement, cot_exact, cyclotomic_polynomial
from .dedekind import dedekind_cot, dedekind_sawtooth, sawtooth
from .errors import (
    AmbiguousToleranceError,
    DescriptorSyntaxError,
    DomainError,
    FlatEtaError,
    NoLatticePointError,
    NotFlatError,
    ObstructionError,
    PoleError,
    UsageError,
    ValidationError,
)
from .eta import (
    MULTI_CUSP_NOTE,
    CatalogEntry,
    EtaResult,
    ObstructionReport,
    eta_flat,
    flat_catalog,
    obstruction_report,
    predicted_signature,
)
from .gaussbonnet import (
    LATTICE_COEFFICIENT,
    VolumeValue,
    chi_from_volume,
    doubled_euler,
    volume_from_chi,
)
from .seifert import (
    BaseSurface,
    FiberPair,
    SeifertData,
    euler_number,
    orbifold_euler_characteristic,
    parse_descriptor,
    render_descriptor,
    validate,
)
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "AmbiguousToleranceError",
    "BaseSurface",
    "CatalogEntry",
    "CyclotomicElement",
    "DescriptorSyntaxError",
    "DomainError",
    "EtaResult",
    "FiberPair",
    "FlatEtaError",
    "LATTICE_COEFFICIENT",
    "MULTI_CUSP_NOTE",
    "NoLatticePointError",
    "NotFlatError",
    "ObstructionError",
    "ObstructionReport",
    "PoleError",
    "SeifertData",
    "UsageError",
    "ValidationError",
    "VolumeValue",
    "chi_from_volume",
    "cot_exact",
    "cyclotomic_polynomial",
    "dedekind_cot",
    "dedekind_sawtooth",
    "doubled_euler",
    "eta_flat",
    "euler_number",
    "flat_catalog",
    "obstruction_report",
    "orbifold_euler_characteristic",
    "parse_descriptor",
    "predicted_signature",
    "render_descriptor",
    "run",
    "sawtooth",
    "validate",
    "volume_from_chi",
]
