"""Exact eta-invariants of orientable flat Seifert fibered 3-manifolds,
integrality obstructions to geometric bounding, and hyperbolic
4-manifold volume <-> Euler characteristic conversion.

All public values are exact (arbitrary-precision rationals or cyclotomic
field elements), and no float decides anything.

Importing the package loads only the Dedekind sums and the errors; every
other public name imports its module on first use (PEP 562), so a caller
of dedekind_cot never loads the CLI, JSON or Gauss-Bonnet.
"""

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

__version__ = "0.1.0"

# Every other public name, by the module that defines it.
_LAZY = {
    **dict.fromkeys(("CyclotomicElement", "cot_exact", "cyclotomic_polynomial"), "cyclotomic"),
    **dict.fromkeys(("MULTI_CUSP_NOTE", "CatalogEntry", "EtaResult", "ObstructionReport",
                     "eta_flat", "flat_catalog", "obstruction_report", "predicted_signature"),
                    "eta"),
    **dict.fromkeys(("LATTICE_COEFFICIENT", "VolumeValue", "chi_from_volume", "doubled_euler",
                     "volume_from_chi"), "gaussbonnet"),
    **dict.fromkeys(("BaseSurface", "FiberPair", "SeifertData", "euler_number",
                     "orbifold_euler_characteristic", "parse_descriptor", "render_descriptor",
                     "validate"), "seifert"),
    "run": "cli",
}


def __getattr__(name: str):
    """A lazy name's value, its module imported now as "from .module import
    name" imports it; bound here, so the next lookup does not come back."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
    return value


# The names the imports above bind, then every lazy one; not globals(),
# which also holds the submodules dedekind and errors.
__all__ = sorted([
    "dedekind_cot", "dedekind_sawtooth", "sawtooth", "AmbiguousToleranceError",
    "DescriptorSyntaxError", "DomainError", "FlatEtaError", "NoLatticePointError",
    "NotFlatError", "ObstructionError", "PoleError", "UsageError", "ValidationError", *_LAZY,
])
