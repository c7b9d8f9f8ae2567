"""Exact invariants of pseudofree order-3 symmetries of the K3 surface.

The package enumerates the admissible fixed-point configurations,
builds explicit even unimodular rank-22 lattice models with order-3
isometries realizing them, and evaluates the equivariant index data
behind the mod-3 smoothability obstruction.  All arithmetic is exact.
"""

from .classify import (
    K3,
    ActionType,
    SurfaceConstants,
    action_type,
    admissible_differences,
    enumerate_action_types,
    quotient_invariants,
)
from .cyclotomic import ONE, ZERO, ZETA, Cyclotomic, half_power, zeta_power
from .fixed_data import (
    DiracIndex,
    FixedPointData,
    FixedPointType,
    dirac_coefficients,
    g_signature_of_data,
    normalize_type,
    parse_fixed_data,
    signature_defect,
    spin_defect,
)
from .obstruction import (
    ObstructionVerdict,
    Smoothability,
    SurfaceModel,
    fang_hypotheses,
    sw_mod3_nonzero,
    verdict,
)

__version__ = "0.1.0"

# The lattice layer is the only one that needs numpy; its names resolve on
# first access (PEP 562), so `import k3z3` and the non-lattice CLI
# subcommands never load numpy.
_LATTICE_NAMES = (
    "GLattice",
    "LatticeReport",
    "ModuleDecomposition",
    "assemble_type_lattice",
    "check_gsf",
    "check_lefschetz",
    "check_rep",
    "direct_sum",
    "fixed_sublattice",
    "g_signature_of_lattice",
    "gamma16",
    "hyperbolic",
    "module_decomposition",
    "signature",
    "three_h_perm",
    "three_h_torus",
    "verify_lattice",
)


def __getattr__(name: str):
    if name in _LATTICE_NAMES:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "K3",
    "ActionType",
    "SurfaceConstants",
    "action_type",
    "admissible_differences",
    "enumerate_action_types",
    "quotient_invariants",
    "ONE",
    "ZERO",
    "ZETA",
    "Cyclotomic",
    "half_power",
    "zeta_power",
    "DiracIndex",
    "FixedPointData",
    "FixedPointType",
    "dirac_coefficients",
    "g_signature_of_data",
    "normalize_type",
    "parse_fixed_data",
    "signature_defect",
    "spin_defect",
    *_LATTICE_NAMES,
    "ObstructionVerdict",
    "Smoothability",
    "SurfaceModel",
    "fang_hypotheses",
    "sw_mod3_nonzero",
    "verdict",
]
