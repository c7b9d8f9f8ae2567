"""Exact invariants of pseudofree order-3 symmetries of the K3 surface.

The package enumerates the admissible fixed-point configurations,
builds explicit even unimodular rank-22 lattice models with order-3
isometries realizing them, and evaluates the equivariant index data
behind the mod-3 smoothability obstruction, in closed forms.  All
arithmetic is exact; Q(zeta) in `k3z3.cyclotomic` is the tests' oracle.
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
from .fixed_data import (
    DiracIndex,
    FixedPointData,
    FixedPointType,
    dirac_coefficients,
    g_signature_of_data,
    normalize_type,
    parse_fixed_data,
)
from .lattice import (
    GLattice,
    LatticeReport,
    ModuleDecomposition,
    assemble_type_lattice,
    check_gsf,
    check_lefschetz,
    check_rep,
    direct_sum,
    fixed_sublattice,
    g_signature_of_lattice,
    gamma16,
    hyperbolic,
    module_decomposition,
    signature,
    three_h_perm,
    three_h_torus,
    verify_lattice,
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

__all__ = [
    "K3",
    "ActionType",
    "SurfaceConstants",
    "action_type",
    "admissible_differences",
    "enumerate_action_types",
    "quotient_invariants",
    "DiracIndex",
    "FixedPointData",
    "FixedPointType",
    "dirac_coefficients",
    "g_signature_of_data",
    "normalize_type",
    "parse_fixed_data",
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
    "ObstructionVerdict",
    "Smoothability",
    "SurfaceModel",
    "fang_hypotheses",
    "sw_mod3_nonzero",
    "verdict",
]
