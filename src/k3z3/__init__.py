"""Exact invariants of pseudofree order-3 symmetries of the K3 surface.

The package enumerates the admissible fixed-point configurations,
builds explicit even unimodular rank-22 lattice models with order-3
isometries realizing them, and evaluates the equivariant index data
behind the mod-3 smoothability obstruction, in closed forms.  All
arithmetic is exact; Q(zeta) in `k3z3.cyclotomic` is the tests' oracle.

`import k3z3` loads no submodule: each name in `__all__` is imported
from its home module on first use (PEP 562), so a process pays only for
the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every public name, in the order of __all__
_HOME = {
    name: module
    for module, names in (
        ("classify", "K3 ActionType SurfaceConstants action_type admissible_differences "
                     "enumerate_action_types quotient_invariants"),
        ("fixed_data", "DiracIndex FixedPointData FixedPointType dirac_coefficients "
                       "g_signature_of_data normalize_type parse_fixed_data"),
        ("lattice", "GLattice LatticeReport ModuleDecomposition assemble_type_lattice check_gsf "
                    "check_lefschetz check_rep direct_sum fixed_sublattice g_signature_of_lattice "
                    "gamma16 hyperbolic module_decomposition signature three_h_perm three_h_torus "
                    "verify_lattice"),
        ("obstruction", "ObstructionVerdict Smoothability SurfaceModel fang_hypotheses "
                        "sw_mod3_nonzero verdict"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
