"""Even unimodular lattices with order-3 isometries, and the realization checks.

The rank-22 intersection lattice of K3 splits as three hyperbolic
planes plus a rank-16 negative definite even lattice.  This module
writes explicit order-3 isometries on those blocks in closed form (one
table, `_REALIZATION`, names the blocks of each action type), computes the
integral invariants of the resulting actions exactly, and evaluates the
realization conditions for the classified action types: the module
splitting condition (REP), the g-signature formula (GSF) and the
Lefschetz fixed-point count.
"""

from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING

from . import linalg
from .fixed_data import K3, FixedPointData, _difference, _integer
from .linalg import Matrix

if TYPE_CHECKING:
    from .classify import ActionType


class GLattice:
    """Integral lattice with bilinear form `gram` and candidate isometry `action`.

    The constructor enforces only shape and integrality; the defining
    properties (symmetry, unimodularity, evenness, isometry, order 3)
    are audited by verify_lattice so that deliberately broken inputs
    can still be constructed and examined.  Instances are immutable and
    compare by identity, which is what the caches below are keyed on.
    """

    __slots__ = ("gram", "action", "label")

    def __init__(self, gram, action, label: str = "lattice"):
        gram, action = Matrix(gram), Matrix(action)
        n = len(gram)
        if gram.shape != action.shape or gram.shape != (n, n):
            raise ValueError("gram and action must be square matrices of equal size")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"GLattice(gram={self.gram!r}, action={self.action!r}, label={self.label!r})"

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.action))


class ModuleDecomposition(namedtuple("ModuleDecomposition", "a b c")):
    """Multiplicities of the indecomposable integral modules of a 3-cycle.

    a counts trivial rank-1 summands, b the rank-2 summands on which the
    generator acts as a primitive cube root of unity, c the regular
    rank-3 summands.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


# ---------------------------------------------------------------------------
# constructors


def hyperbolic() -> GLattice:
    """Rank-2 hyperbolic plane with the identity action."""
    return GLattice(linalg._matrix([[0, 1], [1, 0]], 2), linalg.identity(2), label="H")


@lru_cache(maxsize=None)
def gamma16(k: int) -> GLattice:
    """The rank-16 negative definite even unimodular lattice, with k 3-cycles.

    The lattice consists of the vectors in (Z/2)^16 whose coordinates
    are mutually congruent mod Z with even coordinate sum, carrying the
    negated Euclidean form.  The generator permutes coordinates by
    (1 2 3)(4 5 6)...(3k-2 3k-1 3k).  The integral basis used is
    f_i = e_i + s_i e_16 (i <= 15, s_i = 1 for i <= 9 and -1 otherwise)
    and f_16 = (e_1 + ... + e_16)/2, so the Gram matrix is written in
    closed form: f_i.f_j = -(delta_ij + s_i s_j), f_16.f_i = -(1 + s_i)/2
    and f_16.f_16 = -4.  Each 3-cycle stays inside {1..9} or {10..15},
    so it permutes the f_i exactly as it permutes the e_i: the action
    matrix is the coordinate permutation itself, and integral as long as
    the cycles avoid coordinate 16, hence k <= 5.
    """
    k = _integer(k)
    if not 0 <= k <= 5:
        raise ValueError("k must lie in 0..5 (the 3-cycles must avoid coordinate 16)")
    s = [1] * 9 + [-1] * 6
    gram = [
        [-(i == j) - si * sj for j, sj in enumerate(s)] + [-(1 + si) // 2]
        for i, si in enumerate(s)
    ]
    gram.append([row[-1] for row in gram] + [-4])
    perm = [[0] * 16 for _ in range(16)]
    for c in range(16):
        image = c if c >= 3 * k else c - 2 if c % 3 == 2 else c + 1
        perm[image][c] = 1
    # closed-form ints, so the rows skip the check that user input gets
    return GLattice(linalg._matrix(gram, 16), linalg._matrix(perm, 16), label=f"Gamma16(k={k})")


# e_2i . e_2i+1 = 1: the gram of three hyperbolic planes, shared by the 3H blocks
_THREE_H = linalg._matrix([[int(j == i ^ 1) for j in range(6)] for i in range(6)], 6)


def three_h_perm() -> GLattice:
    """Orthogonal sum of three hyperbolic planes, cyclically permuted: the
    action shifts the coordinates by two."""
    shift = [[int(i == (j + 2) % 6) for j in range(6)] for i in range(6)]
    return GLattice(_THREE_H, linalg._matrix(shift, 6), label="3H(cyclic)")


def three_h_torus() -> GLattice:
    """Three hyperbolic planes realized on the middle cohomology of a 4-torus.

    Start from the rank-4 lattice V1 + V2, two copies of Z + zeta*Z, the
    generator acting by z, multiplication by zeta, on V1 and by z^2 on V2
    (so the two elliptic factors carry conjugate twists).  The lattice
    returned is its exterior square with the orientation pairing
    (alpha, beta) -> coefficient of e1^e2^e3^e4 in alpha^beta, for the
    ordered basis e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4.  That basis
    splits wedge^2(V1 + V2) as wedge^2 V1 + V1 (x) V2 + wedge^2 V2, so the
    action is det z + z (x) z^2 + det z^2, and both determinants are 1.
    Each basis vector pairs only with its complement (e1^e2 with e3^e4,
    e1^e3 with e2^e4, ...), which sits at the mirrored place of the basis,
    so the gram is anti-diagonal.  Its entries are the signs of the
    permutations 1234, 1324, 1423, 2314, 2413, 3412: +1, -1, +1, +1, -1, +1.
    """
    # z and z^2 on Z + zeta*Z in the basis (1, zeta)
    z, z2 = ((0, -1), (1, -1)), ((-1, 1), (-1, 0))
    tensor = [[z[i][k] * z2[j][l] for k in (0, 1) for l in (0, 1)] for i in (0, 1) for j in (0, 1)]
    action = [[1, 0, 0, 0, 0, 0], *([0, *row, 0] for row in tensor), [0, 0, 0, 0, 0, 1]]
    gram = [[s * (j == 5 - i) for j in range(6)] for i, s in enumerate((1, -1, 1, 1, -1, 1))]
    return GLattice(linalg._matrix(gram, 6), linalg._matrix(action, 6), label="3H(torus)")


def direct_sum(lhs: GLattice, rhs: GLattice, label: str | None = None) -> GLattice:
    """Orthogonal direct sum; gram and action are block diagonal."""
    return GLattice(
        linalg.block_diag(lhs.gram, rhs.gram),
        linalg.block_diag(lhs.action, rhs.action),
        label=label if label is not None else f"{lhs.label} + {rhs.label}",
    )


# ---------------------------------------------------------------------------
# invariants


class LatticeReport(
    namedtuple(
        "LatticeReport",
        "label rank det signature fixed_signature symmetric unimodular even isometry order3 "
        "decomposition",
    )
):
    """Outcome of the audit of a GLattice, with every invariant the checks read.

    `signature` and `fixed_signature` are the inertia (pos, neg, null) of
    the form and of the form restricted to the fixed sublattice, or None
    when the form is not symmetric.  `decomposition` is the
    ModuleDecomposition, or None when the action fails order 3 or a count
    comes out negative.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.symmetric and self.unimodular and self.even and self.isometry and self.order3


# The audit is the one per-lattice store of results: the checks and the CLI
# record read it however often they ask.  It and g - 1, which the fixed
# sublattice and the rank mod 3 both read, keep a few lattices each.
# GLattice compares by identity, so an entry is keyed on one object, which
# the cache keeps alive while the entry lasts; what is handed out is
# immutable.
@lru_cache(maxsize=8)
def verify_lattice(L: GLattice) -> LatticeReport:
    """Audit the defining properties and compute the invariants of the action.

    Failures are report entries, not errors.  The decomposition splits the
    action module as a*Z + b*Z[zeta] + c*Z[G].  By Reiner, these three are
    the only indecomposable integral representations of the cyclic group
    of order 3; they add (1, 2, 3) to the rank n, (1, -1, 0) to tr(g) and
    (0, 1, 2) to r, the rank of g - 1 over F_3.  So there are
    b + c = (n - tr(g))/3 rotation planes, c = r - (b + c) and a = tr(g) + b.
    """
    g, a = L.gram, L.action
    at, gt = a.T, g.T
    symmetric = g == gt
    if symmetric:
        # one unguarded symmetric elimination gives the inertia and the determinant
        sig, det = linalg._inertia_and_determinant(linalg.int_rows(g))
        fixed_sig = signature(fixed_sublattice(L)[1])
    else:
        sig, det, fixed_sig = None, linalg.bareiss_determinant(g), None
    order3 = linalg.cube_is_identity(a)
    dec = None
    if order3:
        trace = L.trace
        planes = (L.rank - trace) // 3
        c = linalg.rank_mod3(_action_minus_identity(L)) - planes
        b = planes - c
        if min(trace + b, b, c) >= 0:
            dec = ModuleDecomposition(trace + b, b, c)
    return LatticeReport(
        label=L.label,
        rank=L.rank,
        det=det,
        signature=sig,
        fixed_signature=fixed_sig,
        symmetric=symmetric,
        unimodular=abs(det) == 1,
        even=all(row[i] % 2 == 0 for i, row in enumerate(g)),
        # the sparse action leads each product: aT g a = aT (aT gT)T
        isometry=at @ (at @ gt).T == g,
        order3=order3,
        decomposition=dec,
    )


@lru_cache(maxsize=8)
def _action_minus_identity(L: GLattice) -> Matrix:
    rows = [list(row) for row in L.action]
    for i, row in enumerate(rows):
        row[i] -= 1
    return linalg._matrix(rows, L.rank)


def fixed_sublattice(L: GLattice) -> tuple[Matrix, Matrix]:
    """Basis of a full-rank sublattice of the invariant lattice, and the form on it.

    The basis is a rational kernel of (action - 1): its columns span the
    fixed space over Q, so their number is the fixed rank and, by
    Sylvester's law, the inertia of the restricted form is that of the
    form on the invariant lattice.  The sublattice need not be saturated,
    so its determinant may differ from the invariant lattice's.
    """
    basis = linalg.rational_kernel(_action_minus_identity(L))
    bt = basis.T  # the sparse basis leads each product: bT g b = (bT (bT g)T)T
    return basis, (bt @ (bt @ L.gram).T).T


def signature(mat) -> tuple[int, int, int]:
    """Inertia (pos, neg, null) of a symmetric matrix with integer entries."""
    return linalg.inertia(mat)


_ORDER_ERROR = "action has order != 3 or internal bug"


def module_decomposition(L: GLattice) -> ModuleDecomposition:
    """The split a*Z + b*Z[zeta] + c*Z[G] of the action module, read from the audit.

    Raises ValueError when the action fails order 3 or a count comes out
    negative (see verify_lattice for the derivation).
    """
    dec = verify_lattice(L).decomposition
    if dec is None:
        raise ValueError(_ORDER_ERROR)
    return dec


def g_signature_of_lattice(L: GLattice) -> int:
    """g-signature of the action from the two ordinary signatures.

    The non-fixed part of the real form splits into rotation planes
    contributing -1 each, which gives Sign(g) = (3*Sign^G - Sign)/2
    with Sign^G the signature of the restricted form on the fixed
    sublattice.  Expects a lattice that passes verify_lattice.
    """
    report = verify_lattice(L)
    if report.signature is None:
        raise ValueError("inertia needs a symmetric matrix")
    (pos, neg, null), (fpos, fneg, fnull) = report.signature, report.fixed_signature
    if null or fnull:
        raise ValueError("inconsistent eigenstructure: degenerate form")
    total = 3 * (fpos - fneg) - (pos - neg)
    if total % 2:
        raise ValueError("inconsistent eigenstructure: odd plane defect")
    return total // 2


# ---------------------------------------------------------------------------
# realization checks


def check_rep(L: GLattice, fixed_count: int) -> bool:
    """Module splitting condition: no rank-2 summands, and exactly
    fixed_count - 2 trivial summands."""
    fixed_count = _integer(fixed_count)
    if fixed_count < 2:
        raise ValueError("fixed_count must be at least 2")
    dec = module_decomposition(L)
    return dec.b == 0 and dec.a == fixed_count - 2


def check_gsf(L: GLattice, d: FixedPointData) -> bool:
    """g-signature formula: the lattice g-signature is the defect sum (m+ - m-)/3.

    Checking g settles g^2 as well: the two fix the same sublattice, so
    they have the same lattice g-signature, and each defect is rational,
    so the defect sum equals its Galois conjugate.  Raises ValueError
    unless `d` is a FixedPointData and the action has order 3.
    """
    difference = _difference(d)
    if not verify_lattice(L).order3:
        raise ValueError(_ORDER_ERROR)
    return 3 * g_signature_of_lattice(L) == difference


def check_lefschetz(L: GLattice, fixed_count: int) -> bool:
    """Fixed-point count 2 + tr(action) = #fixed, for a rank-22 model."""
    if L.rank != K3.b2:
        raise ValueError("not a K3 intersection form model")
    return 2 + L.trace == _integer(fixed_count)


_TRIVIAL = GLattice(_THREE_H, linalg.identity(6), label="3H(trivial)")

# The paper's realization of each type: its 3H block and the number of
# 3-cycles of the Gamma16 block.
_REALIZATION = {
    "A0": (three_h_torus(), 5),
    "A1": (_TRIVIAL, 5),
    "A2": (_TRIVIAL, 4),
    "B": (three_h_perm(), 5),
}


def assemble_type_lattice(t: "ActionType") -> GLattice:
    """The rank-22 model realizing a classified action type."""
    if t.name not in _REALIZATION:
        raise ValueError(f"unknown action type {t.name!r}")
    lhs, k = _REALIZATION[t.name]
    rhs = gamma16(k)
    return direct_sum(lhs, rhs, label=f"{t.name}: {lhs.label} + {rhs.label}")
