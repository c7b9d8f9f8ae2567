"""Even unimodular lattices with order-3 isometries, and the realization checks.

The rank-22 intersection lattice of K3 splits as three hyperbolic
planes plus a rank-16 negative definite even lattice.  This module
constructs explicit order-3 isometries on those blocks, computes the
integral invariants of the resulting actions exactly, and evaluates the
realization conditions for the classified action types: the module
splitting condition (REP), the g-signature formula (GSF) and the
Lefschetz fixed-point count.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import linalg
from .classify import ActionType
from .fixed_data import FixedPointData, g_signature_of_data
from .linalg import Matrix


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
        gram, action = linalg.int_rows(gram), linalg.int_rows(action)
        n = len(gram)
        if len(action) != n or any(len(row) != n for row in gram + action):
            raise ValueError("gram and action must be square matrices of equal size")
        object.__setattr__(self, "gram", Matrix(gram))
        object.__setattr__(self, "action", Matrix(action))
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
    return GLattice([[0, 1], [1, 0]], [[1, 0], [0, 1]], label="H")


@lru_cache(maxsize=None)
def gamma16(k: int) -> GLattice:
    """The rank-16 negative definite even unimodular lattice, with k 3-cycles.

    The lattice consists of the vectors in (Z/2)^16 whose coordinates
    are mutually congruent mod Z with even coordinate sum, carrying the
    negated Euclidean form.  The generator permutes coordinates by
    (1 2 3)(4 5 6)...(3k-2 3k-1 3k).  The integral basis used is
    f_i = e_i + e_16 (i <= 9), f_i = e_i - e_16 (10 <= i <= 15) and
    f_16 = (e_1 + ... + e_16)/2.  Each 3-cycle stays inside {1..9} or
    {10..15}, so it permutes the f_i exactly as it permutes the e_i: the
    action matrix is the coordinate permutation itself, and integral as
    long as the cycles avoid coordinate 16, hence k <= 5.
    """
    if not 0 <= k <= 5:
        raise ValueError("k must lie in 0..5 (the 3-cycles must avoid coordinate 16)")
    n = 16
    # columns are the doubled basis vectors 2*f_i: integral, and their
    # products 4*(f_i . f_j) divide exactly by 4
    doubled = [[0] * n for _ in range(n)]
    for i in range(9):
        doubled[i][i] = 2
        doubled[n - 1][i] = 2
    for i in range(9, 15):
        doubled[i][i] = 2
        doubled[n - 1][i] = -2
    for i in range(n):
        doubled[i][n - 1] = 1
    doubled = Matrix(doubled)
    gram = [[-x // 4 for x in row] for row in doubled.T @ doubled]
    perm = [[0] * n for _ in range(n)]
    for c in range(3 * k):
        image = c - 2 if c % 3 == 2 else c + 1
        perm[image][c] = 1
    for c in range(3 * k, n):
        perm[c][c] = 1
    return GLattice(gram, perm, label=f"Gamma16(k={k})")


def three_h_perm() -> GLattice:
    """Orthogonal sum of three hyperbolic planes, cyclically permuted."""
    h = [[0, 1], [1, 0]]
    gram = linalg.block_diag(linalg.block_diag(h, h), h)
    action = [[0] * 6 for _ in range(6)]
    for blk in range(3):
        tgt = (blk + 1) % 3
        action[2 * tgt][2 * blk] = 1
        action[2 * tgt + 1][2 * blk + 1] = 1
    return GLattice(gram, action, label="3H(cyclic)")


def _eps4(i: int, j: int, k: int, l: int) -> int:
    """Sign of (i, j, k, l) as a permutation of (0, 1, 2, 3); 0 on repeats."""
    seq = (i, j, k, l)
    if len(set(seq)) != 4:
        return 0
    sign = 1
    for a in range(4):
        for b in range(a + 1, 4):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _exterior_square(m: Matrix) -> list[list[int]]:
    """Induced matrix on wedge^2, basis e_i ^ e_j (i < j) in lexicographic order."""
    n = len(m)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[m[k][i] * m[l][j] - m[l][i] * m[k][j] for i, j in pairs] for k, l in pairs]


def three_h_torus() -> GLattice:
    """Three hyperbolic planes realized on the middle cohomology of a 4-torus.

    Start from the rank-4 lattice made of two copies of Z + zeta*Z, the
    generator acting by multiplication by zeta on the first copy and by
    zeta^2 on the second (so the two elliptic factors carry conjugate
    twists).  The lattice returned is its exterior square with the
    orientation pairing (alpha, beta) -> coefficient of e1^e2^e3^e4 in
    alpha^beta, for the ordered basis e1^e2, e1^e3, e1^e4, e2^e3,
    e2^e4, e3^e4.
    """
    # multiplication by zeta on Z + zeta*Z in the basis (1, zeta)
    mult_zeta = Matrix([[0, -1], [1, -1]])
    g4 = linalg.block_diag(mult_zeta, mult_zeta @ mult_zeta)
    action = _exterior_square(g4)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    gram = [[_eps4(i, j, k, l) for k, l in pairs] for i, j in pairs]
    return GLattice(gram, action, label="3H(torus)")


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
    namedtuple("LatticeReport", "label rank det symmetric unimodular even isometry order3 notes")
):
    """Outcome of the structural audit of a GLattice."""

    __slots__ = ()

    def checks(self) -> tuple[tuple[str, bool], ...]:
        return (
            ("symmetric", self.symmetric),
            ("unimodular", self.unimodular),
            ("even", self.even),
            ("isometry", self.isometry),
            ("order 3", self.order3),
        )

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks())


TORSION_NOTE = "torsion condition skipped: redundant for order-3 actions"


# Every cache below keeps a few lattices.  GLattice compares by identity,
# so an entry is keyed on one object, which the cache keeps alive while the
# entry lasts; what is handed out is immutable.  One verification reads each
# entry several times (the record, then the checks).
@lru_cache(maxsize=8)
def verify_lattice(L: GLattice) -> LatticeReport:
    """Audit the defining properties; failures are report entries, not errors."""
    g, a = L.gram, L.action
    det = linalg.bareiss_determinant(g)
    return LatticeReport(
        label=L.label,
        rank=L.rank,
        det=det,
        symmetric=g == g.T,
        unimodular=abs(det) == 1,
        even=all(row[i] % 2 == 0 for i, row in enumerate(g)),
        isometry=a.T @ g @ a == g,
        order3=a @ a @ a == linalg.identity(L.rank),
        notes=(TORSION_NOTE,),
    )


@lru_cache(maxsize=8)
def fixed_sublattice(L: GLattice) -> tuple[Matrix, Matrix]:
    """Basis of the invariant sublattice and the form restricted to it.

    The kernel of (action - 1) over Z comes out of the Smith normal
    form, hence is saturated: its rank equals the real fixed rank.
    Expects a lattice that passes verify_lattice.
    """
    basis = linalg.integer_kernel(L.action - linalg.identity(L.rank))
    return basis, basis.T @ L.gram @ basis


def signature(mat) -> tuple[int, int, int]:
    """Inertia (pos, neg, null) of a symmetric matrix with exact entries."""
    return linalg.inertia(mat)


@lru_cache(maxsize=8)
def signatures(L: GLattice) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Inertia of the form and of the form restricted to the fixed sublattice."""
    return signature(L.gram), signature(fixed_sublattice(L)[1])


_ORDER_ERROR = "action has order != 3 or internal bug"


@lru_cache(maxsize=8)
def module_decomposition(L: GLattice) -> ModuleDecomposition:
    """Split the action module as a*Z + b*Z[zeta] + c*Z[G].

    With f the fixed rank and r the rank of g - 1 over F_3,
    b = 2f - 2 tr(g) - r, a = tr(g) + b and c = f - a: by Reiner's
    classification these three summands are the only indecomposable
    integral representations of the cyclic group of order 3, and they
    contribute (1, -1, 0) to the trace, (1, 0, 1) to f and (0, 1, 2) to r.
    """
    if not verify_lattice(L).order3:
        raise ValueError(_ORDER_ERROR)
    n = L.rank
    trace = L.trace
    fixed_rank = fixed_sublattice(L)[0].shape[1]
    b = 2 * fixed_rank - 2 * trace - linalg.rank_mod3(L.action - linalg.identity(n))
    a = trace + b
    c = fixed_rank - a
    if a < 0 or b < 0 or c < 0 or a + 2 * b + 3 * c != n:
        raise ValueError(_ORDER_ERROR)
    return ModuleDecomposition(a, b, c)


def g_signature_of_lattice(L: GLattice) -> int:
    """g-signature of the action from the two ordinary signatures.

    The non-fixed part of the real form splits into rotation planes
    contributing -1 each, which gives Sign(g) = (3*Sign^G - Sign)/2
    with Sign^G the signature of the restricted form on the fixed
    sublattice.  Expects a lattice that passes verify_lattice.
    """
    (pos, neg, null), (fpos, fneg, fnull) = signatures(L)
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
    if fixed_count < 2:
        raise ValueError("fixed_count must be at least 2")
    dec = module_decomposition(L)
    return dec.b == 0 and dec.a == fixed_count - 2


def check_gsf(L: GLattice, d: FixedPointData) -> bool:
    """g-signature formula: the lattice g-signature equals the defect sum.

    Checking g settles g^2 as well: the two fix the same sublattice, so
    they have the same lattice g-signature, and each defect is rational,
    so the defect sum equals its Galois conjugate.  Raises ValueError
    unless the action has order 3.
    """
    if not verify_lattice(L).order3:
        raise ValueError(_ORDER_ERROR)
    return g_signature_of_lattice(L) == g_signature_of_data(d)


def check_lefschetz(L: GLattice, fixed_count: int) -> bool:
    """Fixed-point count 2 + tr(action) = #fixed, for a rank-22 model."""
    if L.rank != 22:
        raise ValueError("not a K3 intersection form model")
    return 2 + L.trace == fixed_count


def _three_h_trivial() -> GLattice:
    h = hyperbolic()
    return direct_sum(direct_sum(h, h), h, label="3H(trivial)")


def assemble_type_lattice(t: ActionType) -> GLattice:
    """The rank-22 model realizing a classified action type."""
    if t.name == "A0":
        model = direct_sum(three_h_torus(), gamma16(5))
    elif t.name == "A1":
        model = direct_sum(_three_h_trivial(), gamma16(5))
    elif t.name == "A2":
        model = direct_sum(_three_h_trivial(), gamma16(4))
    elif t.name == "B":
        model = direct_sum(three_h_perm(), gamma16(5))
    else:
        raise ValueError(f"unknown action type {t.name!r}")
    return GLattice(model.gram, model.action, label=f"{t.name}: {model.label}")
