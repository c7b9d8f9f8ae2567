"""Smoothability verdicts from the mod-3 vanishing criterion.

If an order-3 action is trivial on the positive cone and all of its
equivariant Dirac multiplicities are small (2*k_j <= b+ - 1), the mod-p
vanishing theorem forces the Seiberg-Witten invariant of the canonical
Spin^c structure to vanish mod 3.  For smooth structures whose value of
that invariant is known to be +-1, such an action cannot be smooth.
"""

from collections import namedtuple
from enum import Enum
from math import gcd

from .classify import ActionType
from .fixed_data import K3, DiracIndex, _integer, dirac_coefficients


class Smoothability(Enum):
    UNSMOOTHABLE = "UNSMOOTHABLE"
    NO_OBSTRUCTION = "NO_OBSTRUCTION"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class SurfaceModel(namedtuple("SurfaceModel", "kind p q")):
    """A smooth structure on (a manifold homeomorphic to) K3.

    kind "standard_k3" is the standard smooth structure.  kind "e2pq"
    is the relatively minimal elliptic surface with Euler number 24 and
    multiple fibers of multiplicities p and q; it is homeomorphic to K3
    exactly when gcd(p, q) = 1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, kind, p=1, q=1):
        if kind not in ("standard_k3", "e2pq"):
            raise ValueError(f"unknown surface kind {kind!r}")
        p, q = _integer(p), _integer(q)
        if p < 1 or q < 1:
            raise ValueError("fiber multiplicities must be positive")
        return super().__new__(cls, kind, p, q)

    @staticmethod
    def standard() -> "SurfaceModel":
        return SurfaceModel("standard_k3")

    @staticmethod
    def elliptic(p: int, q: int) -> "SurfaceModel":
        return SurfaceModel("e2pq", p, q)

    def __str__(self):
        if self.kind == "standard_k3":
            return "standard_k3"
        return f"E(2)_{{{self.p},{self.q}}}"


class ObstructionVerdict(
    namedtuple("ObstructionVerdict", "status reasons k trivial_on_Hplus all_small sw_fact")
):
    """Smoothability verdict with one reason line per hypothesis tested."""

    __slots__ = ()


def fang_hypotheses(t: ActionType, k: DiracIndex) -> tuple[bool, bool]:
    """The two action-side hypotheses of the mod-3 vanishing theorem.

    Returns (action trivial on H+, all 2*k_j <= b+ - 1).  The theorem
    also needs b+ >= 2, which holds on K3 (b+ = 3).
    """
    trivial = t.bplus_G == K3.b_plus
    small = all(2 * kj <= K3.b_plus - 1 for kj in k)
    return trivial, small


def sw_mod3_nonzero(s: SurfaceModel) -> bool:
    """Whether SW(c0) = +-1 is on record for this smooth structure.

    True for the standard K3 and for elliptic surfaces with p, q both
    odd (and coprime).  False means the fact is unavailable, never that
    the invariant vanishes.
    """
    if s.kind == "standard_k3":
        return True
    if gcd(s.p, s.q) != 1:
        raise ValueError("not homeomorphic to K3: gcd(p, q) != 1")
    return s.p % 2 == 1 and s.q % 2 == 1


def verdict(t: ActionType, s: SurfaceModel) -> ObstructionVerdict:
    """Smoothability verdict for an action type on a given smooth structure.

    UNSMOOTHABLE when every hypothesis holds (a smooth action would
    force the invariant to vanish mod 3, contradicting the recorded
    value +-1); NOT_APPLICABLE when the action is nontrivial on H+ or
    the invariant's value is not on record; NO_OBSTRUCTION otherwise.
    """
    k = dirac_coefficients(t.data)
    b_plus = K3.b_plus
    trivial, small = fang_hypotheses(t, k)
    sw = sw_mod3_nonzero(s)
    reasons = (
        f"H+ action: b+^G = {t.bplus_G}, b+ = {b_plus} -> "
        f"{'trivial' if trivial else 'nontrivial'}",
        f"SW fact: SW(c0) = +/-1 {'available' if sw else 'unavailable'} for {s}",
        f"index bound: k = {tuple(k)}, 2*k_j <= {b_plus - 1} "
        f"{'holds for all j' if small else 'fails for some j'}",
    )
    if not trivial or not sw:
        status = Smoothability.NOT_APPLICABLE
    elif small:
        status = Smoothability.UNSMOOTHABLE
    else:
        status = Smoothability.NO_OBSTRUCTION
    return ObstructionVerdict(status, reasons, k, trivial, small, sw)
