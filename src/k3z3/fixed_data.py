"""Fixed-point data of pseudofree order-3 actions and its index invariants.

A pseudofree action fixes finitely many points; at each one the local
model is a complex rotation with weights (a, b) mod 3, both nonzero,
well defined up to swapping the pair and negating both entries.  That
leaves exactly two local types, and every aggregate computed here
(g-signature, spin defect sum, equivariant Dirac multiplicities)
depends only on how many fixed points carry each type.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import Cyclotomic, half_power, zeta_power

# 2 + trace on rank-22 middle cohomology cannot exceed 24
LEFSCHETZ_BOUND = 24
# index of the Dirac operator on K3: -Sign/8 = 2
DIRAC_INDEX = 2


class FixedPointType(Enum):
    """The two local rotation types, keyed by canonical weights."""

    PLUS = (1, 2)
    MINUS = (1, 1)

    @property
    def weights(self) -> tuple[int, int]:
        return self.value


def normalize_type(a: int, b: int) -> FixedPointType:
    """Classify local weights (a, b), invariant under swap and joint negation."""
    ra, rb = a % 3, b % 3
    if ra == 0 or rb == 0:
        raise ValueError("action is not pseudofree at this point: weight = 0 mod 3")
    return FixedPointType.MINUS if ra == rb else FixedPointType.PLUS


@lru_cache(maxsize=None)
def signature_defect(t: FixedPointType) -> Cyclotomic:
    """g-signature summand (z^a+1)(z^b+1) / ((z^a-1)(z^b-1)) for the type's weights."""
    a, b = t.weights
    num = (zeta_power(a) + 1) * (zeta_power(b) + 1)
    den = (zeta_power(a) - 1) * (zeta_power(b) - 1)
    return num / den


@lru_cache(maxsize=None)
def spin_defect(t: FixedPointType) -> Cyclotomic:
    """Spin fixed-point contribution 1/((r - 1/r)(s - 1/s)).

    r and s are the square roots of z^a and z^b that are themselves
    cube roots of unity (see half_power).
    """
    a, b = t.weights
    ea, eb = half_power(a), half_power(b)
    fa = zeta_power(ea) - zeta_power(-ea)
    fb = zeta_power(eb) - zeta_power(-eb)
    return (fa * fb).inverse()


class FixedPointData(namedtuple("FixedPointData", "m_plus m_minus")):
    """Counts of fixed points of each local type."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m_plus < 0 or self.m_minus < 0:
            raise ValueError("fixed point counts must be nonnegative")
        if self.m_plus + self.m_minus > LEFSCHETZ_BOUND:
            raise ValueError(f"at most {LEFSCHETZ_BOUND} fixed points are possible")
        return self

    @property
    def total(self) -> int:
        return self.m_plus + self.m_minus

    @property
    def difference(self) -> int:
        return self.m_plus - self.m_minus


_ENTRY = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*(?:x\s*(\d+)\s*)?$")


def parse_fixed_data(text: str) -> FixedPointData:
    """Parse a fixed-point multiset such as "(1,2)x3,(1,1)x6".

    Whitespace is ignored; each entry is a weight pair with an optional
    multiplicity (default 1).  Weight pairs are classified through
    normalize_type, so any representative of a type is accepted.
    """
    parts: list[str] = []
    depth, cur = 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))

    counts = {FixedPointType.PLUS: 0, FixedPointType.MINUS: 0}
    for part in parts:
        part = part.strip()
        m = _ENTRY.match(part)
        if not m:
            raise ValueError(f"cannot parse fixed-point entry {part!r}")
        mult = int(m.group(3)) if m.group(3) else 1
        counts[normalize_type(int(m.group(1)), int(m.group(2)))] += mult
    return FixedPointData(counts[FixedPointType.PLUS], counts[FixedPointType.MINUS])


def g_signature_of_data(d: FixedPointData) -> Fraction:
    """Total g-signature defect of the data; equals (m_plus - m_minus)/3.

    Galois conjugation maps each local type to itself (weights (1, 2) to
    (2, 1), and (1, 1) to (2, 2)), so each defect is rational and the sum
    is taken in Q.
    """
    plus = signature_defect(FixedPointType.PLUS).as_rational()
    minus = signature_defect(FixedPointType.MINUS).as_rational()
    return d.m_plus * plus + d.m_minus * minus


class DiracIndex(namedtuple("DiracIndex", "k0 k1 k2")):
    """Multiplicities (k0, k1, k2) of the weight-j summands of the equivariant index.

    For rank-22 data built here k0 + k1 + k2 = 2 and k1 = k2; negative
    entries are legitimate (virtual multiplicities).
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)

    @property
    def total(self) -> int:
        return sum(self)


def dirac_coefficients(d: FixedPointData) -> DiracIndex:
    """Equivariant Dirac index multiplicities from the fixed-point data.

    The three Lefschetz numbers of the index are DIRAC_INDEX (2, the
    non-equivariant value for K3), the spin defect sum, and its Galois
    conjugate; Fourier inversion over {1, g, g^2} recovers the k_j.
    They are integers exactly when m_plus - m_minus = 6 mod 9.
    """
    ind_g = d.m_plus * spin_defect(FixedPointType.PLUS) + d.m_minus * spin_defect(
        FixedPointType.MINUS
    )
    ind_gg = ind_g.conjugate()
    ind_1 = Cyclotomic(DIRAC_INDEX)
    ks = []
    for j in range(3):
        kj = (ind_1 + zeta_power(-j) * ind_g + zeta_power(-2 * j) * ind_gg) / 3
        val = kj.as_rational()
        if val.denominator != 1:
            raise ValueError("fixed data admits no consistent spin lift: m+ - m- != 6 (mod 9)")
        ks.append(int(val))
    k = DiracIndex(*ks)
    # exact re-substitution into the three defining equations
    if not (
        k.total == DIRAC_INDEX
        and k.k1 == k.k2
        and k.k0 + zeta_power(1) * k.k1 + zeta_power(2) * k.k2 == ind_g
        and k.k0 + zeta_power(2) * k.k1 + zeta_power(4) * k.k2 == ind_gg
    ):
        raise ArithmeticError(f"Dirac multiplicities {k.as_tuple()} fail re-substitution")
    return k
