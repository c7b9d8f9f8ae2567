"""K3's invariants, and the fixed-point data of pseudofree order-3 actions.

`K3` is the one record of the numbers the package reads of the K3 surface:
Euler number 24, signature -16, b2 = 22 and b+/b- = 3/19; the Lefschetz
bound 2 + b2 on fixed points and the Dirac index -Sign/8 follow from them.
A pseudofree action fixes finitely many points; at each one the local
model is a complex rotation with weights (a, b) mod 3, both nonzero,
well defined up to swapping the pair and negating both entries.  That
leaves exactly two local types.  A (+) point adds 1/3 and a (-) point
-1/3 to both the g-signature and the spin defect, so the g-signature
and the equivariant Dirac multiplicities are closed forms in m+ - m-.
"""

import re
from collections import namedtuple
from enum import Enum
from itertools import accumulate
from operator import index
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

K3 = namedtuple("K3", "euler sign b2 b_plus b_minus")(24, -16, 22, 3, 19)
# index of the Dirac operator on K3: -Sign/8 = 2
DIRAC_INDEX = -K3.sign // 8


def _integer(n) -> int:
    """n as a python int, for any type with __index__; ValueError for anything else."""
    try:
        return index(n)
    except TypeError:
        raise ValueError(f"expected an integer, got {n!r}") from None


class FixedPointType(Enum):
    """The two local rotation types, keyed by canonical weights."""

    PLUS = (1, 2)
    MINUS = (1, 1)


def normalize_type(a: int, b: int) -> FixedPointType:
    """Classify local weights (a, b), invariant under swap and joint negation."""
    ra, rb = _integer(a) % 3, _integer(b) % 3
    if ra == 0 or rb == 0:
        raise ValueError("action is not pseudofree at this point: weight = 0 mod 3")
    return FixedPointType.MINUS if ra == rb else FixedPointType.PLUS


class FixedPointData(namedtuple("FixedPointData", "m_plus m_minus")):
    """Counts of fixed points of each local type."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, m_plus, m_minus):
        m_plus, m_minus = _integer(m_plus), _integer(m_minus)
        if m_plus < 0 or m_minus < 0:
            raise ValueError("fixed point counts must be nonnegative")
        if m_plus + m_minus > K3.euler:  # 2 + trace on H^2 is at most 2 + b2
            raise ValueError(f"at most {K3.euler} fixed points are possible")
        return super().__new__(cls, m_plus, m_minus)

    @property
    def difference(self) -> int:
        return self.m_plus - self.m_minus


def _difference(d) -> int:
    """m+ - m- of the data `d`; ValueError unless `d` is a FixedPointData."""
    if not isinstance(d, FixedPointData):
        raise ValueError(f"expected FixedPointData, got {type(d).__name__}")
    return d.difference


# a pattern string: re compiles and caches it on the first parse, not at import
_ENTRY = r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*(?:x\s*(\d+)\s*)?$"


def parse_fixed_data(text: str) -> FixedPointData:
    """Parse a fixed-point multiset such as "(1,2)x3,(1,1)x6".

    Whitespace is ignored; each entry is a weight pair with an optional
    multiplicity (default 1).  Entries are split at the commas of depth 0,
    the depth counting each "(" before the comma as +1 and each ")" as -1.
    Weight pairs are classified through normalize_type, so any
    representative of a type is accepted.
    """
    depths = accumulate(text, lambda depth, ch: depth + (ch == "(") - (ch == ")"), initial=0)
    cuts = [i for i, (ch, depth) in enumerate(zip(text, depths)) if ch == "," and depth == 0]
    counts = {FixedPointType.PLUS: 0, FixedPointType.MINUS: 0}
    for start, end in zip([-1, *cuts], [*cuts, len(text)]):
        part = text[start + 1 : end].strip()
        m = re.match(_ENTRY, part)
        if not m:
            raise ValueError(f"cannot parse fixed-point entry {part!r}")
        counts[normalize_type(int(m[1]), int(m[2]))] += int(m[3] or 1)
    return FixedPointData(counts[FixedPointType.PLUS], counts[FixedPointType.MINUS])


def g_signature_of_data(d: FixedPointData) -> "Fraction":
    """Total g-signature defect of the data, (m_plus - m_minus)/3.

    A point of weights (a, b) adds (z^a+1)(z^b+1) / ((z^a-1)(z^b-1)),
    z = exp(2 pi i/3): 1/3 for the (+) type and -1/3 for the (-) type.
    """
    from fractions import Fraction  # only a library caller pays for the import

    return Fraction(_difference(d), 3)


class DiracIndex(namedtuple("DiracIndex", "k0 k1 k2")):
    """Multiplicities (k0, k1, k2) of the weight-j summands of the equivariant index.

    For rank-22 data built here k0 + k1 + k2 = 2 and k1 = k2; negative
    entries are legitimate (virtual multiplicities).
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


def dirac_coefficients(d: FixedPointData) -> DiracIndex:
    """Equivariant Dirac index multiplicities from the fixed-point data.

    The index has Lefschetz number DIRAC_INDEX (2, the non-equivariant
    value for K3) at 1 and the spin defect sum s = (m_plus - m_minus)/3
    at g and g^2.  Fourier inversion over {1, g, g^2} gives k1 = k2 =
    (2 - s)/3 and k0 = 2 - 2 k1, integers exactly when
    m_plus - m_minus = 6 mod 9.
    """
    k1, r = divmod(3 * DIRAC_INDEX - _difference(d), 9)
    if r:
        raise ValueError("fixed data admits no consistent spin lift: m+ - m- != 6 (mod 9)")
    return DiracIndex(DIRAC_INDEX - 2 * k1, k1, k1)
