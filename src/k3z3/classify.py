"""Enumeration of the admissible fixed-point configurations on K3.

The Lefschetz bound, integrality of the orbit-space Euler number and
signature, and the feasible fixed ranks on the positive cone cut the
(m+, m-) grid down to exactly four action types; this module produces
them together with their cohomological invariants.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .fixed_data import FixedPointData, g_signature_of_data


class SurfaceConstants(
    namedtuple("SurfaceConstants", "euler sign b2 b_plus b_minus", defaults=(24, -16, 22, 3, 19))
):
    """Topological constants of the K3 surface."""

    __slots__ = ()


K3 = SurfaceConstants()


def quotient_invariants(d: FixedPointData) -> tuple[Fraction, Fraction]:
    """Euler number and signature of the orbit space, exactly.

    chi(X/G) = (chi(X) + 2 #fixed)/3 and Sign(X/G) = (Sign(X) + 2 Sign(g))/3.
    Neither value is assumed integral; callers filter on that.
    """
    euler = Fraction(K3.euler + 2 * d.total, 3)
    sign = (K3.sign + 2 * g_signature_of_data(d)) / 3
    return euler, sign


def admissible_differences() -> list[int]:
    """Values of m+ - m- compatible with an integral quotient signature.

    Within the Lefschetz bound |d| <= 24 these are the d = 6 mod 9, in
    ascending order.
    """
    return [d for d in range(-24, 25) if d % 9 == 6]


class ActionType(
    namedtuple(
        "ActionType",
        "name fixed_count m_plus m_minus b2_G bplus_G bminus_G sign_quotient euler_quotient",
    )
):
    """One admissible action type with its quotient invariants."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        consistent = (
            self.fixed_count == self.m_plus + self.m_minus
            and self.b2_G == self.bplus_G + self.bminus_G
            and self.euler_quotient == 2 + self.b2_G
            and self.sign_quotient == self.bplus_G - self.bminus_G
            and self.bplus_G in (1, 3)
        )
        if not consistent:
            raise ValueError("inconsistent action type record")
        return self

    @property
    def data(self) -> FixedPointData:
        return FixedPointData(self.m_plus, self.m_minus)


@lru_cache(maxsize=None)
def _enumerate() -> tuple[ActionType, ...]:
    bound = K3.b2 + 2
    survivors = []
    for m_plus in range(bound + 1):
        for m_minus in range(bound + 1 - m_plus):
            d = FixedPointData(m_plus, m_minus)
            euler_q, sign_q = quotient_invariants(d)
            if euler_q.denominator != 1 or sign_q.denominator != 1:
                continue
            euler, sign = euler_q.numerator, sign_q.numerator
            b2 = euler - 2  # the orbit space is simply connected
            if (b2 + sign) % 2:
                continue
            bplus = (b2 + sign) // 2
            bminus = (b2 - sign) // 2
            if not (0 <= bplus <= K3.b_plus and 0 <= bminus <= K3.b_minus):
                continue
            # the non-fixed cohomology splits into rank-2 rotation planes
            if (K3.b_plus - bplus) % 2 or (K3.b_minus - bminus) % 2:
                continue
            # each feasible fixed rank on the positive cone pins a linear
            # relation between the counts
            if 2 * m_plus + m_minus != {1: 3, 3: 12}[bplus]:
                continue
            survivors.append((m_plus, m_minus, b2, bplus, bminus, sign, euler))
    survivors.sort(key=lambda row: (-row[3], -row[0]))
    if [row[3] for row in survivors] != [3, 3, 3, 1]:
        raise ArithmeticError("admissible set drifted from the expected four types")
    rows = []
    a_index = 0
    for m_plus, m_minus, b2, bplus, bminus, sign, euler in survivors:
        if bplus == 3:
            name = f"A{a_index}"
            a_index += 1
        else:
            name = "B"
        rows.append(
            ActionType(
                name=name,
                fixed_count=m_plus + m_minus,
                m_plus=m_plus,
                m_minus=m_minus,
                b2_G=b2,
                bplus_G=bplus,
                bminus_G=bminus,
                sign_quotient=sign,
                euler_quotient=euler,
            )
        )
    return tuple(rows)


def enumerate_action_types() -> list[ActionType]:
    """The admissible action types, in deterministic display order.

    Rows are sorted by b+^G descending, then m+ descending, and named
    A0, A1, A2 (trivial positive-cone action) and B.
    """
    return list(_enumerate())


def action_type(name: str) -> ActionType:
    """Look up one of the four admissible types by name."""
    for t in enumerate_action_types():
        if t.name == name:
            return t
    raise ValueError(f"unknown action type {name!r}")
