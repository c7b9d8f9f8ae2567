"""Enumeration of the admissible fixed-point configurations on K3.

Every K3 number is read from `fixed_data.K3`, which this module re-exports.
The Lefschetz bound, integrality of the orbit-space Euler number and
signature, and the feasible fixed ranks on the positive cone cut the
(m+, m-) grid down to exactly four action types; this module produces
them together with their cohomological invariants.  Nothing is cached:
each caller runs the sweep once and keeps the four types it needs.
"""

from collections import namedtuple
from typing import TYPE_CHECKING

from .fixed_data import K3, FixedPointData, _integer

if TYPE_CHECKING:
    from fractions import Fraction


def _scaled_invariants(m_plus: int, m_minus: int) -> tuple[int, int]:
    """3 chi(X/G) and 9 Sign(X/G), integers at every point of the grid.

    From chi(X/G) = (chi(X) + 2 #fixed)/3 and Sign(X/G) = (Sign(X) +
    2 Sign(g))/3, with Sign(g) = (m+ - m-)/3.
    """
    euler3 = K3.euler + 2 * (m_plus + m_minus)
    sign9 = 3 * K3.sign + 2 * (m_plus - m_minus)
    return euler3, sign9


def quotient_invariants(d: FixedPointData) -> "tuple[Fraction, Fraction]":
    """Euler number and signature of the orbit space, exactly.

    chi(X/G) = (chi(X) + 2 #fixed)/3 and Sign(X/G) = (Sign(X) + 2 Sign(g))/3.
    Neither value is assumed integral; callers filter on that.
    """
    from fractions import Fraction  # only a library caller pays for the import

    euler3, sign9 = _scaled_invariants(d.m_plus, d.m_minus)
    return Fraction(euler3, 3), Fraction(sign9, 9)


def admissible_differences() -> list[int]:
    """Values of m+ - m- compatible with an integral quotient signature.

    Within the Lefschetz bound |d| <= 24 these are the d with 9 dividing
    3 Sign(X) + 2d, that is d = 6 mod 9, in ascending order.
    """
    return [d for d in range(-K3.euler, K3.euler + 1) if (3 * K3.sign + 2 * d) % 9 == 0]


class ActionType(
    namedtuple(
        "ActionType",
        "name fixed_count m_plus m_minus b2_G bplus_G bminus_G sign_quotient euler_quotient",
    )
):
    """One admissible action type with its quotient invariants."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace runs the checks too

    def __new__(cls, *args, **kwargs):
        name, *counts = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, name, *map(_integer, counts))
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


def enumerate_action_types() -> list[ActionType]:
    """The admissible action types, in deterministic display order.

    Each call sweeps the grid anew, in about 80 us.  Rows are sorted by
    b+^G descending, then m+ descending, and named A0, A1, A2 (trivial
    positive-cone action) and B.
    """
    survivors = []
    # the whole grid, on integers: chi(X/G) and Sign(X/G) must be integral
    for m_plus in range(K3.euler + 1):
        for m_minus in range(K3.euler + 1 - m_plus):
            euler3, sign9 = _scaled_invariants(m_plus, m_minus)
            if euler3 % 3 or sign9 % 9:
                continue
            euler, sign = euler3 // 3, sign9 // 9
            b2 = euler - 2  # the orbit space is simply connected
            bplus = (b2 + sign) // 2
            bminus = (b2 - sign) // 2
            if not (0 <= bplus <= K3.b_plus and 0 <= bminus <= K3.b_minus):
                continue
            # The paper's other conditions follow.  Integrality means
            # T = m+ + m- = 3t and D = m+ - m- = 9s + 6, so b2 + Sign =
            # 2(t + s + 1) is even, and T = D mod 2 gives t = s mod 2: b+ =
            # t + s + 1 and b- = 5 + t - s are odd (the non-fixed parts split
            # into rotation planes), so b+ is 1 or 3 and 2m+ + m- = (3T + D)/2
            # = (9(b+ - 1) + 6)/2 is 3 or 12 (the fixed-rank relations).
            # A row holds the fields of an ActionType but its name.
            survivors.append((m_plus + m_minus, m_plus, m_minus, b2, bplus, bminus, sign, euler))
    survivors.sort(key=lambda row: (-row[4], -row[1]))  # b+^G, then m+, descending
    if [row[4] for row in survivors] != [3, 3, 3, 1]:
        raise ArithmeticError("admissible set drifted from the expected four types")
    return [ActionType(name, *row) for name, row in zip(("A0", "A1", "A2", "B"), survivors)]


def action_type(name: str) -> ActionType:
    """Look up one of the four admissible types by name."""
    for t in enumerate_action_types():
        if t.name == name:
            return t
    raise ValueError(f"unknown action type {name!r}")
