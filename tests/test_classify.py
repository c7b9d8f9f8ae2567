"""Enumeration of admissible action types and its exhaustiveness."""

import fractions
from fractions import Fraction

import pytest

from k3z3 import (
    K3,
    ActionType,
    FixedPointData,
    action_type,
    admissible_differences,
    classify,
    dirac_coefficients,
    enumerate_action_types,
    fixed_data,
    quotient_invariants,
)

from _oracles import brute_force_admissible, g_signature_in_qzeta

EXPECTED_ROWS = [
    ("A0", 6, 6, 0, 10, 3, 7, -4, 12),
    ("A1", 9, 3, 6, 12, 3, 9, -6, 14),
    ("A2", 12, 0, 12, 14, 3, 11, -8, 16),
    ("B", 3, 0, 3, 8, 1, 7, -6, 10),
]


@pytest.mark.parametrize(
    "m_plus, m_minus, expected",
    [
        (3, 6, (Fraction(14), Fraction(-6))),
        (0, 3, (Fraction(10), Fraction(-6))),
        (0, 0, (Fraction(8), Fraction(-16, 3))),
    ],
)
def test_quotient_invariants(m_plus, m_minus, expected):
    assert quotient_invariants(FixedPointData(m_plus, m_minus)) == expected


def test_scaled_invariants_match_the_fraction_formulas():
    # the Fraction route, written out: chi(X/G) = (24 + 2 #X^G)/3 and
    # Sign(X/G) = (-16 + 2 Sign(g))/3, with Sign(g) summed in Q(zeta), at
    # every point of the grid
    points = 0
    for m_plus in range(25):
        for m_minus in range(25 - m_plus):
            d = FixedPointData(m_plus, m_minus)
            euler = Fraction(24 + 2 * (d.m_plus + d.m_minus), 3)
            sign = (-16 + 2 * g_signature_in_qzeta(m_plus, m_minus)) / 3
            assert classify._scaled_invariants(m_plus, m_minus) == (3 * euler, 9 * sign)
            assert quotient_invariants(d) == (euler, sign)
            points += 1
    assert points == 325


@pytest.fixture
def cold_sweep():
    classify._enumerate.cache_clear()
    yield
    classify._enumerate.cache_clear()


def _forbidden(*args, **kwargs):
    raise AssertionError("the sweep left the integer route")


def test_sweep_runs_on_integers(cold_sweep, monkeypatch):
    for module, name in [
        (classify, "quotient_invariants"),
        (classify, "FixedPointData"),
        (fractions, "Fraction"),
        (fixed_data, "g_signature_of_data"),
    ]:
        monkeypatch.setattr(module, name, _forbidden)
    rows = classify._enumerate()
    assert [tuple(t) for t in rows] == EXPECTED_ROWS
    assert all(type(x) is int for t in rows for x in t[1:])


def test_sweep_needs_only_integrality_and_the_ranges():
    # parity of b2 + Sign, the rotation planes and the fixed-rank relation
    # hold at every point that passes integrality and the b+- ranges, so
    # the sweep does not test them; written out from the raw formulas
    integral = in_range = 0
    for m_plus in range(25):
        for m_minus in range(25 - m_plus):
            chi3 = 24 + 2 * (m_plus + m_minus)
            sig9 = -48 + 2 * (m_plus - m_minus)
            if chi3 % 3 or sig9 % 9:
                continue
            integral += 1
            b2, sign = chi3 // 3 - 2, sig9 // 9
            assert (b2 + sign) % 2 == 0
            bplus, bminus = (b2 + sign) // 2, (b2 - sign) // 2
            if not (0 <= bplus <= 3 and 0 <= bminus <= 19):
                continue
            in_range += 1
            assert (3 - bplus) % 2 == 0 and (19 - bminus) % 2 == 0
            assert 2 * m_plus + m_minus == {1: 3, 3: 12}[bplus]
    assert (integral, in_range) == (15, 4)


def _sweep_anew():
    """classify._enumerate run again; its cache is left empty for the next caller."""
    classify._enumerate.cache_clear()
    try:
        return classify._enumerate()
    finally:
        classify._enumerate.cache_clear()


def test_sweep_visits_the_whole_grid(monkeypatch):
    # each (m+, m-) within the Lefschetz bound m+ + m- <= 24, once
    rows = classify._enumerate()
    visited = []
    scaled = classify._scaled_invariants

    def record(m_plus, m_minus):
        visited.append((m_plus, m_minus))
        return scaled(m_plus, m_minus)

    monkeypatch.setattr(classify, "_scaled_invariants", record)
    assert _sweep_anew() == rows
    assert visited == [(p, m) for p in range(25) for m in range(25 - p)]


def test_a_drifted_admissible_set_is_an_arithmetic_error(monkeypatch):
    # with b-^G capped at 7 only A0 and B survive, which the four names do not fit
    monkeypatch.setattr(classify, "K3", K3._replace(b_minus=7))
    with pytest.raises(ArithmeticError, match="drifted from the expected four types"):
        _sweep_anew()


def test_admissible_differences():
    diffs = admissible_differences()
    assert diffs == [-21, -12, -3, 6, 15, 24]
    assert -3 in diffs
    assert 0 not in diffs
    assert all(d % 9 == 6 and -24 <= d <= 24 for d in diffs)


def test_enumeration_matches_expected_rows():
    rows = enumerate_action_types()
    assert len(rows) == 4
    got = [
        (
            t.name,
            t.fixed_count,
            t.m_plus,
            t.m_minus,
            t.b2_G,
            t.bplus_G,
            t.bminus_G,
            t.sign_quotient,
            t.euler_quotient,
        )
        for t in rows
    ]
    assert got == EXPECTED_ROWS


def test_near_miss_candidate_is_rejected():
    # (m+, m-) = (1, 1) satisfies 2m+ + m- = 3 but fails the mod-9 test
    assert 2 * 1 + 1 == 3
    assert (1 - 1) % 9 != 6
    assert all((t.m_plus, t.m_minus) != (1, 1) for t in enumerate_action_types())


def test_rows_satisfy_all_defining_equations():
    for t in enumerate_action_types():
        euler, sign = quotient_invariants(t.data)
        assert euler == t.euler_quotient
        assert sign == t.sign_quotient
        assert t.fixed_count == t.m_plus + t.m_minus
        assert t.b2_G == t.euler_quotient - 2
        assert t.b2_G == t.bplus_G + t.bminus_G
        assert t.sign_quotient == t.bplus_G - t.bminus_G
        assert t.bplus_G in (1, 3)
        assert (K3.b_plus - t.bplus_G) % 2 == 0
        assert 2 * t.m_plus + t.m_minus == (3 if t.bplus_G == 1 else 12)
        assert (t.m_plus - t.m_minus) in admissible_differences()


def test_each_row_has_integral_dirac_coefficients():
    for t in enumerate_action_types():
        k = dirac_coefficients(t.data)
        assert sum(k) == 2


def test_enumeration_is_exhaustive():
    oracle = sorted(brute_force_admissible())
    got = sorted(
        (t.m_plus, t.m_minus, t.b2_G, t.bplus_G, t.bminus_G, t.sign_quotient, t.euler_quotient)
        for t in enumerate_action_types()
    )
    assert got == oracle


def test_surface_constants_are_consistent():
    # one record of K3's numbers, which every module reads
    assert K3 == (24, -16, 22, 3, 19) and K3 is classify.K3 is fixed_data.K3
    assert fixed_data.DIRAC_INDEX == -K3.sign // 8 == 2
    assert K3.b_plus + K3.b_minus == K3.b2
    assert K3.b_plus - K3.b_minus == K3.sign
    assert 2 + K3.b2 == K3.euler


def test_action_type_lookup():
    assert action_type("A1").m_minus == 6
    with pytest.raises(ValueError, match="unknown action type"):
        action_type("C")


def test_action_type_record_validation():
    with pytest.raises(ValueError, match="^inconsistent action type record$"):
        ActionType(
            name="A1",
            fixed_count=9,
            m_plus=3,
            m_minus=6,
            b2_G=12,
            bplus_G=3,
            bminus_G=9,
            sign_quotient=-5,  # wrong
            euler_quotient=14,
        )
    # each relation is checked on its own: A1 with b2^G off its b+ + b-,
    # with chi(X/G) off 2 + b2^G, and with b+^G = 2
    broken = ((9, 3, 6, 13, 3, 9, -6, 15), (9, 3, 6, 12, 3, 9, -6, 15), (9, 3, 6, 10, 2, 8, -6, 12))
    for fields in broken:
        with pytest.raises(ValueError, match="^inconsistent action type record$"):
            ActionType("A1", *fields)
    # the eight counts are read as python ints (test_records refuses a float)
    t = ActionType("B", 3, False, 3, 8, True, 7, -6, 10)
    assert t == action_type("B") and type(t.m_plus) is type(t.bplus_G) is int
