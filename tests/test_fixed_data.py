"""Fixed-point types, defects and equivariant Dirac multiplicities."""

import random
from fractions import Fraction

import pytest

from k3z3 import (
    DiracIndex,
    FixedPointData,
    FixedPointType,
    dirac_coefficients,
    g_signature_of_data,
    normalize_type,
    parse_fixed_data,
)
from k3z3.cyclotomic import Cyclotomic, zeta_power

from _oracles import (
    dirac_by_fourier_inversion,
    embed,
    g_signature_in_qzeta,
    signature_defect,
    signature_defect_complex,
    spin_defect,
    spin_defect_complex,
)

GRID = [FixedPointData(m_plus, m_minus) for m_plus in range(25) for m_minus in range(25 - m_plus)]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (1, 2, FixedPointType.PLUS),
        (2, 2, FixedPointType.MINUS),
        (2, 1, FixedPointType.PLUS),
        (1, 1, FixedPointType.MINUS),
        (-1, -2, FixedPointType.PLUS),
        (-2, -2, FixedPointType.MINUS),
        (4, 5, FixedPointType.PLUS),
        (7, 4, FixedPointType.MINUS),
    ],
)
def test_normalize_type(a, b, expected):
    assert normalize_type(a, b) == expected


def test_normalize_type_invariances():
    for a in (1, 2, -1, -2, 4, 5):
        for b in (1, 2, -1, -2, 4, 5):
            t = normalize_type(a, b)
            assert normalize_type(b, a) == t
            assert normalize_type(-a, -b) == t


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (3, 2), (2, 6), (0, 0), (1.5, 2), (1, "two")])
def test_normalize_type_rejects_zero_weights(a, b):
    # a weight that is not an integer is refused before its residue is read
    match = "not pseudofree" if type(a) is type(b) is int else "expected an integer"
    with pytest.raises(ValueError, match=match):
        normalize_type(a, b)


def test_signature_defect_values():
    assert signature_defect(FixedPointType.PLUS) == Fraction(1, 3)
    assert signature_defect(FixedPointType.MINUS) == Fraction(-1, 3)


def test_spin_defect_values():
    assert spin_defect(FixedPointType.PLUS) == Fraction(1, 3)
    assert spin_defect(FixedPointType.MINUS) == Fraction(-1, 3)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_defects_match_complex_oracle(a, b):
    t = normalize_type(a, b)
    assert abs(embed(signature_defect(t)) - signature_defect_complex(a, b)) < 1e-9
    assert abs(embed(spin_defect(t)) - spin_defect_complex(a, b)) < 1e-9


def test_aggregate_defect_equals_third_of_difference():
    d = FixedPointData(3, 6)
    assert g_signature_of_data(d) == Fraction(-1)
    assert g_signature_of_data(d) == Fraction(d.difference, 3)


@pytest.mark.parametrize(
    "m_plus, m_minus, expected",
    [(6, 0, Fraction(2)), (0, 0, Fraction(0)), (0, 3, Fraction(-1))],
)
def test_g_signature_examples(m_plus, m_minus, expected):
    assert g_signature_of_data(FixedPointData(m_plus, m_minus)) == expected


def test_spin_and_signature_aggregates_agree_exactly():
    for m_plus in range(0, 25, 3):
        for m_minus in range(0, 25 - m_plus, 2):
            spin_sum = m_plus * spin_defect(FixedPointType.PLUS) + m_minus * spin_defect(
                FixedPointType.MINUS
            )
            sig_sum = m_plus * signature_defect(FixedPointType.PLUS) + m_minus * signature_defect(
                FixedPointType.MINUS
            )
            assert spin_sum == sig_sum


def test_aggregate_is_fixed_by_conjugation():
    agg = 5 * signature_defect(FixedPointType.PLUS) + 7 * signature_defect(FixedPointType.MINUS)
    assert agg.conjugate() == agg


@pytest.mark.parametrize(
    "m_plus, m_minus, expected",
    [(3, 6, (0, 1, 1)), (6, 0, (2, 0, 0)), (0, 12, (-2, 2, 2))],
)
def test_dirac_coefficients_examples(m_plus, m_minus, expected):
    k = dirac_coefficients(FixedPointData(m_plus, m_minus))
    assert k.as_tuple() == expected
    assert sum(k) == 2
    assert k.k1 == k.k2


def test_dirac_coefficients_satisfy_the_three_equations():
    for m_plus, m_minus in [(3, 6), (6, 0), (0, 12), (0, 3), (12, 6)]:
        d = FixedPointData(m_plus, m_minus)
        k = dirac_coefficients(d)
        s = Cyclotomic(Fraction(d.difference, 3))
        assert k.k0 + k.k1 + k.k2 == 2
        assert k.k0 + zeta_power(1) * k.k1 + zeta_power(2) * k.k2 == s
        assert k.k0 + zeta_power(2) * k.k1 + zeta_power(1) * k.k2 == s


def test_closed_forms_match_the_qzeta_derivation_on_the_grid():
    assert len(GRID) == 325
    lifts = 0
    for d in GRID:
        assert g_signature_of_data(d) == g_signature_in_qzeta(d.m_plus, d.m_minus)
        ks = dirac_by_fourier_inversion(d.m_plus, d.m_minus)
        if all(k.denominator == 1 for k in ks):
            assert dirac_coefficients(d).as_tuple() == ks
            lifts += 1
        else:
            with pytest.raises(ValueError, match="spin lift"):
                dirac_coefficients(d)
    assert lifts == 36


def test_dirac_succeeds_exactly_on_the_mod9_class():
    for m_plus in range(25):
        for m_minus in range(25 - m_plus):
            d = FixedPointData(m_plus, m_minus)
            if (m_plus - m_minus) % 9 == 6:
                dirac_coefficients(d)
            else:
                with pytest.raises(ValueError, match=r"spin lift: m\+ - m- != 6 \(mod 9\)$"):
                    dirac_coefficients(d)


def test_dirac_index_type():
    k = DiracIndex(-2, 2, 2)
    assert k.as_tuple() == (-2, 2, 2)
    assert sum(k) == 2


def test_fixed_point_data_validation():
    with pytest.raises(ValueError):
        FixedPointData(-1, 0)
    with pytest.raises(ValueError):
        FixedPointData(0, -2)
    with pytest.raises(ValueError, match="nonnegative"):
        FixedPointData(0, -1)
    with pytest.raises(ValueError, match="at most 24 fixed points are possible"):
        FixedPointData(20, 5)
    d = FixedPointData(20, 4)
    assert d.m_plus + d.m_minus == 24 and d.difference == 16
    # a count of any integer type is stored as a python int
    d = FixedPointData(True, 6)
    assert d == (1, 6) and type(d.m_plus) is int


@pytest.mark.parametrize("d", [(3, 6), None, [3, 6], (3, 6, 0)])
def test_counts_are_read_only_as_fixed_point_data(d):
    from k3z3 import action_type, assemble_type_lattice, check_gsf

    L = assemble_type_lattice(action_type("A1"))  # order 3, so only d can be refused
    for call in (dirac_coefficients, g_signature_of_data, lambda d: check_gsf(L, d)):
        with pytest.raises(ValueError, match=f"^expected FixedPointData, got {type(d).__name__}$"):
            call(d)
    assert check_gsf(L, FixedPointData(*action_type("A1").data)) is True


def test_parse_fixed_data():
    d = parse_fixed_data("(1,2)x3,(1,1)x6")
    assert (d.m_plus, d.m_minus) == (3, 6)
    assert parse_fixed_data(" ( 2 , 1 ) x 2 ") == FixedPointData(2, 0)
    assert parse_fixed_data("(1,2)") == FixedPointData(1, 0)
    assert parse_fixed_data("(1,2)x1,(2,1)x1,(-1,-1)x2") == FixedPointData(2, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(1,2)x",
        "(1)x3",
        "1,2x3",
        "(1,2)y3",
        "(1,2)x3,,(1,1)x1",
        "(1,2)x3 (1,1)x6",
        "(1,2)x-1,(1,2)x3",
        "(1;2)x3",
    ],
)
def test_parse_fixed_data_rejects_malformed(text):
    with pytest.raises(ValueError, match="cannot parse fixed-point entry"):
        parse_fixed_data(text)


@pytest.mark.parametrize(
    "text, part",
    [
        # a comma splits only at depth 0, the depth read from the left, so
        # an unmatched ")" makes it negative and hides the next comma
        (")(1,2),(1,1)", ")(1"),
        ("(1,2))x3,(1,1)", "(1,2))x3,(1"),
        ("(1,(2)x3),(1,1)", "(1,(2)x3)"),
        ("((1,2)x3", "((1,2)x3"),
        # each part is named stripped
        ("(1,2)x3, (1;2) \t,(1,1)", "(1;2)"),
    ],
)
def test_parse_fixed_data_names_the_part_split_at_depth_zero(text, part):
    with pytest.raises(ValueError) as exc:
        parse_fixed_data(text)
    assert str(exc.value) == f"cannot parse fixed-point entry {part!r}"


def test_parse_fixed_data_rejects_zero_weights():
    with pytest.raises(ValueError, match="not pseudofree"):
        parse_fixed_data("(3,1)x2")


def test_random_data_aggregates(seed=17):
    rng = random.Random(seed)
    for _ in range(100):
        m_plus = rng.randint(0, 24)
        m_minus = rng.randint(0, 24 - m_plus)
        d = FixedPointData(m_plus, m_minus)
        assert g_signature_of_data(d) == Fraction(m_plus - m_minus, 3)
