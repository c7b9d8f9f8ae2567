"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s`, or via
`pytest -v` test names on failure).  Tolerances are pinned inline:
everything is exact except the floating-point oracle comparison, which
uses 1e-9.
"""

import json
import random
from itertools import product
from math import gcd

import pytest

from k3z3 import (
    FixedPointData,
    FixedPointType,
    Smoothability,
    SurfaceModel,
    action_type,
    admissible_differences,
    assemble_type_lattice,
    check_gsf,
    check_lefschetz,
    check_rep,
    dirac_coefficients,
    enumerate_action_types,
    fixed_sublattice,
    g_signature_of_data,
    g_signature_of_lattice,
    gamma16,
    module_decomposition,
    signature,
    three_h_perm,
    three_h_torus,
    verdict,
    verify_lattice,
)
from k3z3.cli import run as cli_run

from _oracles import (
    brute_force_admissible,
    dirac_complex,
    embed,
    random_cyclotomic,
    signature_defect,
    signature_defect_complex,
    spin_defect,
    spin_defect_complex,
    transformed,
)

EXPECTED_TABLE = [
    ("A0", 6, 6, 0, 10, 3, 7, -4),
    ("A1", 9, 3, 6, 12, 3, 9, -6),
    ("A2", 12, 0, 12, 14, 3, 11, -8),
    ("B", 3, 0, 3, 8, 1, 7, -6),
]


def _report(n: int, text: str) -> None:
    print(f"[criterion {n:02d}] PASS {text}")


def test_criterion_01_classification_table():
    rows = enumerate_action_types()
    got = [
        (t.name, t.fixed_count, t.m_plus, t.m_minus, t.b2_G, t.bplus_G, t.bminus_G, t.sign_quotient)
        for t in rows
    ]
    assert got == EXPECTED_TABLE
    code, out = cli_run(["classify", "--format", "json"])
    assert code == 0
    emitted = [
        (
            r["name"],
            r["fixed_count"],
            r["m_plus"],
            r["m_minus"],
            r["b2_G"],
            r["bplus_G"],
            r["bminus_G"],
            r["sign_quotient"],
        )
        for r in json.loads(out)
    ]
    assert emitted == EXPECTED_TABLE
    _report(1, "classify emits exactly the four expected rows, field for field")


def test_criterion_02_admissible_difference_set():
    assert admissible_differences() == [-21, -12, -3, 6, 15, 24]
    _report(2, "admissible differences are exactly {-21, -12, -3, 6, 15, 24}")


def test_criterion_03_lattice_models():
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)
        report = verify_lattice(L)
        assert report.passed, (t.name, report)
        assert abs(report.det) == 1
        assert L.rank == 22
        assert signature(L.gram) == (3, 19, 0)
        assert signature(fixed_sublattice(L)[1]) == (t.bplus_G, t.bminus_G, 0)
        assert check_rep(L, t.fixed_count) is True
        assert check_gsf(L, t.data) is True
        assert check_lefschetz(L, t.fixed_count) is True
    _report(3, "all four rank-22 models verify and satisfy REP, GSF and Lefschetz")


def test_criterion_04_gamma16_decompositions():
    for k in range(6):
        assert tuple(module_decomposition(gamma16(k))) == (16 - 3 * k, 0, k)
    _report(4, "gamma16(k) decomposes as (16-3k, 0, k) for every k in 0..5")


def test_criterion_05_three_h_models():
    perm = three_h_perm()
    assert tuple(module_decomposition(perm)) == (0, 0, 2)
    assert signature(fixed_sublattice(perm)[1]) == (1, 1, 0)
    torus = three_h_torus()
    assert tuple(module_decomposition(torus)) == (3, 0, 1)
    assert signature(fixed_sublattice(torus)[1]) == (3, 1, 0)
    _report(5, "permuted 3H decomposes (0,0,2)/(1,1); torus 3H decomposes (3,0,1)/(3,1)")


def test_criterion_06_dirac_coefficients():
    expected = {"A0": (2, 0, 0), "A1": (0, 1, 1), "A2": (-2, 2, 2)}
    for name, want in expected.items():
        k = dirac_coefficients(action_type(name).data)
        assert k.as_tuple() == want
        assert sum(k) == 2
    for m_plus in range(25):
        for m_minus in range(25 - m_plus):
            d = FixedPointData(m_plus, m_minus)
            if (m_plus - m_minus) % 9 == 6:
                assert sum(dirac_coefficients(d)) == 2
            else:
                with pytest.raises(ValueError):
                    dirac_coefficients(d)
    _report(6, "Dirac multiplicities are (2,0,0), (0,1,1), (-2,2,2); errors off the mod-9 class")


def test_criterion_07_verdicts():
    std = SurfaceModel.standard()
    assert verdict(action_type("A1"), std).status == Smoothability.UNSMOOTHABLE
    assert verdict(action_type("A0"), std).status == Smoothability.NO_OBSTRUCTION
    assert verdict(action_type("A2"), std).status == Smoothability.NO_OBSTRUCTION
    assert verdict(action_type("B"), std).status == Smoothability.NOT_APPLICABLE
    a1 = action_type("A1")
    odd_coprime = [
        (p, q) for p, q in product(range(1, 18, 2), repeat=2) if gcd(p, q) == 1
    ][:50]
    for p, q in odd_coprime:
        assert verdict(a1, SurfaceModel.elliptic(p, q)).status == Smoothability.UNSMOOTHABLE
    # even multiplicities: no recorded invariant, hence no obstruction claim
    for p, q in [(2, 3), (2, 5), (4, 9)]:
        assert verdict(a1, SurfaceModel.elliptic(p, q)).status == Smoothability.NOT_APPLICABLE
    for p, q in [(3, 6), (2, 4)]:
        with pytest.raises(ValueError):
            verdict(a1, SurfaceModel.elliptic(p, q))
    _report(7, "verdicts match on the standard structure and on 50 odd coprime elliptic pairs")


def test_criterion_08_oracle_equivalence():
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        t = FixedPointType.MINUS if a % 3 == b % 3 else FixedPointType.PLUS
        assert abs(embed(signature_defect(t)) - signature_defect_complex(a, b)) < 1e-9
        assert abs(embed(spin_defect(t)) - spin_defect_complex(a, b)) < 1e-9
    # the closed forms Sign(g) = (m+ - m-)/3 and k1 = k2 = (6 - (m+ - m-))/9
    lifts = 0
    for m_plus in range(25):
        for m_minus in range(25 - m_plus):
            d = FixedPointData(m_plus, m_minus)
            sign_c = m_plus * signature_defect_complex(1, 2) + m_minus * signature_defect_complex(1, 1)
            assert abs(float(g_signature_of_data(d)) - sign_c) < 1e-9
            if d.difference % 9 == 6:
                k_c = dirac_complex(m_plus, m_minus)
                assert all(abs(k - c) < 1e-9 for k, c in zip(dirac_coefficients(d), k_c))
                lifts += 1
    assert lifts == 36
    _report(
        8,
        "exact defects, Sign(g) and the Dirac multiplicities match the complex-float "
        "oracle to 1e-9 on all weight pairs and all 325 grid points",
    )


def test_criterion_09_invariance_suites():
    rng = random.Random(90)
    count = 0
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)
        base = (
            signature(L.gram),
            tuple(module_decomposition(L)),
            g_signature_of_lattice(L),
            check_rep(L, t.fixed_count),
            check_gsf(L, t.data),
            check_lefschetz(L, t.fixed_count),
        )
        for _ in range(50):  # 50 per model, 200 randomized basis changes in total
            M = transformed(L, rng)
            got = (
                signature(M.gram),
                tuple(module_decomposition(M)),
                g_signature_of_lattice(M),
                check_rep(M, t.fixed_count),
                check_gsf(M, t.data),
                check_lefschetz(M, t.fixed_count),
            )
            assert got == base, (t.name, got, base)
            count += 1
    assert count == 200

    rng = random.Random(91)
    values = [random_cyclotomic(rng) for _ in range(1000)]
    for i in range(0, 1000, 3):
        a, b, c = values[i], values[(i + 1) % 1000], values[(i + 2) % 1000]
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a * b) / b == a
    _report(9, "200 basis changes and 1000-value field-axiom sweep leave every invariant fixed")


def test_criterion_10_exhaustive_consistency():
    oracle = sorted(brute_force_admissible())
    got = sorted(
        (t.m_plus, t.m_minus, t.b2_G, t.bplus_G, t.bminus_G, t.sign_quotient, t.euler_quotient)
        for t in enumerate_action_types()
    )
    assert got == oracle
    assert len(oracle) == 4
    _report(10, "brute force over the full grid finds exactly the four classified rows")
