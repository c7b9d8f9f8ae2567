"""Smoothability verdicts from the mod-3 vanishing criterion."""

from itertools import product
from math import gcd

import pytest

from k3z3 import (
    DiracIndex,
    Smoothability,
    SurfaceModel,
    action_type,
    dirac_coefficients,
    enumerate_action_types,
    fang_hypotheses,
    sw_mod3_nonzero,
    verdict,
)


def test_surface_model_validation():
    assert str(SurfaceModel.standard()) == "standard_k3"
    assert str(SurfaceModel.elliptic(3, 7)) == "E(2)_{3,7}"
    with pytest.raises(ValueError, match="unknown surface kind"):
        SurfaceModel("exotic")
    with pytest.raises(ValueError, match="positive"):
        SurfaceModel.elliptic(0, 3)


def test_fang_hypotheses_examples():
    a1 = action_type("A1")
    a0 = action_type("A0")
    b = action_type("B")
    assert fang_hypotheses(a1, DiracIndex(0, 1, 1)) == (True, True)
    assert fang_hypotheses(a0, DiracIndex(2, 0, 0)) == (True, False)
    assert fang_hypotheses(b, dirac_coefficients(b.data))[0] is False


def test_sw_fact_examples():
    assert sw_mod3_nonzero(SurfaceModel.standard()) is True
    assert sw_mod3_nonzero(SurfaceModel.elliptic(3, 5)) is True
    assert sw_mod3_nonzero(SurfaceModel.elliptic(1, 1)) is True
    assert sw_mod3_nonzero(SurfaceModel.elliptic(2, 3)) is False
    with pytest.raises(ValueError, match="not homeomorphic to K3"):
        sw_mod3_nonzero(SurfaceModel.elliptic(3, 6))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("A0", Smoothability.NO_OBSTRUCTION),
        ("A1", Smoothability.UNSMOOTHABLE),
        ("A2", Smoothability.NO_OBSTRUCTION),
        ("B", Smoothability.NOT_APPLICABLE),
    ],
)
def test_verdicts_on_the_standard_structure(name, expected):
    v = verdict(action_type(name), SurfaceModel.standard())
    assert v.status == expected
    assert len(v.reasons) == 3


def test_verdict_on_elliptic_surfaces():
    a1 = action_type("A1")
    assert verdict(a1, SurfaceModel.elliptic(3, 7)).status == Smoothability.UNSMOOTHABLE
    # even multiplicity: the invariant's value is not on record
    assert verdict(a1, SurfaceModel.elliptic(2, 3)).status == Smoothability.NOT_APPLICABLE
    with pytest.raises(ValueError, match="not homeomorphic"):
        verdict(a1, SurfaceModel.elliptic(3, 6))


def test_unsmoothable_is_monotone_over_odd_coprime_pairs():
    a1 = action_type("A1")
    pairs = [
        (p, q)
        for p, q in product(range(1, 18, 2), repeat=2)
        if gcd(p, q) == 1
    ][:50]
    assert len(pairs) == 50
    for p, q in pairs:
        v = verdict(a1, SurfaceModel.elliptic(p, q))
        assert v.status == Smoothability.UNSMOOTHABLE, (p, q)
        assert v.k.as_tuple() == (0, 1, 1)


def test_type_a0_is_never_declared_unsmoothable():
    a0 = action_type("A0")
    surfaces = [SurfaceModel.standard()] + [
        SurfaceModel.elliptic(p, q)
        for p, q in product(range(1, 10), repeat=2)
        if gcd(p, q) == 1
    ]
    for s in surfaces:
        assert verdict(a0, s).status != Smoothability.UNSMOOTHABLE


def test_unsmoothable_requires_small_indices():
    surfaces = [SurfaceModel.standard(), SurfaceModel.elliptic(3, 5), SurfaceModel.elliptic(2, 5)]
    for t in enumerate_action_types():
        for s in surfaces:
            v = verdict(t, s)
            if any(2 * kj > 2 for kj in v.k.as_tuple()):
                assert v.status != Smoothability.UNSMOOTHABLE


def test_verdict_is_deterministic():
    t = action_type("A1")
    s = SurfaceModel.elliptic(5, 9)
    assert verdict(t, s) == verdict(t, s)


def test_reasons_mention_each_hypothesis():
    v = verdict(action_type("B"), SurfaceModel.standard())
    joined = "\n".join(v.reasons)
    assert "H+ action" in joined
    assert "SW fact" in joined
    assert "index bound" in joined
    assert v.trivial_on_Hplus is False
    assert v.sw_fact is True
