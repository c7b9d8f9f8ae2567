"""Record classes: immutable fields, identity-keyed lattices, stable reprs."""

import pytest

from k3z3 import (
    K3,
    DiracIndex,
    FixedPointData,
    GLattice,
    ModuleDecomposition,
    SurfaceModel,
    action_type,
    hyperbolic,
    verdict,
    verify_lattice,
)
from k3z3.cyclotomic import Cyclotomic


# one instance of each record class, with the name of one of its fields
RECORDS = [
    (K3, "b_plus"),
    (action_type("A1"), "m_plus"),
    (FixedPointData(3, 6), "m_minus"),
    (DiracIndex(0, 1, 1), "k0"),
    (ModuleDecomposition(3, 0, 1), "c"),
    (verify_lattice(hyperbolic()), "det"),
    (SurfaceModel.elliptic(3, 7), "p"),
    (verdict(action_type("A1"), SurfaceModel.standard()), "status"),
    (hyperbolic(), "gram"),
    (Cyclotomic(1, 2), "y"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


# the records whose constructor checks its fields, with invalid changes to each;
# a count or a multiplicity must be an integer, not a float or a string
VALIDATED = [
    (action_type("A1"), [{"m_plus": 4}, {"m_plus": 3.0}, {"fixed_count": "9"}]),
    (FixedPointData(3, 6), [{"m_plus": -1}, {"m_plus": 6.0}, {"m_minus": "6"}]),
    (SurfaceModel.elliptic(3, 7), [{"p": 0}, {"q": 0}, {"p": 3.0}, {"q": "7"}]),
]


@pytest.mark.parametrize("record, changes", VALIDATED, ids=[type(r).__name__ for r, _ in VALIDATED])
def test_replace_runs_the_constructor_checks(record, changes):
    for change in changes:
        with pytest.raises(ValueError):
            record._replace(**change)
        with pytest.raises(ValueError):
            type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record and type(record._replace()) is type(record)


def test_glattice_compares_by_identity():
    h = hyperbolic()
    one = GLattice(h.gram, h.action, label="one")
    two = GLattice(h.gram, h.action, label="two")
    assert one != two and one == one
    assert verify_lattice(one).label == "one"
    assert verify_lattice(two).label == "two"


def test_record_reprs():
    assert repr(FixedPointData(3, 6)) == "FixedPointData(m_plus=3, m_minus=6)"
    assert repr(SurfaceModel.standard()) == "SurfaceModel(kind='standard_k3', p=1, q=1)"
    assert repr(action_type("A1")) == (
        "ActionType(name='A1', fixed_count=9, m_plus=3, m_minus=6, b2_G=12, "
        "bplus_G=3, bminus_G=9, sign_quotient=-6, euler_quotient=14)"
    )
