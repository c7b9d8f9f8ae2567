"""Lattice constructions, invariants and realization checks."""

import itertools
import random

import numpy as np
import pytest

from k3z3 import (
    FixedPointData,
    GLattice,
    action_type,
    assemble_type_lattice,
    check_gsf,
    check_lefschetz,
    check_rep,
    direct_sum,
    enumerate_action_types,
    fixed_sublattice,
    g_signature_of_data,
    g_signature_of_lattice,
    gamma16,
    module_decomposition,
    signature,
    three_h_perm,
    three_h_torus,
    verify_lattice,
)
from k3z3.linalg import Matrix, bareiss_determinant, block_diag, identity

from _oracles import (
    exterior_square,
    gamma16_by_basis_change,
    hyperbolic,
    saturated_fixed_sublattice,
    transformed,
)


def hexagonal_plane() -> GLattice:
    """Rank-2 lattice with an order-3 rotation; not unimodular (det 3)."""
    return GLattice([[-2, 1], [1, -2]], [[0, -1], [1, -1]], label="hexagonal")


# ---------------------------------------------------------------------------
# constructors


def test_hyperbolic_plane():
    h = hyperbolic()
    report = verify_lattice(h)
    assert report.passed
    assert report.det == -1
    assert signature(h.gram) == (1, 1, 0)
    assert h.trace == 2


@pytest.mark.parametrize("k", range(6))
def test_gamma16_verifies_and_decomposes(k):
    L = gamma16(k)
    report = verify_lattice(L)
    assert report.passed, report
    assert report.det == 1
    assert tuple(module_decomposition(L)) == (16 - 3 * k, 0, k)


@pytest.mark.parametrize("k", range(6))
def test_gamma16_matches_rational_basis_change(k):
    gram, action = gamma16_by_basis_change(k)
    assert gamma16(k).gram.tolist() == gram.tolist()
    assert gamma16(k).action.tolist() == action.tolist()


def test_closed_form_models_equal_the_checked_route():
    # the constructors hand their computed rows over unchecked
    models = [assemble_type_lattice(t) for t in enumerate_action_types()]
    for L in [*map(gamma16, range(6)), hyperbolic(), three_h_perm(), three_h_torus(), *models]:
        checked = GLattice(L.gram.tolist(), L.action.tolist(), label=L.label)
        assert L.label == checked.label and L.rank == checked.rank
        for got, want in ((L.gram, checked.gram), (L.action, checked.action)):
            assert type(got) is type(want) and got == want and got.shape == want.shape
            assert all(type(x) is int for row in got for x in row)
    assert [L.label for L in models] == [
        "A0: 3H(torus) + Gamma16(k=5)",
        "A1: 3H(trivial) + Gamma16(k=5)",
        "A2: 3H(trivial) + Gamma16(k=4)",
        "B: 3H(cyclic) + Gamma16(k=5)",
    ]
    z = [[0, -1], [1, -1]]  # multiplication by zeta on Z + zeta*Z
    assert three_h_torus().action.tolist() == exterior_square(block_diag(z, Matrix(z) @ Matrix(z)))


def test_gamma16_is_negative_definite():
    assert signature(gamma16(0).gram) == (0, 16, 0)
    assert gamma16(0).action == identity(16)


def test_gamma16_trace_and_fixed_rank():
    L = gamma16(4)
    assert L.trace == 4
    assert fixed_sublattice(L)[0].shape[1] == 8


@pytest.mark.parametrize("k", [-1, 6, 12, 5.0, "3"])
def test_gamma16_rejects_bad_cycle_counts(k):
    match = "0..5" if type(k) is int else "expected an integer"
    with pytest.raises(ValueError, match=match):
        gamma16(k)


def test_three_h_perm():
    L = three_h_perm()
    assert verify_lattice(L).passed
    assert tuple(module_decomposition(L)) == (0, 0, 2)
    basis, restricted = fixed_sublattice(L)
    assert basis.shape[1] == 2
    assert signature(restricted) == (1, 1, 0)
    assert bareiss_determinant(restricted) == -9


def test_saturated_fixed_lattice_of_three_h_perm():
    # the invariant lattice of 3H(cyclic) is the diagonal H(3), det -9
    _, restricted = saturated_fixed_sublattice(three_h_perm())
    assert bareiss_determinant(restricted) == -9


def test_three_h_torus():
    L = three_h_torus()
    assert verify_lattice(L).passed
    assert signature(L.gram) == (3, 3, 0)
    assert L.trace == 3
    assert tuple(module_decomposition(L)) == (3, 0, 1)
    assert signature(fixed_sublattice(L)[1])[:2] == (3, 1)


def test_three_h_torus_trace_matches_exterior_square_identity():
    # tr wedge^2(g) = ((tr g)^2 - tr(g^2)) / 2 for the rank-4 action with
    # conjugate twists: tr g = -2 and tr g^2 = -2
    assert three_h_torus().trace == ((-2) ** 2 - (-2)) // 2


def test_three_h_torus_gram_is_the_orientation_pairing():
    # alpha.beta is the coefficient of e1^e2^e3^e4 in alpha^beta: the parity
    # of the permutation that sorts the four indices, 0 when one repeats
    pairs = list(itertools.combinations(range(4), 2))

    def wedge(p, q):
        seq = p + q
        if len(set(seq)) < 4:
            return 0
        return (-1) ** sum(x > y for x, y in itertools.combinations(seq, 2))

    assert three_h_torus().gram.tolist() == [[wedge(p, q) for q in pairs] for p in pairs]


def test_direct_sum():
    h = hyperbolic()
    hh = direct_sum(h, h)
    assert hh.rank == 4
    assert signature(hh.gram) == (2, 2, 0)
    k3_model = direct_sum(three_h_perm(), gamma16(5))
    assert k3_model.rank == 22
    assert signature(k3_model.gram) == (3, 19, 0)
    # module decompositions add componentwise
    a1, b1, c1 = tuple(module_decomposition(three_h_perm()))
    a2, b2, c2 = tuple(module_decomposition(gamma16(5)))
    assert tuple(module_decomposition(k3_model)) == (a1 + a2, b1 + b2, c1 + c2)


# ---------------------------------------------------------------------------
# verification report


def test_verify_lattice_passes_on_construction():
    report = verify_lattice(gamma16(3))
    assert report.passed
    fields = (report.symmetric, report.unimodular, report.even, report.isometry, report.order3)
    assert fields == (True,) * 5


def test_verify_lattice_flags_odd_diagonal():
    L = gamma16(1)
    gram = L.gram.tolist()
    gram[0][0] = -3
    report = verify_lattice(GLattice(gram, L.action, label="tampered"))
    assert not report.even
    assert not report.passed


def test_verify_lattice_flags_non_isometry():
    L = gamma16(2)
    n = L.rank
    perm = np.full((n, n), 0, dtype=object)
    perm[0, 15], perm[15, 0] = 1, 1  # swap basis vectors of different norms
    for i in range(1, 15):
        perm[i, i] = 1
    report = verify_lattice(GLattice(L.gram, perm, label="bad action"))
    assert not report.isometry
    assert not report.passed


def test_one_record_audits_a_fresh_lattice_once():
    # verify_lattice is the one per-lattice store: the record and the checks
    # read it, and the module's readers agree with its fields
    from k3z3 import cli, lattice

    t = action_type("B")
    L = assemble_type_lattice(t)  # fresh, so nothing is cached for it
    before = lattice.verify_lattice.cache_info().misses
    assert cli._verification_record(t, L)["_passed"]
    assert lattice.verify_lattice.cache_info().misses == before + 1
    report = verify_lattice(L)
    assert report.decomposition == module_decomposition(L)
    assert report.fixed_signature == signature(fixed_sublattice(L)[1]) == (1, 7, 0)
    non_symmetric = verify_lattice(GLattice([[0, 1], [2, 0]], [[0, -1], [1, -1]]))
    assert non_symmetric.signature is non_symmetric.fixed_signature is None
    assert non_symmetric.decomposition == (0, 1, 0)
    rot4 = verify_lattice(GLattice([[1, 0], [0, 1]], [[0, -1], [1, 0]]))
    assert not rot4.order3 and rot4.decomposition is None
    assert rot4.fixed_signature == (0, 0, 0)


def test_glattice_constructor_guards():
    with pytest.raises(ValueError):
        GLattice([[0, 1], [1, 0]], [[1]])
    with pytest.raises(ValueError):
        GLattice([[0, 1]], [[0, 1]])
    with pytest.raises(ValueError, match="integer entries"):
        GLattice([[0.5]], [[1]])
    # numpy integer arrays are accepted and converted to python ints; floats are not
    L = GLattice(np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, 1]], dtype=np.int64))
    assert L.gram == hyperbolic().gram and type(L.action[0][0]) is int
    assert verify_lattice(L).passed
    with pytest.raises(ValueError, match="integer entries"):
        GLattice(np.array([[0.0, 1.0], [1.0, 0.0]]), [[1, 0], [0, 1]])


def test_glattice_matrices_are_frozen():
    L = hyperbolic()
    with pytest.raises(TypeError):
        L.gram[0][0] = 7
    with pytest.raises(TypeError):
        L.action[0] = (0, 1)


# ---------------------------------------------------------------------------
# invariants


def test_fixed_sublattice_examples():
    assert fixed_sublattice(gamma16(5))[0].shape[1] == 6
    assert fixed_sublattice(three_h_perm())[0].shape[1] == 2
    h = hyperbolic()
    basis, restricted = fixed_sublattice(h)
    assert basis.shape[1] == 2
    assert signature(restricted) == signature(h.gram)


def test_fixed_form_on_non_symmetric_grams():
    # the fixed form is bT g b for any gram g, whatever order its products take
    rng = random.Random(89)
    for _ in range(60):
        n = rng.randint(2, 7)
        perm = rng.sample(range(n), n)
        gram = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        gram[0][1] = gram[1][0] + rng.choice((-1, 1))
        L = transformed(GLattice(gram, [[int(perm[j] == i) for j in range(n)] for i in range(n)]), rng)
        assert L.gram != L.gram.T
        basis, restricted = fixed_sublattice(L)
        assert restricted == basis.T @ L.gram @ basis
        nb = np.array(basis, dtype=object)
        assert restricted.tolist() == (nb.T @ np.array(L.gram, dtype=object) @ nb).tolist()


def test_signature_examples():
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    k3_form = direct_sum(direct_sum(direct_sum(hyperbolic(), hyperbolic()), hyperbolic()), gamma16(0))
    assert signature(k3_form.gram) == (3, 19, 0)


def test_module_decomposition_hexagonal_plane():
    L = hexagonal_plane()
    assert L.trace == -1
    assert fixed_sublattice(L)[0].shape[1] == 0
    assert tuple(module_decomposition(L)) == (0, 1, 0)


def test_module_decomposition_rejects_wrong_order():
    rot4 = GLattice([[1, 0], [0, 1]], [[0, -1], [1, 0]], label="order 4")
    with pytest.raises(ValueError, match="order != 3"):
        module_decomposition(rot4)
    with pytest.raises(ValueError, match="order != 3"):
        check_gsf(rot4, FixedPointData(3, 6))


def test_module_decomposition_runs_no_smith_form(monkeypatch):
    from k3z3 import linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("module_decomposition reached the Smith form")

    monkeypatch.setattr(linalg, "integer_kernel", forbidden)
    monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)  # fresh, so nothing is memoized for it
        assert tuple(module_decomposition(L)) == (t.fixed_count - 2, 0, (24 - t.fixed_count) // 3)
    assert tuple(module_decomposition(hexagonal_plane())) == (0, 1, 0)


def test_module_decomposition_matches_fixed_rank_on_models():
    # the fixed rank a + c, against the saturated kernel of g - 1
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)
        dec = module_decomposition(L)
        assert dec.a + dec.c == fixed_sublattice(L)[0].shape[1] == t.b2_G


def test_g_signature_of_assemblies():
    values = {"A0": 2, "A1": -1, "A2": -4, "B": -1}
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)
        got = g_signature_of_lattice(L)
        assert got == values[t.name]
        assert got == g_signature_of_data(t.data)


def test_g_signature_rejects_degenerate_fixed_form():
    # order-2 swap on diag(2, -2): the fixed vector e1 + e2 is isotropic
    L = GLattice([[2, 0], [0, -2]], [[0, 1], [1, 0]], label="swap")
    with pytest.raises(ValueError, match="degenerate"):
        g_signature_of_lattice(L)


# ---------------------------------------------------------------------------
# realization checks


def test_check_rep_examples():
    a1 = assemble_type_lattice(action_type("A1"))
    b = assemble_type_lattice(action_type("B"))
    assert check_rep(a1, 9) is True
    assert check_rep(b, 3) is True
    assert check_rep(a1, 6) is False
    with pytest.raises(ValueError, match="^fixed_count must be at least 2$"):
        check_rep(a1, 1)
    # 2 fixed points ask for no trivial and no rank-2 summand: the
    # hexagonal plane is one rank-2 summand
    assert check_rep(a1, 2) is False and check_rep(hexagonal_plane(), 2) is False
    # the count is read as an integer: a float or a string is refused
    for count in (9.0, "9"):
        with pytest.raises(ValueError, match="expected an integer"):
            check_rep(a1, count)


def test_check_gsf_examples():
    a1 = assemble_type_lattice(action_type("A1"))
    a0 = assemble_type_lattice(action_type("A0"))
    assert check_gsf(a1, FixedPointData(3, 6)) is True
    assert check_gsf(a0, FixedPointData(6, 0)) is True
    assert check_gsf(a0, FixedPointData(3, 6)) is False


def test_check_lefschetz_examples():
    assert check_lefschetz(assemble_type_lattice(action_type("A1")), 9) is True
    assert check_lefschetz(assemble_type_lattice(action_type("A2")), 12) is True
    assert check_lefschetz(assemble_type_lattice(action_type("B")), 6) is False
    with pytest.raises(ValueError, match="^not a K3 intersection form model$"):
        check_lefschetz(hyperbolic(), 2)
    for count in (9.0, "9"):
        with pytest.raises(ValueError, match="expected an integer"):
            check_lefschetz(assemble_type_lattice(action_type("A1")), count)


def test_assembled_models_satisfy_every_hypothesis():
    for t in enumerate_action_types():
        L = assemble_type_lattice(t)
        assert verify_lattice(L).passed
        assert L.rank == 22
        assert signature(L.gram) == (3, 19, 0)
        assert signature(fixed_sublattice(L)[1])[:2] == (t.bplus_G, t.bminus_G)
        assert check_rep(L, t.fixed_count)
        assert check_gsf(L, t.data)
        assert check_lefschetz(L, t.fixed_count)


def test_assembly_recipe_details():
    a2 = assemble_type_lattice(action_type("A2"))
    assert tuple(module_decomposition(a2)) == (10, 0, 4)
    b = assemble_type_lattice(action_type("B"))
    assert signature(fixed_sublattice(b)[1])[:2] == (1, 7)
    a0 = assemble_type_lattice(action_type("A0"))
    assert signature(fixed_sublattice(a0)[1])[:2] == (3, 7)
    assert fixed_sublattice(a0)[0].shape[1] == 10  # b2^G of the A0 row


def test_assemble_rejects_unknown_type():
    from k3z3.classify import ActionType

    assert assemble_type_lattice(ActionType("A1", 9, 3, 6, 12, 3, 9, -6, 14)).rank == 22
    with pytest.raises(ValueError, match="unknown action type"):
        assemble_type_lattice(ActionType("Z9", 9, 3, 6, 12, 3, 9, -6, 14))


# ---------------------------------------------------------------------------
# basis-change invariance


def test_invariants_survive_basis_changes_on_all_constructions():
    rng = random.Random(61)
    lattices = [hyperbolic(), three_h_perm(), three_h_torus(), hexagonal_plane()]
    lattices += [gamma16(k) for k in range(6)]
    for L in lattices:
        base = (
            signature(L.gram),
            tuple(module_decomposition(L)),
            verify_lattice(L).passed,
        )
        for _ in range(8):
            M = transformed(L, rng)
            assert signature(M.gram) == base[0]
            assert tuple(module_decomposition(M)) == base[1]
            assert verify_lattice(M).passed == base[2]


def test_full_check_suite_survives_basis_changes_on_models():
    rng = random.Random(67)
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
        for _ in range(5):
            M = transformed(L, rng)
            got = (
                signature(M.gram),
                tuple(module_decomposition(M)),
                g_signature_of_lattice(M),
                check_rep(M, t.fixed_count),
                check_gsf(M, t.data),
                check_lefschetz(M, t.fixed_count),
            )
            assert got == base


def test_decomposition_consistency_under_random_bases():
    rng = random.Random(71)
    for L in (gamma16(3), three_h_torus(), three_h_perm()):
        for _ in range(5):
            M = transformed(L, rng)
            dec = module_decomposition(M)
            assert dec.a + 2 * dec.b + 3 * dec.c == M.rank
            assert dec.a - dec.b == M.trace
