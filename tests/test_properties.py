"""Property tests over generated order-3 action modules and small lattices."""

import random
from functools import partial
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3z3 import FixedPointData, GLattice, check_gsf, classify, cli, fixed_sublattice, linalg  # noqa: E402
from k3z3 import dirac_coefficients, g_signature_of_data  # noqa: E402
from k3z3 import action_type, assemble_type_lattice  # noqa: E402
from k3z3 import g_signature_of_lattice, module_decomposition, verify_lattice  # noqa: E402

from _oracles import dict_rank_mod3, quotient_decomposition  # noqa: E402
from _oracles import random_unimodular_pair, saturated_fixed_sublattice  # noqa: E402
from _oracles import reference_record, seeded_lattice_inputs  # noqa: E402

# the generator on Z, on Z[zeta] in the basis (1, zeta), and on Z[G]
BLOCKS = ([[1]], [[0, -1], [1, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


@st.composite
def modules(draw):
    """(a, b, c, seed) with 1 <= a + 2b + 3c <= 22."""
    c = draw(st.integers(0, 7))
    b = draw(st.integers(0, (22 - 3 * c) // 2))
    a = draw(st.integers(0 if b + c else 1, 22 - 3 * c - 2 * b))
    return a, b, c, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(modules())
def test_decomposition_recovered_under_basis_change(module):
    a, b, c, seed = module
    action = linalg.Matrix([])
    for block, count in zip(BLOCKS, (a, b, c)):
        for _ in range(count):
            action = linalg.block_diag(action, block)
    n = action.shape[0]
    rng = random.Random(seed)
    u, uinv = random_unimodular_pair(rng, n, steps=3 * n)
    # any symmetric form: Sylvester's law needs no invariance
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    gram = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    M = GLattice(gram, uinv @ action @ u)
    assert tuple(module_decomposition(M)) == (a, b, c)
    assert fixed_sublattice(M)[0].shape[1] == a + c
    assert quotient_decomposition(M) == (a, b, c)
    # the rational kernel and the saturated one carry forms of one inertia
    assert linalg.inertia(fixed_sublattice(M)[1]) == linalg.inertia(saturated_fixed_sublattice(M)[1])


@st.composite
def degenerate_forms(draw):
    """Symmetric integer forms that reach the zero-pivot branches of the inertia.

    x^T d x has rank at most r; its diagonal may be cleared, and zero rows
    and columns are put in front of it, then the whole is permuted.
    """
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    x = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=r, max_size=r))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r))
    core = [[sum(s * row[i] * row[j] for s, row in zip(signs, x)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            core[i][i] = 0
    lead = draw(st.integers(0, 3))
    form = linalg.block_diag([[0] * lead for _ in range(lead)] if lead else linalg.Matrix([]), core)
    perm = draw(st.permutations(range(lead + n))) if draw(st.booleans()) else range(lead + n)
    return [[form[i][j] for j in perm] for i in perm]


@settings(max_examples=200, deadline=None)
@given(degenerate_forms())
def test_inertia_of_degenerate_forms_matches_sympy(form):
    # Descartes' rule of signs is exact for the characteristic polynomial of
    # a symmetric matrix, whose roots are all real
    sympy = pytest.importorskip("sympy")
    n = len(form)
    coeffs = sympy.Matrix(form).charpoly().all_coeffs()  # leading coefficient first
    null = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    nonzero = [c for c in coeffs if c != 0]
    pos = sum((a > 0) != (b > 0) for a, b in zip(nonzero, nonzero[1:]))
    sig, det = linalg.inertia_and_determinant(form)
    assert sig == (pos, n - pos - null, null)
    assert det == sympy.Matrix(form).det()


@st.composite
def matrices_mod3(draw):
    """An n x m integer matrix, 0 <= n, m <= 22, with entries of up to 1, 2 or 70 bits.

    Its residues mod 3 are combinations of r random sparse rows, so the rank
    mod 3 is at most r; each residue is lifted to an entry of the chosen size.
    """
    size = st.one_of(st.integers(0, 22), st.integers(16, 22))
    n, m, bits = draw(size), draw(size), draw(st.sampled_from((1, 2, 70)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = rng.randint(0, n)
    basis = [[rng.choice((0, 0, 1, 2)) for _ in range(m)] for _ in range(r)]
    rows = basis + [[0] * m for _ in range(n - r)]
    for row in rows[r:]:
        for c, b in zip((rng.randrange(3) for _ in basis), basis):
            row[:] = [(x + c * y) % 3 for x, y in zip(row, b)]
    rng.shuffle(rows)
    bound = 2**bits
    return [[x + 3 * rng.randint(-((bound + x) // 3), (bound - x) // 3) for x in row] for row in rows], m


@settings(max_examples=150, deadline=None)
@given(matrices_mod3())
def test_rank_mod3_matches_sympy_and_the_dict_rows(case):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    a, m = case
    gf3 = sympy.GF(3)
    want = DomainMatrix([[gf3(x) for x in row] for row in a], (len(a), m), gf3).rank()
    assert linalg.rank_mod3(a) == linalg.rank_mod3(linalg.Matrix(a, m)) == dict_rank_mod3(a) == want


# the messages with which the library refuses a lattice it cannot read
REFUSALS = {
    "action has order != 3",
    "inertia needs a symmetric matrix",
    "inconsistent eigenstructure: degenerate form",
    "inconsistent eigenstructure: odd plane defect",
    "expected FixedPointData, got tuple",
    "expected FixedPointData, got NoneType",
}


@st.composite
def small_lattices(draw):
    """An integer GLattice of rank 0-6 with entries in -3..3: the gram
    symmetric or not, the action arbitrary or a product of 3-cycles."""
    n = draw(st.integers(0, 6))
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    gram, action = draw(square), draw(square)
    if draw(st.booleans()):
        gram = [[gram[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        image = [i - i % 3 + (i + 1) % 3 if i < n - n % 3 else i for i in range(n)]
        action = [[int(j == image[i]) for j in range(n)] for i in range(n)]
    return GLattice(gram, action)


@settings(max_examples=250, deadline=None)
@given(small_lattices())
def test_library_refuses_a_lattice_only_with_a_known_value_error(L):
    calls = [partial(cli._verification_record, t) for t in classify.enumerate_action_types()]
    calls += [verify_lattice, g_signature_of_lattice, module_decomposition, fixed_sublattice]
    # fixed-point counts are read only as a FixedPointData
    calls += [partial(check_gsf, d=d) for d in (FixedPointData(3, 6), (3, 6), None)]
    for d in ((3, 6), None):
        calls += [lambda _, f=f, d=d: f(d) for f in (dirac_coefficients, g_signature_of_data)]
    for call in calls:
        try:
            call(L)
        except ValueError as exc:
            assert str(exc) in REFUSALS, call


@st.composite
def record_inputs(draw):
    """(type, gram, action) from three families: a small lattice as above; an
    order-3 module of rank 1-8 in a random basis, with a random symmetric form
    that is invariant half of the time; and such a module with one action entry
    moved by +-1."""
    t = draw(st.sampled_from(classify.enumerate_action_types()))
    family = draw(st.sampled_from(("lattice", "module", "perturbed")))
    if family == "lattice":
        L = draw(small_lattices())
        return t, L.gram.tolist(), L.action.tolist()
    c = draw(st.integers(0, 2))
    b = draw(st.integers(0, (8 - 3 * c) // 2))
    a = draw(st.integers(0 if b + c else 1, 8 - 3 * c - 2 * b))
    rng = random.Random(draw(st.integers(0, 2**32)))
    action = linalg.Matrix([])
    for block, count in zip(BLOCKS, (a, b, c)):
        for _ in range(count):
            action = linalg.block_diag(action, block)
    n = action.shape[0]
    u, uinv = random_unimodular_pair(rng, n, steps=2 * n)
    action = uinv @ action @ u
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    gram = linalg.Matrix([[m[i][j] + m[j][i] for j in range(n)] for i in range(n)])
    if draw(st.booleans()):  # the sum over the group of a form is invariant
        square = action @ action
        gram = gram + action.T @ gram @ action + square.T @ gram @ square
    action = action.tolist()
    if family == "perturbed":
        action[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
    return t, gram.tolist(), action


# an unconjugated Z + Z[G]: a diagonal of 1 then 0s, so that the diagonal of
# a - 1 is both cancelled and added, with a form that is not invariant and one that is
ZG = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]


@settings(max_examples=100, deadline=None)
@given(record_inputs())
@example((action_type("B"), [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], ZG))
@example((action_type("A0"), [[2, 0, 0, 0], [0, 2, 1, 1], [0, 1, 2, 1], [0, 1, 1, 2]], ZG))
def test_records_match_the_sympy_reference(case):
    # every field of a record, against determinants, Descartes' rule, a
    # nullspace and a rank over F_3 from sympy
    t, gram, action = case
    want = reference_record(t, gram, action)
    rec = cli._verification_record(t, GLattice(gram, action))
    assert {k: rec[k] for k in want} == want


def test_seeded_rank22_records_match_the_sympy_reference():
    # the benchmark's stream at 8 steps: three inputs, then one with a perturbed action
    types = {t.name: t for t in classify.enumerate_action_types()}
    lattices = {name: assemble_type_lattice(t) for name, t in types.items()}
    inputs = seeded_lattice_inputs(3, 8, 10)
    bad = next(i for i, (name, _, a) in enumerate(inputs) if a != lattices[name].action.tolist())
    for name, gram, action in inputs[:3] + [inputs[bad]]:
        want = reference_record(types[name], gram, action)
        rec = cli._verification_record(types[name], GLattice(gram, action))
        assert {k: rec[k] for k in want} == want


PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 9))
def test_planted_property(x):
    assert x < 0


def test_planted_plain():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(run_python, tmp_path):
    # a property that fails must come out as one failure with its falsifying
    # example, under the repo's own ini, and the tests after it must still run
    ini = str(Path(__file__).resolve().parent.parent / "pyproject.toml")
    (tmp_path / "test_planted.py").write_text(PLANTED)
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", ini, "--rootdir", str(tmp_path)]
    (result,) = run_python([[*args, str(tmp_path / "test_planted.py")]])
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert result.returncode == 1, out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out and "x=0" in out, out
