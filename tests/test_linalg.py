"""Exact matrix kernels against independent oracles."""

import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from k3z3 import linalg

from _oracles import (
    dense_rational_kernel,
    dict_rank_mod3,
    elementary_divisors,
    full_storage_inertia_and_determinant,
    naive_determinant,
    product_cube_is_identity,
    random_unimodular_pair,
)


def random_int_matrix(rng, n, m, span=6):
    return [[rng.randint(-span, span) for _ in range(m)] for _ in range(n)]


def test_int_rows_validates_shape():
    with pytest.raises(ValueError):
        linalg.int_rows([1, 2, 3])
    with pytest.raises(ValueError):
        linalg.int_rows([[1, 2], [3]])
    assert linalg.int_rows([]) == []
    # a matrix without rows reads its column count, which must be a size;
    # so must the size of an identity
    for bad in (-3, -1, 2.5, "2", None):
        with pytest.raises(ValueError, match="size"):
            linalg.Matrix([], bad)
        with pytest.raises(ValueError, match="size"):
            linalg.identity(bad)
    assert linalg.Matrix([], np.int64(2)).shape == (0, 2)
    assert linalg.identity(np.int64(2)) == linalg.identity(2)


def test_int_rows_rejects_proper_fractions():
    assert linalg.int_rows([[Fraction(4, 2)]]) == [[2]]
    with pytest.raises(ValueError, match="integer entries"):
        linalg.int_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="integer entries"):
        linalg.int_rows([[1.5]])
    # the message names the type of an entry that is not an integer
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match=f"integer entries, got {type(bad).__name__}$"):
            linalg.int_rows([[bad]])


def test_int_rows_converts_a_non_int_in_a_later_row():
    rows = linalg.int_rows([[1, 2], [Fraction(6, 2), np.int64(4)]])
    assert rows == [[1, 2], [3, 4]]
    assert all(type(x) is int for row in rows for x in row)


def test_every_kernel_validates_lists_and_matrices_alike():
    # a Matrix is checked when it is built, so none can hold a non-int:
    # building one from bad rows raises what the kernel raises on the rows
    kernels = (
        linalg.int_rows,
        linalg.bareiss_determinant,
        linalg.inertia_and_determinant,
        linalg.cube_is_identity,
        linalg.rational_kernel,
        linalg.rank_mod3,
        linalg.smith_normal_form,
        linalg.integer_kernel,
        lambda a: linalg.block_diag([[1]], a),
    )
    bad = ([[2, 1], [1, Fraction(1, 2)]], [[2, 1], [1, 0.5]], [[2, 1], [1, 2.0]], [[2, 1], [1]])
    for kernel in kernels:
        for rows in bad:
            with pytest.raises(ValueError, match="integer entries|rectangular") as from_rows:
                kernel(rows)
            with pytest.raises(ValueError) as from_matrix:
                kernel(linalg.Matrix(rows))
            assert str(from_matrix.value) == str(from_rows.value)


def random_entry_types(rng, rows):
    """The same integers, some as numpy ints, integral Fractions or bools."""
    kinds = (int, np.int64, lambda x: Fraction(3 * x, 3), lambda x: bool(x) if x in (0, 1) else x)
    return [[rng.choice(kinds)(x) for x in row] for row in rows]


def test_matrix_results_hold_python_ints():
    rng = random.Random(151)
    for _ in range(200):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = linalg.Matrix(random_entry_types(rng, random_int_matrix(rng, n, k, span=4)), k)
        b = linalg.Matrix(random_entry_types(rng, random_int_matrix(rng, k, m, span=4)), m)
        c = linalg.Matrix(random_entry_types(rng, random_int_matrix(rng, n, k, span=4)), k)
        assert linalg.Matrix(a) is a
        results = [a, a @ b, a + c, a - c, a.T, linalg.identity(m), linalg.block_diag(a, b)]
        results += [linalg.rational_kernel(a), *linalg.smith_normal_form(a)]
        for x in results:
            assert isinstance(x, linalg.Matrix)
            assert all(type(e) is int for row in x for e in row)
        sq = linalg.Matrix(random_entry_types(rng, random_int_matrix(rng, n, n, span=2)), n)
        assert linalg.cube_is_identity(sq) is (sq @ (sq @ sq) == linalg.identity(n))
        # int_rows hands out fresh lists: writing to them leaves `a` as it was
        frozen = a.tolist()
        rows = linalg.int_rows(a)
        for row in rows:
            row[:] = [7] * len(row)
        rows.append([7] * k)
        assert a.tolist() == frozen and linalg.int_rows(a) == frozen


def test_bareiss_determinant_examples():
    assert linalg.bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert linalg.bareiss_determinant([[2, 0], [0, 3]]) == 6
    assert linalg.bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert linalg.bareiss_determinant([]) == 1
    with pytest.raises(ValueError):
        linalg.bareiss_determinant([[1, 2, 3], [4, 5, 6]])


def test_bareiss_determinant_matches_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n)
        assert linalg.bareiss_determinant(m) == naive_determinant(m)


def test_bareiss_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = random_int_matrix(rng, n, n)
        assert linalg.bareiss_determinant(m) == sympy.Matrix(m).det()


def test_smith_normal_form_properties():
    rng = random.Random(29)
    cases = [linalg.Matrix(random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))) for _ in range(40)]
    # no rows or no columns; entries beyond 2^64; a first pivot, 2, that does
    # not divide the 3 left in the rest, so row 1 is added to row 0: diag(1, 6)
    cases += [linalg.Matrix([[]] * n, m) for n, m in ((0, 0), (0, 3), (3, 0), (1, 0), (0, 1))]
    shapes = ((1, 1), (2, 3), (4, 4), (5, 2))
    cases += [linalg.Matrix(random_int_matrix(rng, n, m, span=2**70)) for n, m in shapes]
    cases += [linalg.Matrix([[2, 0], [0, 3]]), linalg.Matrix([[3 * 2**65, 0], [0, 2 * 2**65]])]
    for a in cases:
        n, m = a.shape
        u, d, v = linalg.smith_normal_form(a)
        assert (u.shape, d.shape, v.shape) == ((n, n), (n, m), (m, m))
        assert u @ a @ v == d
        assert abs(linalg.bareiss_determinant(u)) == abs(linalg.bareiss_determinant(v)) == 1
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for first, second in zip(nonzero, nonzero[1:]):
            assert second % first == 0
        # no nonzero entry may follow a zero on the diagonal
        seen_zero = False
        for x in diag:
            if x == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("zero diagonal entry before a nonzero one")
    assert linalg.smith_normal_form([[2, 0], [0, 3]])[1] == linalg.Matrix([[1, 0], [0, 6]])


def test_smith_normal_form_handles_rank_deficiency():
    a = linalg.Matrix([[2, 4, 6], [1, 2, 3], [3, 6, 9]])
    u, d, v = linalg.smith_normal_form(a)
    assert u @ a @ v == d
    assert abs(linalg.bareiss_determinant(u)) == abs(linalg.bareiss_determinant(v)) == 1
    assert [d[i][i] for i in range(3)] == [1, 0, 0]
    # a square matrix of rank 1: its kernel comes from the zero diagonal of D
    ker = linalg.integer_kernel(a)
    assert ker.shape == (3, 2) and a @ ker == linalg.Matrix([[0, 0]] * 3)
    assert elementary_divisors(ker) == [1, 1]


def test_smith_normal_form_is_pinned():
    # U and V are not unique; these are the ones that the first smallest
    # |entry| as pivot, the promotion of a nonzero remainder, the
    # divisibility fix and the sign fix give, on seeded matrices of
    # shape 0-6 x 0-6
    rng = random.Random(191)
    h = hashlib.sha256()
    for _ in range(300):
        n, m, span = rng.randint(0, 6), rng.randint(0, 6), rng.choice((1, 5, 1000))
        a = linalg.Matrix([[rng.randint(-span, span) for _ in range(m)] for _ in range(n)], m)
        h.update(json.dumps([(x.shape, x) for x in linalg.smith_normal_form(a)]).encode())
    assert h.hexdigest() == "a47c7354d776c2240f71ab580b9550c7cfdbcbb67976e3066ef919b5039209c5"


def test_smith_diagonal_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(30)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = random_int_matrix(rng, n, m)
        _, d, _ = linalg.smith_normal_form(a)
        diag = [d[i][i] for i in range(min(n, m))]
        assert diag == [int(x) for x in invariant_factors(sympy.Matrix(a))]


def test_integer_kernel_is_saturated():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = linalg.Matrix(random_int_matrix(rng, n, m, span=4))
        ker = linalg.integer_kernel(a)
        assert a @ ker == linalg.Matrix([[0] * ker.shape[1]] * n)
        rank = len(elementary_divisors(a))
        assert ker.shape[1] == m - rank
        if ker.shape[1]:
            # a saturated lattice has unit elementary divisors
            assert elementary_divisors(ker) == [1] * ker.shape[1]


def test_rational_kernel_examples():
    assert linalg.rational_kernel([[1, 2, 3], [2, 4, 6]]) == linalg.Matrix([[-2, -3], [1, 0], [0, 1]])
    assert linalg.rational_kernel([[0, 0, 0]]) == linalg.identity(3)
    assert linalg.rational_kernel([[1, 2], [3, 4]]).shape == (2, 0)
    # primitive columns of index 2 in the integer kernel, which holds their
    # half-sum (0, 1, 1): not saturated
    assert linalg.rational_kernel([[2, -1, 1]]) == linalg.Matrix([[1, -1], [2, 0], [0, 2]])
    assert linalg.rational_kernel([]).shape == (0, 0)
    assert linalg.rational_kernel([[], []]).shape == (0, 0)
    with pytest.raises(ValueError, match="integer entries"):
        linalg.rational_kernel([[Fraction(1, 3)]])


@pytest.mark.parametrize("k", [0, 1, 3])
def test_kernels_of_a_matrix_without_rows(k):
    # a 0 x k Matrix keeps its column count, and its kernel is all of Q^k
    a = linalg.Matrix([], k)
    assert a.shape == (0, k)
    assert linalg.rational_kernel(a) == linalg.identity(k)
    assert linalg.integer_kernel(a) == linalg.identity(k)
    assert linalg.rank_mod3(a) == 0


def test_rational_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for trial in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 2:
            # rank-deficient: a product through a narrower inner dimension
            r = rng.randint(0, min(n, m) - 1)
            left = linalg.Matrix(random_int_matrix(rng, n, r, span=3), r)
            a = left @ linalg.Matrix(random_int_matrix(rng, r, m, span=3), m)
        else:
            a = linalg.Matrix(random_int_matrix(rng, n, m, span=4))
        ker = linalg.rational_kernel(a)
        assert ker.shape == (m, len(sympy.Matrix(a.tolist()).nullspace()))
        assert a @ ker == linalg.Matrix([[0] * ker.shape[1]] * n, ker.shape[1])
        assert all(math.gcd(*col) == 1 for col in ker.T)


def test_rational_kernel_matches_the_dense_route():
    # the same reductions in the same order as when every reduction rewrote
    # the whole row, so the same columns, on 0 x k, k x 0, zero columns,
    # duplicate columns and rank-deficient matrices
    rng = random.Random(181)
    shapes = [(0, k) for k in range(9)] + [(k, 0) for k in range(9)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(240)]
    factors = []  # of every reduction, from the dense route
    for trial, (n, m) in enumerate(shapes):
        if n == 0 or m == 0:
            a = linalg.Matrix([[]] * n, m)
        elif trial % 3 == 0:
            a = linalg.Matrix(random_int_matrix(rng, n, m, span=rng.choice((1, 4, 50))), m)
        elif trial % 3 == 1:
            # sparse, with zero columns and columns repeated up to sign
            rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(m)] for _ in range(n)]
            for _ in range(rng.randint(1, 3)):
                j, k = rng.randrange(m), rng.randrange(m)
                s = rng.choice((0, 1, -1, 2))
                for row in rows:
                    row[j] = s * row[k]
            a = linalg.Matrix(rows, m)
        else:
            r = rng.randint(0, min(n, m))
            left = linalg.Matrix(random_int_matrix(rng, n, r, span=3), r)
            a = left @ linalg.Matrix(random_int_matrix(rng, r, m, span=3), m)
        want = dense_rational_kernel(a, factors)
        got = linalg.rational_kernel(a)
        assert (got, got.shape) == (want, want.shape), a
        assert got == linalg.rational_kernel(a.tolist() if n else linalg.Matrix([], m))
    # a - 1 of the seeded rank-22 inputs, one in ten with an entry moved; on
    # these a factor -1 is usual, and the sparse route flips a sign for it
    rank22 = []
    for action in [*_seeded_actions(8, 10), *_seeded_actions(64, 10)]:
        a = action - linalg.identity(22)
        want = dense_rational_kernel(a, rank22)
        assert linalg.rational_kernel(a) == want
    assert rank22.count(-1) >= 150 and factors.count(-1) >= 150
    assert sum(p not in (1, -1) for p in factors + rank22) >= 1000


def _seeded_actions(steps, count):
    """The actions of the first `count` seeded verify inputs, as Matrix values."""
    from _oracles import seeded_lattice_inputs

    return [linalg.Matrix(action) for _, _, action in seeded_lattice_inputs(1, steps, count)]


def _order3_block(rng):
    # a 3-cycle, a rotation by zeta or a fixed line
    return rng.choice(([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, -1], [1, -1]], [[1]]))


def test_cube_is_identity_matches_the_product_route():
    assert linalg.cube_is_identity([]) and linalg.cube_is_identity([[1]])
    assert linalg.cube_is_identity([[0, -1], [1, -1]])
    assert not linalg.cube_is_identity([[-1]]) and not linalg.cube_is_identity([[0, 1], [1, 0]])
    rng = random.Random(182)
    cases = []
    for _ in range(150):
        n = rng.randint(0, 7)
        cases.append(random_int_matrix(rng, n, n, span=rng.choice((1, 2, 6))))
    for _ in range(150):
        # order 3 in a random basis, and the same with one entry moved
        a = linalg.Matrix([])
        while len(a) < 8:
            a = linalg.block_diag(a, _order3_block(rng))
            u, uinv = random_unimodular_pair(rng, len(a), rng.randint(0, 12))
            cases.append(uinv @ a @ u)
            moved = (uinv @ a @ u).tolist()
            moved[rng.randrange(len(a))][rng.randrange(len(a))] += rng.choice((-1, 1))
            cases.append(moved)
    for big in (1, 2, 3, 7, 100, 2**40):
        # the bound n^2 |a|^3 + 1 is met: every entry +-big
        for n in range(1, 7):
            cases.append([[big] * n] * n)
            cases.append([[-big] * n] * n)
            cases.append([[rng.choice((-big, big)) for _ in range(n)] for _ in range(n)])
    # the seeded rank-22 actions, one in ten with an entry moved
    cases += [*_seeded_actions(8, 10), *_seeded_actions(64, 10)]
    for a in cases:
        assert linalg.cube_is_identity(a) is product_cube_is_identity(a), a
    assert sum(map(product_cube_is_identity, cases)) > 150
    assert sum(map(product_cube_is_identity, cases[-20:])) == 18


def test_cube_is_identity_sees_past_a_vector_that_a_fixes():
    # row i of a = 1 + e_i (e_(i+1) - 2^w e_i)^T, with 1 - 2^w and 1 at
    # columns i and i + 1, packs to 2^(w i) at width w: a fixes the packed
    # unit vector, so a^3, which is not 1, does too.  The width must grow
    # with the negative entry, and with n
    for n in range(2, 9):
        for w in range(1, 13):
            for i in range(n - 1):
                a = [[int(r == c) for c in range(n)] for r in range(n)]
                a[i][i], a[i][i + 1] = 1 - 2**w, 1
                assert not linalg.cube_is_identity(a), (n, w, i)


def test_cube_is_identity_sees_a_carry_in_the_cube():
    # a = [[1, 0], [V, Q]] with Q^3 = 1 cubes to 1 but for row 2, which is
    # (8, -1, 1, 0, ...) and packs to 2^(3 * 2) at width 3: the width that a
    # bound without the n^2 factor gives for entries in {-1, 0, 1}
    q = [[1, 0, 1, 1, 1], [0, 0, -1, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 0, -1], [0, 0, 0, 1, -1]]
    v = ((1, -1), (1, -1), (1, 0), (1, 1), (1, -1))
    a = linalg.Matrix([[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]] + [[*vi, *qi] for vi, qi in zip(v, q)])
    cube = a @ (a @ a)
    assert cube[2][:3] == (8, -1, 1) and cube[:2] + cube[3:] == linalg.identity(7)[:2] + linalg.identity(7)[3:]
    for k in range(16):
        assert not linalg.cube_is_identity(linalg.block_diag(a, linalg.identity(k))), k


# for a bound on the entries of an n x n cube narrower than n^2 |a|^3, the
# width k = (bound + 1).bit_length() + 1 it gives and rows 2.. of a matrix
# a = [[1, 0], [V, Q]] whose cube other than 1 packs to the unit rows at k
NARROWER_WIDTH_WITNESSES = {
    "n |a|^3": (
        lambda n, a: n * a**3,
        9,
        [
            [-2, 0, -2, 2, -3, -2, 2, -3, -3],
            [3, -3, 3, -2, 3, 2, -3, 3, 3],
            [-3, 1, 3, -3, -1, 3, 3, -2, -3],
            [2, -1, 0, 0, -3, -2, 0, -3, 0],
            [3, -1, 0, 3, -3, -2, 1, -3, -3],
            [-3, -2, -3, 3, 2, -2, -3, 3, 3],
            [-3, 0, 3, 0, 2, 1, -2, 2, 1],
        ],
    ),
    "2 n |a|^3": (
        lambda n, a: 2 * n * a**3,
        6,
        [
            [1, 1, -1, 1, 1, 0, 0, -1, 0, 0, -1, 0, 1],
            [-1, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0],
            [-1, 1, 0, 0, -1, 1, 0, 1, -1, 1, 1, 0, 0],
            [1, 0, 0, -1, -1, 0, 0, 1, 0, 1, 1, 0, -1],
            [1, 1, 1, -1, -1, 1, 0, 1, -1, 0, 1, 0, -1],
            [1, -1, 1, 0, -1, 1, 1, 0, 0, 1, 1, 0, -1],
            [-1, 1, 1, -1, -1, 1, 1, 1, -1, 1, 1, 0, -1],
            [-1, 1, -1, 1, 1, -1, 0, -1, 0, -1, -1, 0, 1],
            [1, 0, 1, -1, -1, 1, 0, 1, -1, 0, 0, 0, 0],
            [1, 1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1, 1],
            [-1, -1, 1, -1, -1, 1, 1, 1, -1, 0, 0, 0, -1],
        ],
    ),
    "n^2 |a|^2": (
        lambda n, a: n * n * a**2,
        16,
        [
            [-16, -1, -16, 10, -13, 10, 16, 16, 16],
            [-6, 16, 2, -7, 5, -5, -13, -4, -13],
            [-14, 1, 11, -8, 7, -2, -14, -10, -14],
            [14, 3, 9, -6, 7, -5, -10, -9, -10],
            [16, -1, 16, -14, -12, -9, 8, 14, 7],
            [16, -8, -15, 10, -14, 13, 16, 16, 16],
            [16, -3, -14, 15, 12, 10, -6, -15, -5],
        ],
    ),
    "3 n^2 |a|": (
        lambda n, a: 3 * n * n * a,
        12,
        [
            [-8, 1, 2, 6, 6, -1, -8, -8, 1],
            [5, 2, -6, 6, -6, 7, 1, -1, -6],
            [4, 2, -7, 6, -6, 7, -6, 7, -7],
            [2, -4, -1, 0, -1, 0, -7, 7, -1],
            [-1, -2, 8, -6, 5, -7, 6, -8, 8],
            [1, 0, 7, -5, 4, -6, 6, -8, 7],
            [-8, -3, -3, -5, -8, 2, 7, 8, -2],
        ],
    ),
    "n^2 + |a|^3": (
        lambda n, a: n * n + a**3,
        11,
        [
            [4, -7, 7, -8, -8, 8, -6, 6, 7],
            [-1, 1, 6, 7, 6, 8, 5, -8, 0],
            [7, -8, -5, -8, -7, -8, -6, 8, 0],
            [8, 0, 8, -8, -8, 7, -6, 5, 8],
            [-4, 0, 7, -7, -7, 8, -6, 6, 7],
            [0, 1, -6, 6, 6, -5, 4, -4, -6],
            [1, 0, -5, 6, 6, -6, 4, -4, -6],
        ],
    ),
}


@pytest.mark.parametrize("bound", NARROWER_WIDTH_WITNESSES)
def test_cube_is_identity_sees_a_cube_that_packs_to_one_at_a_narrower_width(bound):
    # a = [[1, 0], [V, Q]] with Q^3 = 1 cubes to [[1, 0], [(Q^2 + Q + 1) V, 1]].
    # Q^2 + Q + 1 is a multiple of u w^T, u and w fixed by Q and Q^T, and w is
    # long (|w|_1 |a| >= 2^k), so V's columns can give w.v0 = -2^k w.v1 = -2^k:
    # each row of a^3 - 1 is a multiple of (2^k, -1), and packs to 0 at width k
    narrow, k, rows = NARROWER_WIDTH_WITNESSES[bound]
    n = len(rows) + 2
    a = linalg.Matrix([[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2), *rows])
    assert (narrow(n, max(abs(x) for row in rows for x in row)) + 1).bit_length() + 1 == k
    q = linalg.Matrix([row[2:] for row in rows])
    assert q @ (q @ q) == linalg.identity(n - 2)
    cube = a @ (a @ a)
    w = [row[:2] for row in cube[2:]]
    assert cube[:2] == a[:2] and tuple(row[2:] for row in cube[2:]) == q @ (q @ q)
    assert any(x for x, _ in w) and all(x == -(2**k) * y for x, y in w)
    assert not linalg.cube_is_identity(a) and not product_cube_is_identity(a)


def test_cube_is_identity_needs_a_square_matrix():
    for shape in ((1, 2), (2, 1), (0, 3), (3, 0), (2, 3)):
        a = linalg.Matrix([[1] * shape[1]] * shape[0], shape[1])
        with pytest.raises(ValueError) as products:
            product_cube_is_identity(a)
        with pytest.raises(ValueError, match="shape mismatch") as packed:
            linalg.cube_is_identity(a)
        assert str(packed.value) == str(products.value)


def test_rank_mod3_examples():
    assert linalg.rank_mod3([]) == 0
    assert linalg.rank_mod3([[3, 6], [9, -3]]) == 0
    assert linalg.rank_mod3([[1, 2], [2, 1]]) == 1
    assert linalg.rank_mod3([[1, 2, 0], [0, 1, 5], [4, 0, 1]]) == 3
    with pytest.raises(ValueError, match="integer entries"):
        linalg.rank_mod3([[Fraction(1, 3)]])


def test_rank_mod3_matches_sympy_over_gf3():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(32)
    for trial in range(200):
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        if trial < 40:
            a = random_int_matrix(rng, n, m)
        else:
            # sparse rows with negative entries, some of them vanishing mod 3
            a = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 4, -5)) for _ in range(m)] for _ in range(n)]
            for row in a:
                if rng.random() < 0.3:
                    row[:] = [3 * rng.randint(-2, 2) for _ in row]
            if n > 1 and rng.random() < 0.3:
                a[-1] = [x - 3 * y for x, y in zip(a[0], a[-1])]
        want = DomainMatrix([[sympy.GF(3)(x) for x in row] for row in a], (n, m), sympy.GF(3)).rank()
        assert linalg.rank_mod3(a) == linalg.rank_mod3(linalg.Matrix(a, m)) == dict_rank_mod3(a) == want
    # a - 1 of the seeded rank-22 inputs, one in ten with an entry moved
    for action in [*_seeded_actions(8, 10), *_seeded_actions(64, 10)]:
        a = action - linalg.identity(22)
        want = DomainMatrix([[sympy.GF(3)(x) for x in row] for row in a], (22, 22), sympy.GF(3)).rank()
        assert linalg.rank_mod3(a) == dict_rank_mod3(a) == want
    for n, m in ((0, 0), (0, 4), (4, 0)):
        assert linalg.rank_mod3(linalg.Matrix([[]] * n if m == 0 else [[0] * m] * n, m)) == 0


def test_inertia_examples():
    assert linalg.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert linalg.inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    assert linalg.inertia([[-2, 1], [1, -2]]) == (0, 2, 0)
    assert linalg.inertia([[0] * 3] * 3) == (0, 0, 3)
    assert linalg.inertia([[1, 1], [1, 1]]) == (1, 0, 1)
    assert linalg.inertia(np.empty((0, 0), dtype=object)) == (0, 0, 0)
    assert linalg.inertia(linalg.Matrix([])) == (0, 0, 0)
    # numpy integers are exact; numpy floats are not
    assert linalg.inertia(np.array([[2, 0], [0, -3]], dtype=np.int64)) == (1, 1, 0)
    with pytest.raises(ValueError, match="integer entries"):
        linalg.inertia(np.array([[2.0, 0.0], [0.0, -3.0]]))


def test_inertia_and_determinant_examples():
    assert linalg.inertia_and_determinant([[0, 1], [1, 0]]) == ((1, 1, 0), -1)
    assert linalg.inertia_and_determinant([[2, 1], [1, -2]]) == ((1, 1, 0), -5)
    assert linalg.inertia_and_determinant([[1, 1], [1, 1]]) == ((1, 0, 1), 0)
    assert linalg.inertia_and_determinant([]) == ((0, 0, 0), 1)
    with pytest.raises(ValueError, match="symmetric"):
        linalg.inertia_and_determinant([[0, 1], [2, 0]])


def test_inertia_and_determinant_with_a_zero_leading_row():
    # zero diagonal and a zero first row: row 0 is split off as null, and the
    # pair below it is a 2 x 2 pivot with a = 0
    assert linalg.inertia_and_determinant([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) == ((1, 1, 1), 0)
    assert linalg.inertia_and_determinant([[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 2, 0, 0]]) == ((1, 1, 2), 0)


def test_inertia_and_determinant_pair_path_after_a_pivot():
    # d = 0 at (0, 1), so the first step is 1 x 1 and leaves [[0, 2], [2, 0]],
    # a 2 x 2 pivot with a = 0; the stale entries left of it are nonzero, and
    # neither the search for s_tu nor the update may look at them
    assert linalg.inertia_and_determinant([[1, 1, 1], [1, 1, 3], [1, 3, 1]]) == ((2, 1, 0), -4)


def test_inertia_and_determinant_two_step_divides_by_prev_squared():
    # d = 0 at (0, 1), so step 0 is 1 x 1 on the pivot p and prev = p; the
    # 2 x 2 steps after it divide their 3 x 3 minors by p^2, which a division
    # by p gets wrong once p != +-1
    sympy = pytest.importorskip("sympy")
    form = [[2, 2, 1, 0, 1], [2, 2, 0, 1, 0], [1, 0, 1, 1, 0], [0, 1, 1, 0, 2], [1, 0, 0, 2, 1]]
    assert linalg.inertia_and_determinant(form) == ((4, 1, 0), -10) == full_storage_inertia_and_determinant(form)
    rng = random.Random(211)
    for _ in range(40):
        n = rng.randint(4, 8)
        m = random_int_matrix(rng, n, n, span=2)
        form = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        form[0][0] = form[0][1] = form[1][0] = form[1][1] = rng.choice((2, -2, 3, -6))
        sig, det = linalg.inertia_and_determinant(form)
        assert (sig, det) == full_storage_inertia_and_determinant(form)
        assert det == sympy.Matrix(form).det()


def test_inertia_and_determinant_swap_moves_the_pivot_rows_own_entries():
    # s_00 = s_01 = 0 and s_02 != 0: index 2 is swapped into 1, and row 0's
    # entries at 1 and 2 must be exchanged with it, or b stays 0
    assert linalg.inertia_and_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == ((2, 1, 0), -1)
    assert linalg.inertia_and_determinant([[0, 0, 0, 3], [0, -1, 1, 0], [0, 1, 2, 0], [3, 0, 0, 1]]) == ((2, 2, 0), 27)
    rng = random.Random(223)
    for _ in range(40):
        n = rng.randint(3, 8)
        m = random_int_matrix(rng, n, n, span=2)
        form = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        form[0][0] = form[0][1] = form[1][0] = 0
        form[0][n - 1] = form[n - 1][0] = rng.choice((1, -1, 2))
        assert linalg.inertia_and_determinant(form) == full_storage_inertia_and_determinant(form)


def test_inertia_and_determinant_zero_diagonal_pivot_is_one_of_each_sign():
    # a 2 x 2 pivot with a = 0 has d = -b^2 < 0: one positive and one negative
    # square, after a positive or a negative leading minor, whatever c is
    cases = [
        ([[0, 1], [1, 5]], ((1, 1, 0), -1)),
        ([[0, 2], [2, -3]], ((1, 1, 0), -4)),
        ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], ((1, 2, 0), 1)),
        ([[3, 0, 0], [0, 0, 2], [0, 2, -1]], ((2, 1, 0), -12)),
        ([[-2, 0, 0, 0], [0, 0, 1, 0], [0, 1, 4, 0], [0, 0, 0, -5]], ((1, 3, 0), -10)),
    ]
    for form, want in cases:
        assert linalg.inertia_and_determinant(form) == want == full_storage_inertia_and_determinant(form)


def test_inertia_and_determinant_zero_row_in_the_middle():
    # row 1 of the block left after step 0 is zero: a null direction, split
    # off with prev unchanged, and the last step is a 1 x 1 pivot
    sympy = pytest.importorskip("sympy")
    for form in (
        [[1, 0, 1], [0, 0, 0], [1, 0, 2]],
        [[2, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, -1]],
        [[1, 1, 0, 0, 2], [1, 1, 0, 0, 2], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [2, 2, 0, 0, 1]],
    ):
        (pos, neg, null), det = linalg.inertia_and_determinant(form)
        assert det == 0 == sympy.Matrix(form).det()
        assert null == len(form) - sympy.Matrix(form).rank()
        assert ((pos, neg, null), det) == full_storage_inertia_and_determinant(form)
    assert linalg.inertia_and_determinant([[1, 0, 1], [0, 0, 0], [1, 0, 2]]) == ((2, 0, 1), 0)


def test_inertia_and_determinant_odd_size_ends_on_a_one_by_one_step():
    assert linalg.inertia_and_determinant([[0, 1, 0], [1, 0, 0], [0, 0, -3]]) == ((1, 2, 0), 3)
    assert linalg.inertia_and_determinant([[2, 1, 0], [1, 2, 0], [0, 0, 5]]) == ((3, 0, 0), 15)
    assert linalg.inertia_and_determinant([[-4]]) == ((0, 1, 0), -4)
    assert linalg.inertia_and_determinant([[0]]) == ((0, 0, 1), 0)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(227)
    for _ in range(40):
        n = rng.choice((1, 3, 5, 7))
        m = random_int_matrix(rng, n, n, span=3)
        form = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        sig, det = linalg.inertia_and_determinant(form)
        assert (sig, det) == full_storage_inertia_and_determinant(form)
        assert det == sympy.Matrix(form).det()


def test_inertia_and_determinant_match_bareiss_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for trial in range(80):
        n = rng.randint(1, 7)
        if trial % 2:
            # singular: x^T d x with x of rank below n and d a diagonal of signs
            r = rng.randint(0, n - 1)
            x = linalg.Matrix(random_int_matrix(rng, r, n, span=3), n)
            d = linalg.Matrix([[rng.choice((1, -1)) if i == j else 0 for j in range(r)] for i in range(r)], r)
            sym = (x.T @ d @ x).tolist()
        else:
            m = random_int_matrix(rng, n, n, span=3)
            sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        if trial % 3 == 0:
            # an all-zero diagonal makes the elimination pivot on pairs with a = 0
            for i in range(n):
                sym[i][i] = 0
        sig, det = linalg.inertia_and_determinant(sym)
        assert det == linalg.bareiss_determinant(sym) == sympy.Matrix(sym).det()
        assert sig == linalg.inertia(sym)
        assert (sig[2] > 0) == (det == 0)


def test_inertia_and_determinant_on_rank_22_forms(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from k3z3 import classify, lattice

    swaps = []  # (step, s_tt, s_t,t+1) at each symmetric swap
    upper_swap = linalg._upper_swap
    monkeypatch.setattr(
        linalg, "_upper_swap", lambda s, t, u: (swaps.append((t, s[t][t], s[t][t + 1])), upper_swap(s, t, u))
    )
    rng = random.Random(61)
    for action_type in classify.enumerate_action_types():
        gram = lattice.assemble_type_lattice(action_type).gram  # 3H (zero diagonal), then Gamma16
        forms = []
        for steps in (8, 64):
            u, _ = random_unimodular_pair(rng, 22, steps)
            forms.append((u.T @ gram @ u, None))
        # 3H's three pairs: (0, 1), (2, 3), (4, 5), or (0, 5), (1, 4), (2, 3) in
        # the torus block, which pairs e_i with e_(5-i)
        pairs = sorted({(i, j) for i in range(6) for j in range(i, 6) if gram[i][j]})
        for k in (1, 3, 5):
            # k vectors of Gamma16 first, then 3H and the rest of Gamma16: a
            # 1 x 1 or 2 x 2 step ends Gamma16's part just before 3H, whose
            # pairs are 2 x 2 pivots with a = 0, after one swap at step k that
            # brings e5 next to e0 in the torus block
            perm = [*range(6, 6 + k), *range(6), *range(6 + k, 22)]
            forms.append(([[gram[i][j] for j in perm] for i in perm], [k] * (pairs[0] != (0, 1))))
        # two pairs interleaved, x0, x1, y0, y1: step 0 swaps y0 in
        (x0, y0), (x1, y1), (x2, y2) = pairs
        perm = [x0, x1, y0, y1, x2, y2, *range(6, 22)]
        forms.append(([[gram[i][j] for j in perm] for i in perm], [0]))
        for form, steps in forms:
            swaps.clear()
            sig, det = linalg.inertia_and_determinant(form)
            assert sig == (3, 19, 0)
            assert det == linalg.bareiss_determinant(form) == DomainMatrix.from_list(form, sympy.ZZ).det() == -1
            # a swap is made only at a step whose pivot row starts with 0, 0
            assert all(a == b == 0 for _, a, b in swaps)
            if steps is not None:
                assert [t for t, *_ in swaps] == steps


def random_blocked_form(rng, n):
    """A symmetric form of size n, block diagonal up to a permutation.

    Blocks of size 1 to 4 are zero, hollow (an all-zero diagonal) or
    random.  Nothing couples the blocks, so a hollow block keeps its zero
    diagonal until the elimination reaches it: there it takes 2 x 2 pivots
    with a = 0, and a swap when its next entry s_t,t+1 is 0 too.
    """
    form = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = min(rng.randint(1, 4), n - start)
        kind = rng.choice(("zero", "hollow", "hollow", "random"))
        for i in range(start, start + size):
            for j in range(i, start + size):
                if kind == "hollow" and i == j or kind == "zero":
                    continue
                form[i][j] = form[j][i] = rng.randint(-3, 3)
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return [[form[i][j] for j in perm] for i in perm]


def test_inertia_and_determinant_matches_full_storage_oracle(monkeypatch):
    swaps = []
    upper_swap = linalg._upper_swap
    monkeypatch.setattr(linalg, "_upper_swap", lambda s, t, u: (swaps.append(t), upper_swap(s, t, u)))
    rng = random.Random(157)
    pair_counts, swap_counts = [], []
    for trial in range(400):
        n = rng.randint(0, 12)
        if trial % 4:
            form = random_blocked_form(rng, n)
        else:
            m = random_int_matrix(rng, n, n, span=3)
            form = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        pair_steps = []
        want = full_storage_inertia_and_determinant(form, pair_steps)
        pair_counts.append(len(pair_steps))
        swaps.clear()
        assert linalg.inertia_and_determinant(form) == want
        swap_counts.append(len(swaps))
        assert linalg.inertia_and_determinant(linalg.Matrix(form, n)) == want
    # hollow blocks: the oracle adds pairs, and the two-step elimination swaps
    assert max(pair_counts) >= 3 and sum(c >= 2 for c in pair_counts) >= 50
    assert sum(c >= 1 for c in swap_counts) >= 100


def test_inertia_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        linalg.inertia([[0, 1], [2, 0]])


def test_inertia_matches_floating_point_eigenvalues():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = random_int_matrix(rng, n, n, span=4)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        eigs = np.linalg.eigvalsh(np.array(sym, dtype=float))
        want = (
            int(sum(e > 1e-8 for e in eigs)),
            int(sum(e < -1e-8 for e in eigs)),
            int(sum(abs(e) <= 1e-8 for e in eigs)),
        )
        assert linalg.inertia(sym) == want


def test_inertia_rejects_proper_fractions_and_respects_congruence():
    assert linalg.inertia([[Fraction(4, 2), 0], [0, Fraction(-3)]]) == (1, 1, 0)
    with pytest.raises(ValueError, match="integer entries"):
        linalg.inertia([[Fraction(1, 2), 0], [0, -3]])
    rng = random.Random(47)
    base = linalg.Matrix([[2, 1, 0], [1, -2, 3], [0, 3, 0]])
    expected = linalg.inertia(base)
    for _ in range(20):
        u, _ = random_unimodular_pair(rng, 3)
        scale = linalg.Matrix([[rng.randint(1, 5) if i == j else 0 for j in range(3)] for i in range(3)])
        q = u @ scale
        assert linalg.inertia(q.T @ base @ q) == expected


def test_inertia_counts_sum_to_dimension():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, n, n, span=3)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        pos, neg, null = linalg.inertia(sym)
        assert pos + neg + null == n


def test_block_diag_and_identity():
    a = linalg.block_diag([[1]], [[2, 0], [0, 3]])
    assert a.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert linalg.identity(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.block_diag(linalg.Matrix([], 2), [[1]]).tolist() == [[0, 0, 1]]


def test_identity_is_shared_and_immutable():
    ident = linalg.identity(22)
    assert linalg.identity(22) is ident
    with pytest.raises(AttributeError):
        ident.shape = (1, 1)
    with pytest.raises(AttributeError):
        del ident.shape
    a = linalg.Matrix(random_int_matrix(random.Random(59), 22, 22))
    assert a - ident == linalg.Matrix([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)])
    assert a @ ident == a
    assert ident @ a == a
    assert ident == linalg.Matrix([[int(i == j) for j in range(22)] for i in range(22)])
    assert ident.shape == (22, 22)


def random_sparse_matrix(rng, n, m):
    """Units, small entries and entries of up to 64 bits, at a random density."""
    density = rng.random()
    return [
        [
            rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-(2**64), 2**64))) if rng.random() < density else 0
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def matrix_pair(rows, n, m):
    """The same matrix as a Matrix and as a numpy object array (the oracle)."""
    return linalg.Matrix(rows, m), np.array(rows, dtype=object).reshape(n, m)


def test_matrix_matches_numpy_object_arrays():
    rng = random.Random(73)
    orientations = set()
    for _ in range(300):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a_rows, b_rows, c_rows = (
            random_sparse_matrix(rng, n, k),
            random_sparse_matrix(rng, k, m),
            random_sparse_matrix(rng, n, k),
        )
        (a, na), (b, nb), (c, nc) = matrix_pair(a_rows, n, k), matrix_pair(b_rows, k, m), matrix_pair(c_rows, n, k)
        nonzeros = [sum(x != 0 for row in rows for x in row) for rows in (a_rows, b_rows)]
        orientations.add(nonzeros[1] < nonzeros[0])
        for got, want in ((a @ b, na @ nb), (a + c, na + nc), (a - c, na - nc), (a.T, na.T), (a, na)):
            assert got.shape == want.shape
            assert got.tolist() == want.tolist()
        assert a.T.T == a
        assert (a @ b).T == b.T @ a.T
    assert orientations == {False, True}  # the data has sparser-left and sparser-right pairs


def test_matrix_shape_mismatches_raise():
    rng = random.Random(79)
    for _ in range(100):
        n, k, k2, m = (rng.randint(0, 3) for _ in range(4))
        a = linalg.Matrix(random_int_matrix(rng, n, k), k)
        b = linalg.Matrix(random_int_matrix(rng, k2, m), m)
        if k != k2:
            with pytest.raises(ValueError, match="shape mismatch"):
                a @ b
        if (n, k) != (k2, m):
            with pytest.raises(ValueError, match="shape mismatch"):
                a + b
            with pytest.raises(ValueError, match="shape mismatch"):
                a - b


def test_matrix_arithmetic_takes_only_a_matrix():
    # `@`, `+` and `-` hand back NotImplemented for nested lists, so python
    # raises TypeError rather than the operator reading a list as a matrix
    a = linalg.identity(2)
    for op in (operator.matmul, operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(a, [[1, 0], [0, 1]])


def test_matrix_is_immutable():
    a = linalg.Matrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        a[0][1] = 7
    with pytest.raises(TypeError):
        a[0] = (0, 0)
    assert a == linalg.Matrix([[1, 2], [3, 4]]) and a != a.T
