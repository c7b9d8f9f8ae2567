"""Property tests over generated order-3 action modules."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3z3 import GLattice, fixed_sublattice, linalg, module_decomposition  # noqa: E402

from _oracles import quotient_decomposition, random_unimodular_pair, saturated_fixed_sublattice  # noqa: E402

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
    assert module_decomposition(M).as_tuple() == (a, b, c)
    assert fixed_sublattice(M)[0].shape[1] == a + c
    assert quotient_decomposition(M) == (a, b, c)
    # the rational kernel and the saturated one carry forms of one inertia
    assert linalg.inertia(fixed_sublattice(M)[1]) == linalg.inertia(saturated_fixed_sublattice(M)[1])
