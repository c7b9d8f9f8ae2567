"""The test suite's independent oracles, checked on their own."""

import random
from fractions import Fraction

import numpy as np
import pytest

from k3z3.linalg import Matrix

from _oracles import random_unimodular_pair, rational_inverse, solve_integer


def test_rational_inverse():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 5)
        u, uinv = random_unimodular_pair(rng, n)
        assert rational_inverse(u).tolist() == uinv.tolist()
    a = [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(2, 1)]]
    ainv = rational_inverse(a)
    assert np.array_equal(np.array(a, dtype=object) @ ainv, np.identity(2, dtype=object))
    with pytest.raises(ValueError, match="singular"):
        rational_inverse([[1, 2], [2, 4]])


def test_solve_integer_recovers_known_solutions():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 6)
        r = rng.randint(1, n)
        u, _ = random_unimodular_pair(rng, n)
        a = Matrix([row[:r] for row in u])  # full column rank, saturated image
        x = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(r)])
        b = a @ x
        got = solve_integer(a, b)
        assert got == x


def test_solve_integer_error_cases():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_integer([[1], [0]], [[0], [1]])
    with pytest.raises(ValueError, match="no integral solution"):
        solve_integer([[2], [0]], [[1], [0]])
    with pytest.raises(ValueError, match="full column rank"):
        solve_integer([[1, 1], [1, 1]], [[1], [1]])
