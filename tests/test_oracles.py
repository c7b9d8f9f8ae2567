"""The test suite's independent oracles, checked on their own."""

import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import random_unimodular_pair, rational_inverse


def test_rational_inverse():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 5)
        u, uinv = random_unimodular_pair(rng, n)
        assert np.array_equal(rational_inverse(u), uinv)
    a = [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(2, 1)]]
    ainv = rational_inverse(a)
    assert np.array_equal(np.array(a, dtype=object) @ ainv, np.identity(2, dtype=object))
    with pytest.raises(ValueError, match="singular"):
        rational_inverse([[1, 2], [2, 4]])
