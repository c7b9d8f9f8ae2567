"""Exact arithmetic in Q(zeta), zeta = exp(2*pi*i/3), with no floating point.

Every element is x + y*zeta with rational x, y in the canonical basis
{1, zeta}; zeta^2 = -1 - zeta is applied after every operation, so
equality is a componentwise check.  Every operator reads its other
operand by one rule (`_binary`): an int or a Fraction is a rational
element, and anything else that is not a Cyclotomic gives NotImplemented.
"""

from fractions import Fraction


def _binary(op):
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        return op(self, other)

    return method


class Cyclotomic:
    """x + y*zeta with exact rational components; immutable."""

    __slots__ = ("x", "y")

    def __init__(self, x, y=0):
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __add__ = __radd__ = _binary(lambda s, o: Cyclotomic(s.x + o.x, s.y + o.y))
    __sub__ = _binary(lambda s, o: Cyclotomic(s.x - o.x, s.y - o.y))
    __rsub__ = _binary(lambda s, o: o - s)
    # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2 with z^2 = -1 - z
    __mul__ = __rmul__ = _binary(
        lambda s, o: Cyclotomic(s.x * o.x - s.y * o.y, s.x * o.y + s.y * o.x - s.y * o.y)
    )
    __truediv__ = _binary(lambda s, o: s * o.inverse())
    __rtruediv__ = _binary(lambda s, o: o * s.inverse())
    __eq__ = _binary(lambda s, o: s.x == o.x and s.y == o.y)

    def __hash__(self):
        # rational values hash like their Fraction, so 1 == Cyclotomic(1) stays consistent
        return hash(self.x) if self.y == 0 else hash((self.x, self.y))

    def __bool__(self):
        return bool(self.x or self.y)

    def inverse(self) -> "Cyclotomic":
        """conjugate / norm, the field norm x^2 - x*y + y^2 being zero only at zero."""
        x, y = self.x, self.y
        n = x * x - x * y + y * y
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        return Cyclotomic((x - y) / n, -y / n)

    def conjugate(self) -> "Cyclotomic":
        """Galois substitution zeta -> zeta^2; an involution fixing rationals."""
        return Cyclotomic(self.x - self.y, -self.y)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if the zeta component is nonzero."""
        if self.y != 0:
            raise ValueError("non-rational cyclotomic value")
        return self.x

    def __str__(self):
        return f"{self.x} + {self.y}*z3"

    def __repr__(self):
        return f"Cyclotomic({self.x}, {self.y})"


ONE = Cyclotomic(1)
ZETA = Cyclotomic(0, 1)


def zeta_power(k: int) -> Cyclotomic:
    """zeta^k, exactly periodic with period 3."""
    k %= 3
    if k == 0:
        return ONE
    if k == 1:
        return ZETA
    return Cyclotomic(-1, -1)


def half_power(a: int) -> int:
    """Exponent e in {0, 1, 2} with (zeta^e)^2 = zeta^a and (zeta^e)^3 = 1.

    This is the square root of zeta^a taken inside the cube roots of
    unity, the convention that pins the spin fixed-point weights;
    concretely e = 2a mod 3.  Weights divisible by 3 are rejected.
    """
    if a % 3 == 0:
        raise ValueError("weight divisible by 3 admits no such square root")
    return (2 * a) % 3
