"""Exact arithmetic in Q(zeta), zeta = exp(2*pi*i/3).

Values are kept in the canonical basis {1, zeta}: every element is
x + y*zeta with rational x, y, and the reduction zeta^2 = -1 - zeta is
applied after every operation, so equality is a componentwise check.
The production path is fully exact; the only floating-point view of
these numbers lives in the test suite.
"""

from fractions import Fraction


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

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2 with z^2 = -1 - z
        a, b, c, d = self.x, self.y, other.x, other.y
        return Cyclotomic(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Cyclotomic(-self.x, -self.y)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        # rational values hash like their Fraction, so 1 == Cyclotomic(1) stays consistent
        return hash(self.x) if self.y == 0 else hash((self.x, self.y))

    def __bool__(self):
        return bool(self.x or self.y)

    def norm(self) -> Fraction:
        """Field norm x^2 - x*y + y^2; zero only at zero."""
        return self.x * self.x - self.x * self.y + self.y * self.y

    def inverse(self) -> "Cyclotomic":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        conj = self.conjugate()
        return Cyclotomic(conj.x / n, conj.y / n)

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


def _coerce(value):
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic(value)
    return NotImplemented


ZERO = Cyclotomic(0)
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
