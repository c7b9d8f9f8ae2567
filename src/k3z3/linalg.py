"""Exact linear algebra over the integers.

Every matrix handled here is small (rank <= 22), so the code favours
exactness and auditability over asymptotics: determinants by fraction-free
(Bareiss) elimination, rational kernels by gcd-scaled elimination, saturated
integer kernels by the Smith normal form (which no package code runs: the
tests and the benchmark's traced pass call it by name), ranks mod 3 by
elimination over F_3 on bit-sliced rows, and the inertia of a symmetric form,
with its determinant, by two-step fraction-free symmetric elimination.

A `Matrix` is checked once, when built from nested sequences, so the results
of its arithmetic and of the kernels need no second check.  The order-3
check, the rank mod 3, the rational kernel and the product `@` each run one
core that reads a matrix as its sparse columns, each column's nonzero
entries as (row, entry) pairs (`_columns`): a public kernel builds them from
its own `Matrix` argument, and the lattice audit builds them once per lattice
for every core.  So a product costs one row operation per nonzero entry of
its left factor, and callers write the sparse factor first.  The symmetric
elimination reduces fresh rows (`int_rows`, which checks only what is not a
`Matrix`) in place, on one triangle.  What is kept or handed back is an
immutable `Matrix`, so `identity(n)` is built once per n and shared.  No
floating point and no `fractions` enter.
"""

from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from operator import add, index, mul, ne, sub


class Matrix(tuple):
    """Immutable integer matrix: a tuple of row tuples of python ints.

    `Matrix(rows, ncols)` checks `rows` as `int_rows` does (a Matrix passes as
    it is), so no Matrix holds a non-int; `ncols`, read only without rows, is a size.
    Supports `@` (one row operation per nonzero entry of the left factor:
    write the sparse factor first), `+`, `-`, `.T`, `.shape` and `.tolist()`.
    `==` is tuple equality (so any two matrices without rows are equal), item
    assignment raises TypeError and attribute assignment AttributeError,
    so one value can be shared, as `identity` shares its results.
    """

    def __new__(cls, rows, ncols: int = 0):
        if type(rows) is Matrix:
            return rows
        rows = int_rows(rows)
        return _matrix(rows, ncols if rows else _size(ncols))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def T(self) -> "Matrix":
        n, m = self.shape
        return _matrix(zip(*self) if n else repeat((), m), n)

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self]

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def _entrywise(self, op, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} and {other.shape}")
        return _matrix(map(map, repeat(op), self, other), self.shape[1])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        (_, k), (k2, m) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return _matrix(_row_products(_columns(self.T), other, m), m)


def _matrix(rows, ncols: int) -> Matrix:
    """A Matrix of rows of python ints, built without a check."""
    self = tuple.__new__(Matrix, map(tuple, rows))
    object.__setattr__(self, "shape", (len(self), len(self[0]) if self else ncols))
    return self


def _columns(a: Matrix) -> list[list[tuple[int, int]]]:
    """The nonzero entries of `a` column by column, as (row, entry) pairs: what the cores read."""
    span = range(a.shape[1])
    cols = [[] for _ in span]
    for i, row in enumerate(a):
        for j in compress(span, row):
            cols[j].append((i, row[j]))
    return cols


def _row_products(rows, b, m: int) -> list[tuple[int, ...]]:
    """Rows of a @ b from the sparse rows of a, each a combination of the rows of b (m columns).

    One row operation per nonzero entry of `a`, never reordered; a row
    whose first nonzero entry is 1 starts from that row of `b` as it is.
    """
    out = []
    zero = (0,) * m
    for row in rows:
        acc = zero
        for j, x in row:
            brow = b[j]
            if x == 1:
                acc = brow if acc is zero else tuple(map(add, acc, brow))
            elif x == -1:  # without this case an 8-step verify record ran 2% slower
                acc = tuple(map(sub, acc, brow))
            else:
                acc = tuple(map(add, acc, map(mul, repeat(x), brow)))
        out.append(acc)
    return out


def _as_int(x) -> int:
    # a Fraction is read by its numerator when its denominator is 1
    if getattr(x, "denominator", 1) != 1:
        raise ValueError("expected integer entries")
    try:
        # any integer type with __index__ passes; floats do not
        return index(getattr(x, "numerator", x))
    except TypeError:
        raise ValueError(f"expected integer entries, got {type(x).__name__}") from None


def _size(n) -> int:
    if not hasattr(type(n), "__index__") or index(n) < 0:
        raise ValueError(f"expected a size >= 0, got {n!r}")
    return index(n)


def int_rows(a) -> list[list[int]]:
    """Fresh copy of an integer matrix as rows of python ints, checked unless a Matrix.

    Integral Fractions become ints; any other entry that is not an
    integer raises ValueError, as does a ragged or non-2-D matrix.
    """
    if type(a) is Matrix:
        return [list(row) for row in a]
    try:
        rows = [list(row) for row in a]
    except TypeError:
        raise ValueError("expected a 2-D matrix") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a rectangular 2-D matrix")
    for row in rows:
        for x in row:
            if type(x) is not int:
                row[:] = map(_as_int, row)
                break
    return rows


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    """The n x n identity, built once per n and shared (Matrix is immutable)."""
    n = _size(n)
    return _matrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def block_diag(a, b) -> Matrix:
    """Block-diagonal join of two matrices."""
    a, b = Matrix(a), Matrix(b)
    na, nb = a.shape[1], b.shape[1]
    return _matrix([row + (0,) * nb for row in a] + [(0,) * na + row for row in b], na + nb)


def cube_is_identity(a) -> bool:
    """Whether a @ a @ a is the identity, by products of packed rows."""
    a = Matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch: {a.shape} @ {a.shape}")
    return _cube_is_identity(_columns(a))


def _cube_is_identity(cols) -> bool:
    """The order-3 check on the sparse columns of a square matrix a.

    Row i of `a` packs to sum_j a_ij 2^(k j); two passes over the columns,
    each adding a_ij times the packed row j to row i, give the packed rows of
    a^2 and a^3.  As n^2 |a|^3 + 1 < 2^(k - 1) bounds every entry of a^3 - 1 and
    balanced base-2^k digits are unique, row i of a^3 is the unit row exactly
    when it packs to 2^(k i).
    """
    n = len(cols)
    big = max([abs(x) for col in cols for _, x in col], default=0)
    k = (n * n * big**3 + 1).bit_length() + 1
    packed = [0] * n
    for j, col in enumerate(cols):
        for i, x in col:
            packed[i] += x << k * j
    for _ in range(2):
        prev, packed = packed, [0] * n
        for col, p in zip(cols, prev):
            for i, x in col:
                packed[i] += x * p
    return all(p == 1 << k * i for i, p in enumerate(packed))


def bareiss_determinant(a) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = int_rows(a)
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
        prev = pkk
    return sign * m[n - 1][n - 1]


def smith_normal_form(a):
    """Diagonalize an integer matrix: U @ a @ V == D with U, V unimodular.

    The nonzero diagonal entries of D are positive and each divides the
    next.  The working matrix W = [[a, I_n], [I_m]] ends as [[D, U], [V]]:
    a row operation on its first n rows acts on a and U at once, a column
    operation on its first m columns on a and V.  The pivot is the first
    smallest |entry| in row-major order, a nonzero remainder takes its
    place, and the first row that it does not divide is added to its row.
    """
    a = Matrix(a)
    n, m = a.shape
    w = [[*row, *unit] for row, unit in zip(a, identity(n))] + [*map(list, identity(m))]
    for t in range(min(n, m)):
        best = None
        for i in range(t, n):
            for j, x in enumerate(w[i][t:m], t):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, i, j = best
        w[t], w[i] = w[i], w[t]
        for row in w:
            row[t], row[j] = row[j], row[t]
        while True:
            row_t = w[t]
            p = row_t[t]
            i = next((i for i in range(t + 1, n) if w[i][t]), None)
            if i is not None:
                q = w[i][t] // p
                w[i] = [x - q * y for x, y in zip(w[i], row_t)]
                if w[i][t]:
                    w[t], w[i] = w[i], row_t
                continue
            j = next((j for j in range(t + 1, m) if row_t[j]), None)
            if j is not None:
                q = row_t[j] // p
                for row in w:
                    row[j] -= q * row[t]
                if row_t[j]:
                    for row in w:
                        row[t], row[j] = row[j], row[t]
                continue
            # row and column are clear; force divisibility of the rest
            bad = next((row for row in w[t + 1 : n] if any(x % p for x in row[t + 1 : m])), None)
            if bad is None:
                break
            w[t] = [*map(add, row_t, bad)]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    u, d = [row[m:] for row in w[:n]], [row[:m] for row in w[:n]]
    return _matrix(u, n), _matrix(d, m), _matrix(w[n:], m)


def integer_kernel(a) -> Matrix:
    """Columns spanning the integer kernel of `a`.

    Coming out of the Smith form, the kernel lattice is saturated: any
    integer vector in its rational span is an integer combination of
    the returned columns.
    """
    _, d, v = smith_normal_form(a)
    free = [j for j in range(len(v)) if j >= len(d) or d[j][j] == 0]
    return _matrix([[row[j] for j in free] for row in v], len(free))


def rational_kernel(a) -> Matrix:
    """Primitive integer columns spanning the kernel of `a` over Q."""
    a = Matrix(a)
    return _matrix(_rational_kernel(_columns(a), a.shape[0]), a.shape[1]).T


def _rational_kernel(cols, n: int) -> list[list[int]]:
    """The kernel vectors of a matrix with n rows, from its sparse columns.

    Each column, with its unit vector appended, is reduced against the rows
    kept so far by gcd-scaled elimination; a row whose first part vanishes
    holds an integer relation among the columns, that is, a kernel vector.
    The relations are triangular in the unit vectors, hence independent.
    They span a full-rank sublattice of the integer kernel, which need not
    be saturated.  A kept row is a dict of its nonzero entries, and a
    reduction subtracts only at those.  A factor -1 (a pivot -1, usual on
    a - 1) flips a sign applied with the content division.
    """
    m = len(cols)
    kept = []  # (pivot column, nonzero entries of the reduced row)
    kernel = []
    for k, col in enumerate(cols):
        r = [0] * (n + m)
        for i, x in col:
            r[i] = x
        r[n + k] = 1
        sign = 1  # the reduced row is sign * r
        for piv, krow in kept:
            x = r[piv]
            if x:
                g = gcd(krow[piv], x)
                p, x = krow[piv] // g, x // g
                if p == -1:
                    sign, x = -sign, -x
                elif p != 1:
                    r = [p * u for u in r]
                for j, v in krow.items():
                    r[j] -= x * v
        content = gcd(*r) * sign
        if content != 1:
            r = [u // content for u in r]
        piv = next(compress(range(n), r), None)
        if piv is None:
            kernel.append(r[n:])
        else:
            kept.append((piv, {j: r[j] for j in compress(range(n + m), r)}))
    return kernel


def rank_mod3(a) -> int:
    """Rank over F_3 of an integer matrix, by Gaussian elimination on bit-sliced rows."""
    return _rank_mod3(_columns(Matrix(a)))  # the rank of its transpose


def _rank_mod3(rows) -> int:
    """The rank mod 3 of the matrix with these sparse rows (or columns).

    Each row is two masks of its entries 1 and 2 mod 3 (Boothby-Bradshaw,
    arXiv:0901.1413).  The kept row pivoting on its lowest set bit is added to
    it, or subtracted (the masks swapped), until it vanishes or takes that pivot.
    """
    pivots = {}  # lowest set bit -> kept row's masks
    for row in rows:
        masks = [0, 0, 0]
        for j, x in row:
            masks[x % 3] |= 1 << j
        _, ones, twos = masks
        while nz := ones | twos:
            low = nz & -nz
            prow = pivots.get(low)
            if prow is None:
                pivots[low] = (ones, twos)
                break
            p1, p2 = prow
            if not (ones ^ p1) & low:  # the same entry at the pivot: subtract
                p1, p2 = p2, p1
            t = ones | p2
            ones, twos = t ^ ((p1 | p2) & ~twos), t ^ (nz & ~p1)
    return len(pivots)


def inertia(a) -> tuple[int, int, int]:
    """Inertia (pos, neg, null) of a symmetric matrix with integer entries."""
    return inertia_and_determinant(a)[0]


def inertia_and_determinant(a) -> tuple[tuple[int, int, int], int]:
    """Inertia (pos, neg, null) and determinant of a symmetric integer matrix.

    Bareiss's two-step fraction-free elimination pivots on the 2 x 2 block
    [[a, b], [b, c]] at (t, t + 1) when d = ac - b^2 is nonzero, else on a.
    By Sylvester's identity each kept entry becomes the 3 x 3 minor
    d s_ij - alpha_i s_tj - beta_i s_t+1,j divided by prev^2, prev being the
    last leading minor; the next one is d / prev.  neg counts the sign
    changes along the leading minors (Jacobi).  When a = 0, d / prev and
    prev differ in sign, so either sign of a counts one positive and one
    negative square (Frobenius).  A zero s_tt takes the first nonzero s_tu
    to t + 1 by a symmetric swap; a zero row t is split off as null, with
    prev unchanged.  Every step is a unimodular congruence, so the
    determinant is the last leading minor, or 0 when the form is
    degenerate.  Only the upper triangle (`s[i][j]` with `j >= i`) of the
    block left at each step is read and written.
    """
    s = int_rows(a)
    n = len(s)
    if any(len(row) != n for row in s) or any(map(ne, zip(*s), map(tuple, s))):
        raise ValueError("inertia needs a symmetric matrix")
    return _inertia_and_determinant(s)


def _inertia_and_determinant(s: list[list[int]]) -> tuple[tuple[int, int, int], int]:
    """The elimination, unguarded: `s` is fresh rows of a symmetric form, reduced in place."""
    n = len(s)
    neg = null = 0
    prev = 1
    t = 0
    while t < n:
        row_t = s[t]
        a = row_t[t]
        if a == 0:
            u = next(compress(range(t + 1, n), row_t[t + 1 :]), None)
            if u is None:
                null += 1
                t += 1
                continue
            if u != t + 1:
                _upper_swap(s, t, u)
        d = 0
        if t + 1 < n:
            row_p = s[t + 1]
            b, c = row_t[t + 1], row_p[t + 1]
            d = a * c - b * b
        if d:
            q = d // prev
            neg += ((a > 0) != (prev > 0)) + ((q > 0) != (a > 0))
            prev2 = prev * prev
            for i in range(t + 2, n):
                row_i = s[i]
                x, y = row_t[i], row_p[i]
                alpha, beta = c * x - b * y, a * y - b * x
                for j in range(i, n):
                    row_i[j] = (d * row_i[j] - alpha * row_t[j] - beta * row_p[j]) // prev2
            prev = q
            t += 2
        else:
            neg += (a > 0) != (prev > 0)
            for i in range(t + 1, n):
                row_i = s[i]
                sit = row_t[i]
                for j in range(i, n):
                    row_i[j] = (row_i[j] * a - sit * row_t[j]) // prev
            prev = a
            t += 1
    return (n - neg - null, neg, null), 0 if null else prev


def _upper_swap(s, t, u):
    """Swap indices t + 1 < u of the block from t on (upper triangle), row t's two entries too."""
    row_t, row_p, row_u = s[t], s[t + 1], s[u]
    row_t[t + 1], row_t[u] = row_t[u], row_t[t + 1]
    row_p[t + 1], row_u[u] = row_u[u], row_p[t + 1]
    for k in range(t + 2, u):
        row_k = s[k]
        row_p[k], row_k[u] = row_k[u], row_p[k]
    row_p[u + 1 :], row_u[u + 1 :] = row_u[u + 1 :], row_p[u + 1 :]
