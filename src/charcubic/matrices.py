"""Exact matrices over the rationals, Smith normal form, and cokernels.

The Smith normal form follows the classic integer row/column reduction with the
pivot chosen as the smallest nonzero entry in absolute value; transforms are
accumulated so that U * A * V = D with U, V unimodular and the diagonal of D
a non-negative divisibility chain d1 | d2 | ... .

Entries are Python ints or Fractions (admitted by `univariate._exact`, which
reads a float exactly), rows are tuples, and matrices are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .univariate import _exact


class Matrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rs = tuple(tuple(_exact(e) for e in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix needs at least one row and one column")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise ValueError("ragged rows")
        self.rows = rs

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int, m: int) -> "Matrix":
        return cls([[0] * m for _ in range(n)])

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None

    def __add__(self, other):
        self._shape_check(other)
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.rows])

    def _shape_check(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Matrix([[a * other for a in row] for row in self.rows])
        if not isinstance(other, Matrix):
            return NotImplemented
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("inner dimensions differ: %s vs %s" % (self.shape, other.shape))
        cols = list(zip(*other.rows))
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.rows])

    __rmul__ = __mul__  # scalars commute with entries

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.rows for e in row)

    def is_symmetric(self) -> bool:
        n, m = self.shape
        return n == m and all(self.rows[i][j] == self.rows[j][i]
                              for i in range(n) for j in range(i))

    def det(self):
        """Exact determinant by Gaussian elimination over Fractions."""
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        a = [[Fraction(e) for e in row] for row in self.rows]
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return int(det) if det.denominator == 1 else det

    def trace(self):
        n, m = self.shape
        if n != m:
            raise ValueError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(n))

    def to_lists(self) -> list:
        return [list(r) for r in self.rows]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return "Matrix(%s)" % self.to_lists()


class SnfResult(NamedTuple):
    d: Matrix
    u: Matrix
    v: Matrix


def smith_normal_form(m: Matrix) -> SnfResult:
    """Smith normal form of an integer matrix.

    Returns (D, U, V) with U*m*V = D, U and V unimodular, D diagonal with
    non-negative entries forming a divisibility chain.
    """
    if not m.is_integral():
        raise ValueError("Smith normal form needs integer entries")
    a = [[int(e) for e in row] for row in m.rows]
    n = len(a)
    w = len(a[0])
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(w)] for i in range(w)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(n):
            a[r][i] -= q * a[r][j]
        for r in range(w):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(w):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(min(n, w)):
        while True:
            # pivot: smallest nonzero absolute value in the trailing block
            best = None
            for i in range(t, n):
                for j in range(t, w):
                    e = a[i][j]
                    if e and (best is None or abs(e) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (t, t):
                if best[0] != t:
                    swap_rows(t, best[0])
                if best[1] != t:
                    swap_cols(t, best[1])
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_op(i, t, a[i][t] // p)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, w):
                if a[t][j]:
                    col_op(j, t, a[t][j] // p)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            stained = None
            for i in range(t + 1, n):
                for j in range(t + 1, w):
                    if a[i][j] % p:
                        stained = i
                        break
                if stained is not None:
                    break
            if stained is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[stained])]
            u[t] = [x + y for x, y in zip(u[t], u[stained])]
        if t < min(n, w) and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    d, um, vm = Matrix(a), Matrix(u), Matrix(v)
    # internal sanity: the transforms really are unimodular and consistent
    if abs(um.det()) != 1 or abs(vm.det()) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    if um * m * vm != d:
        raise ArithmeticError("Smith normal form transforms do not give U*A*V = D")
    return SnfResult(d, um, vm)


def diagonal_of(m: Matrix) -> list:
    n, w = m.shape
    return [m.rows[i][i] for i in range(min(n, w))]


def cokernel(m: Matrix) -> tuple:
    """Cokernel of an integer matrix acting on column vectors: Z^rows / im(m).

    Returns (free_rank, torsion) with torsion the invariant factors > 1 in
    divisibility order.
    """
    return _snf_cokernel(smith_normal_form(m).d)


def _snf_cokernel(d: Matrix) -> tuple:
    """cokernel of a matrix from the diagonal factor d of its Smith form."""
    diag = diagonal_of(d)
    rank = sum(1 for e in diag if e)
    torsion = tuple(e for e in diag if e > 1)
    return (d.shape[0] - rank, torsion)


def char_poly(m: Matrix) -> list:
    """Characteristic polynomial det(xI - m) by Faddeev-LeVerrier.

    Returned as an ascending coefficient list, monic of degree n.
    """
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    acc = Matrix.identity(n)
    for k in range(1, n + 1):
        acc = m * acc
        c = Fraction(-acc.trace(), k)
        coeffs[n - k] = c
        if k < n:
            acc = acc + Matrix.identity(n) * c
    return coeffs
