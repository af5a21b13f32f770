"""Small dense linear algebra over exact rationals or floats.

Everything works on plain lists of lists.  Matrices without a float are
eliminated exactly (pivot threshold 0, whatever epsilon the caller
passes); as soon as a float appears the caller-supplied epsilon (or the
global default) decides what counts as zero.  Sizes here are tiny
(n <= 12), so no attempt is made to be fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .core import DimensionError, SingularMatrixError, default_eps, scalar_is_zero


def _has_float(mat) -> bool:
    return any(isinstance(x, float) for row in mat for x in row)


def _exact(x):
    """An int pivot as a Fraction, so dividing by it keeps ints exact."""
    return x if isinstance(x, float) else Fraction(x)


def _resolve_eps(mat, eps: Optional[float]) -> float:
    if not _has_float(mat):
        return 0.0
    return default_eps() if eps is None else eps


def square_matrix(mat, n: int) -> list:
    """The rows of ``mat`` as lists, or DimensionError unless it is n x n."""
    rows = [list(r) for r in mat]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionError(f"the map must be a {n}x{n} matrix")
    return rows


def identity_matrix(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def matvec(mat, vec):
    return [sum(m * v for m, v in zip(row, vec)) for row in mat]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rref(mat, eps: Optional[float] = None) -> Tuple[list, List[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in mat]
    if not rows:
        return rows, []
    eps = _resolve_eps(rows, eps)
    m, n = len(rows), len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(n):
        best, best_row = eps, None
        for rr in range(r, m):
            a = abs(rows[rr][c])
            if a > best:
                best, best_row = a, rr
        if best_row is None:
            continue
        rows[r], rows[best_row] = rows[best_row], rows[r]
        pv = _exact(rows[r][c])
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(m):
            if rr != r and not scalar_is_zero(rows[rr][c], eps):
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(mat, eps: Optional[float] = None) -> int:
    return len(rref(mat, eps)[1])


def null_space(mat, eps: Optional[float] = None) -> list:
    """Basis of {x : mat @ x = 0} as a list of coordinate vectors."""
    if not mat:
        return []
    n = len(mat[0])
    rows, pivots = rref(mat, eps)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][f]
        basis.append(v)
    return basis


def det(mat, eps: Optional[float] = None):
    a = [list(r) for r in mat]
    n = len(a)
    if n == 0:
        return Fraction(1)
    eps = _resolve_eps(a, eps)
    sign = 1
    for c in range(n):
        best, best_row = eps, None
        for r in range(c, n):
            v = abs(a[r][c])
            if v > best:
                best, best_row = v, r
        if best_row is None:
            return a[0][0] * 0  # typed zero
        if best_row != c:
            a[c], a[best_row] = a[best_row], a[c]
            sign = -sign
        pv = _exact(a[c][c])
        for r in range(c + 1, n):
            if not scalar_is_zero(a[r][c], eps):
                f = a[r][c] / pv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = a[0][0]
    for i in range(1, n):
        out = out * a[i][i]
    return sign * out


def inverse(mat, eps: Optional[float] = None):
    n = len(mat)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug, eps)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def row_basis(rows, eps: Optional[float] = None) -> list:
    """Independent spanning subset, in reduced form."""
    if not rows:
        return []
    reduced, pivots = rref(rows, eps)
    return [reduced[i] for i in range(len(pivots))]


def in_span(basis_rows, vec, eps: Optional[float] = None) -> bool:
    rows = list(basis_rows)
    return rank(rows + [list(vec)], eps) == rank(rows, eps)
