"""Small dense linear algebra over exact rationals or floats.

Everything works on plain lists of lists.  Matrices without a float are
eliminated exactly (pivot threshold 0, whatever epsilon the caller
passes); as soon as a float appears the caller-supplied epsilon (or the
global default) decides what counts as zero.  Matrices are small (n <= 22
in the catalog, `ak(10)`), and one at a time they go through plain Python
loops.  Span membership has no routine of its own: callers eliminate the
columns [basis | vectors] with `rref` once and read the pivots.  Two
routines take a whole stack of them at once, for the division test:
`dets`, `det` on floats vectorised bit for bit, and `nonsingular_mod`,
which decides a determinant's zeroness modulo the prime `core.MODULUS`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .core import MODULUS, DimensionError, scalar_is_zero, tolerance


def _has_float(mat) -> bool:
    return any(isinstance(x, float) for row in mat for x in row)


def _exact(x):
    """An int pivot as a Fraction, so dividing by it keeps ints exact."""
    return x if isinstance(x, float) else Fraction(x)


def _resolve_eps(mat, eps: Optional[float]) -> float:
    eps = tolerance(eps)
    return eps if _has_float(mat) else 0.0


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


def dets(mats, eps: float) -> np.ndarray:
    """`det` at eps of every float matrix in the stack mats[..., n, n], bit
    for bit: the same pivots (the first largest |x| > eps in the column),
    the same row swaps, the same ``x - f*y`` updates of the rows below with
    |x| > eps, and the diagonal multiplied in the same order."""
    eps = tolerance(eps)
    a = np.array(mats, dtype=float)
    shape, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    sign = np.ones(len(a))
    alive = np.ones(len(a), dtype=bool)  # False once a column has no pivot
    for c in range(n):
        col = np.abs(a[:, c:, c])
        alive &= col.max(axis=1) > eps
        best = np.where(alive, c + np.argmax(col, axis=1), c)
        sign[best != c] *= -1
        _swap_rows(a, c, best)
        if c == 0:
            zero = a[:, 0, 0] * 0  # det's typed zero, as a[0][0] * 0
        pivot = np.where(alive, a[:, c, c], 1.0)
        below = a[:, c + 1:, c:]
        x = below[:, :, :1]
        hit = (np.abs(x) > eps) & alive[:, None, None]
        step = below - (x / pivot[:, None, None]) * a[:, c, None, c:]
        a[:, c + 1:, c:] = np.where(hit, step, below)
    out = a[:, 0, 0]
    for i in range(1, n):
        out = out * a[:, i, i]
    return np.where(alive, sign * out, zero).reshape(shape)


def _swap_rows(a: np.ndarray, c: int, best: np.ndarray) -> None:
    """Swap row c of each matrix a[m] with its row best[m], in place."""
    idx = np.arange(len(a))
    top = a[idx, best]
    a[idx, best] = a[:, c]
    a[:, c] = top


def nonsingular_mod(mats) -> np.ndarray:
    """Which integer matrices in the stack mats[..., n, n], entries in
    [0, MODULUS), have a determinant nonzero modulo the prime MODULUS.
    Fraction-free elimination: each row below the pivot row becomes
    pivot * row - row[c] * pivot row, which multiplies the determinant by
    a unit modulo the prime, so no inverse is needed and every product is
    below 2**52."""
    a = np.array(mats, dtype=np.int64)
    shape, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    alive = np.ones(len(a), dtype=bool)
    for c in range(n):
        nonzero = a[:, c:, c] != 0
        alive &= nonzero.any(axis=1)
        _swap_rows(a, c, c + np.argmax(nonzero, axis=1))
        below = a[:, c + 1:, c:]
        a[:, c + 1:, c:] = (below * a[:, c, c, None, None]
                            - below[:, :, :1] * a[:, c, None, c:]) % MODULUS
    return alive.reshape(shape)


def row_basis(rows, eps: Optional[float] = None) -> list:
    """Independent spanning subset, in reduced form."""
    if not rows:
        return []
    reduced, pivots = rref(rows, eps)
    return [reduced[i] for i in range(len(pivots))]

