"""Reference answers the benchmark computes itself, never through altkit.

Laws are evaluated on the structure-constant tensor with numpy.  Exact
tables are scaled to integers by the lcm of their denominators, so every
zero test is exact; float tables are compared against the table's eps.
The quadratic laws are decided by polarization: over characteristic 0,
(x, x, z) = 0 for all x, z iff (e_i, e_j, e_k) + (e_j, e_i, e_k) = 0 on all
basis triples, and likewise for the right-alternative and flexible laws.
Single products (witnesses, unit points) are evaluated from the tensor
with Fractions when every input is rational, and in float64 otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

import numpy as np

# The hand-written outcome of `altkit verify-paper`: 24 claims pass and
# lie.case-witnesses fails on purpose (for beta < 0 the Killing form is
# indefinite, so no real basis change reaches the compact canonical table).
PAPER_EXPECTED = {
    "ak.dimension": True,
    "ak.partially-alternative": True,
    "ak.not-left-alternative": True,
    "ak.units-complete": True,
    "cassoc.slice-three-sided": True,
    "cassoc.slice-not-alternative": True,
    "middle.counterexample": True,
    "locus.hyperboloid": True,
    "locus.planes": True,
    "locus.sphere": True,
    "locus.newton-scalar-part": True,
    "locus.sampled-on-quadric": True,
    "classify.positive": True,
    "classify.zero": True,
    "classify.negative": True,
    "classify.targets-associative": True,
    "strict.commutative-partial-alternative": True,
    "reflection.split": True,
    "lie.jacobi-random": True,
    "lie.case-types": True,
    "lie.case-witnesses": False,
    "lie.derived-series": True,
    "props.bilinearity": True,
    "props.implications": True,
    "props.scale-invariance": True,
}

# Residual allowed on a float unit point, relative to |q|^2: the program
# accepts |q*q + 1| <= tol in its own summation order, this one sums in
# another order.
_FLOAT_SLACK = 64 * np.finfo(float).eps

LIE_G1_G35 = "g1_plus_g35"
LIE_G1_G37 = "g1_plus_g37"
LIE_G49_ZERO = "g49_zero"
LIE_UNRECOGNIZED = "unrecognized"


def _is_rational(values: Iterable) -> bool:
    return all(not isinstance(v, float) for v in values)


def _lcm_of_denominators(values: Iterable[Fraction]) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return scale


def _row_basis(rows: List[list], exact: bool, tol: float) -> List[list]:
    """Independent rows of a row-reduced copy (Gaussian elimination)."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    for c in range(ncols):
        pivot = None
        best = 0 if exact else tol
        for r, row in enumerate(rows):
            if abs(row[c]) > best:
                best, pivot = abs(row[c]), r
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        prow = [x / prow[c] for x in prow]
        rows = [[x - row[c] * y for x, y in zip(row, prow)] for row in rows]
        out.append(prow)
    return out


def _sparse_rows(F) -> list:
    """rows[i][j] = ((k, c), ...) over the nonzero entries of F[i, j]."""
    n = F.shape[0]
    return [[tuple((k, F[i, j, k]) for k in range(n) if F[i, j, k] != 0)
             for j in range(n)] for i in range(n)]


def _sparse_product(rows, n: int, u: Sequence, v: Sequence) -> list:
    """sum_ij u_i v_j e_i e_j with Fractions, skipping zero coordinates."""
    out = [Fraction(0)] * n
    nz_v = [(j, Fraction(b)) for j, b in enumerate(v) if b != 0]
    for i, a in enumerate(u):
        if a == 0:
            continue
        a = Fraction(a)
        row = rows[i]
        for j, b in nz_v:
            coeff = a * b
            for k, c in row[j]:
                out[k] += coeff * c
    return out


def _memo(method):
    """Cache a RefTable answer per arguments: the reference answers do not
    change from pass to pass."""
    def cached(self, *args):
        key = (method.__name__, repr(args))
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    cached.__name__ = method.__name__
    cached.__doc__ = method.__doc__
    return cached


class RefTable:
    """One structure-constant table, evaluated independently of altkit."""

    def __init__(self, sc, unit: Sequence, eps: float):
        flat = [c for row in sc for cell in row for c in cell]
        self.n = len(sc)
        self.eps = eps
        self.exact = _is_rational(flat)
        if self.exact:
            frac = np.array(sc, dtype=object)
            frac = np.vectorize(Fraction, otypes=[object])(frac)
            scale = _lcm_of_denominators(frac.flat)
            ints = frac * scale
            big = max(abs(int(v)) for v in ints.flat)
            # T sums n products of two scaled entries; stay inside int64
            dtype = np.int64 if self.n * big * big * 4 < 2**62 else object
            self.S = np.array([[[int(v) for v in cell] for cell in row]
                               for row in ints], dtype=dtype)
            self.F = frac
            self.scale = scale
        else:
            self.S = np.array(sc, dtype=float)
            self.F = self.S
            self.scale = 1
        self.Ff = np.array(self.F, dtype=float)
        self._sparse = _sparse_rows(self.F) if self.exact else None
        self.one = list(unit)
        self._memo = {}
        S = self.S
        self.T = (np.einsum("ijm,mkl->ijkl", S, S)
                  - np.einsum("jkm,iml->ijkl", S, S))

    # -- zero tests --------------------------------------------------------------

    def _zero(self, arr) -> bool:
        if self.exact:
            return not np.any(arr != 0)
        return bool(np.all(np.abs(arr) <= self.eps))

    def vec_zero(self, v, tol: Optional[float] = None) -> bool:
        if _is_rational(v):
            return all(x == 0 for x in v)
        tol = self.eps if tol is None else tol
        return max(abs(float(x)) for x in v) <= tol

    def vec_close(self, got, want) -> bool:
        if _is_rational(got) and _is_rational(want):
            return list(got) == list(want)
        return all(abs(float(g) - float(w)) <= 1e-9 * (1 + abs(float(w)))
                   for g, w in zip(got, want))

    # -- laws on basis tuples ----------------------------------------------------

    def _scaled(self, coords) -> np.ndarray:
        if self.exact and _is_rational(coords):
            fr = [Fraction(c) for c in coords]
            s = _lcm_of_denominators(fr)
            return np.array([int(c * s) for c in fr], dtype=self.S.dtype)
        return np.array([float(c) for c in coords])

    @_memo
    def law_holds(self, kind: str, c_span: Optional[Sequence] = None) -> bool:
        T, S = self.T, self.S
        if kind == "associative":
            return self._zero(T)
        if kind == "commutative":
            return self._zero(S - S.transpose(1, 0, 2))
        if kind == "left-alt":
            return self._zero(T + T.transpose(1, 0, 2, 3))
        if kind == "right-alt":
            return self._zero(T + T.transpose(0, 2, 1, 3))
        if kind == "flexible":
            return self._zero(T + T.transpose(2, 1, 0, 3))
        pattern = {"left-c-assoc": "a,ajkl->jkl",
                   "middle-c-assoc": "a,iakl->ikl",
                   "right-c-assoc": "a,ijal->ijl"}[kind]
        return all(self._zero(np.einsum(pattern, self._scaled(c), T))
                   for c in c_span)

    # -- single products ---------------------------------------------------------

    def mul(self, u: Sequence, v: Sequence) -> list:
        if self.exact and _is_rational(u) and _is_rational(v):
            return _sparse_product(self._sparse, self.n, u, v)
        uu = np.array([float(x) for x in u])
        vv = np.array([float(x) for x in v])
        return [float(x) for x in np.einsum("i,j,ijk->k", uu, vv, self.Ff)]

    def assoc(self, x, y, z) -> list:
        left = self.mul(self.mul(x, y), z)
        right = self.mul(x, self.mul(y, z))
        return [a - b for a, b in zip(left, right)]

    def partial_law_holds(self, kind: str, points: Sequence[Sequence]) -> bool:
        """(q, q, e_j), (q, e_j, q) or (e_j, q, q) over the given points."""
        for q in points:
            for j in range(self.n):
                e = [0] * self.n
                e[j] = 1
                triple = {"partial-left-alt": (q, q, e),
                          "partial-flexible": (q, e, q),
                          "partial-right-alt": (e, q, q)}[kind]
                if not self.vec_zero(self.assoc(*triple)):
                    return False
        return True

    def unit_residual_ok(self, q: Sequence, tol: Optional[float] = None) -> bool:
        sq = self.mul(q, q)
        res = [a + b for a, b in zip(sq, self.one)]
        if _is_rational(q):
            return all(x == 0 for x in res)
        tol = self.eps if tol is None else tol
        size = sum(float(x) ** 2 for x in q)
        return max(abs(x) for x in res) <= tol + _FLOAT_SLACK * self.n * (1 + size)

    def witness_ok(self, kind: str, x, y, z, defect) -> bool:
        """The witness has the shape of the law and its defect is real."""
        if kind == "commutative":
            got = [a - b for a, b in zip(self.mul(x, y), self.mul(y, x))]
        else:
            shape_ok = {"left-alt": x == y, "partial-left-alt": x == y,
                        "right-alt": y == z, "partial-right-alt": y == z,
                        "flexible": x == z, "partial-flexible": x == z}
            if not shape_ok.get(kind, True):
                return False
            got = self.assoc(x, y, z)
        return self.vec_close(got, defect) and not self.vec_zero(got)

    # -- operators, nucleus, division -------------------------------------------

    def _matrix_rank(self, rows: List[list], exact: bool) -> int:
        if not exact:
            return int(np.linalg.matrix_rank(np.array(rows, dtype=float),
                                              tol=self.eps))
        return len(_row_basis([[Fraction(x) for x in r] for r in rows], True, 0.0))

    def operator_singular(self, a: Sequence) -> bool:
        """Whether left or right multiplication by a is singular."""
        exact = self.exact and _is_rational(a)
        F = self.F if exact else self.Ff
        aa = np.array([Fraction(x) for x in a] if exact else [float(x) for x in a],
                      dtype=object if exact else float)
        for pattern in ("i,ijk->kj", "j,ijk->ki"):
            mat = np.einsum(pattern, aa, F)
            if exact:
                if self._matrix_rank(mat.tolist(), True) < self.n:
                    return True
            else:
                sv = np.linalg.svd(mat, compute_uv=False)
                if sv[-1] <= 1e-8 * max(1.0, sv[0]):
                    return True
        return False

    def basis_zero_divisor(self) -> bool:
        """A zero divisor among basis vectors and sums of two of them."""
        n = self.n
        cands = []
        for i in range(n):
            cands.append([1 if p == i else 0 for p in range(n)])
        for i in range(n):
            for j in range(i + 1, n):
                cands.append([1 if p in (i, j) else 0 for p in range(n)])
        return any(self.operator_singular(a) for a in cands)

    @_memo
    def nucleus_dim(self) -> int:
        n = self.n
        comm = self.S - self.S.transpose(1, 0, 2)
        rows = [list(comm[i, :, k]) for i in range(n) for k in range(n)]
        rows = [r for r in {tuple(r) for r in rows} if any(r)]
        return n - (self._matrix_rank(rows, self.exact) if rows else 0)

    def nucleus_ok(self, basis: List[Sequence]) -> bool:
        """The returned vectors commute with everything, are independent and
        span the whole commutative nucleus."""
        if len(basis) != self.nucleus_dim():
            return False
        comm = self.S - self.S.transpose(1, 0, 2)
        for x in basis:
            # x e_j - e_j x = sum_i x_i (S[i,j,:] - S[j,i,:])
            if not self._zero(np.einsum("i,ijk->jk", self._scaled(x), comm)):
                return False
        exact = self.exact and all(_is_rational(b) for b in basis)
        return not basis or self._matrix_rank([list(b) for b in basis], exact) == len(basis)

    # -- commutator Lie algebra ---------------------------------------------------

    def lie_ok(self, brackets, jacobi_ok: bool, series: List[list],
               type_tag: str, witness_verified) -> bool:
        B, want_jacobi, want_dims, (want_tag, want_verified) = self._lie_reference()
        got = np.array(brackets, dtype=object if self.exact else float)
        if self.exact:
            if not np.all(got == B):
                return False
        elif not np.allclose(got, B, rtol=0, atol=self.eps):
            return False
        if jacobi_ok != want_jacobi or [len(b) for b in series] != want_dims:
            return False
        if type_tag != want_tag:
            return False
        return want_tag == LIE_UNRECOGNIZED or witness_verified == want_verified

    @_memo
    def _lie_reference(self):
        """(brackets, Jacobi holds, derived dimensions, (type, witness ok))."""
        B = self.F - self.F.transpose(1, 0, 2) if self.exact else \
            self.Ff - self.Ff.transpose(1, 0, 2)
        BS = self.S - self.S.transpose(1, 0, 2)
        jac = (np.einsum("jkm,iml->ijkl", BS, BS)
               + np.einsum("kim,jml->ijkl", BS, BS)
               + np.einsum("ijm,kml->ijkl", BS, BS))
        return B, self._zero(jac), self._derived_dims(B), self._lie_type(B)

    def _derived_dims(self, B) -> List[int]:
        n = self.n
        if self.exact:
            rows = _sparse_rows(B)
            bracket = lambda u, v: _sparse_product(rows, n, u, v)  # noqa: E731
        else:
            bracket = lambda u, v: list(np.einsum("i,j,ijk->k", np.array(u),  # noqa: E731
                                                  np.array(v), B))
        current = [[Fraction(int(p == i)) if self.exact else float(p == i)
                    for p in range(n)] for i in range(n)]
        dims = [n]
        while True:
            prods = [bracket(u, v) for a, u in enumerate(current)
                     for v in current[a + 1:]]
            nxt = _row_basis(prods, self.exact, self.eps) if prods else []
            dims.append(len(nxt))
            if not nxt or len(nxt) == len(current):
                return dims
            current = nxt

    def _lie_type(self, B):
        """Type of a reflection-shaped bracket table on (1, i, w, v)."""
        if self.n != 4:
            return LIE_UNRECOGNIZED, None

        def is_(vec, want):
            return all((x == w) if self.exact else abs(x - w) <= self.eps
                       for x, w in zip(vec, want))

        if not all(is_(B[0, j], [0, 0, 0, 0]) for j in range(4)):
            return LIE_UNRECOGNIZED, None
        if not (is_(B[1, 2], [0, 0, 0, -2]) and is_(B[1, 3], [0, 0, 2, 0])
                and is_(B[3, 2][2:], [0, 0])):
            return LIE_UNRECOGNIZED, None
        alpha, beta = B[3, 2][0], B[3, 2][1]
        zero_a = is_([alpha], [0])
        zero_b = is_([beta], [0])
        if zero_b:
            return (LIE_G1_G35 if zero_a else LIE_G49_ZERO), True
        return LIE_G1_G37, bool(beta > 0)


def grid_reference(ref: RefTable, radius, step: Fraction) -> set:
    """Every grid point of [-radius, radius]^n solving q*q = -1, by brute
    force in integer arithmetic over the whole grid."""
    n = ref.n
    m = int(Fraction(radius) / step)
    p, q = step.numerator, step.denominator
    # q*q + 1 = 0 at x = idx * p/q  <=>  sum idx_i idx_j S p^2 + one * q^2 * scale = 0
    S = np.array(ref.S, dtype=np.int64) * (p * p)
    one = np.array([int(Fraction(c) * ref.scale * q * q) for c in ref.one], dtype=np.int64)
    axis = np.arange(-m, m + 1, dtype=np.int64)
    rest = np.array(np.meshgrid(*([axis] * (n - 1)), indexing="ij")).reshape(n - 1, -1).T
    found = set()
    for first in axis:
        X = np.concatenate([np.full((len(rest), 1), first, dtype=np.int64), rest], axis=1)
        res = np.einsum("ni,nj,ijk->nk", X, X, S) + one
        for row in X[~np.any(res != 0, axis=1)]:
            found.add(tuple(Fraction(int(v)) * step for v in row))
    return found
