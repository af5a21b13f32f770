"""Commutator Lie algebras and their classification for the canonical
reflection table.

Antisymmetrising a structure-constant tensor gives the bracket tensor of
[x, y] = xy - yx.  For the reflection table on basis (1, i, w, v) the
brackets are [i, w] = -2v, [i, v] = 2w and [v, w] = alpha*1 + beta*i, and
the isomorphism type is decided by (alpha, beta):

    alpha = 0, beta != 0  ->  g1 (+) g3_7   (compact rotation type)
    alpha = beta = 0      ->  g1 (+) g3_5   (solvable, parameter 0)
    alpha != 0, beta != 0 ->  g1 (+) g3_7
    alpha != 0, beta = 0  ->  g4_9 with zero parameter (solvable)

The reflection shape is stated once, as the data of `catalog.tp`:
`tp_lie_algebra` is `lieify` of a tp table, and `_read_alpha_beta` tests a
table against the cube of its brackets at alpha = beta = 0.  The three
canonical tables of Patera, Sharp, Winternitz and Zassenhaus (J. Math.
Phys. 17, 1976) are data too, (i, j, k, c) entries through
`core.table_cube`.  The g3_5 parameter is the real part of the eigenvalue
pair of ad(i) on span{v, w} over its imaginary part; on the shape that
matrix is [[0, -2], [2, 0]], with trace 0, so the parameter is 0.

The bracket cube is read off the table's cube: `lieify` forms S - S^T
over its first two axes, and `check_jacobi` gets every Jacobi sum from
one product of the nonzero bracket rows with the cube.

Each verdict ships an explicit change-of-basis witness whose transported
brackets are checked against the canonical table by `core.morphism_defect`;
the result is reported, never assumed.  Each case's witness is invertible
by construction, so preserving the basis-pair brackets makes it an
isomorphism, by bilinearity.  For beta < 0 the scaling follows the
case split above but cannot validate: the Killing form of span{i, v, w}
is diag(-8, -4*beta, -4*beta), indefinite for beta < 0, so the algebra is
the noncompact sl(2, R) type and no real basis change reaches the compact
canonical table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import catalog, linalg
from .core import (
    Algebra,
    AlgebraError,
    ParameterError,
    first_defect,
    morphism_defect,
    nonzero_entries,
    parse_scalar,
    scalar_is_zero,
    scalar_to_json,
    sqrt_scalar,
    table_cube,
    tolerance,
)

TYPE_G1_G35 = "g1_plus_g35"
TYPE_G1_G37 = "g1_plus_g37"
TYPE_G49_ZERO = "g49_zero"
TYPE_UNRECOGNIZED = "unrecognized"


class LieAlgebra(Algebra):
    """Brackets b[i][j][k] with [e_i, e_j] = sum_k b[i][j][k] e_k: an
    Algebra without a unit whose product is the bracket."""

    def __init__(self, brackets, labels: Optional[Sequence[str]] = None,
                 eps: Optional[float] = None):
        super().__init__(brackets, labels=labels, eps=eps)
        S = self.cube
        bad = first_defect((S + S.swapaxes(0, 1))[..., None], self.eps)
        if bad is not None:
            raise AlgebraError(f"brackets are not antisymmetric at {bad}")

    @property
    def brackets(self):
        return self.sc

    def to_dict(self) -> dict:
        data = super().to_dict()
        return {"dim": data["dim"], "labels": data["labels"], "brackets": data["sc"]}


def lieify(A: Algebra) -> LieAlgebra:
    """Commutator Lie structure: b[i][j][k] = sc[i][j][k] - sc[j][i][k],
    read off the cube as D = S - S^T over its first two axes.  A float
    table's D is its brackets, IEEE differences with the sign of zero; an
    exact table's is its brackets times its scale s, whose nonzero entries
    over s go to `table_cube`."""
    S = A.cube
    D, scale = S - S.swapaxes(0, 1), 1
    if A.scalar_mode == "exact":
        index, values = nonzero_entries(D)
        D, scale = table_cube(A.dim, index, [Fraction(c, A._scale) for c in values])
    return LieAlgebra._built(D, scale, A.labels, A.eps)


def check_jacobi(L: LieAlgebra, tol: Optional[float] = None):
    """Exhaustive Jacobi test on basis triples (a proof, by trilinearity).

    One product of the nonzero bracket rows of the cube S with S gives
    T[a, b, c] = [e_c, [e_a, e_b]], and the Jacobi sums [e_i, [e_j, e_k]] +
    [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] = T[j, k, i] + T[k, i, j] +
    T[i, j, k] over i < j < k are tested at tol.  Returns (ok, witness)
    where witness is the first failing i < j < k with the Jacobi sum's
    coordinates.
    """
    tol = tolerance(tol, L.eps)
    S, n = L.cube, L.dim
    flat = S.reshape(n * n, n)
    pairs = np.flatnonzero(np.any(flat != 0, axis=1))  # the nonzero [e_a, e_b]
    if len(pairs) == 0:
        return True, None
    T = np.zeros((n * n, n * n), dtype=S.dtype)
    T[pairs] = flat[pairs] @ S.swapaxes(0, 1).reshape(n, n * n)
    T = T.reshape((n,) * 4)
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    hit = first_defect(T[j, k, i] + T[k, i, j] + T[i, j, k], tol)
    if hit is None:
        return True, None
    i, j, k = (int(p[hit[0]]) for p in (i, j, k))
    x, y, z = (L.basis(p) for p in (i, j, k))
    jacobi = x * (y * z) + y * (z * x) + z * (x * y)
    return False, (i, j, k, list(jacobi.coords))


def derived_series(L: LieAlgebra, eps: Optional[float] = None) -> List[list]:
    """Bases of L, [L, L], [[L, L], [L, L]], ... until 0 or stabilisation,
    each in reduced row form.  [L, L] is spanned by the cube's rows (i, j)
    (i < j), positive multiples of the brackets of the basis vectors, of
    which those up to the last nonzero one are eliminated: float
    elimination breaks pivot ties by row position, so the zero rows before
    it stay, and an exact reduced row form is the same whatever zero rows
    it is given.  Each deeper term is spanned by the brackets of every two
    rows of the term before, through `multiply`."""
    n = L.dim
    eps = tolerance(eps, L.eps)
    current = [[Fraction(1) if p == i else Fraction(0) for p in range(n)]
               for i in range(n)]
    series = [current]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    last = max((r for r, (i, j) in enumerate(pairs) if L._rows[i][j]), default=-1)
    prods = [L.cube[i, j].tolist() for i, j in pairs[:last + 1]]
    while True:
        nxt = linalg.row_basis(prods, eps) if prods else []
        series.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(current):
            return series
        current = nxt
        rows = [L.element(u) for u in current]
        prods = [(x * y).coords for a, x in enumerate(rows) for y in rows[a + 1:]]


def derived_dims(L: LieAlgebra, eps: Optional[float] = None) -> List[int]:
    return [len(basis) for basis in derived_series(L, eps)]


@dataclass(frozen=True)
class LieClassification:
    type_tag: str
    parameter: Optional[Fraction]
    alpha_beta: tuple
    witness: Optional[tuple]  # columns = canonical basis vectors in source coords
    witness_verified: Optional[bool]
    derived: tuple

    def to_dict(self) -> dict:
        return {
            "type": self.type_tag,
            "parameter": None if self.parameter is None else scalar_to_json(self.parameter),
            "alpha": scalar_to_json(self.alpha_beta[0]),
            "beta": scalar_to_json(self.alpha_beta[1]),
            "witness": None if self.witness is None else
            [[scalar_to_json(x) for x in row] for row in self.witness],
            "witness_verified": self.witness_verified,
            "derived_dims": list(self.derived),
        }


def _lie_table(entries) -> LieAlgebra:
    """The 4-dimensional brackets with [e_i, e_j] = sum c e_k over the
    entries (i, j, k, c) and [e_j, e_i] = -[e_i, e_j]: the commutator
    brackets of the table holding each entry once."""
    i, j, k, c = zip(*entries)
    cube, scale = table_cube(4, tuple(np.array(a, dtype=np.intp) for a in (i, j, k)), c)
    return lieify(Algebra._built(cube, scale, ("e0", "e1", "e2", "e3"), tolerance(None)))


# The zero-parameter canonical types; in the decomposable ones the first
# three basis vectors carry the 3-dimensional part and e4 spans the centre.
_CANONICAL = {tag: _lie_table(entries) for tag, entries in (
    # [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2
    (TYPE_G1_G37, ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1))),
    # [e1, e3] = -e2, [e2, e3] = e1
    (TYPE_G1_G35, ((0, 2, 1, -1), (1, 2, 0, 1))),
    # [e2, e3] = e1, [e2, e4] = -e3, [e3, e4] = e2
    (TYPE_G49_ZERO, ((1, 2, 0, 1), (1, 3, 2, -1), (2, 3, 1, 1))),
)}


def canonical_brackets(type_tag: str):
    """Bracket tensor of a named 4-dimensional type."""
    if type_tag not in _CANONICAL:
        raise ParameterError(f"no canonical table for type {type_tag!r}")
    return _CANONICAL[type_tag].brackets


def tp_lie_algebra(alpha, beta) -> LieAlgebra:
    """The commutator brackets of the reflection table on (1, i, w, v) with
    v*w = alpha + beta i and w*v = 0: [v, w] = alpha + beta i."""
    return lieify(catalog.tp(delta1=alpha, delta2=beta))


_TP_W, _TP_V = 2, 3  # positions in the (1, i, w, v) basis
# the shape at alpha = beta = 0, and its cells (i, j) with i < j
_SHAPE = tp_lie_algebra(0, 0).cube
_UPPER = np.triu(np.ones((4, 4), dtype=bool), 1)


def _read_alpha_beta(L: LieAlgebra, eps: float):
    """(alpha, beta) read off [v, w], when every bracket [e_i, e_j] with
    i < j is within eps of the reflection shape's at that (alpha, beta):
    L's cube against `_SHAPE` times L's scale (in Python ints, so any
    scale), and [w, v] against -[v, w] on the 1 and i coordinates.  None
    otherwise."""
    if L.dim != 4:
        return None
    S, exact = L.cube, L.scalar_mode == "exact"
    D = S - (_SHAPE.astype(object) * L._scale if exact else _SHAPE)
    D[_TP_W, _TP_V, :2] = S[_TP_W, _TP_V, :2] + S[_TP_V, _TP_W, :2]
    if first_defect(D[_UPPER], eps) is not None:
        return None
    ab = S[_TP_V, _TP_W, :2].tolist()
    return tuple(Fraction(c, L._scale) for c in ab) if exact else tuple(ab)


def classify_tp_lie(alpha, beta, eps: Optional[float] = None) -> LieClassification:
    """Classify the reflection-table brackets with [v, w] = alpha*1 + beta*i."""
    return classify_lie(tp_lie_algebra(alpha, beta), eps=eps)


def classify_lie(L: LieAlgebra, eps: Optional[float] = None) -> LieClassification:
    """Classify a LieAlgebra whose brackets have the reflection-table shape.

    (alpha, beta) is read off the bracket tensor, never trusted from the
    caller.  Emits the scaling witness of the identified case and the
    result of checking it against the canonical table.
    """
    eps = tolerance(eps, L.eps)
    dims = tuple(derived_dims(L, eps))
    ab = _read_alpha_beta(L, eps)
    if ab is None:
        return LieClassification(TYPE_UNRECOGNIZED, None, (None, None), None, None, dims)
    alpha, beta = ab
    one = [1, 0, 0, 0]
    half_i = [0, Fraction(1, 2), 0, 0]
    if scalar_is_zero(alpha, eps) and scalar_is_zero(beta, eps):
        # solvable decomposable case: e1 = v, e2 = w, e3 = i/2, e4 = 1; the
        # parameter is 0 on the shape (see the module docstring), in the
        # table's scalars
        tag = TYPE_G1_G35
        parameter = 0.0 if L.scalar_mode == "float" else Fraction(0)
        cols = [[0, 0, 0, 1], [0, 0, 1, 0], half_i, one]
    elif scalar_is_zero(beta, eps):  # alpha != 0: indecomposable solvable case
        tag, parameter = TYPE_G49_ZERO, Fraction(0)
        scale = 1 / sqrt_scalar(2 * alpha if alpha > 0 else -2 * alpha)
        e1 = [Fraction(1 if alpha > 0 else -1, 2), 0, 0, 0]
        e2 = [0, 0, 0, scale]          # v / sqrt(2|alpha|)
        e3 = [0, 0, scale, 0]          # w / sqrt(2|alpha|)
        cols = [e1, e2, e3, half_i]
    else:
        # beta != 0: rotation-type case (h, e, f) = (i~/2, v/s, +-w/s) with
        # i~ = (alpha*1 + beta*i)/beta and s = sqrt(2|beta|); for beta < 0
        # this is the stated case split, but the Killing form is indefinite
        # and the check below reports the unavoidable mismatch
        tag, parameter = TYPE_G1_G37, None
        scale = 1 / sqrt_scalar(2 * beta if beta > 0 else -2 * beta)
        h = [alpha / (2 * beta), Fraction(1, 2), 0, 0]
        e = [0, 0, 0, scale]
        f = [0, 0, scale if beta > 0 else -scale, 0]
        cols = [h, e, f, one]
    witness = tuple(tuple(parse_scalar(cols[c][r]) for c in range(4)) for r in range(4))
    # each case's columns are independent by construction (a scaled
    # permutation, plus alpha/(2 beta) * 1 in the rotation case), so a
    # witness that preserves every basis-pair bracket is an isomorphism
    ok = morphism_defect(_CANONICAL[tag], L, witness, eps) is None
    return LieClassification(tag, parameter, (alpha, beta), witness, ok, dims)
