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

`check_jacobi` reads the Jacobi sum itself from the bracket cube.

Each verdict ships an explicit change-of-basis witness whose transported
brackets are checked against the canonical table by `core.morphism_defect`;
the result is reported, never assumed.  For beta < 0 the scaling follows the
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

from . import linalg
from .core import (
    Algebra,
    AlgebraError,
    ParameterError,
    first_defect,
    morphism_defect,
    parse_scalar,
    scalar_is_zero,
    scalar_to_json,
    scalars_close,
    sqrt_scalar,
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

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """The coordinates of [u, v] for coordinate vectors u and v: their
        Elements' product, `multiply`."""
        return list(self.multiply(self.element(u), self.element(v)).coords)

    def to_dict(self) -> dict:
        data = super().to_dict()
        return {"dim": data["dim"], "labels": data["labels"], "brackets": data["sc"]}


def lieify(A: Algebra) -> LieAlgebra:
    """Commutator Lie structure: b[i][j][k] = sc[i][j][k] - sc[j][i][k]."""
    n = A.dim
    b = [
        [
            [A.sc[i][j][k] - A.sc[j][i][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LieAlgebra(b, labels=A.labels, eps=A.eps)


def check_jacobi(L: LieAlgebra, tol: Optional[float] = None):
    """Exhaustive Jacobi test on basis triples (a proof, by trilinearity).

    For each e_i the Jacobi sums J[j, k] = [e_i, [e_j, e_k]] + [e_j, [e_k,
    e_i]] + [e_k, [e_i, e_j]] are read from the bracket cube S, n^3 entries,
    and tested at tol.  Returns (ok, witness) where witness is the first
    failing i < j < k with the Jacobi sum's coordinates.
    """
    tol = tolerance(tol, L.eps)
    S, n = L.cube, L.dim
    for i in range(n):
        J = S @ S[i] + S[:, i] @ S + (S[i] @ S).swapaxes(0, 1)  # the terms in order
        J[: i + 1] = 0  # keep i < j < k
        J[np.tril_indices(n)] = 0
        hit = first_defect(J, tol)
        if hit is not None:
            j, k = hit
            x, y, z = (L.basis(p) for p in (i, j, k))
            jacobi = x * (y * z) + y * (z * x) + z * (x * y)
            return False, (i, j, k, list(jacobi.coords))
    return True, None


def _put(b, i: int, j: int, entries: dict) -> None:
    """Set [e_i, e_j] = sum entries[k] e_k and [e_j, e_i] to its negative."""
    for k, c in entries.items():
        b[i][j][k] = parse_scalar(c)
        b[j][i][k] = -b[i][j][k]


def derived_series(L: LieAlgebra, eps: Optional[float] = None) -> List[list]:
    """Bases of L, [L, L], [[L, L], [L, L]], ... until 0 or stabilisation,
    each in reduced row form.  [L, L] is spanned by the cube's rows (i, j)
    (i < j), positive multiples of the brackets of the basis vectors; each
    deeper term by the brackets of every two rows of the term before,
    through `multiply`."""
    n = L.dim
    eps = tolerance(eps, L.eps)
    current = [[Fraction(1) if p == i else Fraction(0) for p in range(n)]
               for i in range(n)]
    series = [current]
    prods = L.cube[np.triu_indices(n, 1)].tolist()
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


def canonical_brackets(type_tag: str, parameter=0):
    """Bracket tensor of a named 4-dimensional type.

    For the decomposable types the first three basis vectors carry the
    3-dimensional part and e4 spans the central line.
    """
    parameter = parse_scalar(parameter)
    n = 4
    b = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    if type_tag == TYPE_G1_G37:
        _put(b, 0, 1, {2: 1})  # [e1, e2] = e3
        _put(b, 1, 2, {0: 1})  # [e2, e3] = e1
        _put(b, 2, 0, {1: 1})  # [e3, e1] = e2
    elif type_tag == TYPE_G1_G35:
        bp = parameter
        _put(b, 0, 2, {0: bp, 1: -1})  # [e1, e3] = b'e1 - e2
        _put(b, 1, 2, {0: 1, 1: bp})   # [e2, e3] = e1 + b'e2
    elif type_tag == TYPE_G49_ZERO:
        ap = parameter  # zero-parameter member; kept symbolic for clarity
        _put(b, 1, 2, {0: 1})           # [e2, e3] = e1
        _put(b, 0, 3, {0: 2 * ap})      # [e1, e4] = 2a'e1
        _put(b, 1, 3, {1: ap, 2: -1})   # [e2, e4] = a'e2 - e3
        _put(b, 2, 3, {1: 1, 2: ap})    # [e3, e4] = e2 + a'e3
    else:
        raise ParameterError(f"no canonical table for type {type_tag!r}")
    return tuple(tuple(tuple(cell) for cell in row) for row in b)


def match_canonical(L: LieAlgebra, type_tag: str, witness,
                    parameter=0, eps: Optional[float] = None):
    """Do the witness-transported brackets equal the canonical table?

    witness columns are the images of the canonical basis vectors in L's
    coordinates.  Returns (ok, mismatch) with the first differing bracket.
    """
    eps = tolerance(eps, L.eps)
    table = canonical_brackets(type_tag, parameter)
    n = L.dim
    witness = linalg.square_matrix(witness, n)
    if scalar_is_zero(linalg.det(witness, eps), eps):
        return False, "witness matrix is singular"
    hit = morphism_defect(table, L.sc, witness, eps)
    if hit is None:
        return True, None
    p, q = hit
    cols = list(zip(*witness))
    want = [0] * n
    for r in range(n):
        c = table[p][q][r]
        if c:
            want = [w + c * x for w, x in zip(want, cols[r])]
    return False, (p, q, L.bracket(cols[p], cols[q]), want)


_TP_I, _TP_W, _TP_V = 1, 2, 3  # positions in the (1, i, w, v) basis


def _read_alpha_beta(L: LieAlgebra, eps: float):
    """Verify the reflection-table bracket shape and read off (alpha, beta).

    Requires [1, -] = 0, [i, w] = -2v, [i, v] = 2w, [v, w] in span{1, i}.
    Returns None when the shape does not match.
    """
    if L.dim != 4:
        return None
    n = 4

    def expect(i, j, want):
        return all(scalars_close(L.brackets[i][j][k], want[k], eps) for k in range(n))

    for j in range(n):
        if not expect(0, j, [0, 0, 0, 0]):
            return None
    if not expect(_TP_I, _TP_W, [0, 0, 0, -2]):
        return None
    if not expect(_TP_I, _TP_V, [0, 0, 2, 0]):
        return None
    vw = L.brackets[_TP_V][_TP_W]
    if not (scalar_is_zero(vw[2], eps) and scalar_is_zero(vw[3], eps)):
        return None
    return vw[0], vw[1]


def tp_lie_algebra(alpha, beta) -> LieAlgebra:
    """The commutator brackets of a reflection-table algebra on (1, i, w, v)."""
    alpha = parse_scalar(alpha)
    beta = parse_scalar(beta)
    n = 4
    b = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    _put(b, _TP_I, _TP_W, {_TP_V: -2})
    _put(b, _TP_I, _TP_V, {_TP_W: 2})
    _put(b, _TP_V, _TP_W, {0: alpha, _TP_I: beta})
    return LieAlgebra(b, labels=("1", "i", "w", "v"))


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
    zero_a = scalar_is_zero(alpha, eps)
    zero_b = scalar_is_zero(beta, eps)

    def col_matrix(cols):
        return tuple(
            tuple(parse_scalar(cols[c][r]) for c in range(4)) for r in range(4)
        )

    one = [1, 0, 0, 0]
    half_i = [0, Fraction(1, 2), 0, 0]

    if zero_a and zero_b:
        # solvable decomposable case: e1 = v, e2 = w, e3 = i/2, e4 = 1;
        # the parameter is the real part of the eigenvalue pair of the
        # adjoint action of e3 on the derived part, normalised to unit
        # imaginary part (zero here)
        witness = col_matrix([
            [0, 0, 0, 1], [0, 0, 1, 0], half_i, one,
        ])
        param = _g35_parameter(L, eps)
        ok, _ = match_canonical(L, TYPE_G1_G35, witness, parameter=param, eps=eps)
        return LieClassification(TYPE_G1_G35, param, (alpha, beta), witness, ok, dims)

    if zero_b:  # alpha != 0: indecomposable solvable case
        scale = 1 / sqrt_scalar(2 * alpha if alpha > 0 else -2 * alpha)
        sign = 1 if alpha > 0 else -1
        e1 = [Fraction(sign, 2), 0, 0, 0]
        e2 = [0, 0, 0, scale]          # v / sqrt(2|alpha|)
        e3 = [0, 0, scale, 0]          # w / sqrt(2|alpha|)
        witness = col_matrix([e1, e2, e3, half_i])
        ok, _ = match_canonical(L, TYPE_G49_ZERO, witness, parameter=0, eps=eps)
        return LieClassification(TYPE_G49_ZERO, Fraction(0), (alpha, beta), witness, ok, dims)

    # beta != 0: rotation-type case (h, e, f) = (i~/2, v/s, +-w/s) with
    # i~ = (alpha*1 + beta*i)/beta and s = sqrt(2|beta|); for beta < 0 this
    # is the stated case split, but the Killing form is indefinite and the
    # check below reports the unavoidable mismatch
    scale = 1 / sqrt_scalar(2 * beta if beta > 0 else -2 * beta)
    h = [alpha / (2 * beta), Fraction(1, 2), 0, 0]
    e = [0, 0, 0, scale]
    f = [0, 0, scale if beta > 0 else -scale, 0]
    witness = col_matrix([h, e, f, one])
    ok, _ = match_canonical(L, TYPE_G1_G37, witness, eps=eps)
    return LieClassification(TYPE_G1_G37, None, (alpha, beta), witness, ok, dims)


def _g35_parameter(L: LieAlgebra, eps: float):
    """Real part of the adjoint eigenvalue pair on the derived plane, after
    normalising the imaginary part to 1."""
    # ad(i) restricted to span{v, w} in the reflection-table shape:
    # i -> [i, v] = 2w, [i, w] = -2v gives [[0, -2], [2, 0]] up to shape
    a = L.brackets[_TP_I][_TP_V][_TP_V]
    b = L.brackets[_TP_I][_TP_W][_TP_V]
    c = L.brackets[_TP_I][_TP_V][_TP_W]
    d = L.brackets[_TP_I][_TP_W][_TP_W]
    tr = a + d
    det = a * d - b * c
    disc = 4 * det - tr * tr
    if disc <= 0 or scalar_is_zero(disc, eps):
        raise AlgebraError("adjoint action on the derived plane has real eigenvalues")
    return tr / sqrt_scalar(disc)
