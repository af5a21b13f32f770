"""Structural machinery: commutative nucleus, exact isomorphism checks,
the eigenspace split under a reflection, extraction of the canonical
reflection table, and classification of middle plane-associative tables.

A reflection is an algebra automorphism of order two.  Its +1 and -1
eigenspaces B and C split a 4-dimensional unital division algebra into a
plane subalgebra B (necessarily a copy of the complex numbers) and a
complementary plane C with B*C = C*B = C and C*C inside B.  Choosing i in
B with i*i = -1 and a unit-length w in C, with v = w*i, puts the product
into the canonical reflection table whose last two rows take values in
span{1, i}; the eight scalars of those rows are what this module reports.
Each linear question is one elimination: the nucleus reads its rows from
the integer cube, and a span test the pivots of the columns [basis | x].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from . import catalog, linalg, units
from .core import (
    Algebra,
    DecompositionError,
    Element,
    NucleusContradictionError,
    ParameterError,
    ReflectionError,
    morphism_defect,
    scalar_is_zero,
    scalar_to_json,
    scalars_close,
    sqrt_scalar,
    tolerance,
)


@dataclass(frozen=True)
class LinearMap:
    """A square matrix acting on a parent algebra's coordinates."""

    matrix: tuple
    algebra: Algebra

    def __post_init__(self):
        mat = _as_matrix(self.matrix, self.algebra.dim)
        object.__setattr__(self, "matrix", tuple(map(tuple, mat)))

    def __call__(self, x: Element) -> Element:
        return self.algebra.element(linalg.matvec(self.matrix, list(x.coords)))


def _as_matrix(f, n: int):
    return linalg.square_matrix(f.matrix if isinstance(f, LinearMap) else f, n)


class MorphismReport(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (x, y, f(xy), f(x)f(y)) on failure


def commutative_nucleus(A: Algebra, eps: Optional[float] = None) -> List[Element]:
    """Basis of {x : xy = yx for all y}, via the null space of the stacked
    commutator matrices L_{e_i} - R_{e_i}, whose row (i, r) is
    S[i, j, r] - S[j, i, r] over j, S the cube: a positive multiple of the
    table, so the null space is the same."""
    n, S = A.dim, A.cube
    stacked = (S - S.swapaxes(0, 1)).transpose(0, 2, 1).reshape(n * n, n).tolist()
    basis = linalg.null_space(stacked, tolerance(eps, A.eps))
    return [A.element(v) for v in basis]


def is_isomorphism(
    src: Algebra, dst: Algebra, f, eps: Optional[float] = None
) -> MorphismReport:
    """Is the matrix an invertible multiplicative map src -> dst?

    Columns of f are the images of src basis vectors in dst coordinates.
    Bilinearity makes the basis-pair check, `core.morphism_defect`, a proof.
    """
    if src.dim != dst.dim:
        return MorphismReport(False, None)
    mat = _as_matrix(f, src.dim)
    eps = tolerance(eps, max(src.eps, dst.eps))
    if scalar_is_zero(linalg.det(mat, eps), eps):
        return MorphismReport(False, None)
    hit = morphism_defect(src, dst, mat, eps)
    if hit is None:
        return MorphismReport(True, None)
    x, y = (src.basis(p) for p in hit)
    mapped = dst.element(linalg.matvec(mat, list(src.multiply(x, y).coords)))
    fx, fy = (dst.element([row[p] for row in mat]) for p in hit)
    return MorphismReport(False, (x, y, mapped, dst.multiply(fx, fy)))


def is_automorphism(A: Algebra, f, eps: Optional[float] = None) -> MorphismReport:
    """Invertible self-map preserving all basis products."""
    return is_isomorphism(A, A, f, eps)


@dataclass(frozen=True)
class ReflectionDecomposition:
    B_basis: tuple  # +1 eigenvectors
    C_basis: tuple  # -1 eigenvectors
    tp_basis: tuple  # (1, i, w, v)
    tp_params: tuple  # (alpha1, alpha2, beta1, beta2, delta1, delta2, gamma1, gamma2)
    verdicts: dict

    def to_dict(self) -> dict:
        names = ("alpha1", "alpha2", "beta1", "beta2",
                 "delta1", "delta2", "gamma1", "gamma2")
        return {
            "B_basis": [b.json_coords() for b in self.B_basis],
            "C_basis": [c.json_coords() for c in self.C_basis],
            "tp_basis": {name: e.json_coords() for name, e in
                         zip(("one", "i", "w", "v"), self.tp_basis)},
            "tp_params": {n: scalar_to_json(v) for n, v in zip(names, self.tp_params)},
            "verdicts": dict(self.verdicts),
        }


def _columns(elements: Sequence[Element]) -> list:
    """The matrix whose columns are the elements' coordinates."""
    return [list(row) for row in zip(*(e.coords for e in elements))]


def _plane_coords(plane: Sequence[Element], xs: Sequence[Element], eps: float):
    """The coefficients of each x in span(plane), a plane, or None if any x
    lies outside it: a pivot of [p0 p1 | x...] in an x's column."""
    reduced, pivots = linalg.rref(_columns([*plane, *xs]), eps)
    if any(p >= 2 for p in pivots):
        return None
    coords = [[Fraction(0), Fraction(0)] for _ in xs]
    for row, p in zip(reduced, pivots):
        for coeffs, value in zip(coords, row[2:]):
            coeffs[p] = value
    return coords


def _choose_i(A: Algebra, plane: List[Element], eps: float) -> Element:
    """Element of a 2-dim unital subalgebra squaring to -1, with positive
    coordinate on the chosen non-unit direction."""
    one = A.one()
    b = None
    for cand in plane:
        if linalg.rank([list(one.coords), list(cand.coords)], eps) == 2:
            b = cand
            break
    if b is None:
        raise DecompositionError("plus-eigenspace is a line through the unit")
    bb = A.multiply(b, b)
    coords = _plane_coords([one, b], [bb], eps)
    if coords is None:
        raise DecompositionError("plus-eigenspace is not closed under products")
    (p, q), = coords
    disc = p + q * q / 4
    if disc >= 0 or scalar_is_zero(disc, eps):
        raise DecompositionError("plus-eigenspace is not a copy of the complex plane")
    y2 = -1 / disc
    y = sqrt_scalar(y2)
    x = -q * y / 2
    return x * one + y * b


def reflection_decompose(
    A: Algebra, phi, eps: Optional[float] = None
) -> ReflectionDecomposition:
    """Split along a reflection and extract the canonical table scalars.

    phi must be an automorphism with phi != Id and phi^2 = Id; the two
    eigenspaces must both be planes.  i is the root of x^2 = -1 in the
    plus-eigenspace with positive coordinate on the non-unit basis
    direction; w is the first minus-eigenvector normalised to Euclidean
    length 1; v = w*i.  Anticommutation of i with the minus-eigenspace is
    verified: if instead i commutes with it the commutative nucleus
    exceeds the scalars, which a division algebra cannot allow, and
    NucleusContradictionError is raised.
    """
    eps = tolerance(eps, A.eps)
    if A.unit is None or A.dim != 4:
        raise DecompositionError("reflection split needs a 4-dimensional unital algebra")
    mat = _as_matrix(phi, A.dim)

    auto = is_automorphism(A, mat, eps)
    if not auto.ok:
        raise ReflectionError("the supplied map is not an automorphism")
    n = A.dim
    ident = linalg.identity_matrix(n)
    plus = [[mat[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    if all(scalar_is_zero(x, eps) for row in plus for x in row):
        raise ReflectionError("the identity map is not a reflection")
    sq = linalg.matmul(mat, mat)
    if any(not scalars_close(sq[i][j], ident[i][j], eps)
           for i in range(n) for j in range(n)):
        raise ReflectionError("the map does not square to the identity")

    minus = [[mat[i][j] + ident[i][j] for j in range(n)] for i in range(n)]
    B = [A.element(v) for v in linalg.null_space(plus, eps)]
    C = [A.element(v) for v in linalg.null_space(minus, eps)]
    if len(B) != 2 or len(C) != 2:
        raise DecompositionError(
            f"eigenspace dimensions ({len(B)}, {len(C)}) are not (2, 2); "
            "the input is degenerate or not a division algebra"
        )

    one = A.one()
    i_elem = _choose_i(A, B, eps)
    if not units.verify_unit(A, i_elem, eps):
        raise DecompositionError("failed to solve x^2 = -1 in the plus-eigenspace")

    w_raw = C[0]
    norm2 = sum(c * c for c in w_raw.coords)
    w = w_raw / sqrt_scalar(norm2)
    v = A.multiply(w, i_elem)

    basis_mat = [list(e.coords) for e in (one, i_elem, w, v)]
    if linalg.rank(basis_mat, eps) != 4:
        raise DecompositionError("1, i, w, w*i do not form a basis")

    iw = A.multiply(i_elem, w)
    wi = A.multiply(w, i_elem)
    if (iw - wi).is_zero(eps):
        raise NucleusContradictionError(
            "i commutes with the minus-eigenspace; the commutative nucleus "
            "exceeds the scalars, so the input is not a division algebra"
        )
    anticommute = ((iw + wi).is_zero(eps)
                   and (A.multiply(i_elem, v) + A.multiply(v, i_elem)).is_zero(eps))
    if not anticommute:
        raise DecompositionError(
            "i neither commutes nor anticommutes with the minus-eigenspace; "
            "the input is not partially alternative"
        )
    if not (A.multiply(i_elem, v) - w).is_zero(eps):
        raise DecompositionError(
            "i*(w*i) != w: the alternative law fails at i; canonical table "
            "extraction does not apply"
        )

    coords = _plane_coords([one, i_elem], [A.multiply(x, y) for x, y in
                                           ((w, w), (w, v), (v, w), (v, v))], eps)
    if coords is None:
        raise DecompositionError(
            "a product of minus-eigenvectors lands outside span{1, i}"
        )
    (a1, a2), (b1, b2), (d1, d2), (g1, g2) = coords
    params = (a1, a2, b1, b2, d1, d2, g1, g2)

    inside, spans = zip(*(_products_in(A, x, y, t, eps)
                          for x, y, t in ((B, C, C), (C, B, C), (C, C, B))))
    verdicts = {
        "eigendims_2_2": True,
        "i_squares_to_minus_one": True,
        "anticommutation": True,
        **dict(zip(("BC_in_C", "CB_in_C", "CC_in_B"), inside)),
        **dict(zip(("BC_equals_C", "CB_equals_C", "CC_equals_B"), spans)),
    }
    return ReflectionDecomposition(
        B_basis=tuple(B),
        C_basis=tuple(C),
        tp_basis=(one, i_elem, w, v),
        tp_params=params,
        verdicts=verdicts,
    )


def _products_in(A, left, right, target, eps) -> tuple:
    """Do the products x*y (x in left, y in right) lie in, and span,
    span(target), a plane?  One elimination of [products | target]: the
    pivots among the products give their rank, all of them the joint rank."""
    prods = [A.multiply(x, y) for x in left for y in right]
    _, pivots = linalg.rref(_columns([*prods, *target]), eps)
    return len(pivots) == 2, sum(p < len(prods) for p in pivots) == 2


@dataclass(frozen=True)
class MiddleClassification:
    target: str  # Mplus | Mzero | H | Unclassified
    reason: Optional[str]
    witness: Optional[tuple]    # matrix: columns = images of source basis in target
    witness_verified: Optional[bool]
    params: dict

    def to_dict(self) -> dict:
        return {
            "type": self.target,
            "reason": self.reason,
            "witness": None if self.witness is None else
            [[scalar_to_json(x) for x in row] for row in self.witness],
            "witness_verified": self.witness_verified,
            "params": {k: scalar_to_json(v) for k, v in self.params.items()},
        }


_TARGET_BUILDERS = {
    "Mplus": catalog.mplus,
    "Mzero": catalog.mzero,
    "H": catalog.quaternions,
}


def target_algebra(name: str) -> Algebra:
    try:
        return _TARGET_BUILDERS[name]()
    except KeyError:
        raise ParameterError(f"no classification target named {name!r}") from None


def classify_middle_c(source, eps: Optional[float] = None) -> MiddleClassification:
    """Classify a tn-family point up to isomorphism.

    Preconditions, all checked: b = c = d = 0 (otherwise the units stay on
    the line through i and no claim is made), and the derived constraints
    f = 0, g = -a, h = 0, e = 0; a violated one is the reason reported.
    The verdict then follows the sign of a: positive -> Mplus, zero ->
    Mzero, negative -> H, witnessed by the column-scaling map 1->1, i->i,
    j->sqrt|a| j, k->sqrt|a| k into the target table, which is re-verified
    as an isomorphism.  The target is associative, so a verified witness
    also proves partial left and right alternativity everywhere.
    """
    A = source if isinstance(source, Algebra) else catalog.tn(**dict(source))
    params = catalog.tn_params(A)
    eps = tolerance(eps, A.eps)

    def unclassified(reason):
        return MiddleClassification("Unclassified", reason, None, None, params)

    if any(params[key] != 0 for key in ("b", "c", "d")):
        return unclassified(
            "b, c, d not all zero: imaginary units are confined to the "
            "line through i, so no isomorphism claim is made"
        )

    a = params["a"]
    constraints = {"f": Fraction(0), "g": -a, "h": Fraction(0), "e": Fraction(0)}
    for name, expected in constraints.items():
        if not scalars_close(params[name], expected, eps):
            return unclassified(
                f"table constant {name} = {params[name]} violates the "
                f"derived value {expected}"
            )

    if scalar_is_zero(a, eps):
        target_name = "Mzero"
        scale = Fraction(1)
    elif a > 0:
        target_name = "Mplus"
        scale = sqrt_scalar(a)
    else:
        target_name = "H"
        scale = sqrt_scalar(-a)

    witness = [
        [1 if r == c else 0 for c in range(4)] for r in range(4)
    ]
    witness[2][2] = scale
    witness[3][3] = scale
    target = target_algebra(target_name)
    verified = is_isomorphism(A, target, witness, eps).ok
    return MiddleClassification(
        target_name, None,
        tuple(tuple(row) for row in witness), verified, params,
    )
