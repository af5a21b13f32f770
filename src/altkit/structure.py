"""Structural machinery: commutative nucleus, exact isomorphism checks,
the eigenspace split under a reflection, extraction of the canonical
reflection table, and classification of middle plane-associative tables.

A reflection is an algebra automorphism of order two.  Its +1 and -1
eigenspaces B and C split a 4-dimensional unital division algebra into a
plane subalgebra B (necessarily a copy of the complex numbers) and a
complementary plane C.  Choosing i in B with i*i = -1 and a unit-length w
in C, with v = w*i, the split reads the eight scalars of the canonical
reflection table `catalog.tp` and checks, with one `core.morphism_defect`,
that the product in the basis (1, i, w, v) is exactly that table.  The
containments B*C = C*B = C and C*C inside B are then theorems of the
verified automorphism; only whether C*C spans B is read from the scalars.
Each linear question is one elimination: the nucleus reads its rows from
the integer cube, and coordinates the pivots of the columns [basis | x].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from . import catalog, linalg
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
    mat = linalg.square_matrix(f, src.dim)
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
    tp_params: tuple  # in the order of catalog.TP_PARAMS
    verdicts: dict

    def to_dict(self) -> dict:
        return {
            "B_basis": [b.json_coords() for b in self.B_basis],
            "C_basis": [c.json_coords() for c in self.C_basis],
            "tp_basis": {name: e.json_coords() for name, e in
                         zip(("one", "i", "w", "v"), self.tp_basis)},
            "tp_params": {n: scalar_to_json(v)
                          for n, v in zip(catalog.TP_PARAMS, self.tp_params)},
            "verdicts": dict(self.verdicts),
        }


def _columns(elements: Sequence[Element]) -> list:
    """The matrix whose columns are the elements' coordinates."""
    return [list(row) for row in zip(*(e.coords for e in elements))]


def _coords(basis: Sequence[Element], xs: Sequence[Element], eps: float):
    """The coefficients of each x in ``basis``, or None if the basis is
    dependent or some x lies outside its span: one elimination of the
    columns [basis | xs], whose pivots must be exactly the basis columns."""
    k = len(basis)
    reduced, pivots = linalg.rref(_columns([*basis, *xs]), eps)
    if pivots != list(range(k)):
        return None
    return [[row[k + c] for row in reduced[:k]] for c in range(len(xs))]


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
    coords = _coords([one, b], [bb], eps)
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
    length 1; v = w*i.  If i commutes with w, the commutative nucleus
    exceeds the scalars, which a division algebra cannot allow, and
    NucleusContradictionError is raised.

    What is checked: the eight scalars are the (1, i) coordinates of ww,
    wv, vw and vv, and one `core.morphism_defect` proves that the product
    in the basis (1, i, w, v) is `catalog.tp` at those scalars, that is
    i*i = -1, i anticommutes with w and v, i*v = w, and C*C lies in
    span{1, i}; otherwise a DecompositionError names the first product
    that differs.  What follows: phi(xy) = phi(x)phi(y) puts B*C and C*B
    in C and C*C in B, and phi fixes 1, so 1 in B gives B*C = C*B = C.
    C*C = B iff the four (1, i) coordinate pairs have rank 2.
    """
    eps = tolerance(eps, A.eps)
    if A.unit is None or A.dim != 4:
        raise DecompositionError("reflection split needs a 4-dimensional unital algebra")
    mat = linalg.square_matrix(phi, A.dim)

    auto = is_automorphism(A, mat, eps)
    if not auto.ok:
        raise ReflectionError("the supplied map is not an automorphism")

    def kernel(op):  # ker(phi - Id) for op = sub, ker(phi + Id) for op = add
        rows = [[op(x, i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
        return [A.element(v) for v in linalg.null_space(rows, eps)]

    # x^2 - 1 has the distinct roots 1 and -1, so phi^2 = Id iff its +1 and
    # -1 eigenspaces together span the space, and phi = Id iff the first does
    B, C = kernel(operator.sub), kernel(operator.add)
    if len(B) == A.dim:
        raise ReflectionError("the identity map is not a reflection")
    if len(B) + len(C) != A.dim:
        raise ReflectionError("the map does not square to the identity")
    if len(B) != 2 or len(C) != 2:
        raise DecompositionError(
            f"eigenspace dimensions ({len(B)}, {len(C)}) are not (2, 2); "
            "the input is degenerate or not a division algebra"
        )

    one = A.one()
    i_elem = _choose_i(A, B, eps)
    w_raw = C[0]
    norm2 = sum(c * c for c in w_raw.coords)
    w = w_raw / sqrt_scalar(norm2)
    v = A.multiply(w, i_elem)
    basis = (one, i_elem, w, v)
    coords = _coords(basis, [A.multiply(x, y) for x, y in
                             ((w, w), (w, v), (v, w), (v, v))], eps)
    if coords is None:
        raise DecompositionError("1, i, w, w*i do not form a basis")
    if (A.multiply(i_elem, w) - v).is_zero(eps):
        raise NucleusContradictionError(
            "i commutes with the minus-eigenspace; the commutative nucleus "
            "exceeds the scalars, so the input is not a division algebra"
        )

    pairs = [c[:2] for c in coords]
    params = tuple(x for pair in pairs for x in pair)
    table = catalog.tp(**dict(zip(catalog.TP_PARAMS, params)))
    hit = morphism_defect(table, A, _columns(basis), eps)
    if hit is not None:
        x, y = (table.labels[p] for p in hit)
        raise DecompositionError(
            f"{x}*{y} in the basis (1, i, w, v = w*i) is not the canonical "
            "reflection table's; canonical table extraction does not apply"
        )
    verdicts = {
        "eigendims_2_2": True,
        "i_squares_to_minus_one": True,
        "anticommutation": True,
        **dict.fromkeys(("BC_in_C", "CB_in_C", "CC_in_B",
                         "BC_equals_C", "CB_equals_C"), True),
        "CC_equals_B": linalg.rank(pairs, eps) == 2,
    }
    return ReflectionDecomposition(
        B_basis=tuple(B),
        C_basis=tuple(C),
        tp_basis=basis,
        tp_params=params,
        verdicts=verdicts,
    )


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
    j->sqrt|a| j, k->sqrt|a| k into the target table.  The map is
    invertible by construction, so preserving every basis product
    (`core.morphism_defect`) verifies it an isomorphism.  The target is
    associative, so a verified witness also proves partial left and right
    alternativity everywhere.
    """
    A = source if isinstance(source, Algebra) else catalog.build("tn", **dict(source))
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
    verified = morphism_defect(A, target, witness, eps) is None
    return MiddleClassification(
        target_name, None,
        tuple(tuple(row) for row in witness), verified, params,
    )
