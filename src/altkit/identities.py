"""Identity checking: alternativity, flexibility, their partial forms
restricted to imaginary units, plane-associativity with respect to a
distinguished 2-dimensional subalgebra, and the sampled division test.

Verdict strength is explicit in every report.  The eight laws over the
whole algebra are proofs: zero tests on basis tuples.  Each law but
commutativity says the associator vanishes with the arguments its
`_SLOTS` entry names tied to one point x, so one kernel,
`Algebra.associator_slices`, and one witness search decide all ten.  x
runs over the basis, the plane's pair, the given units, or, for the
quadratic laws over the whole algebra, x = e_i and e_i + e_j: over
characteristic 0 these points decide a quadratic form in x (Schafer, An
Introduction to Nonassociative Algebras, 1966, ch. I).  The kernel reads
the points as coordinate rows, and an Element is built only for a
witness.  A point with a float coordinate makes its group's rows float,
so defects are compared within eps, as the Element associator compares
them.  Only the partial forms over a unit set not known to be complete,
and the division test, are sampled.  Given units and the distinguished
plane's pair are checked on the rows the kernel reads, one batched
product for the units of each form and for the pair's four products.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Union

import numpy as np

from . import linalg
from .core import (
    Algebra,
    ContextError,
    Element,
    NotApplicableError,
    draw_twelfths,
    draw_uniform,
    first_defect,
    require_count,
    tolerance,
)
from .units import UnitLocus, _are_units, _int_rows

DEFAULT_SAMPLES = 200


class IdentityKind(str, Enum):
    LEFT_ALT = "left-alt"
    RIGHT_ALT = "right-alt"
    FLEXIBLE = "flexible"
    PARTIAL_LEFT_ALT = "partial-left-alt"
    PARTIAL_RIGHT_ALT = "partial-right-alt"
    PARTIAL_FLEXIBLE = "partial-flexible"
    LEFT_C_ASSOC = "left-c-assoc"
    MIDDLE_C_ASSOC = "middle-c-assoc"
    RIGHT_C_ASSOC = "right-c-assoc"
    COMMUTATIVE = "commutative"
    ASSOCIATIVE = "associative"


PARTIAL_KINDS = (
    IdentityKind.PARTIAL_LEFT_ALT,
    IdentityKind.PARTIAL_RIGHT_ALT,
    IdentityKind.PARTIAL_FLEXIBLE,
)
C_ASSOC_KINDS = (
    IdentityKind.LEFT_C_ASSOC,
    IdentityKind.MIDDLE_C_ASSOC,
    IdentityKind.RIGHT_C_ASSOC,
)


@dataclass(frozen=True)
class Witness:
    x: Element
    y: Element
    z: Optional[Element]
    defect: Element

    def to_dict(self) -> dict:
        return {
            "x": self.x.json_coords(),
            "y": self.y.json_coords(),
            "z": None if self.z is None else self.z.json_coords(),
            "defect": self.defect.json_coords(),
        }


@dataclass(frozen=True)
class IdentityReport:
    kind: IdentityKind
    holds: bool
    witness: Optional[Witness]
    method: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "method": self.method,
        }


# law -> the argument slots of its point x; basis vectors fill the others
_SLOTS = {
    IdentityKind.ASSOCIATIVE: (0,),
    IdentityKind.LEFT_C_ASSOC: (0,),
    IdentityKind.MIDDLE_C_ASSOC: (1,),
    IdentityKind.RIGHT_C_ASSOC: (2,),
    IdentityKind.LEFT_ALT: (0, 1), IdentityKind.PARTIAL_LEFT_ALT: (0, 1),
    IdentityKind.RIGHT_ALT: (1, 2), IdentityKind.PARTIAL_RIGHT_ALT: (1, 2),
    IdentityKind.FLEXIBLE: (0, 2), IdentityKind.PARTIAL_FLEXIBLE: (0, 2),
}


def _associator_witness(A: Algebra, kind: IdentityKind, groups,
                        eps: float) -> Optional[Witness]:
    """The first triple at which the law's associator is nonzero, or None.
    ``groups`` yields (rows, k_first, point): one `Algebra.associator_slices`
    call on the coordinate rows each, read row by row and then by basis
    index, or with k_first (two slots) basis index first.  At a hit on
    row c, point(c) is its Element, the triple holds it in the law's slots
    and the basis vectors found in the others."""
    slots = _SLOTS[kind]
    for rows, k_first, point in groups:
        D = A.associator_slices(slots, rows)
        hit = first_defect(D.swapaxes(0, 1) if k_first else D, eps)
        if hit is not None:
            c, *rest = hit[::-1] if k_first else hit
            triple, x = [A.basis(i) for i in rest], point(c)
            for slot in slots:
                triple.insert(slot, x)
            return Witness(*triple, A.associator(*triple))
    return None


def _point_rows(points) -> np.ndarray:
    """The coordinate rows of given units or plane points, as the kernel
    reads them: floats if any point has a float coordinate, otherwise each
    point's integer form."""
    if all(p._den for p in points):
        return _int_rows([p._ints for p in points])
    return np.array([p.coords for p in points], dtype=float)


def _basis_rows(A: Algebra) -> tuple:
    """The identity rows e_i, floats on a float table, and for each
    i < n - 1 the rows e_i + e_j, j > i: the points the quadratic laws
    are decided at and the division test's first candidates."""
    eye = np.eye(A.dim, dtype=float if A.scalar_mode == "float" else np.int64)
    return eye, [eye[i] + eye[i + 1:] for i in range(A.dim - 1)]


def _commutator_witness(A: Algebra, eps: float) -> Optional[Witness]:
    """First basis pair i < j with e_i e_j != e_j e_i, or None.  The
    difference below is exactly antisymmetric, so its first nonzero entry
    has i < j."""
    S = A.cube
    hit = first_defect(S - S.swapaxes(0, 1), eps)
    if hit is None:
        return None
    x, y = A.basis(hit[0]), A.basis(hit[1])
    return Witness(x, y, None, A.commutator(x, y))


def _resolve_units(A: Algebra, units, eps: float) -> Tuple[List[Element], np.ndarray, bool]:
    """Accept a list of Elements or a UnitLocus; return (points, rows,
    complete), rows the kernel's (`_point_rows`).  Each form present is
    checked in one `units._are_units` call, exact points exactly and float
    ones within eps, and the first non-unit is named.  A set of one form
    hands the kernel the very array it squared."""
    if isinstance(units, UnitLocus):
        points, complete = list(units.points), units.complete
    else:
        points, complete = list(units or ()), False
    if not points:
        raise ContextError("partial identities need a nonempty set of imaginary units")
    A._own(*points)
    bad = []
    for group in ([c for c, q in enumerate(points) if q._den],
                  [c for c, q in enumerate(points) if not q._den]):
        if group:
            rows = _point_rows([points[c] for c in group])
            dens = None if rows.dtype == float else [points[c]._den for c in group]
            bad += [c for c, ok in zip(group, _are_units(A, rows, dens, eps)) if not ok]
    if bad:
        raise ContextError(f"supplied point {points[min(bad)]!r} is not an imaginary unit")
    return points, rows if len(rows) == len(points) else _point_rows(points), complete


class _Plane(tuple):
    """An ordered pair `_resolve_c_span` has validated on ``algebra`` at
    ``eps``, with its kernel ``rows``: handed on, it is not checked again."""

    def __new__(cls, pair, rows: np.ndarray, algebra: Algebra, eps: float):
        plane = super().__new__(cls, pair)
        plane.rows, plane.algebra, plane.eps = rows, algebra, eps
        return plane


def _resolve_c_span(A: Algebra, c_span, eps: float) -> _Plane:
    """Validate an ordered pair spanning a 2-dim subalgebra that contains
    1, unless it is a `_Plane` already validated on A at eps."""
    if isinstance(c_span, _Plane) and c_span.algebra is A and c_span.eps == eps:
        return c_span
    if c_span is None:
        raise ContextError(
            "plane-associativity checks need an ordered pair spanning the plane"
        )
    c1, c2 = c_span
    A._own(c1, c2)
    # the pair's kernel rows and their four products, each exact column a
    # positive multiple of its vector (no pivot moves), then one elimination
    # of [c1 c2 | 1, c1c1, c1c2, c2c1, c2c2] (0 for a missing unit): a later
    # pivot puts its vector outside the plane
    X = _point_rows((c1, c2))
    prods = A.multiply_rows(X[[0, 0, 1, 1]], X[[0, 1, 0, 1]]).tolist()
    unit = A.unit or (0,) * A.dim
    _, pivots = linalg.rref(list(map(list, zip(*X.tolist(), unit, *prods))), eps)
    if pivots[:2] != [0, 1]:
        raise ContextError("the two span elements are linearly dependent")
    if A.unit is None or 2 in pivots:
        raise ContextError("the distinguished plane must contain the unit element")
    if len(pivots) > 2:
        raise ContextError("the distinguished plane is not closed under products")
    return _Plane((c1, c2), X, A, eps)


def check_identity(
    A: Algebra,
    kind: Union[IdentityKind, str],
    units=None,
    units_complete: Optional[bool] = None,
    c_span: Optional[Tuple[Element, Element]] = None,
    eps: Optional[float] = None,
    seed: int = 0,
) -> IdentityReport:
    """Check one named identity on an algebra.

    ``units`` feeds the partial kinds (a list of Elements or a UnitLocus);
    ``c_span`` feeds the plane-associativity kinds.  The report's ``method``
    records whether the verdict is a basis-exhaustion proof or sampled.
    ``seed`` is accepted for callers that pass one; no kind draws random
    numbers.
    """
    kind = IdentityKind(kind)
    eps = tolerance(eps, A.eps)

    if kind in PARTIAL_KINDS:
        points, rows, complete = _resolve_units(A, units, eps)
        if units_complete is not None:
            complete = units_complete
        witness = _associator_witness(A, kind, [(rows, False, points.__getitem__)], eps)
        method = "exhaustive-basis" if complete else f"sampled({len(points)})"
        return IdentityReport(kind, witness is None, witness, method)

    if kind == IdentityKind.COMMUTATIVE:
        witness = _commutator_witness(A, eps)
    else:
        eye, pair_sums = _basis_rows(A)
        if kind in C_ASSOC_KINDS:
            plane = _resolve_c_span(A, c_span, eps)
            groups = [(plane.rows, False, plane.__getitem__)]
        elif kind == IdentityKind.ASSOCIATIVE:  # all n at once: n^5 entries
            groups = [(eye[i:i + 1], False, lambda c, i=i: A.basis(i))
                      for i in range(A.dim)]
        else:  # x = e_i, then for each i the sums e_i + e_j, j > i
            groups = itertools.chain([(eye, False, A.basis)], (
                (rows, True, lambda c, i=i: A.basis(i) + A.basis(i + 1 + c))
                for i, rows in enumerate(pair_sums)))
        witness = _associator_witness(A, kind, groups, eps)
    return IdentityReport(kind, witness is None, witness, "exhaustive-basis")


def is_partially_alternative(
    A: Algebra, units, units_complete: Optional[bool] = None,
    eps: Optional[float] = None,
) -> List[IdentityReport]:
    """The three partial reports (left, flexible, right), in that order."""
    return [
        check_identity(A, kind, units=units, units_complete=units_complete, eps=eps)
        for kind in (
            IdentityKind.PARTIAL_LEFT_ALT,
            IdentityKind.PARTIAL_FLEXIBLE,
            IdentityKind.PARTIAL_RIGHT_ALT,
        )
    ]


@dataclass(frozen=True)
class StrictMiddleReport:
    strict: bool
    witness: Optional[Witness]
    left_holds: bool
    right_holds: bool

    def to_dict(self) -> dict:
        return {
            "strict": self.strict,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "left_holds": self.left_holds,
            "right_holds": self.right_holds,
        }


def is_strictly_middle(
    A: Algebra,
    c_span: Optional[Tuple[Element, Element]] = None,
    eps: Optional[float] = None,
) -> StrictMiddleReport:
    """Does the middle plane-associativity hold while left or right fails?

    Raises NotApplicableError when the middle condition itself fails.  The
    plane is validated and turned into rows once, and its three checks
    take it as it is.
    """
    eps = tolerance(eps, A.eps)
    if c_span is None and A.dim >= 2 and A.unit is not None:
        c_span = (A.one(), A.basis(1))
    c_span = _resolve_c_span(A, c_span, eps)
    middle = check_identity(A, IdentityKind.MIDDLE_C_ASSOC, c_span=c_span, eps=eps)
    if not middle.holds:
        raise NotApplicableError(
            "middle plane-associativity fails; strictness does not apply"
        )
    left = check_identity(A, IdentityKind.LEFT_C_ASSOC, c_span=c_span, eps=eps)
    right = check_identity(A, IdentityKind.RIGHT_C_ASSOC, c_span=c_span, eps=eps)
    witness = left.witness if not left.holds else right.witness
    return StrictMiddleReport(
        strict=not (left.holds and right.holds),
        witness=witness,
        left_holds=left.holds,
        right_holds=right.holds,
    )


@dataclass(frozen=True)
class DivisionReport:
    division: bool
    witness: Optional[Element]
    method: str

    def to_dict(self) -> dict:
        return {
            "division": self.division,
            "witness": None if self.witness is None else self.witness.json_coords(),
            "method": self.method,
        }


def _candidate_groups(A: Algebra, samples: int, rng: random.Random):
    """The division test's candidates, group by group, as (rows, den), the
    candidate c being rows[c] / den: the basis, the sums e_i + e_j
    (i < j), then ``samples`` draws from ``rng``, coordinate by
    coordinate.  On an exact table a coordinate is randint(-6, 6) /
    randint(1, 4), drawn in that order and kept as its value over 12
    (`draw_twelfths`); on a float table it is uniform(-6, 6)
    (`draw_uniform`).  Both read the stream a loop of those calls reads."""
    n = A.dim
    eye, pair_sums = _basis_rows(A)
    yield eye, 1
    yield np.concatenate([eye[:0], *pair_sums]), 1
    if A.scalar_mode == "exact":
        yield draw_twelfths(rng, samples * n).reshape(samples, n), 12
    else:
        yield draw_uniform(rng, -6, 6, samples * n).reshape(samples, n), 1


def is_division_sampled(
    A: Algebra,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    eps: Optional[float] = None,
) -> DivisionReport:
    """Search for a nonzero element with a singular multiplication operator.

    Candidates are every basis vector, every pairwise basis sum, and
    ``samples`` seeded random elements, in that order; zero candidates are
    skipped, and the method ``sampled(k)`` counts the k candidates tested
    up to the first zero divisor, or all of them.  A True verdict means
    only that no zero divisor was found among those candidates - it is not
    a proof.  Each operator's invertibility, though, is decided as
    `MulOperator.is_singular` decides it.  Each group of candidates is
    a stack of coordinate rows, and every candidate of a group gets its
    L_a and R_a at once (`Algebra.first_singular`); an Element is built
    only for the zero divisor returned.  On a float table the
    determinants are `linalg.det`'s bit for bit.  On an exact table a
    determinant nonzero modulo a prime proves invertibility, and only an
    operator singular modulo the prime is tested exactly, so an exact
    verdict never rests on floats.
    """
    eps = tolerance(eps, A.eps)
    samples = require_count(samples, "sample count")
    rng = random.Random(seed)
    exact = A.scalar_mode == "exact"
    checked = 0
    for rows, den in _candidate_groups(A, samples, rng):
        rows = rows[rows.any(axis=1) if exact else np.any(np.abs(rows) > eps, axis=1)]
        if not len(rows):
            continue
        c = A.first_singular(rows, eps)
        if c is not None:
            witness = (Element._exact(A, rows[c].tolist(), den) if exact
                       else Element._of(A, tuple(rows[c].tolist()), None, 0))
            return DivisionReport(False, witness, f"sampled({checked + c + 1})")
        checked += len(rows)
    return DivisionReport(True, None, f"sampled({checked})")
