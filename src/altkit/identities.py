"""Identity checking: alternativity, flexibility, their partial forms
restricted to imaginary units, plane-associativity with respect to a
distinguished 2-dimensional subalgebra, and the sampled division test.

Verdict strength is explicit in every report.  The eight laws over the
whole algebra are proofs: zero tests on basis tuples, read from slices
of the table's tensor.  The six quadratic laws (left/right alternative,
flexible, and their partial forms) read one kernel, `square_slices`, at
the given units, or over the whole algebra at x = e_i and e_i + e_j: over
characteristic 0 these points decide a quadratic form in x (Schafer, An
Introduction to Nonassociative Algebras, 1966, ch. I).  Only the partial
forms over a unit set not known to be complete, and the division test,
are sampled.  The distinguished plane is validated by one elimination of
its pair beside the unit and the pair's four products.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import linalg
from .core import (
    Algebra,
    ContextError,
    Element,
    NotApplicableError,
    first_defect,
    tolerance,
)
from .units import verify_unit

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


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_element(A: Algebra, rng: random.Random) -> Element:
    if A.scalar_mode == "float":
        return A.element([rng.uniform(-6, 6) for _ in range(A.dim)])
    return A.element([random_rational(rng) for _ in range(A.dim)])


def _witness(A: Algebra, triple) -> Witness:
    return Witness(*triple, A.associator(*triple))


def _slice_witness(A: Algebra, slot: int, fixed, eps: float) -> Optional[Witness]:
    """First (v, e_a, e_b) (v in ``slot``) with a nonzero associator, over
    v in ``fixed`` and then (a, b) in lexicographic order, or None."""
    basis = A.basis_elements()
    for v in fixed:
        hit = first_defect(A.associator_slice(slot, v), eps)
        if hit is not None:
            triple = [basis[hit[0]], basis[hit[1]]]
            triple.insert(slot, v)
            return _witness(A, triple)
    return None


# law -> (the slots of its repeated argument x, its triple from x and y)
_LEFT = ((0, 1), lambda x, y: (x, x, y))
_RIGHT = ((1, 2), lambda x, y: (y, x, x))
_FLEXIBLE = ((0, 2), lambda x, y: (x, y, x))
_QUADRATIC = {
    IdentityKind.LEFT_ALT: _LEFT, IdentityKind.PARTIAL_LEFT_ALT: _LEFT,
    IdentityKind.RIGHT_ALT: _RIGHT, IdentityKind.PARTIAL_RIGHT_ALT: _RIGHT,
    IdentityKind.FLEXIBLE: _FLEXIBLE, IdentityKind.PARTIAL_FLEXIBLE: _FLEXIBLE,
}


def _quadratic_witness(A: Algebra, kind: IdentityKind, points,
                       eps: float) -> Optional[Witness]:
    """The first (x, e_k) at which the quadratic law fails, or None.  Over
    ``points``: the first point x, then the first k.  Over the whole
    algebra (``points`` None): the first basis vector x = e_i, then k;
    then the first i, then k, then j > i, at x = e_i + e_j.  A point set
    with a float coordinate on an exact table is tested on the float copy,
    within eps, as the Element associator compares it."""
    slots, shape = _QUADRATIC[kind]
    basis = A.basis_elements()
    if points is None:
        groups = itertools.chain(
            [(basis, False)],
            (([basis[i] + basis[j] for j in range(i + 1, A.dim)], True)
             for i in range(A.dim - 1)))
    else:
        groups = [(points, False)]
    for xs, k_first in groups:
        B = A if all(x._den for x in xs) else A.to_float()  # A itself if float
        Q = B.square_slices(slots, xs if B is A else [B.element(x.coords) for x in xs])
        hit = first_defect(Q.swapaxes(0, 1) if k_first else Q, eps)
        if hit is not None:
            c, k = hit[::-1] if k_first else hit
            return _witness(A, shape(xs[c], basis[k]))
    return None


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


def _resolve_units(A: Algebra, units, eps: float) -> Tuple[List[Element], bool]:
    """Accept a list of Elements or a UnitLocus; return (points, complete)."""
    complete = False
    if units is None:
        raise ContextError("partial identities need a nonempty set of imaginary units")
    points = units
    if hasattr(units, "points") and hasattr(units, "kind"):  # UnitLocus
        points = list(units.points)
        complete = getattr(units, "complete", False)
    points = list(points)
    if not points:
        raise ContextError("partial identities need a nonempty set of imaginary units")
    for q in points:
        if not verify_unit(A, q, eps):
            raise ContextError(f"supplied point {q!r} is not an imaginary unit")
    return points, complete


def _resolve_c_span(A: Algebra, c_span, eps: float) -> Tuple[Element, Element]:
    """Validate an ordered pair spanning a 2-dim subalgebra that contains 1."""
    if c_span is None:
        raise ContextError(
            "plane-associativity checks need an ordered pair spanning the plane"
        )
    c1, c2 = c_span
    A._own(c1, c2)
    # one elimination of the columns [c1 c2 | 1, c1c1, c1c2, c2c1, c2c2]
    # (0 for a missing unit): a later pivot puts its vector outside the plane
    unit = A.unit or (0,) * A.dim
    prods = [A.multiply(p, q).coords for p, q in itertools.product((c1, c2), repeat=2)]
    _, pivots = linalg.rref(list(map(list, zip(c1.coords, c2.coords, unit, *prods))), eps)
    if pivots[:2] != [0, 1]:
        raise ContextError("the two span elements are linearly dependent")
    if A.unit is None or 2 in pivots:
        raise ContextError("the distinguished plane must contain the unit element")
    if len(pivots) > 2:
        raise ContextError("the distinguished plane is not closed under products")
    return c1, c2


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
        points, complete = _resolve_units(A, units, eps)
        if units_complete is not None:
            complete = units_complete
        witness = _quadratic_witness(A, kind, points, eps)
        method = "exhaustive-basis" if complete else f"sampled({len(points)})"
        return IdentityReport(kind, witness is None, witness, method)

    if kind == IdentityKind.ASSOCIATIVE:
        witness = _slice_witness(A, 0, A.basis_elements(), eps)
    elif kind == IdentityKind.COMMUTATIVE:
        witness = _commutator_witness(A, eps)
    elif kind in C_ASSOC_KINDS:
        slot = C_ASSOC_KINDS.index(kind)  # left, middle, right
        witness = _slice_witness(A, slot, _resolve_c_span(A, c_span, eps), eps)
    else:
        witness = _quadratic_witness(A, kind, None, eps)
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

    Raises NotApplicableError when the middle condition itself fails.
    """
    if c_span is None and A.dim >= 2 and A.unit is not None:
        c_span = (A.one(), A.basis(1))
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
    """The division test's candidates, group by group: the basis, the sums
    e_i + e_j (i < j), then ``samples`` draws from ``rng``."""
    basis = A.basis_elements()
    yield basis
    yield [basis[i] + basis[j] for i in range(A.dim) for j in range(i + 1, A.dim)]
    yield [random_element(A, rng) for _ in range(samples)]


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
    `MulOperator.is_singular` decides it.  Every candidate of a group gets
    its L_a and R_a at once (`Algebra.first_singular`).  On a float
    table their determinants are `linalg.det`'s bit for bit.  On an exact
    table a determinant nonzero modulo a prime proves invertibility, and
    only an operator singular modulo the prime is tested exactly, so an
    exact verdict never rests on floats.
    """
    eps = tolerance(eps, A.eps)
    rng = random.Random(seed)
    checked = 0
    for group in _candidate_groups(A, samples, rng):
        group = [a for a in group if not a.is_zero(eps)]
        if not group:
            continue
        c = A.first_singular(group, eps)
        if c is not None:
            return DivisionReport(False, group[c], f"sampled({checked + c + 1})")
        checked += len(group)
    return DivisionReport(True, None, f"sampled({checked})")
