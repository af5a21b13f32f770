"""Algebras over the reals given by structure constants.

An algebra of dimension n is a rank-3 tensor ``sc`` with

    e_i * e_j = sum_k sc[i][j][k] e_k

together with basis labels and (optionally) the coordinates of a two-sided
unit.  Scalars are exact rationals (`fractions.Fraction`) whenever every
input is rational, and IEEE floats otherwise; NaN and infinities are
rejected.  Exactness is load-bearing: the identity checks downstream are
equational statements, and float drift would manufacture spurious
counterexamples.  So a tolerance acts only on floats: `scalar_is_zero`
compares an exact scalar exactly whatever eps it is given, and a float
within the caller's eps, which defaults to the algebra's `eps`.

An exact table is held as one integer table: it is scaled once, at
construction, by the lcm of its denominators.  The tensor view
`Algebra.cube` holds the same integers, and `Algebra.mul_operators` reads
them modulo a prime for the division test.  An Element of an exact algebra
whose coordinates are all exact is held the same way in arithmetic, as an
integer vector over one positive denominator, kept canonical (the lcm of
its reduced coordinate denominators).  Its sums, scalar multiples,
products, associators and commutators accumulate in Python ints through
the table's one product loop and make one gcd reduction per result; its
`coords`, the tuple of Fractions, is built on first read.  An element with
a float coordinate, and every element of a float algebra, holds its
coordinates as given and takes the float sums.

Values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to use concurrently.
The lazily built values (`Algebra.cube`, the coordinates and integer forms
of the basis and unit vectors, an Element's `coords` and integer form) are
read-only and the same whichever caller builds them.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[Fraction, float]

_ZERO = Fraction(0)
_set = object.__setattr__  # fills the slots of an immutable Element

# The largest prime below 2**26.  A product of two residues is below 2**52,
# so int64 holds a sum of up to 2**11 of them: an entry of
# `Algebra.mul_operators` before its one reduction (a sum of n products),
# and each step of `linalg.nonsingular_mod` (a difference of two).
MODULUS = 67108859


class AlgebraError(Exception):
    """Base class for all altkit errors."""


class DimensionError(AlgebraError):
    """Shape mismatch, or elements that belong to different parent algebras."""


class ParameterError(AlgebraError):
    """Invalid family or scalar parameters."""


class ContextError(AlgebraError):
    """An identity check is missing required context (units, plane span)."""


class NotApplicableError(AlgebraError):
    """A derived question was asked of an algebra it does not apply to."""


class ReflectionError(AlgebraError):
    """The supplied map is not a reflection (automorphism of order two)."""


class DecompositionError(AlgebraError):
    """An eigenspace split does not have the required structure."""


class NucleusContradictionError(DecompositionError):
    """i commutes with the minus-eigenspace, so the commutative nucleus is
    bigger than the scalars; the input cannot be a division algebra."""


class SingularMatrixError(AlgebraError):
    """Tried to invert or solve against a singular matrix."""


def default_eps() -> float:
    """Comparison tolerance for float scalars; env ALTKIT_EPS overrides."""
    return float(os.environ.get("ALTKIT_EPS", "1e-9"))


def tolerance(eps: Optional[float], default: Optional[float] = None) -> float:
    """The tolerance a call compares floats at: ``eps``, else ``default``
    (an algebra's eps, checked when the algebra was built), else
    `default_eps()`.  A NaN, infinite or negative value raises
    ParameterError: every comparison against NaN is false, and an infinite
    or negative one makes every float zero or none."""
    if eps is None:
        if default is not None:
            return default
        eps = default_eps()
    try:
        eps = float(eps)
    except (TypeError, ValueError):
        raise ParameterError(f"eps must be a number, got {eps!r}") from None
    if not (math.isfinite(eps) and eps >= 0):
        raise ParameterError(f"eps must be finite and nonnegative, got {eps!r}")
    return eps


def parse_scalar(value) -> Scalar:
    """Coerce a scalar: strings like '3/2' or '0.25' and ints become exact
    Fractions, floats stay floats."""
    if isinstance(value, bool):
        raise ParameterError(f"not a scalar: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            try:
                return float(value)
            except ValueError:
                raise ParameterError(f"not a scalar: {value!r}") from None
    raise ParameterError(f"not a scalar: {value!r}")


def scalar_is_zero(s: Scalar, eps: float) -> bool:
    if isinstance(s, float):
        return abs(s) <= eps
    return s == 0


def scalars_close(x: Scalar, y: Scalar, eps: float) -> bool:
    return scalar_is_zero(x - y, eps)


def scalar_to_json(s: Scalar):
    return str(s) if isinstance(s, Fraction) else s


def exact_sqrt(value) -> Optional[Fraction]:
    """Square root of a nonnegative rational, if it is again rational."""
    if isinstance(value, float):
        return None
    f = Fraction(value)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_scalar(value) -> Scalar:
    """Exact square root when the input is a rational square, float otherwise."""
    root = exact_sqrt(value)
    return root if root is not None else math.sqrt(value)


class Element:
    """A vector expressed in the coordinates of a parent algebra's basis.

    An element of an exact algebra whose coordinates are all exact has an
    integer form: integers over one positive denominator, the lcm of its
    reduced coordinate denominators, so ``gcd(den, *ints) == 1`` and equal
    vectors hold equal integers.  Its arithmetic stays in ints, with one
    gcd reduction per result.  An element made by arithmetic holds only
    that form, and `coords`, the tuple of Fractions, is built on first
    read; one made from coordinates holds them, and builds the form on
    first use in arithmetic.  Any other element (every element of a float
    algebra, and one with a float coordinate) has no integer form.

    ``_den`` is the form's denominator, 0 where there is no form, and None
    while that is not yet known."""

    __slots__ = ("algebra", "_coords", "_ints", "_den")

    def __init__(self, algebra: "Algebra", coords: Sequence):
        coords = tuple(parse_scalar(c) for c in coords)
        if len(coords) != algebra.dim:
            raise DimensionError(
                f"coordinate vector of length {len(coords)} in a "
                f"{algebra.dim}-dimensional algebra"
            )
        den = None
        if algebra.scalar_mode == "float":
            coords = tuple(float(c) for c in coords)
            den = 0
        _set(self, "algebra", algebra)
        _set(self, "_coords", coords)
        _set(self, "_ints", None)
        _set(self, "_den", den)

    @classmethod
    def _exact(cls, algebra: "Algebra", ints: Sequence, den: int) -> "Element":
        """The element ints / den of an exact algebra, for a positive den,
        reduced to the canonical form."""
        g = math.gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
        return cls._of(algebra, None, tuple(ints), den)

    @classmethod
    def _of(cls, algebra: "Algebra", coords, ints, den) -> "Element":
        """An Element with the given slots."""
        e = object.__new__(cls)
        _set(e, "algebra", algebra)
        _set(e, "_coords", coords)
        _set(e, "_ints", ints)
        _set(e, "_den", den)
        return e

    def _int_form(self) -> bool:
        """Whether the element has the integer form (`_ints` over `_den`),
        building it from the coordinates on first use."""
        if self._den is None:
            coords = self._coords
            if any(isinstance(c, float) for c in coords):
                _set(self, "_den", 0)
            else:
                den = math.lcm(*[c.denominator for c in coords])
                _set(self, "_ints", tuple([c.numerator * (den // c.denominator)
                                           for c in coords]))
                _set(self, "_den", den)
        return self._den != 0

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Element is immutable")

    @property
    def coords(self) -> tuple:
        """The coordinates: Fractions on an exact algebra (with a float
        where a float was given), floats on a float algebra."""
        coords = self._coords
        if coords is None:
            coords = tuple(_fractions(self._ints, self._den))
            _set(self, "_coords", coords)
        return coords

    # -- arithmetic ---------------------------------------------------------

    def _peer(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise DimensionError("elements belong to different algebras")

    def _plus(self, other: "Element", sign: int) -> "Element":
        """self + sign * other for two integer forms, over the lcm of their
        denominators."""
        da, db = self._den, other._den
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return Element._exact(self.algebra, [a * fa + b * fb for a, b in
                                             zip(self._ints, other._ints)], den)

    def __add__(self, other):
        self._peer(other)
        if self._int_form() and other._int_form():
            return self._plus(other, 1)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._peer(other)
        if self._int_form() and other._int_form():
            return self._plus(other, -1)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        if self._int_form():
            return Element._exact(self.algebra, [-a for a in self._ints], self._den)
        return Element(self.algebra, [-a for a in self.coords])

    def _scaled(self, s: Scalar) -> "Element":
        if not isinstance(s, float) and self._int_form():
            return Element._exact(self.algebra, [s.numerator * a for a in self._ints],
                                  s.denominator * self._den)
        return Element(self.algebra, [s * a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        if isinstance(other, (numbers.Real, Fraction)):
            return self._scaled(parse_scalar(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (numbers.Real, Fraction)):
            return self._scaled(parse_scalar(other))
        return NotImplemented

    def __truediv__(self, other):
        s = parse_scalar(other)
        if not isinstance(s, float) and self._int_form():
            if not s:
                raise ZeroDivisionError("division of an Element by zero")
            return self._scaled(1 / s)
        return Element(self.algebra, [a / s for a in self.coords])

    def __eq__(self, other):
        if not (isinstance(other, Element) and other.algebra is self.algebra):
            return False
        if self._ints is not None and other._ints is not None:
            return self._den == other._den and self._ints == other._ints
        return other.coords == self.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    # -- queries ------------------------------------------------------------

    def is_zero(self, eps: Optional[float] = None) -> bool:
        eps = tolerance(eps, self.algebra.eps)
        if self._ints is not None:
            return not any(self._ints)
        return all(scalar_is_zero(c, eps) for c in self.coords)

    def max_abs(self):
        return max(abs(c) for c in self.coords)

    def float_coords(self) -> tuple:
        return tuple(float(c) for c in self.coords)

    def json_coords(self) -> list:
        return [scalar_to_json(c) for c in self.coords]

    def __repr__(self):
        terms = []
        for c, lab in zip(self.coords, self.algebra.labels):
            if scalar_is_zero(c, 0.0):
                continue
            if c == 1:
                terms.append(lab)
            elif c == -1:
                terms.append(f"-{lab}")
            else:
                terms.append(f"{c}*{lab}")
        return "<" + (" + ".join(terms).replace("+ -", "- ") or "0") + ">"


class MulOperator:
    """Matrix of left or right multiplication by a fixed element.

    Columns follow the defining element: ``left`` column j holds the
    coordinates of a*e_j, ``right`` column j those of e_j*a.
    """

    __slots__ = ("side", "matrix", "element")

    def __init__(self, side: str, matrix, element: Element):
        if side not in ("left", "right"):
            raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "element", element)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MulOperator is immutable")

    def det(self):
        from . import linalg

        return linalg.det(self.matrix)

    def is_singular(self, eps: Optional[float] = None) -> bool:
        from . import linalg

        eps = tolerance(eps, self.element.algebra.eps)
        return scalar_is_zero(linalg.det(self.matrix, eps), eps)


class Algebra:
    """A finite-dimensional real algebra defined by structure constants."""

    def __init__(
        self,
        sc,
        labels: Optional[Sequence[str]] = None,
        unit: Optional[Sequence] = None,
        eps: Optional[float] = None,
        family: Optional[tuple] = None,
    ):
        table = [[[parse_scalar(c) for c in cell] for cell in row] for row in sc]
        n = len(table)
        for row in table:
            if len(row) != n or any(len(cell) != n for cell in row):
                raise DimensionError("structure constants must be an n*n*n cube")
        mode = "exact"
        for row in table:
            for cell in row:
                if any(isinstance(c, float) for c in cell):
                    mode = "float"
        if mode == "float":
            table = [[[float(c) for c in cell] for cell in row] for row in table]
            _require_finite((c for row in table for cell in row for c in cell),
                            "structure constant")

        self._sc = tuple(tuple(tuple(cell) for cell in row) for row in table)
        self._labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self._labels) != n:
            raise DimensionError("label count must match the dimension")
        if len(set(self._labels)) != n:
            raise AlgebraError("basis labels must be unique")
        self._scalar_mode = mode
        self._eps = tolerance(eps)
        self._family = family
        self._cube = None
        self._element_slots = None

        # _rows[i][j] = ((k, c), ...) over the nonzero entries of sc[i][j]:
        # floats, or for an exact table the integers sc * _scale, _scale being
        # the lcm of the table's denominators
        rows = [[[(k, c) for k, c in enumerate(cell) if c] for cell in row]
                for row in table]
        scale = 1
        if mode == "exact":
            scale = math.lcm(*(c.denominator for row in rows for cell in row
                               for _, c in cell))
            rows = [[[(k, c.numerator * (scale // c.denominator)) for k, c in cell]
                     for cell in row] for row in rows]
        self._scale = scale
        self._rows = tuple(tuple(tuple(cell) for cell in row) for row in rows)

        self._unit = None
        if unit is not None:
            u = tuple(parse_scalar(c) for c in unit)
            if len(u) != n:
                raise DimensionError("unit coordinate length must match the dimension")
            _require_finite((c for c in u if isinstance(c, float)), "unit coordinate")
            if mode == "float":
                u = tuple(float(c) for c in u)
            self._unit = u
            for j in range(n):
                basis = tuple(
                    Fraction(1) if i == j else Fraction(0) for i in range(n)
                )
                left = self._mul_coords(u, basis)
                right = self._mul_coords(basis, u)
                for got, name in ((left, "1*x"), (right, "x*1")):
                    if any(
                        not scalars_close(g, b, self._eps)
                        for g, b in zip(got, basis)
                    ):
                        raise AlgebraError(
                            f"unit axiom violated on basis vector "
                            f"{self._labels[j]} ({name})"
                        )

    # -- basic accessors ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._sc)

    @property
    def sc(self):
        return self._sc

    @property
    def labels(self):
        return self._labels

    @property
    def unit(self):
        return self._unit

    @property
    def scalar_mode(self) -> str:
        return self._scalar_mode

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def family(self):
        """(name, params) tag recorded by the catalog constructors, or None."""
        return self._family

    def __repr__(self):
        tag = self._family[0] if self._family else "algebra"
        return f"Algebra<{tag}, dim={self.dim}, {self._scalar_mode}>"

    # -- element constructors -------------------------------------------------

    def element(self, coords: Sequence) -> Element:
        return Element(self, coords)

    def basis(self, i: int) -> Element:
        if not 0 <= i < self.dim:
            raise DimensionError(f"basis index {i} out of range")
        return Element._of(self, *self._slots()[i])

    def basis_elements(self) -> list:
        return [Element._of(self, *slots) for slots in self._slots()[:self.dim]]

    def _slots(self) -> tuple:
        """The slots (coordinates and integer form) of the basis Elements
        and then of the unit, built once.  The algebra keeps these and not
        the Elements: an Element holds its algebra, so a kept one would make
        the algebra a reference cycle, freed only by the cyclic collector."""
        if self._element_slots is None:
            n = self.dim
            vectors = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
            if self._unit is not None:
                vectors.append(self._unit)
            slots = []
            for v in vectors:
                e = Element(self, v)
                e._int_form()
                slots.append((e._coords, e._ints, e._den))
            self._element_slots = tuple(slots)
        return self._element_slots

    def zero(self) -> Element:
        return Element(self, [0] * self.dim)

    def one(self) -> Element:
        if self._unit is None:
            raise AlgebraError("algebra has no designated unit element")
        return Element._of(self, *self._slots()[self.dim])

    def by_label(self, label: str) -> Element:
        try:
            return self.basis(self._labels.index(label))
        except ValueError:
            raise AlgebraError(f"no basis vector labelled {label!r}") from None

    # -- products -------------------------------------------------------------

    def _accumulate(self, u, v) -> list:
        """The product loop: out[k] = sum u_i v_j c over the (i, u_i) and
        (j, v_j) pairs given and the entries (k, c) of the table's sparse
        rows (the integers sc * _scale on an exact table).  A coordinate no
        term reaches stays the int 0."""
        rows = self._rows
        out = [0] * self.dim
        for i, ui in u:
            row = rows[i]
            for j, vj in v:
                coeff = ui * vj
                for k, c in row[j]:
                    out[k] = out[k] + coeff * c
        return out

    def _mul_coords(self, u: Sequence, v: Sequence) -> list:
        """Coordinates of uv.  Exact u and v on an exact table: scaled to
        integers over their own denominators, summed in ints over the
        table's scale, one Fraction per output.  Any float: float sums."""
        u = [(i, c) for i, c in enumerate(u) if c]
        v = [(j, c) for j, c in enumerate(v) if c]
        scale = self._scale
        exact = self._scalar_mode == "exact" and not any(
            isinstance(c, float) for w in (u, v) for _, c in w)
        if exact:
            du = math.lcm(*(c.denominator for _, c in u))
            dv = math.lcm(*(c.denominator for _, c in v))
            u = [(i, c.numerator * (du // c.denominator)) for i, c in u]
            v = [(j, c.numerator * (dv // c.denominator)) for j, c in v]
        out = self._accumulate(u, v)
        if exact:
            return _fractions(out, du * dv * scale)
        if scale != 1:
            return [acc / scale if acc else acc for acc in out]
        return out

    def _own(self, *elements: Element) -> None:
        for e in elements:
            if not isinstance(e, Element):
                raise TypeError(f"expected Element, got {type(e).__name__}")
            if e.algebra is not self:
                raise DimensionError("element belongs to a different algebra")

    def multiply(self, a: Element, b: Element) -> Element:
        self._own(a, b)
        if a._int_form() and b._int_form():
            prod = self._accumulate(_terms(a._ints), _terms(b._ints))
            return Element._exact(self, prod, a._den * b._den * self._scale)
        return Element(self, self._mul_coords(a.coords, b.coords))

    def associator(self, x: Element, y: Element, z: Element) -> Element:
        """(x, y, z) = (xy)z - x(yz)."""
        self._own(x, y, z)
        if x._int_form() and y._int_form() and z._int_form():
            # both sides are integers over den(x) den(y) den(z) scale^2
            mul = self._accumulate
            x_, y_, z_ = _terms(x._ints), _terms(y._ints), _terms(z._ints)
            left = mul(_terms(mul(x_, y_)), z_)
            right = mul(x_, _terms(mul(y_, z_)))
            return Element._exact(self, [a - b for a, b in zip(left, right)],
                                  x._den * y._den * z._den * self._scale ** 2)
        xy = self._mul_coords(x.coords, y.coords)
        yz = self._mul_coords(y.coords, z.coords)
        left = self._mul_coords(xy, z.coords)
        right = self._mul_coords(x.coords, yz)
        return Element(self, _difference(left, right))

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y] = xy - yx."""
        self._own(x, y)
        if x._int_form() and y._int_form():
            x_, y_ = _terms(x._ints), _terms(y._ints)
            xy, yx = self._accumulate(x_, y_), self._accumulate(y_, x_)
            return Element._exact(self, [a - b for a, b in zip(xy, yx)],
                                  x._den * y._den * self._scale)
        xy = self._mul_coords(x.coords, y.coords)
        yx = self._mul_coords(y.coords, x.coords)
        return Element(self, _difference(xy, yx))

    def mul_operator(self, a: Element, side: str = "left") -> MulOperator:
        """Matrix of x -> a*x (side "left", column j = a*e_j) or of
        x -> x*a (side "right", column j = e_j*a)."""
        self._own(a)
        n = self.dim
        if a._int_form():
            terms, den = _terms(a._ints), a._den * self._scale
            cols = [self._accumulate(terms, [(j, 1)]) if side == "left"
                    else self._accumulate([(j, 1)], terms) for j in range(n)]
            cols = [_fractions(col, den) for col in cols]
        else:
            cols = []
            for j in range(n):
                e_j = [1 if i == j else 0 for i in range(n)]
                cols.append(self._mul_coords(a.coords, e_j) if side == "left"
                            else self._mul_coords(e_j, a.coords))
        return MulOperator(side, [[col[r] for col in cols] for r in range(n)], a)

    # -- tensor view ----------------------------------------------------------

    @property
    def cube(self) -> np.ndarray:
        """The table as a read-only n*n*n array, built on first use from the
        one sparse view the products read: float64 for a float table; for an
        exact one, the table's integers over its lcm scale, as int64 (Python
        ints where `_fits_int64` fails).  Only zero tests read it, and a
        positive scale cannot change those."""
        if self._cube is None:
            n = self.dim
            entries = [(i, j, k, c) for i, row in enumerate(self._rows)
                       for j, cell in enumerate(row) for k, c in cell]
            if self._scalar_mode == "float":
                dtype = float
            else:
                big = max((abs(e[3]) for e in entries), default=0)
                dtype = np.int64 if _fits_int64(n, big, 1) else object
            cube = np.zeros((n,) * 3, dtype=dtype)
            for i, j, k, c in entries:
                cube[i, j, k] = c
            cube.flags.writeable = False
            self._cube = cube
        return self._cube

    def associator_slice(self, slot: int, v: Sequence) -> np.ndarray:
        """D[a, b, :] = the associator with argument ``slot`` (0, 1 or 2) set
        to v and the other two, in order, to e_a and e_b; n^3 entries, never
        the n^4 tensor.  On an exact table: integers, a positive multiple of
        the true coordinates.  Otherwise floats.  Test with `first_defect`."""
        S = self.cube
        if S.dtype == float:
            V = np.array(v, dtype=float)
        else:
            ints = scaled_ints([Fraction(c) for c in v])  # a float at its exact value
            big = max(map(abs, ints), default=0)
            if S.dtype == object or not _fits_int64(
                self.dim, int(np.abs(S).max(initial=0)), big
            ):
                S, V = S.astype(object), np.array(ints, dtype=object)
            else:
                V = np.array(ints, dtype=np.int64)
        L = np.tensordot(V, S, 1)  # L[m] = v e_m
        R = np.tensordot(V, S, (0, 1))  # R[m] = e_m v
        if slot == 0:  # (v e_a) e_b - v (e_a e_b)
            return np.tensordot(L, S, 1) - np.tensordot(S, L, 1)
        if slot == 1:  # (e_a v) e_b - e_a (v e_b)
            return np.tensordot(R, S, 1) - np.tensordot(L, S, (1, 1)).swapaxes(0, 1)
        if slot == 2:  # (e_a e_b) v - e_a (e_b v)
            return np.tensordot(S, R, 1) - np.tensordot(R, S, (1, 1)).swapaxes(0, 1)
        raise ParameterError(f"associator slot must be 0, 1 or 2, got {slot!r}")

    def mul_operators(self, vectors) -> np.ndarray:
        """M[c, 0] and M[c, 1], the matrices of x -> v x and x -> x v for
        each row v = vectors[c], laid out as `mul_operator` lays them out:
        M[c, 0, r, j] = sum_i v_i S[i, j, r] and M[c, 1, r, j] = sum_i v_i
        S[j, i, r].  On a float table: floats accumulated over i in order,
        bit for bit the entries of `mul_operator`.  On an exact table: each
        row scaled to integers (a float at its exact value) against the
        table's integers, reduced modulo the prime MODULUS, so a positive
        multiple of the true matrices, modulo MODULUS."""
        S = self.cube
        n = self.dim
        if S.dtype == float:
            V = np.array(vectors, dtype=float).reshape(-1, n)
        else:
            V = np.array([[c % MODULUS for c in scaled_ints([Fraction(c) for c in v])]
                          for v in vectors], dtype=np.int64).reshape(-1, n)
            S = (S % MODULUS).astype(np.int64)
        # sides[i, 0] = the left operator of e_i, sides[i, 1] the right one
        sides = np.stack((S.transpose(0, 2, 1), S.transpose(1, 2, 0)), axis=1)
        if S.dtype != float:
            # n products below 2**52 each: exact in int64, as n < 2**11
            return np.tensordot(V, sides, 1) % MODULUS
        M = np.zeros((len(V), 2, n, n))
        for i in range(n):
            M += V[:, i, None, None, None] * sides[i]
        return M

    def first_singular(self, vectors, eps: Optional[float] = None) -> Optional[int]:
        """The index c of the first row v = vectors[c] for which x -> v x
        or x -> x v is singular, as `MulOperator.is_singular` decides it at
        eps, else None; every operator comes from `mul_operators`.  On a
        float table the determinants are `linalg.det`'s bit for bit
        (`linalg.dets`).  On an exact table a determinant nonzero modulo
        the prime MODULUS proves the operator invertible
        (`linalg.nonsingular_mod`), and only an operator singular modulo
        the prime is tested with `MulOperator.is_singular`, exactly."""
        from . import linalg

        eps = tolerance(eps, self.eps)
        M = self.mul_operators(vectors)
        exact = M.dtype != float
        flagged = ~linalg.nonsingular_mod(M) if exact else np.abs(linalg.dets(M, eps)) <= eps
        for c, side in zip(*np.nonzero(flagged)):
            if not exact or self.mul_operator(
                    self.element(vectors[c]), ("left", "right")[side]).is_singular(eps):
                return int(c)
        return None

    # -- conversions ----------------------------------------------------------

    def to_float(self) -> "Algebra":
        """A float-scalar copy (used by the numeric solvers)."""
        if self._scalar_mode == "float":
            return self
        sc = [[[float(c) for c in cell] for cell in row] for row in self._sc]
        unit = None if self._unit is None else [float(c) for c in self._unit]
        return Algebra(sc, labels=self._labels, unit=unit, eps=self._eps,
                       family=self._family)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self._labels),
            "unit": None if self._unit is None else [scalar_to_json(c) for c in self._unit],
            "sc": [
                [[scalar_to_json(c) for c in cell] for cell in row]
                for row in self._sc
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Algebra":
        try:
            sc = data["sc"]
        except (TypeError, KeyError):
            raise AlgebraError("algebra JSON must contain an 'sc' cube") from None
        labels = data.get("labels")
        unit = data.get("unit")
        algebra = cls(sc, labels=labels, unit=unit)
        if "dim" in data and data["dim"] != algebra.dim:
            raise DimensionError(
                f"declared dim {data['dim']} does not match sc cube of size {algebra.dim}"
            )
        return algebra

    def dumps(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "Algebra":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "Algebra":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def scaled_ints(values: Sequence) -> list:
    """Exact rationals times the lcm of their denominators, as ints."""
    dens = [c.denominator for c in values]
    scale = math.lcm(*dens)
    return [c.numerator * (scale // d) for c, d in zip(values, dens)]


def _terms(ints: Sequence) -> list:
    """The (index, value) pairs of a vector's nonzero entries."""
    return [(i, c) for i, c in enumerate(ints) if c]


def _fractions(ints: Sequence, den: int) -> list:
    """ints / den as Fractions, one per entry."""
    return [Fraction(c, den) if c else _ZERO for c in ints]


def _difference(a: Sequence, b: Sequence) -> list:
    """a - b by coordinates, for an Element; an exact zero in b, common in
    products of sparse vectors, leaves a's coordinate as it is."""
    return [x - y if y or isinstance(y, float) else x for x, y in zip(a, b)]


def _require_finite(values, what: str) -> None:
    for c in values:
        if not math.isfinite(c):
            raise ParameterError(f"{what} must be finite, got {c!r}")


def _fits_int64(n: int, smax: int, vmax: int) -> bool:
    """Can int64 hold the slices of an n-dim cube with entries up to smax
    against a vector with entries up to vmax?  A slice entry is a difference
    of two sums of n*n products S*S*v, and callers add up to three slices."""
    return 8 * n * n * smax * smax * vmax < 2**63


def first_defect(D: np.ndarray, eps: float) -> Optional[tuple]:
    """The lexicographically first index of D's leading axes whose vector
    along the last axis is nonzero (exactly for integer arrays, beyond eps
    for float arrays), or None."""
    if D.dtype == float:
        nonzero = ~np.all(np.abs(D) <= eps, axis=-1)
    else:
        nonzero = np.any(D != 0, axis=-1)
    hits = np.argwhere(nonzero)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def morphism_defect(src_sc, dst_sc, mat, eps: float) -> Optional[tuple]:
    """First (i, j) in lexicographic order with f(e_i e_j) != f(e_i) f(e_j),
    column i of ``mat`` being f(e_i), or None: a proof, by bilinearity.
    Exact data compares exactly, as ints over one common denominator D;
    with any float present, all compare as floats within eps."""
    n = len(mat)
    flat = [c for t in (src_sc, dst_sc, [mat]) for row in t for cell in row
            for c in cell]
    if any(isinstance(c, float) for c in flat):
        vals, scale = np.array(flat, dtype=float), 1
    else:
        *ints, scale = scaled_ints(flat + [1])
        vals = np.array(ints, dtype=object)
    S, T = vals[: 2 * n**3].reshape(2, n, n, n)
    Mt = vals[2 * n**3:].reshape(n, n).T
    # D * mapped and direct are both D^3 times their true values
    direct = np.dot(Mt, np.dot(Mt, T.reshape(n, -1)).reshape(n, n, n))
    return first_defect(scale * np.dot(S, Mt) - direct.swapaxes(0, 1), eps)


# module-level operation aliases ------------------------------------------------


def multiply(a: Element, b: Element) -> Element:
    return a.algebra.multiply(a, b)


def associator(x: Element, y: Element, z: Element) -> Element:
    return x.algebra.associator(x, y, z)


def commutator(x: Element, y: Element) -> Element:
    return x.algebra.commutator(x, y)


def mul_operator(a: Element, side: str = "left") -> MulOperator:
    return a.algebra.mul_operator(a, side)
