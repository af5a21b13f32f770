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
construction, by the lcm of its denominators.  One function stores every
table, parsed, catalog or commutator: `table_cube`.  The tensor view
`Algebra.cube` holds the same integers.  An Element of an exact algebra
whose coordinates are all exact is held the same way, as an integer vector
over one positive denominator, kept canonical (the lcm of its reduced
coordinate denominators); its form is fixed when it is built.  Its sums,
scalar multiples and products accumulate in Python ints through the
table's one product loop and make one gcd reduction per result; its
`coords`, the tuple of Fractions, is built on first read.  The associator
and the commutator are stated once, in their defining form, over
`multiply`.  The tensor kernels (`associator_slices`, `mul_operators`,
`first_singular`) and `multiply_rows` take coordinate rows only: the
identity checks, the division test and the unit checks hand them their
points as rows, so an Element is built only for a witness.  An exact
table has one float reading, its `to_float()` copy, built on first use
and kept.  An element with a float coordinate, and every element of a
float algebra, holds its coordinates as given; every float computation
(a product, `mul_operator`, `multiply_rows` on float rows, the tensor
kernels, `morphism_defect`, Newton) runs on that copy, bit for bit the
same call on `to_float()`.

The sampled checks draw their points through `draw_twelfths` and
`draw_uniform`: each reads the values a loop of `random.Random` calls
returns off the generator's 32-bit words, in blocks, and leaves the
generator where that loop leaves it.

Values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to use concurrently.
The lazily built values (`Algebra.sc`, `to_float()`, the slots of the
basis and unit vectors, an Element's `coords`) are read-only and equal
whichever caller builds them.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[Fraction, float]

_ZERO = Fraction(0)
_set = object.__setattr__  # fills the slots of an immutable Element
_UNREAD = object()  # an Algebra's family before its first read
_LISTS = (list, tuple)  # what a table, its labels and its unit are read from

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


def require_count(value, what: str) -> int:
    """``value`` as a count: an integer that `operator.index` accepts, not
    a bool, and nonnegative.  Anything else raises ParameterError, a float
    such as 2.0 or 2.5 included: a count is never rounded or truncated."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= 0:
                return count
    raise ParameterError(f"{what} must be a nonnegative integer, got {value!r}")


def parse_scalar(value) -> Scalar:
    """Coerce a scalar: strings like '3/2' or '0.25' and ints become exact
    Fractions, floats stay floats."""
    if isinstance(value, float):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"not a scalar: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
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
    integer form: integers ``_ints`` over one positive denominator ``_den``,
    the lcm of its reduced coordinate denominators, so ``gcd(den, *ints) ==
    1`` and equal vectors hold equal integers.  Its arithmetic stays in
    ints, with one gcd reduction per result.  The form is fixed when the
    element is built: one made from coordinates holds them and the form,
    one made by arithmetic holds only the form, and `coords`, the tuple of
    Fractions, is built on first read.  Any other element (every element of
    a float algebra, and one with a float coordinate) has ``_den == 0`` and
    no integer form."""

    __slots__ = ("algebra", "_coords", "_ints", "_den")

    def __init__(self, algebra: "Algebra", coords: Sequence):
        coords = tuple(map(parse_scalar, coords))
        if len(coords) != algebra.dim:
            raise DimensionError(
                f"coordinate vector of length {len(coords)} in a "
                f"{algebra.dim}-dimensional algebra"
            )
        ints, den = None, 0
        if algebra.scalar_mode == "float":
            coords = tuple(float(c) for c in coords)
        elif not any(isinstance(c, float) for c in coords):
            ints, den = integer_form(coords)
        _set(self, "algebra", algebra)
        _set(self, "_coords", coords)
        _set(self, "_ints", ints)
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
        if self._den and other._den:
            return self._plus(other, 1)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._peer(other)
        if self._den and other._den:
            return self._plus(other, -1)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        if self._den:
            return Element._exact(self.algebra, [-a for a in self._ints], self._den)
        return Element(self.algebra, [-a for a in self.coords])

    def _scaled(self, s: Scalar) -> "Element":
        if self._den and not isinstance(s, float):
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
        if self._den and not isinstance(s, float):
            if not s:
                raise ZeroDivisionError("division of an Element by zero")
            return self._scaled(1 / s)
        return Element(self.algebra, [a / s for a in self.coords])

    def __eq__(self, other):
        if not (isinstance(other, Element) and other.algebra is self.algebra):
            return False
        if self._den and other._den:
            return self._den == other._den and self._ints == other._ints
        return other.coords == self.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    # -- queries ------------------------------------------------------------

    def is_zero(self, eps: Optional[float] = None) -> bool:
        eps = tolerance(eps, self.algebra.eps)
        if self._den:
            return not any(self._ints)
        return all(scalar_is_zero(c, eps) for c in self.coords)

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
    ):
        n = len(sc) if isinstance(sc, _LISTS) else 0
        if not n or not all(isinstance(row, _LISTS) and len(row) == n and all(
                isinstance(cell, _LISTS) and len(cell) == n for cell in row) for row in sc):
            raise DimensionError("structure constants must be a nonempty n*n*n nested list")
        flat = [parse_scalar(c) for row in sc for cell in row for c in cell]
        # an exact zero is the cube's own; a float zero keeps its sign
        kept = [p for p, c in enumerate(flat) if c or isinstance(c, float)]
        index = np.unravel_index(np.array(kept, dtype=np.intp), (n,) * 3)
        cube, scale = table_cube(n, index, [flat[p] for p in kept])
        if labels is None:
            labels = [f"e{i}" for i in range(n)]
        if not (isinstance(labels, _LISTS) and all(isinstance(x, str) for x in labels)):
            raise ParameterError(f"labels must be a list of strings, got {labels!r}")
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionError("label count must match the dimension")
        if len(set(labels)) != n:
            raise AlgebraError("basis labels must be unique")
        eps = tolerance(eps)
        if unit is not None:
            if not isinstance(unit, _LISTS):
                raise ParameterError(f"unit must be a list of coordinates, got {unit!r}")
            unit = tuple(parse_scalar(c) for c in unit)
            if len(unit) != n:
                raise DimensionError("unit coordinate length must match the dimension")
            _require_finite((c for c in unit if isinstance(c, float)), "unit coordinate")
            if cube.dtype == float:
                unit = tuple(float(c) for c in unit)
        self._setup(cube, scale, labels, unit, eps)

    @classmethod
    def _built(cls, cube: np.ndarray, scale: int, labels: tuple, eps: float,
               unit: Optional[tuple] = None) -> "Algebra":
        """The algebra of a validated table, built by `_setup` with no parsing."""
        algebra = cls.__new__(cls)
        algebra._setup(cube, scale, labels, unit, eps)
        return algebra

    def _setup(self, cube: np.ndarray, scale: int, labels: tuple, unit: Optional[tuple],
               eps: float) -> None:
        """Fill the algebra from a validated table and check the unit axiom.
        ``cube`` and ``scale`` are the table as `table_cube` stores it;
        ``unit`` holds parsed coordinates, floats on a float table."""
        cube.flags.writeable = False
        n = len(cube)
        self._cube = cube
        self._scale = scale
        self._scalar_mode = mode = "float" if cube.dtype == float else "exact"
        self._labels = labels
        self._unit = unit
        self._eps = eps
        self._family = _UNREAD
        self._sc = None
        self._element_slots = None
        self._float_copy = None

        # _rows[i][j] = ((k, c), ...) over the nonzero entries of cube[i, j]:
        # floats, or for an exact table the integers sc * _scale
        rows = [[[] for _ in range(n)] for _ in range(n)]
        index, values = nonzero_entries(cube)
        self._cube_max = max(map(abs, values), default=0)  # for `_fits_int64`
        for i, j, k, c in zip(*(a.tolist() for a in index), values):
            rows[i][j].append((k, c))
        self._rows = tuple(tuple(map(tuple, row)) for row in rows)

        if unit is None:
            return
        if mode == "exact" and any(isinstance(c, float) for c in unit):
            self.to_float()  # the unit's product is float: the copy checks it
            return
        # 1*e_j = e_j*1 = e_j on the rows, 1*x before x*1: exactly den * scale
        # e_j from the unit's integers over den, or within eps
        ints, den = integer_form(unit) if mode == "exact" else (unit, 1)
        terms, eps = _terms(ints), 0 if mode == "exact" else eps
        for j in range(n):
            for name, x, y in (("1*x", terms, [(j, 1)]), ("x*1", [(j, 1)], terms)):
                prod = self._accumulate(x, y)
                prod[j] -= den * scale
                if any(abs(c) > eps for c in prod):
                    raise AlgebraError(f"unit axiom violated on basis vector "
                                       f"{labels[j]} ({name})")

    # -- basic accessors ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._cube)

    @property
    def sc(self):
        """The table as nested tuples, built on first read: floats on a
        float table, and on an exact one Fractions, c / scale for each
        nonzero integer c of its rows."""
        if self._sc is None:
            if self._scalar_mode == "float":
                sc = self._cube.tolist()
            else:
                n = self.dim
                sc = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
                for i, row in enumerate(self._rows):
                    for j, cell in enumerate(row):
                        for k, c in cell:
                            sc[i][j][k] = Fraction(c, self._scale)
            self._sc = tuple(tuple(map(tuple, row)) for row in sc)
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
        """(name, params) of the catalog family whose point the table is in
        its given basis (`catalog.recognise`), or None; read off the cube on
        first use and kept."""
        if self._family is _UNREAD:
            from . import catalog

            self._family = catalog.recognise(self)
        return self._family

    def __repr__(self):
        tag = self.family[0] if self.family else "algebra"
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
            elements = [Element(self, v) for v in vectors]
            self._element_slots = tuple((e._coords, e._ints, e._den) for e in elements)
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
        term reaches stays the int 0.  The values u_i and v_j may be numpy
        columns, one entry per vector: then out[k] is a column whose
        entries are summed in the order each vector's own call sums them,
        with zero terms added where that call skips a zero coordinate
        (which can change only the sign of a zero sum)."""
        rows = self._rows
        out = [0] * self.dim
        for i, ui in u:
            row = rows[i]
            for j, vj in v:
                coeff = ui * vj
                for k, c in row[j]:
                    out[k] = out[k] + coeff * c
        return out

    def multiply_rows(self, X, Y) -> np.ndarray:
        """The (N, n) array whose row c is the product of the coordinate
        rows X[c] and Y[c]: the loop of `_accumulate` run once over the
        coordinate columns that some row uses (a column of zeros is
        skipped, as each row's own `multiply` skips its zero coordinates).
        Float rows, or any rows on a float table, give floats, summed on
        `to_float()` as each row's own `multiply` sums them.  Integer rows
        on an exact table give _scale times the product, as int64, or
        Python ints (object) where `_fits_int64` fails for the rows'
        largest entries.  Every unit check squares its points here, all of
        them in one call on their rows (the partial laws' units, the locus
        sampler, the Newton re-check), and the plane check takes its pair's
        four products in one call; the rows +-e1 cost one column pair.
        Object rows must hold integers, as the tensor kernels' rows must
        (`_require_integer_objects`)."""
        X, Y = np.asarray(X), np.asarray(Y)
        if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != self.dim:
            raise DimensionError(
                f"rows must be two (N, {self.dim}) arrays, got {X.shape} and {Y.shape}")
        _require_integer_objects(X, Y)
        square = Y is X  # a unit check: the rows' columns are read once
        if self._scalar_mode == "float" or "f" in (X.dtype.kind, Y.dtype.kind):
            table, dtype = self.to_float(), float
        else:
            table, dtype = self, np.int64
            xmax = int(np.abs(X).max(initial=0))
            vmax = xmax * (xmax if square else int(np.abs(Y).max(initial=0)))
            if object in (X.dtype, Y.dtype) or not _fits_int64(self.dim, self._cube_max, vmax):
                dtype = object
            X, Y = X.astype(dtype, copy=False), Y.astype(dtype, copy=False)
        u = [(i, X[:, i]) for i, used in enumerate(X.any(axis=0).tolist()) if used]
        cols = table._accumulate(u, u if square else [
            (i, Y[:, i]) for i, used in enumerate(Y.any(axis=0).tolist()) if used])
        out = np.zeros((len(X), self.dim), dtype=dtype)
        for k, col in enumerate(cols):
            if isinstance(col, np.ndarray):  # else the int 0: no term reached it
                out[:, k] = col
        return out

    def _own(self, *elements: Element) -> None:
        for e in elements:
            if not isinstance(e, Element):
                raise TypeError(f"expected Element, got {type(e).__name__}")
            if e.algebra is not self:
                raise DimensionError("element belongs to a different algebra")

    def multiply(self, a: Element, b: Element) -> Element:
        self._own(a, b)
        if a._den and b._den:
            prod = self._accumulate(_terms(a._ints), _terms(b._ints))
            return Element._exact(self, prod, a._den * b._den * self._scale)
        return Element(self, self.to_float()._accumulate(_terms(map(float, a.coords)),
                                                         _terms(map(float, b.coords))))

    def associator(self, x: Element, y: Element, z: Element) -> Element:
        """(x, y, z) = (xy)z - x(yz)."""
        mul = self.multiply
        return mul(mul(x, y), z) - mul(x, mul(y, z))

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y] = xy - yx."""
        return self.multiply(x, y) - self.multiply(y, x)

    def mul_operator(self, a: Element, side: str = "left") -> MulOperator:
        """Matrix of x -> a*x (side "left", column j = a*e_j) or of
        x -> x*a (side "right", column j = e_j*a)."""
        self._own(a)
        if a._den:
            den = a._den * self._scale
            cols = [_fractions(col, den) for col in self._operator_columns(a._ints, side)]
        else:
            cols = self.to_float()._operator_columns(map(float, a.coords), side)
        return MulOperator(side, list(zip(*cols)), a)

    def _operator_columns(self, coords, side: str) -> list:
        """The columns of x -> v x (side "left": column j = v e_j) or of
        x -> x v ("right": e_j v) for the vector v of the given
        coordinates, by the product loop on this table's rows: the table's
        integers (a positive multiple of the true product) on an exact
        table."""
        acc, terms = self._accumulate, _terms(coords)
        return [acc(terms, [(j, 1)]) if side == "left" else acc([(j, 1)], terms)
                for j in range(self.dim)]

    # -- tensor view ----------------------------------------------------------

    @property
    def cube(self) -> np.ndarray:
        """The table as a read-only n*n*n array: a float table as float64,
        its -0.0 entries kept; an exact one as its integers over its lcm
        scale, int64 (Python ints where `_fits_int64` fails).  Only zero
        tests read an exact cube, and a positive scale cannot change those."""
        return self._cube

    def _operands(self, X, degree: int) -> tuple:
        """(S, X) for the tensor kernels: the cube S and the (N, n) array X
        of coordinate rows.  A float table or float rows make both floats,
        S the cube of `to_float()`.  Otherwise each row is integers, a
        positive multiple of its vector; S and X are int64 when
        `_fits_int64` holds for the kernel's product of ``degree`` such
        rows, and Python ints otherwise.  Object rows must hold integers
        (`_require_integer_objects`)."""
        S, n, X = self.cube, self.dim, np.asarray(X)
        if X.ndim != 2 or X.shape[1] != n:
            raise DimensionError(f"rows must be an (N, {n}) array, got {X.shape}")
        _require_integer_objects(X)
        if X.dtype.kind == "f" or S.dtype == float:
            return self.to_float().cube, X.astype(float, copy=False)
        vmax = int(np.abs(X).max(initial=0))
        if S.dtype == object or not _fits_int64(
                n, self._cube_max, n ** (degree - 1) * vmax ** degree):
            S = S.astype(object)
        return S, X.astype(S.dtype, copy=False)

    def associator_slices(self, slots: tuple, rows) -> np.ndarray:
        """The associator with the coordinate row v = rows[c] in each
        argument ``slots`` names and e_a, then e_b, in the others, in
        order: one slot, (0,), (1,) or (2,), gives D[c, a, b, :]; two,
        (0, 1), (1, 2) or (0, 2), give D[c, a, :], the left alternative,
        right alternative or flexible law at (v, e_a).  Built from L[c, m] = v e_m and R[c, m] =
        e_m v.  Integers, for each c a positive multiple of the true
        coordinates, or floats as `_operands` rules.  Test with
        `first_defect`."""
        if slots not in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):
            raise ParameterError(
                "associator slots must be (0,), (1,), (2,), (0, 1), (1, 2) "
                f"or (0, 2), got {slots!r}")
        S, X = self._operands(rows, len(slots))
        L, R = np.tensordot(X, S, 1), np.tensordot(X, S, (1, 1))  # v e_m, e_m v
        if slots == (0,):  # (v e_a) e_b - v (e_a e_b)
            return np.tensordot(L, S, 1) - np.moveaxis(np.tensordot(S, L, (2, 1)), 2, 0)
        if slots == (1,):  # (e_a v) e_b - e_a (v e_b)
            return np.tensordot(R, S, 1) - np.tensordot(L, S, (2, 1)).swapaxes(1, 2)
        if slots == (2,):  # (e_a e_b) v - e_a (e_b v)
            return (np.moveaxis(np.tensordot(S, R, (2, 1)), 2, 0)
                    - np.tensordot(R, S, (2, 1)).swapaxes(1, 2))
        if slots == (0, 2):  # (v e_a) v - v (e_a v)
            return L @ R - R @ L
        vv = (X[:, None, :] @ L)[:, 0]
        if slots == (0, 1):  # (v v) e_a - v (v e_a)
            return np.tensordot(vv, S, 1) - L @ L
        # (e_a v) v - e_a (v v)
        return R @ R - np.tensordot(vv, S, (1, 1))

    def mul_operators(self, rows) -> np.ndarray:
        """M[c, 0] and M[c, 1], the matrices of x -> v x and x -> x v for
        each coordinate row v = rows[c], laid out as `mul_operator` lays
        them out: M[c, 0, r, j] = sum_i v_i S[i, j, r] and M[c, 1, r, j] =
        sum_i v_i S[j, i, r].  Floats as `_operands` rules: accumulated over i in
        order, on a float table bit for bit the entries of `mul_operator`.
        Otherwise the integer rows of `_operands` against the table's
        integers, both reduced modulo the prime MODULUS first, so int64
        whatever the table's entries: a positive multiple of the true
        matrices, modulo MODULUS."""
        return self._operators(*self._operands(rows, 1))

    def _operators(self, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        """`mul_operators` of the rows X against the cube S of `_operands`.
        When every row has the same k <= 2 nonzero coordinates (the
        division test's basis vectors and pair sums), each row's operators
        are its k slices of the cube, times its coordinates, added in
        column order: the terms the loop over all columns adds, without its
        zero terms, which leave every entry's bits as they are."""
        # sides[i, 0] = the left operator of e_i, sides[i, 1] the right one
        sides = np.stack((S.transpose(0, 2, 1), S.transpose(1, 2, 0)), axis=1)
        exact = S.dtype != float
        if exact:
            # residues: n products below 2**52 each, exact in int64 as n < 2**11
            X, sides = ((a % MODULUS).astype(np.int64) for a in (X, sides))
        counts = np.count_nonzero(X, axis=1)
        k = int(counts[0]) if len(X) else 0
        if 0 < k <= 2 and (counts == k).all():
            rows, cols = np.nonzero(X)  # row by row, each row's columns in order
            cols = cols.reshape(-1, k)
            coeffs = X[rows, cols.ravel()].reshape(-1, k, 1, 1, 1)
            M = coeffs[:, 0] * sides[cols[:, 0]] + 0  # 0 + t, as the loop starts
            if k == 2:
                M += coeffs[:, 1] * sides[cols[:, 1]]
        elif exact:
            M = np.tensordot(X, sides, 1)
        else:
            M = np.zeros((len(X), 2, self.dim, self.dim))
            for i in range(self.dim):
                M += X[:, i, None, None, None] * sides[i]
        return M % MODULUS if exact else M

    def first_singular(self, rows, eps: Optional[float] = None) -> Optional[int]:
        """The index c of the first coordinate row v = rows[c] for which
        x -> v x or x -> x v is singular, as `MulOperator.is_singular`
        decides it at eps, else None; every operator comes from
        `mul_operators`.  Float operators (a float table, or float rows)
        have their determinants compared within eps, on a float table bit
        for bit `linalg.det`'s (`linalg.dets`).  Otherwise a determinant
        nonzero modulo the prime MODULUS proves the operator invertible
        (`linalg.nonsingular_mod`), and only an operator singular modulo
        the prime is tested again, by the exact determinant of its integer
        matrix."""
        from . import linalg

        eps = tolerance(eps, self.eps)
        S, X = self._operands(rows, 1)
        M = self._operators(S, X)
        exact = M.dtype != float
        flagged = ~linalg.nonsingular_mod(M) if exact else np.abs(linalg.dets(M, eps)) <= eps
        for c, side in zip(*np.nonzero(flagged)):
            if not exact or not linalg.det(list(zip(*self._operator_columns(
                    X[c].tolist(), ("left", "right")[side])))):
                return int(c)
        return None

    # -- conversions ----------------------------------------------------------

    def to_float(self) -> "Algebra":
        """The float copy, built on first use and kept; a float table is its
        own.  Each entry is c / scale for the cube's integer c, a quotient of
        ints rounded once (as float() rounds a Fraction).  Building it checks
        the unit axiom in floats (AlgebraError)."""
        if self._scalar_mode == "float":
            return self
        if self._float_copy is None:
            cube = np.zeros(self._cube.shape)
            index, values = nonzero_entries(self._cube)
            cube[index] = [c / self._scale for c in values]
            unit = None if self._unit is None else tuple(float(c) for c in self._unit)
            self._float_copy = Algebra._built(cube, 1, self._labels, self._eps, unit)
        return self._float_copy

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self._labels),
            "unit": None if self._unit is None else [scalar_to_json(c) for c in self._unit],
            "sc": [
                [[scalar_to_json(c) for c in cell] for cell in row]
                for row in self.sc
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Algebra":
        try:
            sc = data["sc"]
        except (TypeError, KeyError):
            raise AlgebraError("algebra JSON must contain an 'sc' cube") from None
        if "dim" in data and type(data["dim"]) is not int:
            raise ParameterError(f"declared dim must be an integer, got {data['dim']!r}")
        algebra = cls(sc, labels=data.get("labels"), unit=data.get("unit"))
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


def table_cube(n: int, index: tuple, values: Sequence) -> tuple:
    """(cube, scale): the n*n*n table holding ``values`` at ``index`` (intp
    index arrays, one per axis) and zeros elsewhere, stored as every table
    is: float64 when any value is a float (NaN and infinities rejected),
    else the integers of `integer_form` over their lcm scale, int64 while
    `_fits_int64` holds and Python ints past it."""
    if any(isinstance(c, float) for c in values):
        values, scale = [float(c) for c in values], 1
        _require_finite(values, "structure constant")
        cube = np.zeros((n,) * 3)
    else:
        values, scale = integer_form(values)
        big = max(map(abs, values), default=0)
        cube = np.zeros((n,) * 3, dtype=np.int64 if _fits_int64(n, big, 1) else object)
    cube[index] = values
    return cube, scale


def integer_form(values: Sequence) -> tuple:
    """(ints, den): rationals, a float at its exact value, as the integers
    ints over den, the lcm of their denominators (of reduced Fractions: the
    canonical form, gcd(den, *ints) == 1)."""
    try:
        ratios = [c.as_integer_ratio() for c in values]
    except AttributeError:  # a Rational without the method, a numpy integer say
        ratios = [Fraction(c).as_integer_ratio() for c in values]
    den = math.lcm(*[d for _, d in ratios])
    return tuple([p * (den // d) for p, d in ratios]), den


def nonzero_entries(cube: np.ndarray) -> tuple:
    """(index, values): the index arrays of a cube's nonzero entries, in
    C order, and those entries as Python scalars."""
    index = np.nonzero(cube)
    return index, cube[index].tolist()


def _terms(ints: Sequence) -> list:
    """The (index, value) pairs of a vector's nonzero entries."""
    return [(i, c) for i, c in enumerate(ints) if c]


def _fractions(ints: Sequence, den: int) -> list:
    """ints / den as Fractions, one per entry."""
    return [Fraction(c, den) if c else _ZERO for c in ints]


def _require_finite(values, what: str) -> None:
    for c in values:
        if not math.isfinite(c):
            raise ParameterError(f"{what} must be finite, got {c!r}")


def _require_integer_objects(*arrays: np.ndarray) -> None:
    """The rule for coordinate rows held as Python objects: they are read
    as integers, so each entry must be one (DimensionError otherwise); a
    float coordinate belongs in float rows."""
    for X in arrays:
        if X.dtype == object and not all(isinstance(v, numbers.Integral) for v in X.flat):
            raise DimensionError("object rows must hold integers")


def _fits_int64(n: int, smax: int, vmax: int) -> bool:
    """Can int64 hold the slices of an n-dim cube with entries up to smax
    against a vector with entries up to vmax?  A slice entry is a difference
    of two sums of n*n products S*S*v; a two-slot `associator_slices`
    entry, of two sums of n^3 products S*S*v*v, passes n*vmax^2 as vmax."""
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


def morphism_defect(src: "Algebra", dst: "Algebra", mat, eps: float) -> Optional[tuple]:
    """First (i, j) in lexicographic order with f(e_i e_j) != f(e_i) f(e_j),
    column i of ``mat`` being f(e_i), or None: a proof, by bilinearity.
    Exact data compares exactly, in Python ints: the cubes the algebras
    hold (the tables times their scales s and t) and the map as ints over
    its denominator d, each side scaled to d^2 s t times its true value.
    With any float present, the cubes of `to_float()` compare within eps."""
    n = len(mat)
    if "float" in (src.scalar_mode, dst.scalar_mode) or any(
            isinstance(c, float) for row in mat for c in row):
        S, T = (A.to_float().cube for A in (src, dst))
        Mt = np.array(mat, dtype=float).T
        lhs, rhs = 1, 1
    else:
        S, T = (A.cube.astype(object) for A in (src, dst))
        ints, den = integer_form([c for row in mat for c in row])
        Mt = np.array(ints, dtype=object).reshape(n, n).T
        lhs, rhs = den * dst._scale, src._scale
    direct = np.dot(Mt, np.dot(Mt, T.reshape(n, -1)).reshape(n, n, n))
    return first_defect(lhs * np.dot(S, Mt) - rhs * direct.swapaxes(0, 1), eps)


# seeded draws -----------------------------------------------------------------

# The draws below read the Mersenne Twister's 32-bit words in blocks of at
# most this many, so a long draw holds a few small temporaries at a time.
_BLOCK_WORDS = 4096
# 12 // randint(1, 4), indexed by the top 3 bits of the word that drew it
_TWELFTHS = np.array([12, 6, 4, 3], dtype=np.int64)


def _words(rng: random.Random, k: int) -> np.ndarray:
    """The next k 32-bit outputs of ``rng``'s generator, in order:
    getrandbits(32 k) fills its integer least significant word first."""
    return np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")


def draw_twelfths(rng: random.Random, count) -> np.ndarray:
    """What ``[rng.randint(-6, 6) * (12 // rng.randint(1, 4)) for _ in
    range(count)]`` returns, as int64, leaving ``rng`` in the state that
    loop leaves it: ``count`` rationals randint(-6, 6) / randint(1, 4),
    drawn in that order, each as its value over 12.

    CPython's randint(a, b) takes the top bits of one word, as many as
    b - a + 1 has, and draws again while they are >= b - a + 1.  So a word
    whose top bit is 0 is taken in either state and switches between
    drawing a numerator and a denominator; a word whose top 4 bits are
    8..12 is taken only as a numerator, after which a denominator is due;
    any other word is skipped.  The state before each word is then the
    parity of the switching words since the last word of the second kind,
    read off by two accumulates per block.  The words past the last
    denominator are put back: the generator is restored to the block's
    start and advanced by the words used.  That randint rule is how
    CPython 3.10 to 3.13 implement it, not a documented guarantee; the
    tests pin it against the loop."""
    count = require_count(count, "draw count")
    out = np.empty(count, dtype=np.int64)
    done, pending = 0, np.empty(0, dtype=np.int64)  # a numerator without its denominator
    while done < count:
        need = count - done
        state = rng.getstate()
        # a twelfth takes 3.2 words on average, at least two
        w = _words(rng, min(_BLOCK_WORDS, 4 * need))
        top = w >> 28
        flip = top < 8
        # entry 0 is a virtual word that sets the state at the block's
        # start: a reset when a numerator is pending
        reset = np.concatenate([[len(pending) > 0], ~flip & (top < 13)])
        parity = np.bitwise_xor.accumulate(np.concatenate([[False], flip]))
        last = np.maximum.accumulate(np.where(reset, np.arange(len(reset)), 0))
        # True before a word where a denominator is due
        due = (parity ^ parity[last] ^ reset[last])[:-1]
        nums = np.concatenate([pending, top[~due & (top < 13)].astype(np.int64) - 6])
        at = np.flatnonzero(due & flip)
        dens = _TWELFTHS[w[at] >> 29]
        if len(dens) >= need:
            out[done:] = nums[:need] * dens[:need]
            used = int(at[need - 1]) + 1
            if used < len(w):
                rng.setstate(state)
                rng.getrandbits(32 * used)
            break
        out[done:done + len(dens)] = nums[:len(dens)] * dens
        done, pending = done + len(dens), nums[len(dens):]
    return out


def draw_uniform(rng: random.Random, lo, hi, count) -> np.ndarray:
    """What ``[rng.uniform(lo, hi) for _ in range(count)]`` returns, as
    float64, for int or float bounds, leaving ``rng`` where that loop
    leaves it.  CPython's uniform is lo + (hi - lo) * random(), and random()
    is ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 of two words, every step
    exact or rounded once in float64 as numpy rounds it."""
    count = require_count(count, "draw count")
    out = np.empty(count)
    step = _BLOCK_WORDS // 2
    for start in range(0, count, step):
        w = _words(rng, 2 * min(step, count - start))
        r = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        out[start:start + len(r)] = lo + (hi - lo) * r
    return out


# module-level operation aliases ------------------------------------------------


def multiply(a: Element, b: Element) -> Element:
    return a.algebra.multiply(a, b)


def associator(x: Element, y: Element, z: Element) -> Element:
    return x.algebra.associator(x, y, z)


def commutator(x: Element, y: Element) -> Element:
    return x.algebra.commutator(x, y)


def mul_operator(a: Element, side: str = "left") -> MulOperator:
    return a.algebra.mul_operator(a, side)
