"""What the tests check altkit against, beside the benchmark's reference.

`perfbench.reference.RefTable` evaluates a structure-constant table without
importing altkit: products, associators, law and partial-law verdicts,
witness validity, unit residuals, operator singularity, the commutative
nucleus, Lie brackets, Jacobi, derived dimensions and Lie type.  This
module holds only what it lacks, and imports no altkit either:

- `morphism_defect`: an isomorphism checked by transported products;
- `rref`: Gauss-Jordan elimination in Fractions, the reduced row echelon
  form `altkit.linalg.rref` gives on exact rows;
- `rank` and `same_span`: span equality of two row sets;
- `inverse`: the exact inverse of a matrix;
- `typed`: a type-for-type view, for the pins that compare bit for bit;
- `coords`: the coordinate lists of some elements;
- `random_rational` and `random_element`: the tests' seeded draws;
- `scaled`: a table times 2^40 + 1, the tests' cube past int64;
- `CATALOG_TABLES`: the catalog points the test modules share, as data.

A table is read through its ``sc``, ``unit`` and ``eps``.  Rational data
compares exactly; as soon as a float is involved, within eps.

RefTable contracts its integer cube with `np.einsum`, which refuses a cube
of Python ints before numpy 1.25.  So no RefTable is built on a table past
int64: `ref` reads such a table as a multiple of one that fits, and the
isomorphism check multiplies on the table's own entries.
"""

import itertools
import math
import weakref
from fractions import Fraction

import numpy as np

from perfbench.reference import RefTable

_REFS = weakref.WeakKeyDictionary()
_SCALARS = {bool, int, float, Fraction, np.int64, np.float64, type(None)}


def ref(A):
    """The RefTable of A's table, built once per table, which no test
    changes (a Lie algebra's table is its brackets, so `RefTable.mul` is
    the bracket).  An exact table past int64 is g times the integer table
    S with no common factor; it is read off S's RefTable (`_Multiple`),
    and a ValueError names a table whose S too is past int64."""
    if A not in _REFS:
        unit = list(A.unit) if A.unit is not None else [0] * A.dim
        entries = [c for row in A.sc for cell in row for c in cell]
        if any(isinstance(c, float) for c in entries) or _fits_int64(A.dim, entries):
            _REFS[A] = RefTable(A.sc, unit, A.eps)
        else:
            entries = [Fraction(c) for c in entries]
            g = Fraction(math.gcd(*(c.numerator for c in entries)),
                         math.lcm(*(c.denominator for c in entries)))
            S = [[[Fraction(c) / g for c in cell] for cell in row] for row in A.sc]
            if not _fits_int64(A.dim, [c for row in S for cell in row for c in cell]):
                raise ValueError(f"{A!r}: no multiple of its table fits int64")
            _REFS[A] = _Multiple(RefTable(S, [g * c for c in unit], A.eps), g)
    return _REFS[A]


def _fits_int64(n, entries) -> bool:
    """RefTable's own bound: its cube T sums n products of two entries of
    the table scaled to integers."""
    scale = math.lcm(*(c.denominator for c in entries))
    big = max(abs(c.numerator) * (scale // c.denominator) for c in entries)
    return n * big * big * 4 < 2**62


class _Multiple:
    """RefTable's answers on the table g * S, read off the RefTable R of S:
    products are g times S's and associators g^2 times (T over
    ``scale ** 2``), so each exact zero test, law verdict and nucleus is
    S's."""

    def __init__(self, R, g):
        self._R, self._g = R, g
        self.n, self.eps, self.exact, self.T = R.n, R.eps, R.exact, R.T
        self.scale = R.scale / g
        self.vec_zero, self.vec_close = R.vec_zero, R.vec_close
        self.law_holds, self.partial_law_holds = R.law_holds, R.partial_law_holds
        self.nucleus_ok = R.nucleus_ok

    def mul(self, u, v) -> list:
        return [self._g * c for c in self._R.mul(u, v)]

    def assoc(self, x, y, z) -> list:
        return [self._g**2 * c for c in self._R.assoc(x, y, z)]


# RefTable's zero and closeness tests read no table: the oracle's own
# checks take them off a one-dimensional zero table
_TESTS = RefTable([[[0]]], [0], 0.0)
close = _TESTS.vec_close


def lie_ref(L) -> RefTable:
    """A RefTable whose commutator brackets are L's brackets: the table of
    half of each bracket, exact in Fractions and in binary floats."""
    half = [[[c / 2 for c in cell] for cell in row] for row in L.sc]
    return RefTable(half, [0] * L.dim, L.eps)


def _scalar(c):
    if isinstance(c, (float, np.floating)):
        return float(c)
    return c if isinstance(c, Fraction) else Fraction(c)


def _matrix(mat) -> list:
    return [[_scalar(c) for c in row] for row in mat]


def rref(rows):
    """The reduced row echelon form of rational rows, by Gauss-Jordan
    elimination in Fractions: (its nonzero rows, their pivot columns), the
    pivot of each column the first row left with a nonzero entry there."""
    rows = _matrix(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def rank(rows, eps: float = 0.0) -> int:
    """The rank of a list of rows: `rref`'s when every entry is rational,
    else the singular values above eps."""
    if any(isinstance(c, (float, np.floating)) for row in rows for c in row):
        return int(np.linalg.matrix_rank(np.array(rows, dtype=float), tol=eps))
    return len(rref(rows)[1])


def same_span(rows, others, eps: float = 0.0) -> bool:
    """Whether two row sets span the same space."""
    r = rank(rows, eps)
    return r == rank(others, eps) == rank(list(rows) + list(others), eps)


def inverse(mat) -> list:
    """The exact inverse, by `rref` of [mat | identity]."""
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def _apply(mat, x) -> list:
    """mat times the vector x, over the nonzero entries."""
    terms = [(k, c) for k, c in enumerate(x) if c]
    return [sum(row[k] * c for k, c in terms if row[k]) for row in mat]


def _product(sc, x, y) -> list:
    """x y on the table sc, over the nonzero coordinates."""
    out = [0] * len(sc)
    terms = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        for j, b in terms if a else ():
            ab = a * b
            for k, c in enumerate(sc[i][j]):
                if c:
                    out[k] += ab * c
    return out


def morphism_defect(src, dst, mat, eps=None):
    """The first basis pair (i, j), in lexicographic order, at which
    f(e_i e_j) != f(e_i) f(e_j), for f the map whose column i is f(e_i), as
    ((i, j), f(e_i e_j), f(e_i) f(e_j)); None when every pair agrees, which
    by bilinearity makes f multiplicative.  Floats compare within eps, by
    default the larger of the two tables' eps."""
    mat = _matrix(mat)
    eps = max(src.eps, dst.eps) if eps is None else eps
    cols = [list(col) for col in zip(*mat)]
    for i, j in itertools.product(range(src.dim), repeat=2):
        mapped = _apply(mat, src.sc[i][j])
        direct = _product(dst.sc, cols[i], cols[j])
        if not _TESTS.vec_zero([a - b for a, b in zip(mapped, direct)], eps):
            return (i, j), mapped, direct
    return None


def is_isomorphism(src, dst, mat, eps=None) -> bool:
    """An invertible map that carries every basis product to the product of
    the images."""
    eps = max(src.eps, dst.eps) if eps is None else eps
    return (src.dim == dst.dim == len(mat)
            and morphism_defect(src, dst, mat, eps) is None and rank(mat, eps) == src.dim)


def transport(src, mat) -> list:
    """The table on which the invertible map ``mat`` (columns: images of
    src's basis vectors) is an isomorphism from src:
    e_a * e_b = f(f^-1(e_a) f^-1(e_b))."""
    pre = [list(col) for col in zip(*inverse(mat))]
    return [[_apply(mat, _product(src.sc, pre[a], pre[b])) for b in range(src.dim)]
            for a in range(src.dim)]


def typed(x):
    """x with each scalar as its type and repr, an array beside its dtype,
    and an Element (anything with ``coords``) as its coordinates.  A
    float's repr is exact, so equal views are equal bit for bit, the sign
    of a zero included."""
    if type(x) in _SCALARS:
        return type(x), repr(x)
    if isinstance(x, np.ndarray):
        return str(x.dtype), typed(x.tolist())
    x = getattr(x, "coords", x)
    if isinstance(x, (list, tuple)):
        return [(type(y), repr(y)) if type(y) in _SCALARS else typed(y) for y in x]
    return type(x), repr(x)


def scaled(A, c=2**40 + 1):
    """A with its table times c and its unit over c: a cube of Python ints
    unless the table is zero, which `ref` reads as a multiple of A's."""
    unit = None if A.unit is None else [u / c for u in A.unit]
    big = type(A)([[[x * c for x in cell] for cell in row] for row in A.sc],
                  labels=A.labels, unit=unit, eps=A.eps)
    assert big.cube.dtype == object or not big.cube.any()
    return big


def coords(elements):
    """The coordinate lists of some elements; None for None."""
    return None if elements is None else [list(e.coords) for e in elements]


def random_rational(rng) -> Fraction:
    """randint(-6, 6) over randint(1, 4), drawn in that order."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_element(A, rng):
    """An element of A drawn coordinate by coordinate: uniform(-6, 6) on a
    float table, `random_rational` otherwise.  The division test's draws
    are this stream."""
    if A.scalar_mode == "float":
        return A.element([rng.uniform(-6, 6) for _ in range(A.dim)])
    return A.element([random_rational(rng) for _ in range(A.dim)])


# The catalog points the test modules share, as (family, parameters) for
# `altkit.catalog.build`; each module adds only its own extras.
CATALOG_TABLES = (
    ("ak", {"k": 1, "a11": 1, "a12": 1}),
    ("ak", {"k": 2, "a11": Fraction(1, 3), "a12": 2, "a21": Fraction(5, 2), "a22": 7}),
    ("ak", {"k": 3}),
    ("tn", {"a": -3, "b": 1, "c": 2, "d": Fraction(1, 2), "f": 1, "g": -1, "h": 3,
            "e": Fraction(-2, 3)}),
    ("tn", {"a": 2, "b": 1}),
    ("tn", {"a": -1, "g": 1, "h": 1}),
    ("tc", {"a": 2, "b": Fraction(-1, 3), "f": 1, "g": 2, "h": 1}),
    ("tp", {"alpha1": -1, "beta2": -1, "delta2": 1, "gamma1": -1}),
    ("tp", {"alpha1": Fraction(1, 2), "alpha2": 3, "beta1": Fraction(-4, 3), "beta2": 1,
            "delta1": 2, "delta2": Fraction(1, 5), "gamma1": -1, "gamma2": Fraction(7, 4)}),
    ("mplus", {}),
    ("mzero", {}),
    ("quaternions", {}),
    ("complex", {}),
)


def catalog_tables(build) -> list:
    """The shared catalog points, each built by ``build(family, **params)``."""
    return [build(family, **params) for family, params in CATALOG_TABLES]
