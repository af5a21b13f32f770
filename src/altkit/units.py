"""Imaginary units: solutions of q*q = -1.

Three tools live here.  A Newton solver samples the solution set of
F(q) = q*q + 1 from seeded starting points, using the closed-form Jacobian
J(q) = L_q + R_q read off the structure constants.  All starts step
together: one product of the live rows with the symmetrised table gives
every row's J, and F = J(q)q/2 + 1 with it, and one stacked solve steps
them all.  That solve does not stop at an exactly singular Jacobian: the
row gets a NaN step and leaves with the diverging rows, while every other
row gets the step it would get alone.  A classifier names the
exact locus for tn-family points, where the solution set in the span of
{i, j, k} is cut out by -x^2 + a(y^2 + z^2) = -1, and a sampler draws
rational points on it as integer rows, checking each round of draws as
units by one batched product and building Elements only for the points
that pass.  A box-pruned grid search lists, completely and in ascending
grid-index order, every grid point of a coordinate box that solves the
equation; interval bounds discard boxes that provably contain no
solution, so the full grid never has to be visited point by point.  The
search is level-synchronous: the boxes of one level are integer index
arrays, bounded together by one kernel, and a box that survives is split
until it is one grid point, whose bound is that point's exact value.
The bounds are exact integer arithmetic (int64 while
a bound shows no sum can overflow, Python ints otherwise) on one
quadratic form scaled from the table's exact values (a float entry at its
binary value), so the search's completeness is a proof, not a float
estimate.  On a float table the tolerance enters as an integer limit, the
floor of tol on the form's scale, which no integer can tell from tol
itself.  Tolerances act only on floats: on an exact table every test
here, the grid's included, is exact whatever ``tol`` is passed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from . import catalog
from .core import (
    Algebra,
    AlgebraError,
    Element,
    ParameterError,
    draw_uniform,
    integer_form,
    nonzero_entries,
    parse_scalar,
    require_count,
    scalar_is_zero,
    scalar_to_json,
    tolerance,
)

KIND_FINITE = "finite-set"
KIND_SPHERE = "sphere"
KIND_HYPERBOLOID = "hyperboloid-two-sheets"
KIND_PLANES = "parallel-planes"
KIND_CLOUD = "sampled-cloud"

# cells of one block of the dedup mask or of the grid's box bound: bounds
# their memory at any sample or box count
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class UnitLocus:
    """Description of {q : q*q = -1}.

    ``points`` is the complete solution set for a finite locus and a sample
    otherwise.  ``equation`` records c_x x^2 + c_y y^2 + c_z z^2 = rhs over
    the ``ambient`` basis indices when the locus is a named quadric.
    """

    kind: str
    points: tuple
    equation: Optional[dict]
    ambient: tuple

    @property
    def complete(self) -> bool:
        return self.kind == KIND_FINITE

    def to_dict(self, max_points: Optional[int] = None) -> dict:
        pts = self.points if max_points is None else self.points[:max_points]
        return {
            "kind": self.kind,
            "equation": None if self.equation is None else {
                key: scalar_to_json(val) for key, val in self.equation.items()
            },
            "ambient": list(self.ambient),
            "points": [p.json_coords() for p in pts],
        }


def verify_unit(A: Algebra, q: Element, tol: Optional[float] = None) -> bool:
    """Whether q*q + 1 vanishes (exactly, or within tol for float scalars)."""
    tol = tolerance(tol, A.eps)
    defect = A.multiply(q, q) + A.one()
    return defect.is_zero(tol)


def _are_units(A: Algebra, X: np.ndarray, dens, tol: float):
    """Which of the points are units of A, `verify_unit`'s verdict on
    each, by one `Algebra.multiply_rows` call on their coordinate rows.
    With ``dens`` None the rows X are the points, as floats, and a point
    passes when q*q + 1 lies within tol in every coordinate, the unit read
    as floats: a boolean array.  Otherwise A is exact and the points are
    the integer rows X[c] over dens[c]: the product M of a row with itself
    is _scale D^2 q*q at D = dens[c], so q*q + 1 = 0 iff M u_den + _scale
    D^2 u_ints = 0 for the unit u_ints / u_den; a float unit is added to
    q*q's Fractions, as `verify_unit` adds them: a list of bools."""
    one = A.one()
    sq = A.multiply_rows(X, X)
    if dens is None:
        return np.all(np.abs(sq + np.array(one.coords, dtype=float)) <= tol, axis=1)
    s, out = A._scale, []
    for den, m in zip(dens, sq.tolist()):
        d2 = s * den * den
        if one._den:
            out.append(not any(mk * one._den + d2 * u for mk, u in zip(m, one._ints)))
        else:
            out.append(all(scalar_is_zero(Fraction(mk, d2) + u, tol)
                           for mk, u in zip(m, one.coords)))
    return out


def _int_rows(ints: list) -> np.ndarray:
    """Integer rows as an array: int64, or Python ints past its range."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


# -- Newton sampling ----------------------------------------------------------


def solve_units_sampled(
    A: Algebra,
    seeds: int = 200,
    tol: Optional[float] = None,
    seed: int = 0,
) -> UnitLocus:
    """Newton-iterate F(q) = q*q + 1 from seeded starting points.

    Start points are all +-basis vectors plus ``seeds`` uniform draws from
    [-2, 2]^n: the values of seeds * n calls of uniform(-2.0, 2.0) on
    random.Random(seed), read in one `draw_uniform`.  All live starts step
    together: one product of the rows with the symmetrised table gives, per
    row, J = L_q + R_q and, since J(q)q = 2 q*q, also F = J(q)q/2 + 1; one
    stacked solve then steps every row.  Rows with max|F| <= tol leave as
    converged, and their steps are dropped.  A row is abandoned when its
    step leaves max|q| <= 1e6 or is not finite, or when it has not converged
    after 100 iterations.  The solve is the gufunc behind
    ``np.linalg.solve``, called without the wrapper's raise: an exactly
    singular Jacobian (a zero pivot in LAPACK's LU factorisation) gives its
    row a NaN step, which fails the box test, and leaves every other row's
    step as a solve of that row alone gives it.  Converged points are
    deduplicated in start order: a point is kept unless a kept point lies
    within 10*tol of it in every coordinate.  The kept points are re-checked
    together, q*q + 1 within tol in every coordinate, by one
    `Algebra.multiply_rows` call on their coordinate rows, and those that
    pass are returned as a sampled cloud.
    """
    if A.unit is None:
        raise AlgebraError("unit sampling needs a unital algebra")
    tol = tolerance(tol, A.eps)
    seeds = require_count(seeds, "seed count")
    n = A.dim
    sc = A.to_float().cube
    one = np.array(A.unit, dtype=float)
    # row x of x @ sym, read as an n x n matrix G, has G[j, k] = (x*e_j + e_j*x)_k
    sym = (sc + sc.transpose(1, 0, 2)).reshape(n, n * n)

    basis = np.eye(n)
    x = np.vstack([np.stack([basis, -basis], axis=1).reshape(2 * n, n),
                   draw_uniform(random.Random(seed), -2.0, 2.0, seeds * n).reshape(seeds, n)])

    # x holds the live rows, start[r] the start index of row r; a row that
    # converges is written to its start's slot of found
    found = np.empty_like(x)
    converged = np.zeros(len(x), dtype=bool)
    start = np.arange(len(x))
    for _ in range(100):
        if not len(x):
            break
        G = (x @ sym).reshape(-1, n, n)
        res = 0.5 * np.einsum("sj,sjk->sk", x, G) + one
        done = (np.abs(res) <= tol).all(axis=1)
        # np.linalg.solve's own gufunc and error state, without its raise on
        # a singular row: that row's step is NaN, every other row's is the
        # step solved alone
        with np.errstate(all="ignore"):
            step = _umath_linalg.solve(G.transpose(0, 2, 1), res[..., None],
                                       signature="dd->d")[..., 0]
        x_next = x - step
        # a NaN or infinite step fails the box test
        live = ~done & (np.abs(x_next) <= 1e6).all(axis=1)
        if done.any():
            slots = start[done]
            found[slots], converged[slots] = x[done], True
        if live.all():
            x = x_next
        else:
            x, start = x_next[live], start[live]

    found = found[converged]
    found = found[_first_apart(found, 10 * tol)]
    points = tuple(Element._of(A, tuple(xc), None, 0)
                   for xc in found[_are_units(A, found, None, tol)].tolist())
    return UnitLocus(KIND_CLOUD, points, None, tuple(range(n)))


def _first_apart(X: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the rows of X kept greedily in order: a row is kept unless a
    kept row lies within ``radius`` of it in every coordinate.  A block of
    rows is compared, one coordinate at a time, with the rows kept before
    it and with itself, so memory stays near _BLOCK_CELLS cells whatever
    the row count."""
    m, n = X.shape
    keep = np.zeros(m, dtype=bool)
    height = max(1, _BLOCK_CELLS // max(m, 1))
    for a in range(0, m, height):
        b = min(a + height, m)
        others = np.concatenate([X[:a][keep[:a]], X[a:b]])
        kept = len(others) - (b - a)
        near = np.ones((b - a, len(others)), dtype=bool)
        gap = np.empty(near.shape)
        for c in range(n):
            np.subtract(X[a:b, c, None], others[:, c], out=gap)
            near &= np.abs(gap, out=gap) <= radius
        alive = ~near[:, :kept].any(axis=1)
        # in order, each kept row drops the later rows of the block near it
        later = np.triu(near[:, kept:], 1)
        for r in np.flatnonzero(later.any(axis=1)):
            if alive[r]:
                alive &= ~later[r]
        keep[a:b] = alive
    return keep


# -- exact loci for tn-family points ------------------------------------------


def _locus_draw(rng: random.Random, a: Fraction) -> Optional[tuple]:
    """One try of the locus sampler: a rational point of
    -x^2 + a(y^2 + z^2) = -1 as its integers (x, y, z) over a positive
    ``den``, reduced so gcd(den, x, y, z) = 1, returned as (x, y, z, den);
    None where the conic parameter misses (1 - a t^2 = 0), before u is
    drawn.  With a = an/ad, t = p/q and u = m/k, the point
    ((1 + a t^2), 2t c, 2t s)/(1 - a t^2) with (c, s) = (1 - u^2, 2u)/(1 + u^2)
    is the row ((ad q^2 + an p^2) K, 2pq ad (k^2 - m^2), 4pq ad mk) over
    E K, where E = ad q^2 - an p^2 and K = k^2 + m^2.  For a = 0 it is
    (+-1, y1/y2, z1/z2): (+-y2 z2, y1 z2, z1 y2) over y2 z2."""
    an, ad = a.numerator, a.denominator
    if an == 0:
        sign = rng.choice((-1, 1))
        y1, y2 = rng.randint(-6, 6), rng.randint(1, 4)
        z1, z2 = rng.randint(-6, 6), rng.randint(1, 4)
        row = (sign * y2 * z2, y1 * z2, z1 * y2, y2 * z2)
    else:
        p, q = rng.randint(-8, 8), rng.randint(1, 5)
        e = ad * q * q - an * p * p
        if e == 0:
            return None
        m, k = rng.randint(-8, 8), rng.randint(1, 5)
        big_k, r = k * k + m * m, 2 * p * q * ad
        row = ((ad * q * q + an * p * p) * big_k, r * (k * k - m * m), 2 * r * m * k,
               e * big_k)
    g = math.gcd(*row)
    if row[3] < 0:
        g = -g
    return tuple(c // g for c in row)


def rational_locus_points(
    A: Algebra, a: Fraction, count: int, seed: int = 0
) -> List[Element]:
    """Distinct exact rational points of -x^2 + a(y^2 + z^2) = -1 in
    span{i, j, k}, each verified a unit of A.  A point that fails the
    check is dropped, and drawing stops after 50 * count + 50 tries, so on
    a table whose units are not that quadric (a wrong ``a``, or a tn point
    with b, c or d nonzero) fewer than ``count`` points come back."""
    count = require_count(count, "point count")
    return _fresh_locus_points(A, a, count, seed, set())


def _point_key(A: Algebra, q: Element) -> tuple:
    """A name of the point q of A that is cheap to hash: its canonical
    integer form (``_ints``, ``_den``), or on a float table its
    coordinates as floats."""
    if A.scalar_mode == "float":
        return tuple(map(float, q.coords))
    return q._ints, q._den


def _fresh_locus_points(
    A: Algebra, a: Fraction, count: int, seed: int, seen: set
) -> List[Element]:
    """Up to ``count`` points of the quadric drawn from ``seed``, each
    verified a unit, none whose `_point_key` is in ``seen``.  Draws are
    integer rows (`_locus_draw`); one that repeats a point is skipped, and
    drawing goes on within 50 * count + 50 tries; ``seen`` gains every
    point drawn.  Each round draws as many fresh rows as points are still
    missing, so no round draws past where a point-by-point loop would
    stop, and verifies them together by one `Algebra.multiply_rows` call;
    an Element is built only for a row that passes."""
    rng = random.Random(seed)
    a = Fraction(a)
    n = A.dim
    exact = A.scalar_mode == "exact"
    out: List[Element] = []
    tries, budget = 0, 50 * count + 50
    while len(out) < count and tries < budget:
        rows = []
        while len(rows) < count - len(out) and tries < budget:
            tries += 1
            drawn = _locus_draw(rng, a)
            if drawn is None:
                continue
            *xyz, den = drawn
            ints = (0, *xyz) + (0,) * (n - 4)
            key = (ints, den) if exact else tuple(c / den for c in ints)
            if key in seen:
                continue
            seen.add(key)
            rows.append((ints, den))
        out += _units_among(A, rows)
    return out


def _units_among(A: Algebra, rows: list) -> List[Element]:
    """The Elements of the points ints / den, in order, that are units of
    A at its eps, checked together by `_are_units`: on an exact table as
    the integer rows ints over den, on a float table as float rows."""
    if not rows:
        return []
    if A.scalar_mode == "float":
        X = np.array([[c / den for c in ints] for ints, den in rows])
        passed = _are_units(A, X, None, A.eps)
        return [A.element(x) for x, ok in zip(X.tolist(), passed) if ok]
    passed = _are_units(A, _int_rows([ints for ints, _ in rows]),
                        [den for _, den in rows], A.eps)
    return [Element._of(A, None, ints, den) for (ints, den), ok in zip(rows, passed) if ok]


def classify_locus_tn(target) -> UnitLocus:
    """Name the unit locus of a tn-family point.

    With any of b, c, d nonzero the only units are +-i (a finite set).
    Otherwise the locus is the quadric -x^2 + a(y^2+z^2) = -1 in the span
    of {i, j, k}: a hyperboloid of two sheets for a > 0, two parallel
    planes x^2 = 1 for a = 0, and a sphere (after rescaling j, k) for
    a < 0.  The emitted equation is sign-normalised so the a < 0 case
    reads x^2 + |a|(y^2 + z^2) = 1.
    """
    A = target if isinstance(target, Algebra) else catalog.build("tn", **dict(target))
    params = catalog.tn_params(A)
    a = params["a"]
    i_elem = A.basis(1)

    if any(params[key] != 0 for key in ("b", "c", "d")):
        points = (i_elem, -i_elem)
        return UnitLocus(KIND_FINITE, points, None, (1,))

    sample = [i_elem, -i_elem]
    seen = {_point_key(A, q) for q in sample}
    sample += _fresh_locus_points(A, Fraction(a), 8, 0, seen)
    if a > 0:
        kind = KIND_HYPERBOLOID
        equation = {"x2": Fraction(-1), "y2": a, "z2": a, "rhs": Fraction(-1)}
    elif a == 0:
        kind = KIND_PLANES
        equation = {"x2": Fraction(1), "y2": Fraction(0), "z2": Fraction(0),
                    "rhs": Fraction(1)}
    else:
        kind = KIND_SPHERE
        equation = {"x2": Fraction(1), "y2": -a, "z2": -a, "rhs": Fraction(1)}
    return UnitLocus(kind, tuple(sample), equation, (1, 2, 3))


def locus_sample_points(
    locus: UnitLocus, A: Algebra, count: int, seed: int = 0
) -> List[Element]:
    """Points usable for partial-identity checks: the stored points, padded
    with rational locus points not among them when the locus has an
    equation, so each point is held once."""
    count = require_count(count, "point count")
    points = list(locus.points)
    if locus.equation is not None and len(points) < count:
        eq = locus.equation
        a = eq["y2"] if eq["x2"] == -1 else -eq["y2"]
        seen = {_point_key(A, q) for q in points}
        points += _fresh_locus_points(A, Fraction(a), count - len(points), seed, seen)
    return points[:count]


def equation_satisfied(locus: UnitLocus, q: Element,
                       tol: Optional[float] = None) -> bool:
    """Whether a point satisfies the locus equation record, a float value
    within ``tol``, else within the point's algebra's eps."""
    if locus.equation is None:
        raise AlgebraError("locus has no equation record")
    eq = locus.equation
    tol = tolerance(tol, q.algebra.eps)
    x, y, z = (q.coords[i] for i in locus.ambient[:3])
    value = eq["x2"] * x * x + eq["y2"] * y * y + eq["z2"] * z * z - eq["rhs"]
    return scalar_is_zero(value, tol)


# -- complete grid search ------------------------------------------------------


@dataclass(frozen=True)
class _GridForm:
    """The residual of a grid search as a quadratic form in the grid
    indices.  With step = p/s, q = step * idx, and the table and unit
    scaled by one positive factor D to the integers C and U,

        D s^2 (q*q + 1)_k = sum_{i<=j} c_kij idx_i idx_j + s^2 U_k,

    where c_kij = p^2 (C[i][j][k] + C[j][i][k]) for i < j and p^2 C[i][i][k].
    ``left`` and ``right`` are the pairs (i, j), i <= j, with some c_kij
    nonzero, and ``squares`` the positions of those with i = j.  Each
    coordinate's sum reads the columns ``source`` of [plo | phi | 1] (the
    pairs' product intervals, then the constant) times ``coeff``, from its
    index in ``starts``: the n low sums, then the n high ones.  A point
    solves the equation within tol when every coordinate lies in
    [-limit, limit].  A `_box_bounds` call takes at most ``height`` boxes,
    so its arrays hold about _BLOCK_CELLS cells."""

    left: np.ndarray
    right: np.ndarray
    squares: np.ndarray
    source: np.ndarray
    coeff: np.ndarray
    starts: np.ndarray
    limit: int
    height: int


def _grid_form(A: Algebra, step: Fraction, tol: float, hi_idx: int) -> _GridForm:
    """The form of A's grid search at ``step`` over indices up to hi_idx,
    D the lcm of the denominators of the table's and the unit's exact
    values (a float at its binary value).  Its limit is floor(s^2 tol D):
    an integer exceeds a bound exactly when it exceeds the bound's floor.
    Its coefficients are int64 when sum |c| hi_idx^2 + sum |s^2 U| + limit
    < 2^62 bounds every sum the search makes, and Python ints otherwise."""
    n, p, s = A.dim, step.numerator, step.denominator
    index, values = nonzero_entries(A.cube)
    # an exact cube holds the table times _scale: the unit is scaled alike
    ints, den = integer_form(values + [Fraction(u) * A._scale for u in A.unit])
    limit = math.floor(s * s * Fraction(tol) * den * A._scale)
    unit = [s * s * u for u in ints[len(values):]]
    # each pair i <= j: its c_kij, summed over the nonzero entries of the cube
    forms = {}
    for i, j, k, c in zip(*(a.tolist() for a in index), ints[:len(values)]):
        row = forms.setdefault((min(i, j), max(i, j)), [0] * n)
        row[k] += p * p * c
    pairs = sorted(pair for pair, row in forms.items() if any(row))
    source, coeff, starts = [], [], []
    for high in (False, True):
        for k in range(n):
            starts.append(len(source))
            source.append(2 * len(pairs))
            coeff.append(unit[k])
            for e, pair in enumerate(pairs):
                c = forms[pair][k]
                if c:
                    # a low sum takes c * plo for c > 0 and c * phi for c < 0
                    source.append(e + len(pairs) * ((c > 0) == high))
                    coeff.append(c)
    # a sum's pair terms are each at most |c| hi_idx^2, its unit term |s^2 U_k|
    total = (sum(abs(c) for row in forms.values() for c in row) * hi_idx * hi_idx
             + sum(map(abs, unit)) + limit)
    # per box: the four corner products, [plo | phi | 1] and the terms
    height = max(1, _BLOCK_CELLS // (6 * len(pairs) + 1 + len(source)))
    left = np.array([i for i, _ in pairs], dtype=np.intp)
    right = np.array([j for _, j in pairs], dtype=np.intp)
    return _GridForm(left, right, np.flatnonzero(left == right),
                     np.array(source, dtype=np.intp),
                     np.array(coeff, dtype=np.int64 if total < 2**62 else object),
                     np.array(starts, dtype=np.intp), limit, height)


def _box_bounds(form: _GridForm, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(low, high), two (N, n) arrays: the exact bounds of each coordinate
    of the form over each box, the index ranges lo[b, i]..hi[b, i], in
    the form's integers.  One product interval per pair, the hull of its
    corners (a square's clipped at 0), then each coordinate's sum over its
    entries; a box of one point gives that point's value twice."""
    pairs = len(form.left)
    ends = np.stack((lo, hi))
    corners = ends[:, None, :, form.left] * ends[None, :, :, form.right]
    ext = np.empty((len(lo), 2 * pairs + 1), dtype=lo.dtype)
    plo = corners.min(axis=(0, 1), out=ext[:, :pairs])
    corners.max(axis=(0, 1), out=ext[:, pairs:-1])
    # a square's corners miss its least value, 0, when lo < 0 < hi
    plo[:, form.squares] = np.maximum(plo[:, form.squares], 0)
    ext[:, -1] = 1
    sums = np.add.reduceat(ext[:, form.source] * form.coeff, form.starts, axis=1)
    n = lo.shape[1]
    return sums[:, :n], sums[:, n:]


def _may_vanish(form: _GridForm, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which boxes have every coordinate's bound meet [-limit, limit]: a
    box of one point passes exactly when the point solves the equation.
    The boxes go to `_box_bounds` ``form.height`` at a time."""
    out = np.empty(len(lo), dtype=bool)
    for a in range(0, len(lo), form.height):
        low, high = _box_bounds(form, lo[a:a + form.height], hi[a:a + form.height])
        out[a:a + form.height] = ((low <= form.limit) & (high >= -form.limit)).all(axis=1)
    return out


def grid_unit_search(
    A: Algebra,
    radius: float = 3.0,
    step=Fraction(1, 4),
    tol: Optional[float] = None,
) -> List[Element]:
    """Every grid point q of [-radius, radius]^n with ||q*q + 1||_inf <= tol,
    in ascending grid-index order (the order of itertools.product over the
    grid).

    Equivalent to enumerating the full grid, but a box is discarded
    wholesale when its interval bound pushes some residual coordinate away
    from zero.  The search is level-synchronous: the boxes of one level,
    integer index ranges, are bounded together by `_box_bounds`, and a
    surviving box is split in two on its first widest axis until it is one
    grid point.  The bound of a one-point box is that point's value, so a
    surviving point solves the equation.  Bounds are exact integer
    arithmetic on the table's exact values (a float at its binary value),
    so the list is complete, not sampled.  Like every tolerance in altkit,
    ``tol`` (default: ``A.eps``) acts only on float tables, as the limit
    floor(s^2 tol D) of `_grid_form`: on an exact table it is ignored and
    each listed point solves q*q = -1 exactly.
    """
    if A.unit is None:
        raise AlgebraError("grid search needs a unital algebra")
    step, radius = parse_scalar(step), parse_scalar(radius)
    if not 0 < step < math.inf:
        raise ParameterError(f"grid step must be finite and positive, got {step}")
    if not 0 <= radius < math.inf:
        raise ParameterError(f"grid radius must be finite and nonnegative, got {radius}")
    step = Fraction(step)
    tol = tolerance(tol, A.eps)
    exact = A.scalar_mode == "exact"
    n = A.dim
    hi_idx = int(Fraction(radius) / step)
    form = _grid_form(A, step, 0 if exact else tol, hi_idx)

    # indices and their products are int64 while hi_idx^2 < 2^62
    lo = np.full((1, n), -hi_idx, dtype=np.int64 if hi_idx < 2**31 else object)
    hi = -lo
    found = [lo[:0]]
    while len(lo):
        keep = _may_vanish(form, lo, hi)
        lo, hi = lo[keep], hi[keep]
        # a box of one point is bounded by its value: it passed as a solution
        point = (lo == hi).all(axis=1)
        found.append(lo[point])
        lo, hi = lo[~point], hi[~point]
        # split the first widest axis; boxes stay disjoint, so no point repeats
        rows, axis = np.arange(len(lo)), np.argmax(hi - lo, axis=1)
        mid = (lo[rows, axis] + hi[rows, axis]) // 2
        upper, lower = lo.copy(), hi.copy()
        upper[rows, axis] = mid + 1
        lower[rows, axis] = mid
        lo, hi = np.concatenate([lo, upper]), np.concatenate([lower, hi])
    p, s = step.numerator, step.denominator
    # on an exact table a point is the integers idx * p over s
    return [Element._exact(A, [i * p for i in idx], s) if exact
            else A.element([i * p / s for i in idx])
            for idx in sorted(np.concatenate(found).tolist())]
