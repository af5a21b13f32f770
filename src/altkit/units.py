"""Imaginary units: solutions of q*q = -1.

Three tools live here.  A Newton solver samples the solution set of
F(q) = q*q + 1 from seeded starting points, using the closed-form Jacobian
J(q) = L_q + R_q read off the structure constants.  All starts step
together: one product of the live rows with the symmetrised table gives
every row's J, and F = J(q)q/2 + 1 with it, and one stacked solve steps
them all; a row whose Jacobian is exactly singular is abandoned, as are
diverging rows, while the others step on.  A classifier names the
exact locus for tn-family points, where the solution set in the span of
{i, j, k} is cut out by -x^2 + a(y^2 + z^2) = -1.  A box-pruned grid
search enumerates, completely, every grid point of a coordinate box that
solves the equation; interval bounds discard boxes that provably contain
no solution, so the full grid never has to be visited point by point.
The bounds and the point test are exact integer arithmetic on one
quadratic form scaled from the table's exact values (a float entry at its
binary value), so the search's completeness is a proof, not a float
estimate.  Tolerances act only on floats: on an exact table every test
here, the grid's included, is exact whatever ``tol`` is passed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import catalog
from .core import (
    Algebra,
    AlgebraError,
    Element,
    ParameterError,
    integer_form,
    scalar_is_zero,
    scalar_to_json,
    tolerance,
)

KIND_FINITE = "finite-set"
KIND_SPHERE = "sphere"
KIND_HYPERBOLOID = "hyperboloid-two-sheets"
KIND_PLANES = "parallel-planes"
KIND_CLOUD = "sampled-cloud"

# cells of one block of the dedup mask: bounds its memory at any sample count
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


# -- Newton sampling ----------------------------------------------------------


def solve_units_sampled(
    A: Algebra,
    seeds: int = 200,
    tol: Optional[float] = None,
    seed: int = 0,
) -> UnitLocus:
    """Newton-iterate F(q) = q*q + 1 from seeded starting points.

    Start points are all +-basis vectors plus ``seeds`` uniform draws from
    [-2, 2]^n.  All live starts step together: one product of the rows
    with the symmetrised table gives, per row, J = L_q + R_q and, since
    J(q)q = 2 q*q, also F = J(q)q/2 + 1; one stacked solve then steps every
    row.  Rows with max|F| <= tol leave as converged.  A row is abandoned
    when its Jacobian is exactly singular, its step is not finite, it
    leaves max|q| <= 1e6, or it has not converged after 100 iterations.
    When the stacked solve meets a singular Jacobian, one batched
    ``slogdet`` finds every such row (its sign is 0 exactly where LAPACK's
    LU factorisation meets a zero pivot, which is where the solve fails);
    those rows ride along as I * step = 0 and the stack is solved again.
    Converged points are deduplicated in start order: a point is kept
    unless a kept point lies within 10*tol of it in every coordinate.  The
    kept points are re-checked together, q*q + 1 within tol in every
    coordinate, by one `Algebra.multiply_rows` call on their coordinate
    rows, and those that pass are returned as a sampled cloud.
    """
    if A.unit is None:
        raise AlgebraError("unit sampling needs a unital algebra")
    tol = tolerance(tol, A.eps)
    if seeds < 0:
        raise ParameterError(f"seed count must be nonnegative, got {seeds}")
    rng = random.Random(seed)
    n = A.dim
    sc = A.to_float().cube
    one = np.array(A.unit, dtype=float)
    # row x of x @ sym, read as an n x n matrix G, has G[j, k] = (x*e_j + e_j*x)_k
    sym = (sc + sc.transpose(1, 0, 2)).reshape(n, n * n)

    basis = np.eye(n)
    draws = [rng.uniform(-2.0, 2.0) for _ in range(seeds * n)]
    x = np.vstack([np.stack([basis, -basis], axis=1).reshape(2 * n, n),
                   np.reshape(draws, (seeds, n))])

    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(100):
        if not live.size:
            break
        xl = x[live]
        G = (xl @ sym).reshape(-1, n, n)
        res = 0.5 * np.einsum("sj,sjk->sk", xl, G) + one
        done = np.max(np.abs(res), axis=1) <= tol
        converged[live[done]] = True
        # converged rows ride along in the solve as I * step = 0
        G[done], res[done] = basis, 0.0
        J = G.transpose(0, 2, 1)  # a view: writing G writes J
        ok = ~done
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.slogdet(J)[0] == 0
            G[singular], res[singular] = basis, 0.0
            ok &= ~singular
            step = np.linalg.solve(J, res[..., None])[..., 0]
        ok &= np.all(np.isfinite(step), axis=1)
        live, xl = live[ok], xl[ok] - step[ok]
        inside = np.max(np.abs(xl), axis=1) <= 1e6
        live = live[inside]
        x[live] = xl[inside]

    found = x[converged]
    found = found[_first_apart(found, 10 * tol)]
    # q*q + 1 per coordinate, as `verify_unit` sums it point by point
    sq = A.multiply_rows(found, found)
    passed = np.all(np.abs(sq + one) <= tol, axis=1)
    points = tuple(A.element(xc.tolist()) for xc in found[passed])
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


def _rational_circle_point(t: Fraction) -> Tuple[Fraction, Fraction]:
    # (1-t^2, 2t)/(1+t^2) lies on the unit circle
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def _conic_point(a: Fraction, t: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """Rational (x, r) with x^2 - a*r^2 = 1, parametrised by t."""
    d = 1 - a * t * t
    if d == 0:
        return None
    return (1 + a * t * t) / d, 2 * t / d


def rational_locus_points(
    A: Algebra, a: Fraction, count: int, seed: int = 0
) -> List[Element]:
    """Exact rational points of -x^2 + a(y^2 + z^2) = -1 in span{i, j, k}."""
    rng = random.Random(seed)
    out: List[Element] = []
    tries = 0
    while len(out) < count and tries < 50 * count + 50:
        tries += 1
        if a == 0:
            x = Fraction(rng.choice((-1, 1)))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            t = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            pt = _conic_point(a, t)
            if pt is None:
                continue
            x, r = pt
            u = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            c, s = _rational_circle_point(u)
            y, z = r * c, r * s
        coords = [Fraction(0)] * A.dim
        coords[1], coords[2], coords[3] = x, y, z
        q = A.element(coords)
        if verify_unit(A, q):
            out.append(q)
    return out


def classify_locus_tn(target) -> UnitLocus:
    """Name the unit locus of a tn-family point.

    With any of b, c, d nonzero the only units are +-i (a finite set).
    Otherwise the locus is the quadric -x^2 + a(y^2+z^2) = -1 in the span
    of {i, j, k}: a hyperboloid of two sheets for a > 0, two parallel
    planes x^2 = 1 for a = 0, and a sphere (after rescaling j, k) for
    a < 0.  The emitted equation is sign-normalised so the a < 0 case
    reads x^2 + |a|(y^2 + z^2) = 1.
    """
    A = target if isinstance(target, Algebra) else catalog.tn(**dict(target))
    params = catalog.tn_params(A)
    a = params["a"]
    i_elem = A.basis(1)

    if any(params[key] != 0 for key in ("b", "c", "d")):
        points = (i_elem, -i_elem)
        return UnitLocus(KIND_FINITE, points, None, (1,))

    sample = [i_elem, -i_elem] + rational_locus_points(A, Fraction(a), 8)
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
    with fresh rational locus points when the locus has an equation."""
    points = list(locus.points)
    if locus.equation is not None and len(points) < count:
        eq = locus.equation
        a = eq["y2"] if eq["x2"] == -1 else -eq["y2"]
        points.extend(rational_locus_points(A, Fraction(a), count - len(points),
                                            seed=seed))
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


def grid_unit_search(
    A: Algebra,
    radius: float = 3.0,
    step=Fraction(1, 4),
    tol: Optional[float] = None,
) -> List[Element]:
    """Every grid point q of [-radius, radius]^n with ||q*q + 1||_inf <= tol.

    Equivalent to enumerating the full grid, but boxes whose interval
    bounds push some residual coordinate away from zero are discarded
    wholesale; only surviving boxes are enumerated point by point.  Bounds
    and point tests are exact integer arithmetic on the table's exact values
    (a float at its binary value), so the list is complete, not sampled.
    Like every tolerance in altkit, ``tol`` (default: ``A.eps``) acts only
    on float tables: on an exact table it is ignored and each listed point
    solves q*q = -1 exactly.
    """
    if A.unit is None:
        raise AlgebraError("grid search needs a unital algebra")
    step = Fraction(step)
    if step <= 0:
        raise ParameterError(f"grid step must be positive, got {step}")
    if not 0 <= radius < math.inf:
        raise ParameterError(f"grid radius must be finite and nonnegative, got {radius}")
    tol = tolerance(tol, A.eps)
    exact = A.scalar_mode == "exact"
    if exact:
        tol = 0
    n = A.dim
    hi_idx = int(Fraction(radius) / step)

    # With step = p/s, q = step*idx, and the table, unit and tol scaled by
    # one positive factor D to the integers C, U, T:
    #   D s^2 (q*q + 1)_k = sum_{i<=j} c_kij idx_i idx_j + s^2 U_k  vs  s^2 T
    # where c_kij = p^2 (C[i][j][k] + C[j][i][k]) for i < j, p^2 C[i][i][k].
    p, s = step.numerator, step.denominator
    p2, s2 = p * p, s * s
    values = [c for row in A.sc for cell in row for c in cell] + list(A.unit) + [tol]
    ints, _ = integer_form(values)
    limit = s2 * ints[-1]
    form = []  # per coordinate k: (s^2 U_k, [(i, j, c_kij) with c_kij != 0])
    for k in range(n):
        terms = []
        for i in range(n):
            for j in range(i, n):
                c = ints[(i * n + j) * n + k]
                if i < j:
                    c += ints[(j * n + i) * n + k]
                if c:
                    terms.append((i, j, p2 * c))
        form.append((s2 * ints[n ** 3 + k], terms))

    def may_vanish(box) -> bool:
        """Whether each coordinate's interval over the box of index ranges
        meets [-limit, limit]; at a one-point box, the exact point test."""
        for u, terms in form:
            lo = hi = u
            for i, j, c in terms:
                (a, b), (d, e) = box[i], box[j]
                if i != j:
                    corners = (a * d, a * e, b * d, b * e)
                    plo, phi = min(corners), max(corners)
                elif a >= 0:
                    plo, phi = a * a, b * b
                elif b <= 0:
                    plo, phi = b * b, a * a
                else:
                    plo, phi = 0, max(a * a, b * b)
                if c > 0:
                    lo += c * plo
                    hi += c * phi
                else:
                    lo += c * phi
                    hi += c * plo
            if lo > limit or hi < -limit:
                return False
        return True

    results: List[Element] = []
    stack = [((-hi_idx, hi_idx),) * n]
    while stack:
        box = stack.pop()
        if not may_vanish(box):
            continue
        if math.prod(hi - lo + 1 for lo, hi in box) <= 32:
            for idx in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
                if may_vanish(tuple(zip(idx, idx))):
                    # on an exact table the point is the integers idx * p over s
                    results.append(Element._exact(A, [i * p for i in idx], s) if exact
                                   else A.element([i * step for i in idx]))
            continue
        # split the widest axis; boxes stay disjoint, so no point repeats
        axis = max(range(n), key=lambda i: box[i][1] - box[i][0])
        lo, hi = box[axis]
        mid = (lo + hi) // 2
        stack.append(box[:axis] + ((lo, mid),) + box[axis + 1:])
        stack.append(box[:axis] + ((mid + 1, hi),) + box[axis + 1:])
    return results
