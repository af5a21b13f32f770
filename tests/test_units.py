import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from altkit import catalog, cli, units
from altkit.core import Algebra, Element, ParameterError, tolerance

F = Fraction


def test_verify_unit_examples():
    M = catalog.mplus()
    q = M.element([0.0, math.sqrt(2), 1.0, 0.0])
    assert units.verify_unit(M, q)

    Z = catalog.mzero()
    assert units.verify_unit(Z, Z.element([0, 1, 1, 0]), 0.0)

    H = catalog.quaternions()
    assert not units.verify_unit(H, H.one())


def test_newton_sphere():
    H = catalog.quaternions()
    cloud = units.solve_units_sampled(H, seeds=100)
    assert cloud.kind == units.KIND_CLOUD
    assert len(cloud.points) > 10
    for q in cloud.points:
        assert abs(float(q.coords[0])) <= 1e-8
        r = sum(float(c) ** 2 for c in q.coords[1:])
        assert abs(r - 1) <= 1e-8


def test_newton_isolated_roots():
    A2 = catalog.ak(2, a11=1, a12=2, a21=F(1, 2), a22=3)
    cloud = units.solve_units_sampled(A2, seeds=150)
    rounded = sorted(tuple(round(float(c), 6) for c in q.coords)
                     for q in cloud.points)
    assert rounded == [
        (0.0, -1.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    ]


def test_newton_empty_for_reals():
    # one-dimensional real line: x^2 = -1 has no solution
    R = Algebra([[[1]]], labels=["1"], unit=[1])
    cloud = units.solve_units_sampled(R, seeds=50)
    assert cloud.points == ()


# contract: the Newton cloud bit for bit, the points root certification will read
def _per_start_newton(A, seeds=200, tol=1e-9, seed=0, box=2.0, max_iter=100):
    """Reference: each start point iterated alone, one solve per step, then
    deduplicated at 10*tol against each kept point in turn."""
    rng = random.Random(seed)
    n = A.dim
    sc = np.array(A.sc, dtype=float)
    one = np.array(A.unit, dtype=float)
    starts = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        starts += [e, -e]
    starts += [np.array([rng.uniform(-box, box) for _ in range(n)])
               for _ in range(seeds)]
    found = []
    for x in starts:
        ok = False
        for _ in range(max_iter):
            res = np.einsum("i,j,ijk->k", x, x, sc) + one
            if np.max(np.abs(res)) <= tol:
                ok = True
                break
            J = np.einsum("i,ijk->kj", x, sc) + np.einsum("j,ijk->ki", x, sc)
            try:
                step = np.linalg.solve(J, res)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            x = x - step
            if np.max(np.abs(x)) > 1e6:
                break
        if ok and all(np.max(np.abs(x - p)) > 10 * tol for p in found):
            found.append(x)
    return [x for x in found
            if units.verify_unit(A, A.element([float(v) for v in x]), tol)]


def _seeded_tc(seed):
    rng = random.Random(seed)
    draw = lambda: F(rng.randint(-6, 6), rng.randint(1, 4))
    return catalog.tc(a=draw(), b=draw(), f=draw(), g=draw(), h=rng.choice((0, 1)))


def _seeded_tp(seed):
    rng = random.Random(seed)
    names = ("alpha1", "alpha2", "beta1", "beta2",
             "delta1", "delta2", "gamma1", "gamma2")
    return catalog.tp(**{name: F(rng.randint(-6, 6), 2) for name in names})


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("build", [
    lambda: catalog.ak(2, a11=1, a12=2, a21=F(1, 2), a22=3),
    lambda: catalog.ak(5),
    lambda: _seeded_tc(11),
], ids=["ak2", "ak5", "tc"])
def test_batched_newton_matches_per_start_reference(build, seed):
    # isolated roots: the batched iteration returns the reference's points in
    # the reference's order; on ak(k) the +-basis starts have exactly
    # singular Jacobians, so fallback iterations run inside a live batch
    A = build()
    cloud = units.solve_units_sampled(A, seeds=60, tol=1e-9, seed=seed)
    expected = _per_start_newton(A, seeds=60, tol=1e-9, seed=seed)
    assert len(cloud.points) == len(expected) >= 2
    for q, x in zip(cloud.points, expected):
        assert max(abs(float(c) - v) for c, v in zip(q.coords, x)) <= 1e-12


@pytest.mark.parametrize("build,scalar_free", [
    (catalog.quaternions, True),
    (catalog.mplus, True),
    (catalog.mzero, True),
    (lambda: _seeded_tp(3), False),
], ids=["quaternions", "mplus", "mzero", "tp"])
def test_batched_newton_cloud_on_continuous_loci(build, scalar_free):
    A = build()
    tol = 1e-9
    cloud = units.solve_units_sampled(A, seeds=80, tol=tol, seed=1)
    assert len(cloud.points) > 10
    coords = [[float(c) for c in q.coords] for q in cloud.points]
    for q in cloud.points:
        assert units.verify_unit(A, q, tol)
    for p, r in itertools.combinations(coords, 2):
        assert max(abs(a - b) for a, b in zip(p, r)) > 10 * tol
    if scalar_free:
        assert all(abs(p[0]) <= 1e-8 for p in coords)


def test_newton_complex_numbers_gives_plus_minus_i():
    # the 1-dim real line is test_newton_empty_for_reals
    C = catalog.complex_numbers()
    cloud = units.solve_units_sampled(C, seeds=20)
    assert sorted(tuple(round(float(c), 9) for c in q.coords)
                  for q in cloud.points) == [(0.0, -1.0), (0.0, 1.0)]


def test_newton_rejects_bad_arguments():
    H = catalog.quaternions()
    bad = [{"seeds": -1}, {"tol": -1e-9}, {"tol": math.nan}]
    for kwargs in bad:
        with pytest.raises(ParameterError):
            units.solve_units_sampled(H, **kwargs)


# contract: the Newton cloud bit for bit, the points root certification will read
def _newton_reference(A, seeds=200, tol=None, seed=0):
    """The solver with its slow paths unbatched: an iteration that meets an
    exactly singular Jacobian is redone row by row, converged points are
    deduplicated one at a time against the kept ones, and each kept point
    is re-verified as an Element."""
    tol = tolerance(tol, A.eps)
    rng = random.Random(seed)
    n = A.dim
    sc = np.array(A.sc, dtype=float)
    one = np.array(A.unit, dtype=float)
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
        G[done], res[done] = basis, 0.0
        J = G.transpose(0, 2, 1)
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
            ok = ~done
        except np.linalg.LinAlgError:
            step = np.zeros_like(res)
            ok = np.zeros(len(live), dtype=bool)
            for r in np.flatnonzero(~done):
                try:
                    step[r] = np.linalg.solve(J[r], res[r])
                    ok[r] = True
                except np.linalg.LinAlgError:
                    pass
        ok &= np.all(np.isfinite(step), axis=1)
        live, xl = live[ok], xl[ok] - step[ok]
        inside = np.max(np.abs(xl), axis=1) <= 1e6
        live = live[inside]
        x[live] = xl[inside]

    found = np.empty((int(converged.sum()), n))
    count = 0
    for xc in x[converged]:
        if np.all(np.max(np.abs(found[:count] - xc), axis=1) > 10 * tol):
            found[count] = xc
            count += 1

    points = []
    for xc in found[:count]:
        q = A.element(xc.tolist())
        if units.verify_unit(A, q, tol):
            points.append(q)
    return points


def _scaled_quaternions():
    # i*j = (1 + 3^-40) k: the table's scale 3^40 is past 2^53, and float
    # rounds the entry to 1.0 while the exact re-check does not
    H = catalog.quaternions()
    sc = [[list(cell) for cell in row] for row in H.sc]
    sc[1][2] = [c * (1 + F(1, 3 ** 40)) for c in sc[1][2]]
    return Algebra(sc, labels=H.labels, unit=H.unit)


def _negative_zero_quaternions():
    # a float table with a -0.0 entry, which fixes the sign of a zero sum
    H = catalog.quaternions()
    sc = [[[float(c) for c in cell] for cell in row] for row in H.sc]
    sc[1][2][0] = -0.0
    return Algebra(sc, labels=H.labels, unit=H.unit)


def _float_cube(A):
    """Reference: A's table as float64, a float table as given; an exact
    table entry by entry from its integer rows, each c / scale, a quotient
    of ints rounded once, as float() rounds a Fraction."""
    if A.scalar_mode == "float":
        return np.array(A.sc, dtype=float)
    sc = np.zeros((A.dim,) * 3)
    for i, row in enumerate(A._rows):
        for j, cell in enumerate(row):
            for k, c in cell:
                sc[i, j, k] = c / A._scale
    return sc


def _perturbed_float_quaternions():
    # a float table outside the catalog: i*j = (1 + 2^-20) k, which float
    # keeps, where the float copy of _scaled_quaternions is the quaternions
    H = catalog.quaternions()
    sc = [[[float(c) for c in cell] for cell in row] for row in H.sc]
    sc[1][2] = [c * (1 + 2.0 ** -20) for c in sc[1][2]]
    return Algebra(sc, labels=H.labels, unit=H.unit)


def _split_complex():
    # j*j = +1: q*q = -1 has no real solution
    return Algebra([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], labels=["1", "j"], unit=[1, 0])


_NEWTON_TABLES = [
    catalog.quaternions(),
    catalog.mplus(),
    catalog.mzero(),
    catalog.complex_numbers(),
    catalog.tn(a=2, b=1),
    catalog.tn(a=-1, g=1, h=1),
    catalog.tc(a=F(1, 2), b=F(-5, 2), f=F(3, 2), g=F(1, 2), h=1),
    _seeded_tp(3),
    catalog.ak(2),
    catalog.ak(5),
    _split_complex(),
]
_NEWTON_TABLES += [A.to_float() for A in _NEWTON_TABLES]
# the float copy of _scaled_quaternions is the float quaternions, so a float
# table outside the catalog stands in for it
_NEWTON_TABLES += [_scaled_quaternions(), _perturbed_float_quaternions()]


def _hex_points(points):
    return [tuple(float(c).hex() for c in q.coords) for q in points]


@pytest.mark.parametrize("A", _NEWTON_TABLES, ids=repr)
def test_newton_matches_unbatched_reference_bit_for_bit(A):
    # float.hex keeps the sign of a zero; exact tables hold float points
    for seeds, seed in itertools.product((0, 7, 200), range(3)):
        cloud = units.solve_units_sampled(A, seeds=seeds, seed=seed)
        assert cloud.kind == units.KIND_CLOUD and cloud.ambient == tuple(range(A.dim))
        assert all(type(c) is float for q in cloud.points for c in q.coords)
        assert _hex_points(cloud.points) == \
            _hex_points(_newton_reference(A, seeds=seeds, seed=seed)), (seeds, seed)


@pytest.mark.parametrize("build", [catalog.mplus, lambda: catalog.ak(3)],
                         ids=["mplus", "ak3"])
def test_solve_gufunc_gives_nan_rows_exactly_where_a_lone_solve_raises(build):
    # the solver calls np.linalg.solve's gufunc without the wrapper's raise:
    # on a stack that mixes singular and regular Jacobians it must fill the
    # singular rows with NaN, silently, and give every other row the bits a
    # lone np.linalg.solve gives it
    A = build()
    n = A.dim
    sc = A.to_float().cube
    sym = (sc + sc.transpose(1, 0, 2)).reshape(n, n * n)
    rng = np.random.default_rng(0)
    x = np.vstack([np.eye(n), -np.eye(n), np.zeros((1, n)), rng.uniform(-2, 2, (6, n))])
    J = (x @ sym).reshape(-1, n, n).transpose(0, 2, 1)
    b = rng.uniform(-2, 2, (len(J), n, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            stacked = _umath_linalg.solve(J, b, signature="dd->d")
    singular = []
    for Jr, br, got in zip(J, b, stacked):
        try:
            alone = np.linalg.solve(Jr, br)
        except np.linalg.LinAlgError:
            singular.append(True)
            assert np.isnan(got).all()
        else:
            singular.append(False)
            assert got.tobytes() == alone.tobytes()
    assert any(singular[:2 * n]) and not all(singular)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert units.solve_units_sampled(A, seeds=50, seed=1).points


@pytest.mark.parametrize("build,stacks", [
    (catalog.mplus, [8, 2]),
    (lambda: catalog.ak(3), [16, 2]),
], ids=["mplus", "ak3"])
def test_singular_rows_leave_with_one_stacked_solve_per_iteration(build, stacks,
                                                                  monkeypatch):
    # from the +-basis starts alone: the first iteration's singular rows
    # leave with NaN steps from the one stacked solve, and the +-1 rows
    # step to 0, where J = 0, and leave the same way in the second
    sizes = []
    solve = _umath_linalg.solve

    def counted(a, b, **kwargs):
        sizes.append(len(a))
        return solve(a, b, **kwargs)

    monkeypatch.setattr(_umath_linalg, "solve", counted)
    A = build()
    assert len(units.solve_units_sampled(A, seeds=0).points) == 2
    assert sizes == stacks


def test_first_apart_keeps_points_greedily_in_order(monkeypatch):
    tol = 2.0 ** -30
    r = 10 * tol
    # a point exactly 10*tol away is a duplicate; 2r is apart from the kept 0
    # although it is within r of the dropped r
    X = np.array([[0.0, 1.0], [r, 1.0], [2 * r, 1.0], [0.0, 1.0 + 3 * r]])
    assert units._first_apart(X, r).tolist() == [True, False, True, True]
    assert units._first_apart(np.empty((0, 3)), r).shape == (0,)

    def greedy(X):
        kept = []
        for i, xc in enumerate(X):
            if all(np.max(np.abs(X[j] - xc)) > r for j in kept):
                kept.append(i)
        return kept

    rng = np.random.default_rng(1)
    X = rng.integers(-3, 4, (300, 3)) * (r / 2)
    want = greedy(X)
    for cells in (units._BLOCK_CELLS, 1, 7, 1000):
        monkeypatch.setattr(units, "_BLOCK_CELLS", cells)
        assert np.flatnonzero(units._first_apart(X, r)).tolist() == want, cells


@pytest.mark.parametrize("A", [
    catalog.ak(1, a11=1, a12=1),
    catalog.ak(2, a11=F(1, 3), a12=2, a21=F(5, 2), a22=7),
    catalog.ak(3),
    catalog.ak(10),
    catalog.tn(a=-3, b=1, c=2, d=F(1, 2), f=1, g=-1, h=3, e=F(-2, 3)),
    catalog.tn(a=2, b=1),
    catalog.tn(a=-1, g=1, h=1),
    catalog.tc(a=2, b=F(-1, 3), f=1, g=2, h=1),
    catalog.tc(a=F(1, 2), b=F(-5, 2), f=F(3, 2), g=F(1, 2), h=1),
    catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1),
    catalog.tp(alpha1=F(1, 2), alpha2=3, beta1=F(-4, 3), beta2=1,
               delta1=2, delta2=F(1, 5), gamma1=-1, gamma2=F(7, 4)),
    catalog.mplus(),
    catalog.mzero(),
    catalog.quaternions(),
    catalog.complex_numbers(),
    _scaled_quaternions(),
    _negative_zero_quaternions(),
], ids=repr)
def test_float_cube_is_float_of_each_entry(A):
    # the float copy's cube: each entry rounded once, a float table's -0.0
    # entries kept, the cube entry by entry from an exact table's integers
    for table in (A, A.to_float()):
        want = np.array(table.sc, dtype=float)
        for got in (table.to_float().cube, _float_cube(table)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("A", _NEWTON_TABLES + [_negative_zero_quaternions()], ids=repr)
def test_multiply_rows_on_zero_columns_is_multiply_row_for_row(A, monkeypatch):
    # X has the all-zero columns 0 and n - 2 (-0.0 in the float rows), Y
    # the column 1: each product row is the row's own `multiply`, floats
    # bit for bit
    rng, n = random.Random(A.dim), A.dim

    def rows(zeros, draw):
        return [[zeros.get(k, draw()) for k in range(n)] for _ in range(5)]

    floats, ints = (lambda: rng.uniform(-2, 2)), (lambda: rng.randint(-5, 5))
    for X, Y in ((rows({0: 0.0, n - 2: -0.0}, floats), rows({1: 0.0}, floats)),
                 (rows({0: 0, n - 2: 0}, ints), rows({1: 0}, ints))):
        P = A.multiply_rows(np.array(X), np.array(Y))
        want = [(A.element(x) * A.element(y)).coords for x, y in zip(X, Y)]
        if P.dtype == float:
            assert [[c.hex() for c in row] for row in P.tolist()] == \
                [[float(c).hex() for c in row] for row in want]
        else:
            assert P.tolist() == [[c * A._scale for c in row] for row in want]
    # the rows +-e1 use one column: their product is one column pair
    visited = []
    accumulate = Algebra._accumulate

    def spy(self, u, v):
        visited.append((len(u), len(v)))
        return accumulate(self, u, v)

    monkeypatch.setattr(Algebra, "_accumulate", spy)
    E = np.array([[0, 1] + [0] * (n - 2), [0, -1] + [0] * (n - 2)])
    for R in (E, E.astype(float)):
        A.multiply_rows(R, R)
    assert visited == [(1, 1), (1, 1)]


@pytest.mark.parametrize(
    "builder,kind,x2,y2,z2,rhs",
    [
        (catalog.mplus, units.KIND_HYPERBOLOID, -1, 1, 1, -1),
        (catalog.mzero, units.KIND_PLANES, 1, 0, 0, 1),
        (catalog.quaternions, units.KIND_SPHERE, 1, 1, 1, 1),
    ],
)
def test_classify_locus_named_tables(builder, kind, x2, y2, z2, rhs):
    A = builder()
    locus = units.classify_locus_tn(A)
    assert locus.kind == kind
    assert locus.equation == {"x2": F(x2), "y2": F(y2), "z2": F(z2), "rhs": F(rhs)}
    assert locus.ambient == (1, 2, 3)
    for q in locus.points:
        assert units.verify_unit(A, q, 0.0)


def test_classify_locus_finite():
    A = catalog.tn(a=2, b=1)
    locus = units.classify_locus_tn(A)
    assert locus.kind == units.KIND_FINITE
    assert locus.complete
    assert set(locus.points) == {A.basis(1), -A.basis(1)}


def test_classify_locus_accepts_params():
    locus = units.classify_locus_tn({"a": F(3)})
    assert locus.kind == units.KIND_HYPERBOLOID


def test_classify_locus_rejects_a_parameter_tn_lacks():
    with pytest.raises(ParameterError, match="'tn' has no parameter z"):
        units.classify_locus_tn({"z": 1})


def test_rational_locus_points_are_exact_units():
    # distinct, and drawn no further than repeats force: a longer list
    # extends a shorter one at the same seed
    for a in (F(2), F(0), F(-5, 4)):
        A = catalog.tn(a=a, g=-a)
        pts = units.rational_locus_points(A, a, 12)
        assert len(set(pts)) == len(pts) == 12
        assert units.rational_locus_points(A, a, 30)[:12] == pts
        for q in pts:
            assert units.verify_unit(A, q, 0.0)
    # a wrong equation leaves only the distinct units among its points: i,
    # from t = 0, on the quaternions' hyperboloid x^2 - y^2 - z^2 = 1
    H = catalog.quaternions()
    assert units.rational_locus_points(H, F(1), 10) == [H.basis(1)]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_unit_sample_holds_each_point_once(seed):
    # at seed 0 the padding draws what the stored sample drew, and a = 0
    # draws y and z from a few values: each point is still held once
    for A in (catalog.quaternions(), catalog.mplus(), catalog.mzero(),
              catalog.tn(a=F(1, 2), g=F(-1, 2)), catalog.tn(a=0.5, g=-0.5)):
        locus = units.classify_locus_tn(A)
        assert len(set(locus.points)) == len(locus.points) == 10, A
        points, complete = cli.units_for(A, 200, seed, None)
        assert not complete and points[:10] == list(locus.points)
        assert len(set(points)) == len(points) == 25, A
        assert all(units.verify_unit(A, q) for q in points), A


# contract: the locus sample point for point, its draws, keys and verdicts
def _locus_points_reference(A, a, count, seed=0, stored=()):
    """The sampler one draw at a time: Fraction draws, Fraction keys (floats
    on a float table) over (x, y, z), and one `verify_unit` per fresh point;
    points of ``stored`` count as drawn."""
    a = F(a)
    rng = random.Random(seed)

    def key(x, y, z):
        return tuple(map(float, (x, y, z))) if A.scalar_mode == "float" else (x, y, z)

    seen = {key(*q.coords[1:4]) for q in stored}
    out, tries = [], 0
    while len(out) < count and tries < 50 * count + 50:
        tries += 1
        if a == 0:
            x = F(rng.choice((-1, 1)))
            y = F(rng.randint(-6, 6), rng.randint(1, 4))
            z = F(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            t = F(rng.randint(-8, 8), rng.randint(1, 5))
            d = 1 - a * t * t
            if d == 0:
                continue
            x, r = (1 + a * t * t) / d, 2 * t / d
            u = F(rng.randint(-8, 8), rng.randint(1, 5))
            y, z = r * (1 - u * u) / (1 + u * u), r * 2 * u / (1 + u * u)
        if key(x, y, z) in seen:
            continue
        seen.add(key(x, y, z))
        coords = [F(0)] * A.dim
        coords[1:4] = x, y, z
        q = A.element(coords)
        if units.verify_unit(A, q):
            out.append(q)
    return out


def _locus_tables():
    big = F(2 ** 70, 3)
    exact = [catalog.quaternions(), catalog.mplus(), catalog.mzero(),
             catalog.tn(a=F(7, 3), g=F(1, 2), h=F(-2, 5)), catalog.tn(a=0, g=0, h=3),
             catalog.tn(a=F(-5, 4), g=F(5, 4)), catalog.tn(a=big, g=-big)]
    assert exact[-1].cube.dtype == object
    return exact + [A.to_float() for A in exact]


_LOCUS_TABLES = _locus_tables()


def _typed_coords(points):
    # exact coordinates as Fractions, float ones by float.hex (sign of zero kept)
    return [tuple(c.hex() if isinstance(c, float) else c for c in q.coords) for q in points]


@pytest.mark.parametrize("A", _LOCUS_TABLES, ids=repr)
def test_locus_sampler_matches_one_draw_at_a_time_reference(A):
    a = F(catalog.tn_params(A)["a"])
    i = A.basis(1)
    stored = [i, -i] + _locus_points_reference(A, a, 8, 0, [i, -i])
    locus = units.classify_locus_tn(A)
    assert _typed_coords(locus.points) == _typed_coords(stored)
    for seed in (0, 1, 7):
        points, _ = cli.units_for(A, 200, seed, None)
        want = stored + _locus_points_reference(A, a, 15, seed, stored)
        assert _typed_coords(points) == _typed_coords(want)
        # the right a, and wrong ones: the points that are units, in draw order
        for b in (a, a + 1, -a):
            short = units.rational_locus_points(A, b, 12, seed=seed)
            assert _typed_coords(short) == \
                _typed_coords(_locus_points_reference(A, b, 12, seed))
            # a longer draw extends a shorter one at the same seed
            assert units.rational_locus_points(A, b, 30, seed=seed)[:len(short)] == short


@pytest.mark.parametrize("A", [catalog.quaternions(), catalog.tn(a=2, b=1)], ids=repr)
def test_locus_sampler_on_a_wrong_equation_matches_the_reference(A):
    # the quaternions' units are not on a = 1, tn(a=2, b=1)'s only +-i
    for A, seed in itertools.product((A, A.to_float()), (0, 3)):
        a = F(1) if A.family[0] == "quaternions" else F(2)
        got = units.rational_locus_points(A, a, 10, seed=seed)
        assert _typed_coords(got) == _typed_coords(_locus_points_reference(A, a, 10, seed))
        assert 0 < len(got) < 10


def test_locus_sampler_on_an_exact_table_with_a_float_unit_matches_the_reference():
    # q*q is exact and q*q + 1 a float sum, as `verify_unit` adds them
    H = catalog.quaternions()
    A = Algebra(H.sc, labels=H.labels, unit=[1.0, 0, 0, 0])
    for a, seed in itertools.product((F(-1), F(1)), (0, 7)):
        got = units.rational_locus_points(A, a, 12, seed=seed)
        assert _typed_coords(got) == _typed_coords(_locus_points_reference(A, a, 12, seed))
        assert len(got) == (12 if a < 0 else 1)


@pytest.mark.parametrize("float_table", [False, True])
def test_a_locus_round_is_one_product_and_builds_no_element_for_a_failing_row(
        float_table, monkeypatch):
    built, products = [], []
    of, init, multiply_rows = Element._of.__func__, Element.__init__, Algebra.multiply_rows

    def spy_of(cls, *args):
        e = of(cls, *args)
        built.append(e)
        return e

    def spy_init(self, *args):
        init(self, *args)
        built.append(self)

    def spy_rows(self, X, Y):
        products.append(len(X))
        return multiply_rows(self, X, Y)

    def no_verify(*args):
        raise AssertionError("a locus point verified one at a time")

    H = catalog.quaternions()
    H = H.to_float() if float_table else H
    one = H.one()
    monkeypatch.setattr(Element, "_of", classmethod(spy_of))
    monkeypatch.setattr(Element, "__init__", spy_init)
    monkeypatch.setattr(Algebra, "multiply_rows", spy_rows)
    monkeypatch.setattr(units, "verify_unit", no_verify)
    # every draw on the sphere is a unit: one round, one product, 12 Elements
    points = units.rational_locus_points(H, F(-1), 12)
    assert len(points) == 12 and products == [12]
    assert [e for e in built if e != one] == points
    # on a = 1 only i is a unit: each drawn point is verified once, in
    # rounds of the points still missing, and only i becomes an Element
    i, seen = H.basis(1), set()
    built.clear(), products.clear()
    points = units._fresh_locus_points(H, F(1), 10, 0, seen)
    assert points == [i] and [e for e in built if e != one] == points
    assert products[0] == 10 and products == sorted(products, reverse=True)
    assert 9 in products and sum(products) == len(seen)


def test_cloud_points_satisfy_equation():
    M = catalog.mplus()
    locus = units.classify_locus_tn(M)
    cloud = units.solve_units_sampled(M, seeds=100)
    for q in cloud.points:
        assert units.equation_satisfied(locus, q, 1e-8)


def test_grid_search_finds_only_the_two_roots():
    A = catalog.ak(1, a11=F(3, 2), a12=F(7, 4))
    found = units.grid_unit_search(A)
    assert set(found) == {A.by_label("e1"), -A.by_label("e1")}


def test_unit_checks_default_to_the_algebras_eps():
    # the float complex numbers with e1*e1 = -1 + 1e-6 at eps 1e-3: e1 is a
    # unit at the algebra's eps, so the grid search finds +-e1 there, and a
    # point 1e-6 off a locus equation satisfies it there
    A = Algebra([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0 + 1e-6, 0.0]]],
                unit=[1.0, 0.0], eps=1e-3)
    e1 = A.basis(1)
    assert units.verify_unit(A, e1)
    assert set(units.grid_unit_search(A, radius=1, step=1)) == {e1, -e1}
    assert units.grid_unit_search(A, radius=1, step=1, tol=1e-9) == []
    T = catalog.tn(a=-1, g=1)
    locus = units.classify_locus_tn(T)
    B = Algebra(T.to_float().sc, unit=T.to_float().unit, eps=1e-3)
    q = B.element([0.0, 1.0 + 1e-6, 0.0, 0.0])
    assert units.equation_satisfied(locus, q)
    assert not units.equation_satisfied(locus, q, 1e-9)


def test_grid_search_finds_grid_units_on_sphere():
    H = catalog.quaternions()
    found = units.grid_unit_search(H, radius=1.0)
    # grid points on the unit sphere in span{i, j, k}: exactly +-i, +-j, +-k
    labels = {q: None for q in found}
    expected = set()
    for lab in ("i", "j", "k"):
        expected.add(H.by_label(lab))
        expected.add(-H.by_label(lab))
    assert set(found) == expected


def test_grid_search_is_exact_at_zero_tolerance():
    # e*e = -116/25 - 4e: q = 5/2 + 5/4 e squares to -1 exactly, and float
    # interval bounds used to prune the box holding it
    A = Algebra([[[1, 0], [0, 1]], [[0, 1], [F(-116, 25), -4]]], unit=[1, 0])
    q = A.element([F(5, 2), F(5, 4)])
    assert units.verify_unit(A, q, 0.0)
    found = units.grid_unit_search(A, tol=0.0)
    assert len(found) == 2 and set(found) == {q, -q}


def test_grid_points_are_canonical_exact_elements():
    # an exact grid point is built from its integers over the step's
    # denominator; it must equal the Element made from its coordinates
    for A in (catalog.mzero(), catalog.quaternions(), catalog.ak(1)):
        for step in (F(1, 4), F(1, 3), F(1, 2), 1):
            found = units.grid_unit_search(A, radius=2.0, step=step)
            assert found
            for q in found:
                ref = A.element(q.coords)
                assert (q._ints, q._den) == (ref._ints, ref._den) and q._den > 0
                assert all(type(c) is F for c in q.coords)
                assert q.coords == tuple(F(c) for c in ref.coords)
                assert all((c / F(step)).denominator == 1 for c in q.coords)
        # a float copy keeps float points at the same places, in the same order
        found = units.grid_unit_search(A, radius=2.0, step=F(1, 2))
        floats = units.grid_unit_search(A.to_float(), radius=2.0, step=F(1, 2))
        assert [q.coords for q in floats] == [tuple(map(float, q.coords)) for q in found]


def test_tc_strict_point_has_units_off_i_where_partial_laws_fail():
    # the first strictly-middle tc draw of strict.commutative-partial-alternative
    # (seed 0): that claim is about the unit set {i, -i}; Newton finds a
    # second real pair of units, and there the partial left and right laws fail
    from altkit import identities
    from altkit.identities import IdentityKind

    A = catalog.tc(a=F(1, 2), b=F(-5, 2), f=F(3, 2), g=F(1, 2), h=1).to_float()
    i = A.basis(1)
    cloud = units.solve_units_sampled(A, seeds=200, seed=0)

    def dist(x, y):
        return max(abs(a - b) for a, b in zip(x.coords, y.coords))

    far = [q for q in cloud.points if min(dist(q, i), dist(q, -i)) > 0.1]
    assert far
    for q in far:
        residual = A.multiply(q, q) + A.one()
        assert max(abs(c) for c in residual.coords) <= 1e-9
        for kind in (IdentityKind.PARTIAL_LEFT_ALT, IdentityKind.PARTIAL_RIGHT_ALT):
            report = identities.check_identity(A, kind, units=[q])
            assert not report.holds
            assert max(abs(c) for c in report.witness.defect.coords) > 0.5
        assert identities.check_identity(A, IdentityKind.PARTIAL_FLEXIBLE,
                                         units=[q]).holds


def test_locus_samplers_reject_a_negative_count():
    H = catalog.quaternions()
    locus = units.classify_locus_tn(H)
    with pytest.raises(ParameterError, match="-3"):
        units.rational_locus_points(H, -1, -3)
    with pytest.raises(ParameterError, match="-1"):
        units.locus_sample_points(locus, H, -1)
    assert units.rational_locus_points(H, -1, 0) == []
    assert units.locus_sample_points(locus, H, 0) == []


def test_grid_search_rejects_bad_arguments():
    H = catalog.quaternions()
    for step in (0, F(-1, 4), -0.5):
        with pytest.raises(ParameterError):
            units.grid_unit_search(H, step=step)
    for radius in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            units.grid_unit_search(H, radius=radius)
    for tol in (-1e-9, math.nan):
        with pytest.raises(ParameterError):
            units.grid_unit_search(H, tol=tol)


def test_grid_search_reads_step_and_radius_as_scalars():
    H = catalog.quaternions()
    for step in ("x", math.nan, math.inf, True):
        with pytest.raises(ParameterError):
            units.grid_unit_search(H, step=step)
    with pytest.raises(ParameterError):
        units.grid_unit_search(H, radius=True)
    # a scalar string reads as the number it names, as on the command line
    assert (units.grid_unit_search(H, radius="2", step="1/2")
            == units.grid_unit_search(H, radius=2, step=F(1, 2)))


def _random_unital_table(rng, n, denominators, plant):
    """Unital table on e0 with random e_i*e_j (i, j >= 1); with ``plant``
    the last product is solved for so that a random grid point of step 1/2
    is a unit."""
    def scalar():
        return F(rng.randint(-4, 4), rng.choice(denominators))

    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        sc[0][i][i] = sc[i][0][i] = F(1)
    for i in range(1, n):
        for j in range(1, n):
            sc[i][j] = [scalar() for _ in range(n)]
    if plant:
        q = [F(rng.randint(-2, 2), 2) for _ in range(n)]
        q[n - 1] = F(rng.choice((-2, -1, 1, 2)), 2)
        # q*q = -1 with q = x*1 + v: v*v = (-1 - x^2)*1 - 2x*v
        x = q[0]
        target = [-1 - x * x] + [-2 * x * q[k] for k in range(1, n)]
        rest = [sum(q[i] * q[j] * sc[i][j][k]
                    for i in range(1, n) for j in range(1, n)
                    if (i, j) != (n - 1, n - 1))
                for k in range(n)]
        sc[n - 1][n - 1] = [(t - r) / (q[n - 1] ** 2) for t, r in zip(target, rest)]
    return Algebra(sc, unit=[1] + [0] * (n - 1))


def _grid_brute_force(A, radius, step, tol):
    """The grid units of A, enumerated in itertools.product order."""
    hi = int(F(radius) / step)
    points = (A.element([i * step for i in idx])
              for idx in itertools.product(range(-hi, hi + 1), repeat=A.dim))
    return [q for q in points if units.verify_unit(A, q, tol)]


def test_grid_search_matches_brute_force_on_random_tables():
    rng = random.Random(7)
    found_some = 0
    for trial in range(24):
        A = _random_unital_table(rng, 2 + trial % 2, (1, 2, 3, 5), trial % 4 < 2)
        found = units.grid_unit_search(A, radius=1.0, step=F(1, 2), tol=0.0)
        assert found == _grid_brute_force(A, 1.0, F(1, 2), 0.0)
        found_some += bool(found)
    assert found_some >= 12
    # dyadic entries stay exact in floats, so tol = 0 also holds on a copy
    A = _random_unital_table(random.Random(3), 3, (1, 2, 4), True)
    B = A.to_float()
    found = units.grid_unit_search(B, radius=1.0, step=F(1, 2), tol=0.0)
    assert found and found == _grid_brute_force(B, 1.0, F(1, 2), 0.0)
    assert [q.coords for q in found] == [
        tuple(map(float, q.coords))
        for q in units.grid_unit_search(A, radius=1.0, step=F(1, 2), tol=0.0)]
    # tol acts only on floats: e*e = (-1 + 10^-10)*1 has no exact grid unit,
    # while its float copy has +-e within tol
    A = Algebra([[[1, 0], [0, 1]], [[0, 1], [F(-1) + F(1, 10**10), 0]]], unit=[1, 0])
    for B, count in ((A, 0), (A.to_float(), 2)):
        found = units.grid_unit_search(B, radius=1.0, step=F(1, 2), tol=1e-9)
        assert len(found) == count
        assert found == _grid_brute_force(B, 1.0, F(1, 2), 1e-9)


def _grid_reference(A, radius, step, tol):
    """The grid search as a depth-first recursion over boxes, in Fractions
    on q*q + 1 read from A.sc: each coordinate's interval over a box is the
    unit plus, per pair i <= j, the hull of the pair's products (a
    square's from 0 when its range spans 0) times its coefficient.  A box
    that survives is halved on its first widest axis until it is one
    point, and a one-point box that survives is a solution.  Returns the
    points found, in itertools.product order, and the number of boxes
    bounded."""
    n, hi = A.dim, int(F(radius) / step)
    sc = [[[F(c) for c in cell] for cell in row] for row in A.sc]
    unit = [F(u) for u in A.unit]
    tol = F(0) if A.scalar_mode == "exact" else F(tol)
    bounded, found = 0, []

    def may_vanish(box):
        nonlocal bounded
        bounded += 1
        for k in range(n):
            low = high = unit[k]
            for i in range(n):
                for j in range(i, n):
                    c = (sc[i][j][k] + sc[j][i][k] if i < j else sc[i][i][k]) * step * step
                    (a, b), (d, e) = box[i], box[j]
                    ends = [a * d, a * e, b * d, b * e]
                    least = 0 if i == j and a < 0 < b else min(ends)
                    low += min(c * least, c * max(ends))
                    high += max(c * least, c * max(ends))
            if low > tol or high < -tol:
                return False
        return True

    def search(box):
        if not may_vanish(box):
            return
        if all(a == b for a, b in box):
            found.append(tuple(a for a, _ in box))
            return
        axis = max(range(n), key=lambda i: box[i][1] - box[i][0])
        a, b = box[axis]
        search(box[:axis] + [(a, (a + b) // 2)] + box[axis + 1:])
        search(box[:axis] + [((a + b) // 2 + 1, b)] + box[axis + 1:])

    search([(-hi, hi)] * n)
    return [A.element([i * step for i in idx]) for idx in sorted(found)], bounded


@pytest.mark.parametrize("A, radius, step", [
    (catalog.quaternions(), 2, F(1, 4)),
    (catalog.mplus(), 2, F(1, 2)),
    (catalog.mzero(), F(3, 2), F(1, 2)),
    (catalog.ak(1, a11=F(7, 3), a12=F(1, 2)), 3, F(1, 4)),
    (catalog.ak(1, a11=F(7, 3), a12=F(1, 2)).to_float(), 3, F(1, 4)),
    (catalog.tp(alpha1=-1, gamma1=-1, beta2=F(1, 2)), 2, F(1, 3)),
    # the split complex numbers, e*e = 1: q*q + 1 has real part 1 + x^2 +
    # y^2, so the bound, its squares counted from 0, prunes the whole grid
    (Algebra([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], unit=[1, 0]), 3, F(1, 4)),
    # radius < step: the origin is the only grid point, one box bounded
    (catalog.quaternions(), F(1, 8), F(1, 4)),
], ids=repr)
def test_grid_search_bounds_the_boxes_a_depth_first_search_bounds(A, radius, step,
                                                                  monkeypatch):
    # level by level, the same boxes are bounded and the same points found,
    # counting every box handed to the bound
    bounded = []
    real = units._box_bounds

    def spy(form, lo, hi):
        bounded.append(len(lo))
        return real(form, lo, hi)

    monkeypatch.setattr(units, "_box_bounds", spy)
    found = units.grid_unit_search(A, radius=radius, step=step, tol=1e-9)
    assert (found, sum(bounded)) == _grid_reference(A, radius, step, 1e-9)


def test_grid_search_past_int64_runs_on_python_ints():
    # denominators near 2^40 put the form's sums past 2^62: the bound and the
    # point tests run on Python ints and still match brute force
    rng = random.Random(5)
    for trial in range(4):
        A = _random_unital_table(rng, 3, (2**40 + 1, 3**25, 1), True)
        assert units._grid_form(A, F(1, 2), 0, 2).coeff.dtype == object
        found = units.grid_unit_search(A, radius=1.0, step=F(1, 2))
        assert found and found == _grid_brute_force(A, 1.0, F(1, 2), 0.0)
    # indices past 2^31 make the boxes themselves Python ints
    C = catalog.complex_numbers()
    e1 = C.basis(1)
    assert units.grid_unit_search(C, radius=2**40, step=1) == [-e1, e1]


def test_grid_search_below_one_step_bounds_the_unit_term():
    # radius < step leaves the origin alone (hi_idx = 0); at step 2^-32 the
    # unit's term s^2 U passes int64 by itself, so the form is Python ints
    H = catalog.quaternions()
    step = F(1, 2**32)
    assert units._grid_form(H, step, 0, 0).coeff.dtype == object
    for radius in (0, F(1, 2**33)):
        assert units.grid_unit_search(H, radius=radius, step=step) == []
        assert _grid_brute_force(H, radius, step, 0.0) == []


def test_grid_search_tolerance_is_a_floor_on_dyadic_floats():
    # e1*e1 = (-1 + 2^-10)*1 and e2*e2 = (-1 - 2^-10 - 2^-40)*1 at eps 2^-10:
    # |e1*e1 + 1| is tol exactly and is listed, |e2*e2 + 1| just past it
    # is not; the form stays int64, its limit floor(tol * 2^40)
    tol = 2.0**-10
    sc = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        sc[0][i][i] = sc[i][0][i] = 1.0
    sc[1][1][0] = -1 + tol
    sc[2][2][0] = -1 - tol - 2.0**-40
    A = Algebra(sc, unit=[1.0, 0.0, 0.0], eps=tol)
    e1, e2 = A.basis(1), A.basis(2)
    assert units._grid_form(A, F(1), tol, 1).coeff.dtype == np.int64
    found = units.grid_unit_search(A, radius=1, step=1)
    assert found == [-e1, e1] == _grid_brute_force(A, 1, F(1), tol)
    # a tol between the two residuals is floored to the first
    assert units.grid_unit_search(A, radius=1, step=1, tol=tol + 2.0**-50) == [-e1, e1]
    # and one at the second lists both, in ascending index order
    wide = tol + 2.0**-40
    assert units.grid_unit_search(A, radius=1, step=1, tol=wide) == [-e1, -e2, e2, e1]
    assert _grid_brute_force(A, 1, F(1), wide) == [-e1, -e2, e2, e1]


def test_locus_to_dict_caps_points():
    H = catalog.quaternions()
    cloud = units.solve_units_sampled(H, seeds=150)
    data = cloud.to_dict(max_points=50)
    assert len(data["points"]) <= 50
    assert data["kind"] == "sampled-cloud"
