import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from altkit import catalog, units
from altkit.core import Algebra, ParameterError

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


def test_rational_locus_points_are_exact_units():
    for a in (F(2), F(0), F(-5, 4)):
        A = catalog.tn(a=a, g=-a)
        pts = units.rational_locus_points(A, a, 12)
        assert len(pts) == 12
        for q in pts:
            assert units.verify_unit(A, q, 0.0)


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
    hi = int(F(radius) / step)
    points = (A.element([i * step for i in idx])
              for idx in itertools.product(range(-hi, hi + 1), repeat=A.dim))
    return {q for q in points if units.verify_unit(A, q, tol)}


def test_grid_search_matches_brute_force_on_random_tables():
    rng = random.Random(7)
    found_some = 0
    for trial in range(24):
        A = _random_unital_table(rng, 2 + trial % 2, (1, 2, 3, 5), trial % 4 < 2)
        found = units.grid_unit_search(A, radius=1.0, step=F(1, 2), tol=0.0)
        assert len(set(found)) == len(found)
        assert set(found) == _grid_brute_force(A, 1.0, F(1, 2), 0.0)
        found_some += bool(found)
    assert found_some >= 12
    # dyadic entries stay exact in floats, so tol = 0 also holds on a copy
    A = _random_unital_table(random.Random(3), 3, (1, 2, 4), True)
    B = A.to_float()
    found = units.grid_unit_search(B, radius=1.0, step=F(1, 2), tol=0.0)
    assert found and set(found) == _grid_brute_force(B, 1.0, F(1, 2), 0.0)
    assert [q.coords for q in found] == [
        tuple(map(float, q.coords))
        for q in units.grid_unit_search(A, radius=1.0, step=F(1, 2), tol=0.0)]
    # tol acts only on floats: e*e = (-1 + 10^-10)*1 has no exact grid unit,
    # while its float copy has +-e within tol
    A = Algebra([[[1, 0], [0, 1]], [[0, 1], [F(-1) + F(1, 10**10), 0]]], unit=[1, 0])
    for B, count in ((A, 0), (A.to_float(), 2)):
        found = units.grid_unit_search(B, radius=1.0, step=F(1, 2), tol=1e-9)
        assert len(found) == count
        assert set(found) == _grid_brute_force(B, 1.0, F(1, 2), 1e-9)


def test_locus_to_dict_caps_points():
    H = catalog.quaternions()
    cloud = units.solve_units_sampled(H, seeds=150)
    data = cloud.to_dict(max_points=50)
    assert len(data["points"]) <= 50
    assert data["kind"] == "sampled-cloud"
