import itertools
import math
import random
from fractions import Fraction

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
