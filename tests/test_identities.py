import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from altkit import catalog, cli, core, identities, lie, linalg, structure, units
from altkit.core import Algebra, ContextError, NotApplicableError
from altkit.identities import IdentityKind

F = Fraction


def c_span(A):
    return (A.one(), A.basis(1))


def test_quaternions_associative():
    report = identities.check_identity(catalog.quaternions(),
                                       IdentityKind.ASSOCIATIVE)
    assert report.holds
    assert report.method == "exhaustive-basis"
    assert report.witness is None


def test_ak_left_alt_fails():
    A = catalog.ak(1, a11=1, a12=1)
    report = identities.check_identity(A, IdentityKind.LEFT_ALT)
    assert not report.holds
    assert not report.witness.defect.is_zero(0.0)
    # the canonical counterexample triple, checked directly
    v11, v12 = A.by_label("v11"), A.by_label("v12")
    assert core.associator(v11, v11, v12) == v12


def test_ak_partial_laws_hold_exactly():
    A = catalog.ak(2, a11=F(1, 2), a12=3, a21=2, a22=1)
    e1 = A.by_label("e1")
    for report in identities.is_partially_alternative(
        A, [e1, -e1], units_complete=True
    ):
        assert report.holds
        assert report.method == "exhaustive-basis"


def test_partial_right_alt_counterexample():
    A = catalog.tn(a=-1, g=1, h=1)
    k = A.by_label("k")
    assert (k * k) == -A.one()
    report = identities.check_identity(A, IdentityKind.PARTIAL_RIGHT_ALT,
                                       units=[k])
    assert not report.holds
    # the canonical witness triple from the table
    j = A.by_label("j")
    assert core.associator(j, k, k) == A.by_label("i") + j


def test_units_context_accepts_locus():
    from altkit import units

    A = catalog.tn(a=2, b=1)  # finite locus {i, -i}
    locus = units.classify_locus_tn(A)
    report = identities.check_identity(A, IdentityKind.PARTIAL_LEFT_ALT,
                                       units=locus)
    assert report.holds
    assert report.method == "exhaustive-basis"


def test_partial_checks_need_units():
    A = catalog.quaternions()
    with pytest.raises(ContextError):
        identities.check_identity(A, IdentityKind.PARTIAL_LEFT_ALT)
    with pytest.raises(ContextError):
        identities.check_identity(A, IdentityKind.PARTIAL_LEFT_ALT, units=[])
    with pytest.raises(ContextError):
        identities.check_identity(A, IdentityKind.PARTIAL_LEFT_ALT,
                                  units=[A.one()])  # 1*1 != -1


def test_c_assoc_kinds_on_slice():
    A = catalog.tn_special_case(F(2, 3), F(5, 4))
    for kind in (IdentityKind.LEFT_C_ASSOC, IdentityKind.MIDDLE_C_ASSOC,
                 IdentityKind.RIGHT_C_ASSOC):
        assert identities.check_identity(A, kind, c_span=c_span(A)).holds


def test_c_assoc_context_validation():
    A = catalog.quaternions()
    with pytest.raises(ContextError):
        identities.check_identity(A, IdentityKind.MIDDLE_C_ASSOC)
    with pytest.raises(ContextError):  # dependent pair
        identities.check_identity(A, IdentityKind.MIDDLE_C_ASSOC,
                                  c_span=(A.one(), 2 * A.one()))
    with pytest.raises(ContextError):  # plane without the unit
        identities.check_identity(A, IdentityKind.MIDDLE_C_ASSOC,
                                  c_span=(A.basis(2), A.basis(3)))


def test_commutative_check():
    assert identities.check_identity(catalog.ak(2), IdentityKind.COMMUTATIVE).holds
    report = identities.check_identity(catalog.quaternions(),
                                       IdentityKind.COMMUTATIVE)
    assert not report.holds
    assert report.witness.z is None


def test_strictly_middle_tc_point():
    A = catalog.tc(a=1, h=1)
    report = identities.is_strictly_middle(A, c_span(A))
    assert report.strict
    assert not report.left_holds
    # left defect at (i, j, j) is j - i by direct expansion
    i, j = A.basis(1), A.basis(2)
    assert core.associator(i, j, j) == j - i


def test_strictly_middle_not_strict_for_associative():
    report = identities.is_strictly_middle(catalog.mzero())
    assert not report.strict
    assert report.left_holds and report.right_holds


def test_strictly_middle_tn_counterexample_point():
    A = catalog.tn(a=-1, g=1, h=1)
    report = identities.is_strictly_middle(A, c_span(A))
    assert report.strict
    assert report.witness is not None


def test_strictly_middle_not_applicable():
    # the quaternion table is associative, so middle holds; build a table
    # where middle fails instead: swap one product of the tc table
    A = catalog.tp(beta1=1, delta1=1)  # w*v = v*w = 1 breaks the middle law
    with pytest.raises(NotApplicableError):
        identities.is_strictly_middle(A)


def test_division_sampled():
    H = catalog.quaternions()
    assert identities.is_division_sampled(H, samples=50).division

    M = catalog.mplus()
    report = identities.is_division_sampled(M, samples=50)
    assert not report.division
    assert report.witness == M.one() + M.by_label("j")

    A = catalog.ak(1, a11=1, a12=1)
    report = identities.is_division_sampled(A, samples=10)
    assert not report.division
    assert report.witness == A.by_label("v11")


def test_report_json_schema():
    A = catalog.ak(1, a11=1, a12=1)
    report = identities.check_identity(A, IdentityKind.LEFT_ALT)
    data = report.to_dict()
    assert set(data) == {"kind", "holds", "witness", "method"}
    assert set(data["witness"]) == {"x", "y", "z", "defect"}
    assert data["kind"] == "left-alt"


def test_partial_defect_two_evaluation_paths():
    # with q*q = -1 the defect (q, q, y) equals -y - q(qy), recomputed
    # without the associator helper
    A = catalog.tn(a=-1, g=1, h=1)
    k = A.by_label("k")
    for y in A.basis_elements():
        direct = core.associator(k, k, y)
        other = -y - k * (k * y)
        assert direct == other


# -- the structure-constant kernel --------------------------------------------

QUADRATIC_SHAPES = {
    IdentityKind.LEFT_ALT: lambda x, y: (x, x, y),
    IdentityKind.RIGHT_ALT: lambda x, y: (y, x, x),
    IdentityKind.FLEXIBLE: lambda x, y: (x, y, x),
}


def assert_witness(A, kind, report):
    w = report.witness
    if kind == IdentityKind.COMMUTATIVE:
        assert w.z is None and w.defect == A.commutator(w.x, w.y)
    else:
        assert w.defect == A.associator(w.x, w.y, w.z)
        if kind in QUADRATIC_SHAPES:
            assert {IdentityKind.LEFT_ALT: w.x == w.y,
                    IdentityKind.RIGHT_ALT: w.y == w.z,
                    IdentityKind.FLEXIBLE: w.x == w.z}[kind]
    assert not w.defect.is_zero()


def test_quadratic_laws_fail_only_off_the_basis():
    # e0*e1 = e2, e2*e2 = e2: every (e_i, e_i, e_k)-type triple vanishes,
    # yet each law fails at a sum of two basis vectors
    sc = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    sc[0][1] = [0, 0, 1]
    sc[2][2] = [0, 0, 1]
    A = Algebra(sc)
    basis = A.basis_elements()
    for kind, shape in QUADRATIC_SHAPES.items():
        assert all(A.associator(*shape(x, y)).is_zero()
                   for x, y in itertools.product(basis, repeat=2))
        report = identities.check_identity(A, kind)
        assert not report.holds
        assert report.method == "exhaustive-basis"
        assert_witness(A, kind, report)
        assert report.witness.x not in basis or report.witness.y not in basis


def brute_force_holds(A, kind, c_span, eps):
    """Element-level check over basis tuples, and for the quadratic laws
    over basis vectors and sums of two (enough, by polarization)."""
    basis = A.basis_elements()
    if kind == IdentityKind.COMMUTATIVE:
        return all(A.commutator(x, y).is_zero(eps)
                   for x, y in itertools.product(basis, repeat=2))
    if kind in QUADRATIC_SHAPES:
        xs = basis + [x + y for x, y in itertools.combinations(basis, 2)]
        triples = (QUADRATIC_SHAPES[kind](x, y) for x in xs for y in basis)
    elif kind == IdentityKind.ASSOCIATIVE:
        triples = itertools.product(basis, repeat=3)
    else:
        slot = identities.C_ASSOC_KINDS.index(kind)
        triples = []
        for c, x, y in itertools.product(c_span, basis, basis):
            triple = [x, y]
            triple.insert(slot, c)
            triples.append(triple)
    return all(A.associator(*t).is_zero(eps) for t in triples)


def brute_force_jacobi(L, eps):
    # RefTable's product on the bracket table is the bracket
    R, n = oracle.ref(L), L.dim
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = ([int(p == q) for q in range(n)] for p in (i, j, k))
        total = [a + b + c for a, b, c in zip(R.mul(x, R.mul(y, z)),
                                              R.mul(y, R.mul(z, x)),
                                              R.mul(z, R.mul(x, y)))]
        if any(not core.scalar_is_zero(t, eps) for t in total):
            return (i, j, k)
    return None


@st.composite
def small_tables(draw, max_dim=4):
    # sparse tables too: there the quadratic laws often fail only at sums
    n = draw(st.integers(2, max_dim))
    zeros = draw(st.integers(1, 40))
    entries = st.sampled_from([0] * zeros + [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    flat = draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3))
    return [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def unitalized(sc):
    """e0 becomes the unit and e1*e1 is pushed into span{e0, e1}, so that
    (e0, e1) spans a distinguished plane."""
    n = len(sc)
    sc = [[list(cell) for cell in row] for row in sc]
    for j in range(n):
        sc[0][j] = sc[j][0] = [1 if p == j else 0 for p in range(n)]
    sc[1][1] = sc[1][1][:2] + [0] * (n - 2)
    return sc


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_kernel_matches_element_brute_force(sc):
    n = len(sc)
    exact = Algebra(sc)
    plane = Algebra(unitalized(sc), unit=[1] + [0] * (n - 1))
    for A in (exact, exact.to_float(), plane, plane.to_float()):
        eps = A.eps
        kinds = [k for k in IdentityKind if k not in identities.PARTIAL_KINDS]
        for kind in kinds:
            c_span = None
            if kind in identities.C_ASSOC_KINDS:
                if A.unit is None:
                    continue
                c_span = (A.one(), A.basis(1))
            report = identities.check_identity(A, kind, c_span=c_span)
            assert report.method == "exhaustive-basis"
            assert report.holds == brute_force_holds(A, kind, c_span, eps), kind
            if not report.holds:
                assert_witness(A, kind, report)

        L = lie.lieify(A)
        ok, witness = lie.check_jacobi(L)
        first = brute_force_jacobi(L, eps)
        assert ok == (first is None)
        if not ok:
            assert witness[:3] == first

        nucleus = structure.commutative_nucleus(A)
        basis = A.basis_elements()
        rows = [list(A.commutator(x, y).coords) for y in basis for x in basis]
        # rows[y*n + x] = [x, e_y]; transpose to one equation per (y, coordinate)
        eqs = [[rows[y * n + x][r] for x in range(n)] for y in range(n) for r in range(n)]
        assert len(nucleus) == n - linalg.rank(eqs, eps if A.scalar_mode == "float" else 0.0)
        assert all(A.commutator(x, y).is_zero(eps) for x in nucleus for y in basis)


def _units_past_int64(A):
    """Units of A: +-i (quaternions, tn) or +-e1 (ak), and on the
    quaternions also c*i + s*j, the circle point at t = 2^20 + 1, whose
    denominator 1 + t^2 is near 2^40."""
    q = A.by_label("e1") if A.family[0] == "ak" else A.basis(1)
    points = [q, -q]
    if A.family[0] == "quaternions":
        t = 2 ** 20 + 1
        c, s = F(1 - t * t, 1 + t * t), F(2 * t, 1 + t * t)
        points.append(A.element([0, c, s, 0]))
    return points


@pytest.mark.parametrize("table, jacobi", [(catalog.quaternions(), True),
                                           (catalog.ak(2, a11=Fraction(1, 3)), True),
                                           (catalog.tn(a=-1, g=1, h=1), False)],
                         ids=["table0", "table1", "table2"])
def test_kernel_stays_exact_past_int64(table, jacobi):
    c = 2 ** 40 + 1
    big = oracle.scaled(table)
    assert table.cube.dtype == "int64"
    assert big.cube.dtype == object  # int64 could overflow: Python ints
    points = _units_past_int64(table)
    # the units of big are those of table over c
    big_points = [big.element([x / c for x in q.coords]) for q in points]
    if len(points) > 2:  # n * vmax^2 past int64: Python ints on the small table too
        rows = identities._point_rows(points[2:])
        assert table.associator_slices((0, 1), rows).dtype == object
    for kind in IdentityKind:
        spans = [None, None]
        if kind in identities.C_ASSOC_KINDS:
            spans = [(A.one(), A.basis(1)) for A in (table, big)]
        small_report = identities.check_identity(table, kind, c_span=spans[0],
                                                 units=points)
        report = identities.check_identity(big, kind, c_span=spans[1], units=big_points)
        assert report.holds == small_report.holds, kind
        if not report.holds:
            assert_witness(big, kind, report)
            assert all(isinstance(c, Fraction) for c in report.witness.defect.coords)
    for A in (table, big):
        ok, witness = lie.check_jacobi(lie.lieify(A), tol=0.0)
        assert ok is jacobi and (witness is None) is jacobi
    assert len(structure.commutative_nucleus(big)) == len(structure.commutative_nucleus(table))


# -- RefTable's associators, and the scan in check_identity's order ------------

# law -> the slots of its point x; basis vectors fill the others.  Stated
# from each law's shape, apart from identities' own slot table, which the
# scan checks
LAW_SLOTS = {
    IdentityKind.ASSOCIATIVE: (0,), IdentityKind.LEFT_C_ASSOC: (0,),
    IdentityKind.MIDDLE_C_ASSOC: (1,), IdentityKind.RIGHT_C_ASSOC: (2,),
    IdentityKind.LEFT_ALT: (0, 1), IdentityKind.PARTIAL_LEFT_ALT: (0, 1),
    IdentityKind.RIGHT_ALT: (1, 2), IdentityKind.PARTIAL_RIGHT_ALT: (1, 2),
    IdentityKind.FLEXIBLE: (0, 2), IdentityKind.PARTIAL_FLEXIBLE: (0, 2),
}
SLOT_SETS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))
ASSOCIATOR_KINDS = tuple(LAW_SLOTS)


def _reference_slices(A, slots, points):
    """RefTable's associators with each point in ``slots`` and basis vectors,
    in order, in the others, and whether they are exact: on an exact table
    at rational points a positive multiple of them in integers, else
    floats.  RefTable's T[i, j, k] is (e_i e_j) e_k - e_i (e_j e_k) for its
    integer table."""
    R = oracle.ref(A)
    exact = R.exact and all(not isinstance(c, float) for x in points for c in x)
    T = R.T if exact else np.asarray(R.T, dtype=float) / float(R.scale ** 2)
    out = []
    for x in points:
        if exact:
            x = [Fraction(c) for c in x]
            den = math.lcm(*(c.denominator for c in x))
            v = np.array([int(c * den) for c in x], dtype=object)
        else:
            v = np.array([float(c) for c in x])
        D = T
        for slot in reversed(slots):
            D = np.tensordot(v, D, (0, slot))
        out.append(D)
    return np.array(out), exact


# contract: the witness order, which the CLI prints
def _scan(A, kind, groups):
    """The first triple at which the law fails, by brute force on RefTable
    over ``groups`` of (points, k_first): point by point, then the basis
    vectors in the free slots by index; with k_first (one free slot) the
    basis index before the point.  (x, y, z, defect) as coordinate lists,
    or None."""
    R, n, slots = oracle.ref(A), A.dim, LAW_SLOTS[kind]
    basis = [[int(p == i) for p in range(n)] for i in range(n)]
    for points, k_first in groups:
        D, exact = _reference_slices(A, slots, points)
        failing = np.any(D != 0, axis=-1) if exact else np.any(np.abs(D) > A.eps, axis=-1)
        hits = np.argwhere(failing.swapaxes(0, 1) if k_first else failing)
        if len(hits):
            c, *rest = hits[0][::-1] if k_first else hits[0]
            triple = [basis[i] for i in rest]
            for slot in slots:
                triple.insert(slot, list(points[c]))
            return (*triple, R.assoc(*triple))
    return None


def _groups(A, kind, points, c_span):
    """The points check_identity runs the law over: the basis
    (associative), the plane's pair, the given points (partial laws), or
    x = e_i and then, for each i, the sums e_i + e_j (j > i), basis index
    first."""
    n = A.dim
    basis = [[int(p == i) for p in range(n)] for i in range(n)]
    if kind in identities.PARTIAL_KINDS:
        return [(points, False)]
    if kind == IdentityKind.ASSOCIATIVE:
        return [(basis, False)]
    if kind in identities.C_ASSOC_KINDS:
        return [(c_span, False)]
    return [(basis, False)] + [
        ([[a + b for a, b in zip(basis[i], basis[j])] for j in range(i + 1, n)], True)
        for i in range(n - 1)]


def assert_witness_is_the_scan(A, witness, hit):
    """The witness is the scan's first failing triple, with its defect."""
    assert (witness is None) == (hit is None)
    if hit is not None:
        assert oracle.coords([witness.x, witness.y, witness.z]) == list(hit[:3])
        assert oracle.ref(A).vec_close(witness.defect.coords, hit[3])


def assert_report_is_the_scan(A, kind, points=None, complete=False, c_span=None):
    """check_identity's report is RefTable's scan in check_identity's
    order: the verdict, the method, and the first failing triple with its
    defect.  On an exact table a whole-algebra verdict is also RefTable's
    own, by polarization for the quadratic laws (a partial law's verdict
    is the scan's, over the same triples)."""
    got = identities.check_identity(A, kind, units=points, units_complete=complete,
                                    c_span=c_span)
    points, c_span = oracle.coords(points), oracle.coords(c_span)
    hit = _scan(A, kind, _groups(A, kind, points, c_span))
    assert_witness_is_the_scan(A, got.witness, hit)
    assert got.holds == (hit is None), kind
    partial = kind in identities.PARTIAL_KINDS
    assert got.method == ("exhaustive-basis" if complete or not partial
                          else f"sampled({len(points)})")
    if oracle.ref(A).exact and not partial:
        assert got.holds == oracle.ref(A).law_holds(kind.value, c_span), kind


QUADRATIC_KINDS = (IdentityKind.LEFT_ALT, IdentityKind.RIGHT_ALT, IdentityKind.FLEXIBLE)


def assert_quadratic_reports_match(A, points=None, complete=False):
    """check_identity's report on every quadratic kind is the scan's (the
    partial kinds only when ``points`` are given)."""
    for kind in QUADRATIC_KINDS:
        assert_report_is_the_scan(A, kind)
    for kind in identities.PARTIAL_KINDS if points else ():
        assert_report_is_the_scan(A, kind, points, complete)


CATALOG_TABLES = oracle.catalog_tables(catalog.build)


@pytest.mark.parametrize("A", CATALOG_TABLES, ids=repr)
def test_quadratic_kernel_matches_the_references_on_catalog(A):
    points, complete = cli.units_for(A, 25, 0, None)
    assert_quadratic_reports_match(A, points, complete)
    Af = A.to_float()
    assert_quadratic_reports_match(Af, [Af.element(q.coords) for q in points], complete)


def _random_tp(seed):
    rng = random.Random(seed)
    names = ("alpha1", "alpha2", "beta1", "beta2", "delta1", "delta2", "gamma1", "gamma2")
    return catalog.tp(**{name: F(rng.randint(-3, 3), rng.randint(1, 3)) for name in names})


@pytest.mark.parametrize("A", [
    catalog.tc(a=F(1, 2), b=F(-5, 2), f=F(3, 2), g=F(1, 2), h=1),
    catalog.tn(a=2, b=1),
    _random_tp(11),
    catalog.quaternions(),
], ids=repr)
def test_quadratic_kernel_matches_the_references_on_newton_clouds(A):
    # Newton points: float coordinates on an exact table
    points = list(units.solve_units_sampled(A, seeds=60, seed=0).points)
    assert points and all(q._den == 0 for q in points)
    assert_quadratic_reports_match(A, points, False)


def test_a_float_unit_on_an_exact_table_is_compared_within_eps():
    # 1e-12 off the unit e1: at its exact binary value the left law does not
    # vanish, but like the Element associator the check compares a float
    # point's defects within eps
    A = catalog.ak(1, a11=1, a12=1)
    q = A.element([0.0, 1.0, 1e-12, 0.0])
    D, exact = _reference_slices(A, (0, 1), [[Fraction(c) for c in q.coords]])
    assert exact and np.any(D != 0)
    assert_quadratic_reports_match(A, [q, -q])
    assert all(r.holds for r in identities.is_partially_alternative(A, [q, -q]))


def test_a_float_law_is_decided_by_its_defect_at_e_i_plus_e_j():
    # e0 e0 = e0 e1 = e1 e1 = s e1, e1 e0 = 0: the flexible law at (x, e0)
    # is -s^2 (x0^2 + x0 x1 + x1^2) e1, so 0.75 eps at e0 and at e1, and
    # 2.25 eps at e0 + e1.  The check tests the law's defect within eps at
    # x = e_i and e_i + e_j, and reports the first of those past it.
    eps = 1e-6
    s = math.sqrt(0.75 * eps)
    A = Algebra([[[0.0, s], [0.0, s]], [[0.0, 0.0], [0.0, s]]], eps=eps)
    basis = A.basis_elements()
    defects = [A.associator(x, y, x).coords[1] for x in basis for y in basis]
    assert all(eps / 2 < -d < eps for d in defects[::2]) and defects[1::2] == [0.0, 0.0]
    report = identities.check_identity(A, IdentityKind.FLEXIBLE)
    assert not report.holds
    assert (report.witness.x, report.witness.y) == (basis[0] + basis[1], basis[0])
    assert -report.witness.defect.coords[1] > 2 * eps
    assert_witness(A, IdentityKind.FLEXIBLE, report)
    assert_report_is_the_scan(A, IdentityKind.FLEXIBLE)


@settings(max_examples=40, deadline=None)
@given(small_tables(), st.randoms(use_true_random=False))
def test_quadratic_kernel_matches_the_references_on_sparse_tables(sc, rng):
    exact = Algebra(sc)
    for A in (exact, exact.to_float()):
        assert_quadratic_reports_match(A)
        # the partial search at points that need not be units
        points = [oracle.random_element(A, rng) for _ in range(3)]
        points.append(A.basis(rng.randrange(A.dim)))
        for kind in identities.PARTIAL_KINDS:
            got = identities._associator_witness(
                A, kind, [(identities._point_rows(points), False, points.__getitem__)], A.eps)
            assert_witness_is_the_scan(A, got, _scan(A, kind, [(oracle.coords(points), False)]))


# -- the one associator kernel and search against RefTable ----------------------


def assert_slices_match_the_references(A, points):
    """associator_slices at every slot set against RefTable's: on an exact
    table at rational points one positive multiple per point, zero where
    they are zero; otherwise within 1e-12, relative and absolute (RefTable
    sums in another order: 1.1e-13 at most on these tests' tables, whose
    slice entries reach 580)."""
    for slots in SLOT_SETS:
        got = A.associator_slices(slots, identities._point_rows(points))
        want, exact = _reference_slices(A, slots, oracle.coords(points))
        assert got.shape == want.shape
        if not exact:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), slots
            continue
        for g, w in zip(got, want):
            assert np.array_equal(g == 0, w == 0), slots
            ratios = {Fraction(int(a), int(b)) for a, b in zip(g.flat, w.flat) if b}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios), slots


def _plane(A):
    """(1, e1) when it spans a distinguished plane of A, else None."""
    if A.unit is None or A.dim < 2:
        return None
    try:
        return identities._resolve_c_span(A, (A.one(), A.basis(1)), A.eps)
    except ContextError:
        return None


def assert_reports_are_the_scan(A, points=None, complete=False):
    """check_identity's report on each of the ten associator laws is the
    scan's (the c-assoc laws at (1, e1) when that is a plane, the partial
    laws when ``points`` are given)."""
    c_span = _plane(A)
    for kind in ASSOCIATOR_KINDS:
        if (kind in identities.C_ASSOC_KINDS and c_span is None
                or kind in identities.PARTIAL_KINDS and not points):
            continue
        assert_report_is_the_scan(A, kind, points, complete, c_span)


def _tables_and_units(A):
    """A, A.to_float() and A scaled past int64, each with its units."""
    points, complete = cli.units_for(A, 25, 0, None)
    Af, big, c = A.to_float(), oracle.scaled(A), 2 ** 40 + 1
    return [(A, points, complete),
            (Af, [Af.element(q.coords) for q in points], complete),
            (big, [big.element([x / c for x in q.coords]) for q in points], complete)]


@pytest.mark.parametrize("A", CATALOG_TABLES, ids=repr)
def test_associator_slices_match_the_reftable_slices_on_catalog(A):
    # the kernel against RefTable's slices
    rng = random.Random(A.dim)
    for B, points, _ in _tables_and_units(A):
        drawn = [oracle.random_element(B, rng) for _ in range(3)]
        assert_slices_match_the_references(B, B.basis_elements() + points + drawn)


@pytest.mark.parametrize("A", CATALOG_TABLES, ids=repr)
def test_associator_reports_match_the_reftable_scan_on_catalog(A):
    # every report against RefTable's scan, at the family's units and at a
    # Newton cloud: float coordinates on an exact table
    for B, points, complete in _tables_and_units(A):
        assert_reports_are_the_scan(B, points, complete)
    points = list(units.solve_units_sampled(A, seeds=60, seed=0).points)
    assert all(q._den == 0 for q in points)
    assert_reports_are_the_scan(A, points, False)


def test_a_sum_witness_is_read_basis_index_first():
    # e0 e0 = -e0, e1 e3 = -e0, e3 e1 = e0: each quadratic law holds on the
    # basis and fails at (x, y) = (e0 + e1, e3) and (e0 + e3, e1) only.  For
    # each i the search reads y = e_k before x = e_i + e_j: e1 comes first.
    # Both sums lie off the diagonal (e0 + e3 is point 2 of e0's group, e1
    # basis vector 1), so reading point first finds the other one
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    sc[0][0][0], sc[1][3][0], sc[3][1][0] = -1, -1, 1
    A = Algebra(sc)
    e0, e1, _, e3 = A.basis_elements()
    for kind, shape in QUADRATIC_SHAPES.items():
        report = identities.check_identity(A, kind)
        assert (report.witness.x, report.witness.y, report.witness.z) == shape(e0 + e3, e1)
        assert_report_is_the_scan(A, kind)


@pytest.mark.parametrize("A, kind", [
    (B, kind) for tables, kind in (((catalog.ak(3), catalog.ak(10)), IdentityKind.FLEXIBLE),
                                   ((catalog.quaternions(),), IdentityKind.LEFT_ALT))
    for A in tables for B in (A, A.to_float())], ids=repr)
def test_a_quadratic_scan_that_holds_builds_no_element(A, kind, built_elements):
    # the kernel reads the points e_i and e_i + e_j as coordinate rows
    report = identities.check_identity(A, kind)
    assert (report.holds, report.method) == (True, "exhaustive-basis")
    assert built_elements == []


@pytest.mark.parametrize("A", [
    B for A in (catalog.tn_special_case(F(2, 3), F(5, 4)), catalog.quaternions(),
                catalog.mzero()) for B in (A, A.to_float())], ids=repr)
def test_a_c_assoc_check_that_holds_builds_no_element(A, built_elements):
    # the plane's pair is checked and searched on its coordinate rows
    span = c_span(A)
    built_elements.clear()
    for kind in identities.C_ASSOC_KINDS:
        report = identities.check_identity(A, kind, c_span=span)
        assert (report.holds, report.method) == (True, "exhaustive-basis"), kind
    assert built_elements == []
    assert identities.is_strictly_middle(A, span).to_dict() == {
        "strict": False, "witness": None, "left_holds": True, "right_holds": True}
    assert built_elements == []


@pytest.mark.parametrize("float_table", [False, True])
def test_a_failing_pair_sum_scan_keeps_its_witness(float_table):
    # flexible fails on tn(c=1) first at x = i + j, the Element of that
    # pair-sum row, read basis index first: y = j
    A = catalog.tn(c=1)
    if float_table:
        A = A.to_float()
    w = identities.check_identity(A, IdentityKind.FLEXIBLE).witness
    assert (repr(w.x), repr(w.y), repr(w.z)) == ("<i + j>", "<j>", "<i + j>")
    assert repr(w.defect) == ("<-2.0*k>" if float_table else "<-2*k>")
    scalar = float if float_table else Fraction
    for e, coords in ((w.x, [0, 1, 1, 0]), (w.y, [0, 0, 1, 0]), (w.z, [0, 1, 1, 0]),
                      (w.defect, [0, 0, 0, -2])):
        assert oracle.typed(e) == oracle.typed([scalar(c) for c in coords])


@settings(max_examples=40, deadline=None)
@given(small_tables(), st.randoms(use_true_random=False))
def test_associator_kernel_and_search_match_the_scan_on_sparse_tables(sc, rng):
    n = len(sc)
    exact = Algebra(sc)
    plane = Algebra(unitalized(sc), unit=[1] + [0] * (n - 1))
    for A in (exact, exact.to_float(), plane, plane.to_float(), oracle.scaled(plane)):
        points = [oracle.random_element(A, rng) for _ in range(3)]
        points.append(A.basis(rng.randrange(A.dim)))
        assert_slices_match_the_references(A, points)
        assert_reports_are_the_scan(A)
        # the partial search at points that need not be units
        for kind in identities.PARTIAL_KINDS:
            got = identities._associator_witness(
                A, kind, [(identities._point_rows(points), False, points.__getitem__)], A.eps)
            assert_witness_is_the_scan(A, got, _scan(A, kind, [(oracle.coords(points), False)]))


# -- the plane check against the rank form on RefTable --------------------------


def _rank_resolve_c_span(A, c_span, eps):
    """The rank form on RefTable's products: two independent vectors whose
    span holds the unit and their four products."""
    rows = oracle.coords(c_span)

    def inside(vec):
        return oracle.rank(rows + [list(vec)], eps) == 2

    if oracle.rank(rows, eps) != 2:
        raise ContextError("the two span elements are linearly dependent")
    if A.unit is None or not inside(A.unit):
        raise ContextError("the distinguished plane must contain the unit element")
    R = oracle.ref(A)
    if not all(inside(R.mul(p, q)) for p, q in itertools.product(rows, repeat=2)):
        raise ContextError("the distinguished plane is not closed under products")
    return tuple(c_span)


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: the caller asserts
        return type(exc), str(exc)


def _planes(A):
    """Ordered pairs to try as the distinguished plane: (1, e1), (e1, 1),
    (1 + e1, 3 e1), (e1, 2 e1), and (e1, e2), (1, e2) where there is an e2;
    e0 stands in for 1 on a table without a unit."""
    one = A.one() if A.unit is not None else A.basis(0)
    e1 = A.basis(1)
    planes = [(one, e1), (e1, one), (one + e1, 3 * e1), (e1, 2 * e1)]
    if A.dim > 2:
        planes += [(e1, A.basis(2)), (one, A.basis(2))]
    return planes


def assert_plane_checks_match(A):
    """_resolve_c_span gives the reference's pair, or its exception and
    message, on every plane of `_planes`; returns the messages seen."""
    seen = set()
    for span in _planes(A):
        got = _outcome(identities._resolve_c_span, A, span, A.eps)
        assert got == _outcome(_rank_resolve_c_span, A, span, A.eps), span
        seen.add(got[1] if got[0] is ContextError else "ok")
    return seen


def test_plane_check_matches_the_rank_form_on_catalog():
    seen = set()
    for A in CATALOG_TABLES:
        for B in (A, A.to_float(), oracle.scaled(A)):
            seen |= assert_plane_checks_match(B)
    # (1, e2) on tn(a=1, b=1) contains the unit and is not closed
    T = catalog.tn(a=1, b=1)
    for B in (T, T.to_float(), oracle.scaled(T)):
        seen |= assert_plane_checks_match(B)
        with pytest.raises(ContextError, match="not closed"):
            identities._resolve_c_span(B, (B.one(), B.basis(2)), B.eps)
    assert seen == {"ok", "the two span elements are linearly dependent",
                    "the distinguished plane must contain the unit element",
                    "the distinguished plane is not closed under products"}


@settings(max_examples=60, deadline=None)
@given(small_tables(max_dim=5))
def test_plane_check_matches_the_rank_form_on_sparse_tables(sc):
    n = len(sc)
    exact = Algebra(sc)
    plane = Algebra(unitalized(sc), unit=[1] + [0] * (n - 1))
    for A in (exact, plane):
        for B in (A, A.to_float(), oracle.scaled(A)):
            assert_plane_checks_match(B)


def _unit_point_cases():
    """(table, points) for the unit check: sphere points with non-units
    among them, on exact tables (an object cube, a float unit), float
    tables, and an exact table holding float points."""
    H = catalog.quaternions()
    half = Algebra(H.sc, labels=H.labels, unit=[1.0, 0, 0, 0])
    # the table times c has the units p / c for the quaternion units p
    c = 2 ** 40 + 1
    big = oracle.scaled(H, c)
    cases = []
    for A in (H, H.to_float(), big, half):
        on = units.rational_locus_points(H if A is big else A, F(-1), 6, seed=2)
        if A is big:
            on = [big.element([x / c for x in p.coords]) for p in on]
        i, j = A.basis(1), A.basis(2)
        cases += [(A, on), (A, on[:3] + [i + j] + on[3:] + [A.one()]), (A, [A.one()])]
    cloud = list(units.solve_units_sampled(H, seeds=20, seed=1).points)
    off = H.element([0.0, 0.5, 0.5, 0.5])
    cases += [(H, cloud), (H, cloud[:2] + [off] + cloud[2:])]
    return cases


def test_unit_points_are_checked_in_one_product_naming_the_first_non_unit(monkeypatch):
    products = []
    multiply_rows = Algebra.multiply_rows

    def spy_rows(self, X, Y):
        products.append(len(X))
        return multiply_rows(self, X, Y)

    monkeypatch.setattr(Algebra, "multiply_rows", spy_rows)
    for A, points in _unit_point_cases():
        # the reference: `verify_unit` point by point
        bad = [q for q in points if not units.verify_unit(A, q)]
        products.clear()
        if bad:
            with pytest.raises(ContextError, match="is not an imaginary unit") as err:
                identities._resolve_units(A, points, A.eps)
            assert str(err.value) == f"supplied point {bad[0]!r} is not an imaginary unit"
        else:
            got, rows, complete = identities._resolve_units(A, points, A.eps)
            assert (got, complete) == (points, False)
            want = identities._point_rows(points)
            assert rows.dtype == want.dtype and np.array_equal(rows, want)
        # one product for each kind of point present, exact or float
        exact = sum(1 for q in points if q._den)
        assert sorted(products) == sorted(k for k in (exact, len(points) - exact) if k), A
    # exact points beside float points on an exact table: two products
    H = catalog.quaternions()
    q = H.element([0.0, 0.6, 0.8, 0.0])
    products.clear()
    with pytest.raises(ContextError, match=r"supplied point <i \+ j>"):
        identities._resolve_units(H, [q, H.basis(1), H.basis(1) + H.basis(2), q], H.eps)
    assert sorted(products) == [2, 2]


def test_a_partial_check_converts_its_units_once(monkeypatch):
    A = catalog.ak(1)
    e1 = A.basis(1)
    calls, int_rows = [], units._int_rows

    def spy(ints):
        calls.append(len(ints))
        return int_rows(ints)

    for module in (units, identities):
        monkeypatch.setattr(module, "_int_rows", spy)
    report = identities.check_identity(A, "partial-left-alt", units=[e1, -e1])
    assert report.holds and calls == [2]


@pytest.mark.parametrize("case", ["ak", "cloud"])
def test_the_kernel_reads_the_array_the_unit_check_squared(case, monkeypatch):
    if case == "ak":
        A = catalog.ak(1)
        points = [A.basis(1), -A.basis(1)]
    else:  # float points on an exact table
        A = catalog.quaternions()
        points = list(units.solve_units_sampled(A, seeds=20, seed=1).points)
    squared, read = [], []
    are_units, slices = identities._are_units, Algebra.associator_slices
    monkeypatch.setattr(identities, "_are_units",
                        lambda A, X, *args: squared.append(X) or are_units(A, X, *args))
    monkeypatch.setattr(Algebra, "associator_slices",
                        lambda self, slots, rows: read.append(rows) or slices(self, slots, rows))
    for kind in identities.PARTIAL_KINDS:
        del squared[:], read[:]
        assert identities.check_identity(A, kind, units=points).holds
        assert len(squared) == len(read) == 1 and read[0] is squared[0], kind
        assert read[0].dtype == (np.int64 if case == "ak" else float)


@pytest.mark.parametrize("A", [catalog.tc(a=1, h=1), catalog.mzero(), catalog.tn(a=-1, g=1, h=1),
                               catalog.tn_special_case(F(2, 3), F(5, 4))], ids=repr)
def test_strictly_middle_validates_its_plane_once(A, monkeypatch):
    for B in (A, A.to_float()):
        span = c_span(B)
        left, right = (identities.check_identity(B, kind, c_span=span)
                       for kind in (IdentityKind.LEFT_C_ASSOC, IdentityKind.RIGHT_C_ASSOC))
        want = identities.StrictMiddleReport(
            not (left.holds and right.holds),
            left.witness if not left.holds else right.witness, left.holds, right.holds)
        with monkeypatch.context() as patch:
            calls, rref = [], linalg.rref
            patch.setattr(linalg, "rref", lambda *args: calls.append(1) or rref(*args))
            got = identities.is_strictly_middle(B, span)
        assert calls == [1]
        assert got.to_dict() == want.to_dict()
