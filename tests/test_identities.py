import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altkit import catalog, core, identities, lie, linalg, structure
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
    n = L.dim
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = (L.basis(p).coords for p in (i, j, k))
        total = [a + b + c for a, b, c in zip(L.bracket(x, L.bracket(y, z)),
                                              L.bracket(y, L.bracket(z, x)),
                                              L.bracket(z, L.bracket(x, y)))]
        if any(not core.scalar_is_zero(t, eps) for t in total):
            return (i, j, k)
    return None


@st.composite
def small_tables(draw):
    # sparse tables too: there the quadratic laws often fail only at sums
    n = draw(st.integers(2, 4))
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


@pytest.mark.parametrize("table", [catalog.quaternions(), catalog.ak(2, a11=Fraction(1, 3))])
def test_kernel_stays_exact_past_int64(table):
    c = 2 ** 40 + 1
    big = Algebra([[[x * c for x in cell] for cell in row] for row in table.sc],
                  unit=[u / c for u in table.unit])
    assert table.cube.dtype == "int64"
    assert big.cube.dtype == object  # int64 could overflow: Python ints
    for kind in IdentityKind:
        if kind in identities.PARTIAL_KINDS:
            continue
        spans = [None, None]
        if kind in identities.C_ASSOC_KINDS:
            spans = [(A.one(), A.basis(1)) for A in (table, big)]
        small_report = identities.check_identity(table, kind, c_span=spans[0])
        report = identities.check_identity(big, kind, c_span=spans[1])
        assert report.holds == small_report.holds, kind
        if not report.holds:
            assert_witness(big, kind, report)
            assert all(isinstance(c, Fraction) for c in report.witness.defect.coords)
    assert lie.check_jacobi(lie.lieify(big), tol=0.0) == (True, None)
    assert len(structure.commutative_nucleus(big)) == len(structure.commutative_nucleus(table))
