import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altkit import catalog, core
from altkit.core import Algebra, DimensionError, ParameterError

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coords4 = st.tuples(rationals, rationals, rationals, rationals)


@pytest.fixture(scope="module")
def H():
    return catalog.quaternions()


def test_multiply_quaternions(H):
    j, k = H.by_label("j"), H.by_label("k")
    assert j * k == H.by_label("i")


def test_unit_multiplication(H):
    for b in H.basis_elements():
        assert H.one() * b == b
        assert b * H.one() == b


def test_multiply_ak_rotation():
    A = catalog.ak(1, a11=1, a12=1)
    assert A.by_label("e1") * A.by_label("v11") == A.by_label("v12")


def test_associator_ak_counterexample():
    A = catalog.ak(1, a11=1, a12=1)
    v11, v12 = A.by_label("v11"), A.by_label("v12")
    assert core.associator(v11, v11, v12) == v12
    e1 = A.by_label("e1")
    assert core.associator(e1, e1, v11).is_zero(0.0)


def test_associator_vanishes_in_quaternions(H):
    for x in H.basis_elements():
        for y in H.basis_elements():
            for z in H.basis_elements():
                assert core.associator(x, y, z).is_zero(0.0)


def test_commutator_tp_basis():
    T = catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1)
    i, w, v = T.by_label("i"), T.by_label("w"), T.by_label("v")
    assert core.commutator(i, w) == -2 * v
    assert core.commutator(i, i).is_zero(0.0)


def test_commutator_quaternions_tp_coordinates(H):
    # w = j, v = w*i = -k: [v, w] = 2i by direct table expansion
    w = H.by_label("j")
    v = w * H.by_label("i")
    assert v == -H.by_label("k")
    assert core.commutator(v, w) == 2 * H.by_label("i")


def test_mul_operator_identity(H):
    op = core.mul_operator(H.one(), "left")
    assert op.matrix == tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(4))
        for i in range(4)
    )
    assert op.det() == 1


def test_mul_operator_dets(H):
    assert core.mul_operator(H.by_label("i"), "left").det() == 1
    M = catalog.mplus()
    # L_j is invertible; the singular operator comes from 1 + j since
    # (1 - j)(1 + j) = 0 in this table
    assert core.mul_operator(M.by_label("j"), "left").det() == 1
    one_plus_j = M.one() + M.by_label("j")
    assert core.mul_operator(one_plus_j, "left").det() == 0


def test_unit_axiom_checked_at_construction():
    sc = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(core.AlgebraError):
        Algebra(sc, labels=["1", "x"], unit=[1, 0])


def test_labels_must_be_unique():
    sc = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]
    with pytest.raises(core.AlgebraError):
        Algebra(sc, labels=["1", "1"])


def test_parent_mismatch_raises(H):
    other = catalog.quaternions()
    with pytest.raises(DimensionError):
        core.multiply(H.one(), other.one())


def test_parse_scalar():
    assert core.parse_scalar("3/2") == Fraction(3, 2)
    assert core.parse_scalar("0.25") == Fraction(1, 4)
    assert core.parse_scalar(2) == Fraction(2)
    assert isinstance(core.parse_scalar(0.1), float)
    with pytest.raises(ParameterError):
        core.parse_scalar("abc")


def test_float_mode_inferred():
    A = catalog.tn(a=0.5)
    assert A.scalar_mode == "float"
    assert catalog.tn(a=Fraction(1, 2)).scalar_mode == "exact"


def test_json_roundtrip_byte_identical(H):
    text = H.dumps()
    again = Algebra.loads(text)
    assert again.dumps() == text
    assert again.to_dict()["sc"] == H.to_dict()["sc"]


def test_json_rejects_garbage():
    with pytest.raises(core.AlgebraError):
        Algebra.from_dict({"labels": ["1"]})


@settings(max_examples=60, deadline=None)
@given(coords4, coords4, coords4, rationals, rationals)
def test_bilinearity(u, v, w, a, b):
    H = catalog.quaternions()
    x, y, z = H.element(u), H.element(v), H.element(w)
    assert (a * x + b * y) * z == a * (x * z) + b * (y * z)
    assert z * (a * x + b * y) == a * (z * x) + b * (z * y)


@settings(max_examples=40, deadline=None)
@given(coords4, coords4)
def test_commutator_antisymmetry(u, v):
    T = catalog.tp(alpha1=2, beta1=1, delta2=-3)
    x, y = T.element(u), T.element(v)
    assert core.commutator(x, y) == -core.commutator(y, x)


@settings(max_examples=30, deadline=None)
@given(coords4, coords4, coords4, rationals, rationals)
def test_associator_trilinearity_first_slot(u, v, w, a, b):
    M = catalog.mplus()
    x, y, z = M.element(u), M.element(v), M.element(w)
    lhs = core.associator(a * x + b * y, y, z)
    rhs = a * core.associator(x, y, z) + b * core.associator(y, y, z)
    assert lhs == rhs


def test_associator_unit_slots(H):
    one = H.one()
    for x in H.basis_elements():
        for y in H.basis_elements():
            assert core.associator(one, x, y).is_zero(0.0)
            assert core.associator(x, one, y).is_zero(0.0)
            assert core.associator(x, y, one).is_zero(0.0)


def _fraction_mul_coords(A, u, v):
    """Reference: the Fraction loop over the nonzero table entries, one
    Fraction product and sum per term, int 0 where no term lands."""
    out = [0] * A.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            coeff = ui * vj
            for k, c in enumerate(A.sc[i][j]):
                if c != 0:
                    out[k] = out[k] + coeff * c
    return out


def _catalog_tables():
    return [
        catalog.ak(1, a11=1, a12=1),
        catalog.ak(2, a11=Fraction(1, 3), a12=2, a21=Fraction(5, 2), a22=7),
        catalog.ak(3),
        catalog.tn(a=-3, b=1, c=2, d=Fraction(1, 2), f=1, g=-1, h=3, e=Fraction(-2, 3)),
        catalog.tn(a=2, b=1),
        catalog.tc(a=2, b=Fraction(-1, 3), f=1, g=2, h=1),
        catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1),
        catalog.tp(alpha1=Fraction(1, 2), alpha2=3, beta1=Fraction(-4, 3), beta2=1,
                   delta1=2, delta2=Fraction(1, 5), gamma1=-1, gamma2=Fraction(7, 4)),
        catalog.mplus(),
        catalog.mzero(),
        catalog.quaternions(),
        catalog.complex_numbers(),
    ]


def _exact_pairs(A, rng):
    n = A.dim
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    drawn = [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) * rng.randint(0, 1)
              for _ in range(n)] for _ in range(6)]
    vecs = basis + drawn + [[1 if i % 2 else 0 for i in range(n)]]  # ints too
    if A.unit is not None:
        vecs.append(list(A.unit))
    return [(u, v) for u in vecs for v in vecs]


def _typed(coords):
    """Each scalar's type and repr, of a coordinate list or an Element."""
    coords = coords.coords if isinstance(coords, core.Element) else coords
    return [(type(c), repr(c)) for c in coords]


def _check_exact_products(A, rng):
    for u, v in _exact_pairs(A, rng):
        got, want = A._mul_coords(u, v), _fraction_mul_coords(A, u, v)
        assert got == want
        assert all(type(c) is Fraction for c in got)
        assert _typed(A.element(u) * A.element(v)) == _typed(A.element(want))


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_product_matches_fraction_reference_on_catalog(A):
    rng = random.Random(A.dim)
    assert A.scalar_mode == "exact"
    _check_exact_products(A, rng)

    # a float table: the same float loop, bit for bit and type for type
    Af = A.to_float()
    for u, v in _exact_pairs(A, rng):
        uf, vf = [float(c) for c in u], [float(c) for c in v]
        assert _typed(Af._mul_coords(uf, vf)) == _typed(_fraction_mul_coords(Af, uf, vf))
        assert _typed(Af._mul_coords(u, v)) == _typed(_fraction_mul_coords(Af, u, v))
        want = _fraction_mul_coords(Af, uf, vf)
        assert _typed(Af.element(uf) * Af.element(vf)) == _typed(Af.element(want))

    # float coordinates on the exact table (Newton points, sqrt witnesses):
    # floats within the algebra's eps, and floats exactly where the reference
    # has them (a float zero adds no term, so it may leave the result exact)
    for u, v in _exact_pairs(A, rng):
        uf = [float(c) * 2 ** 0.5 for c in u]
        mixed = [float(c) if i % 2 else c for i, c in enumerate(v)]
        for x, y in ((uf, v), (u, mixed), (uf, mixed)):
            got, want = A._mul_coords(x, y), _fraction_mul_coords(A, x, y)
            assert ([isinstance(c, float) for c in got]
                    == [isinstance(c, float) for c in want])
            assert all(core.scalars_close(g, w, A.eps) for g, w in zip(got, want))
            prod = (A.element(x) * A.element(y)).coords
            assert [type(c) for c in prod] == [type(c) for c in A.element(want).coords]


@pytest.mark.parametrize("table", [catalog.quaternions(),
                                   catalog.ak(2, a11=Fraction(1, 3))])
def test_product_matches_fraction_reference_past_int64(table):
    c = 2 ** 40 + 1
    big = Algebra([[[x * c for x in cell] for cell in row] for row in table.sc],
                  unit=[u / c for u in table.unit])
    assert big.cube.dtype == object  # the cube falls back to Python ints
    _check_exact_products(big, random.Random(3))
    bigf = big.to_float()
    for u, v in _exact_pairs(big, random.Random(4)):
        assert _typed(bigf._mul_coords(u, v)) == _typed(_fraction_mul_coords(bigf, u, v))


def _reference_laws(A, u, v, w):
    """The associator (u, v, w) and the commutator [u, v] from the reference
    products, as Elements."""
    uv, vu = _fraction_mul_coords(A, u, v), _fraction_mul_coords(A, v, u)
    left = _fraction_mul_coords(A, uv, w)
    right = _fraction_mul_coords(A, u, _fraction_mul_coords(A, v, w))
    return (A.element([a - b for a, b in zip(left, right)]),
            A.element([a - b for a, b in zip(uv, vu)]))


def test_associator_and_commutator_match_fraction_reference():
    rng = random.Random(11)
    for A in _catalog_tables():
        Af = A.to_float()
        for u, v in _exact_pairs(A, rng)[::7]:
            w = v[::-1]
            uf, vf, wf = ([float(c) for c in t] for t in (u, v, w))
            for B, x, y, z in ((A, u, v, w), (Af, uf, vf, wf)):  # exact, bit for bit
                assoc, comm = _reference_laws(B, x, y, z)
                x, y, z = B.element(x), B.element(y), B.element(z)
                assert _typed(B.associator(x, y, z)) == _typed(assoc)
                assert _typed(B.commutator(x, y)) == _typed(comm)
            x = [c * 2 ** 0.5 for c in uf]  # a float point on the exact table
            assoc, comm = _reference_laws(A, x, v, w)
            x, y, z = A.element(x), A.element(v), A.element(w)
            for got, want in ((A.associator(x, y, z), assoc), (A.commutator(x, y), comm)):
                assert [type(c) for c in got.coords] == [type(c) for c in want.coords]
                assert (got - want).is_zero(A.eps)


def test_difference_is_subtraction_for_an_element(H):
    # the exact-zero shortcut in associator and commutator keeps every type
    scalars = [0, Fraction(0), Fraction(1, 2), 0.0, -0.0, 1.5]
    for a in scalars:
        for b in scalars:
            pairs = ([a] * 4, [b] * 4)
            assert (_typed(H.element(core._difference(*pairs)))
                    == _typed(H.element([x - y for x, y in zip(*pairs)])))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_input_is_rejected(H, bad):
    sc = [[list(cell) for cell in row] for row in H.sc]
    sc[1][2][3] = bad
    with pytest.raises(ParameterError, match="structure constant"):
        Algebra(sc)
    with pytest.raises(ParameterError, match="unit coordinate"):
        Algebra(H.sc, unit=[1, 0, 0, bad])
    with pytest.raises(ParameterError, match="unit coordinate"):
        Algebra(H.to_float().sc, unit=[1.0, bad, 0.0, 0.0])
    with pytest.raises(ParameterError, match="eps"):
        Algebra(H.sc, eps=bad)
    with pytest.raises(ParameterError):
        catalog.tc(a=bad)


def test_negative_eps_is_rejected(H):
    with pytest.raises(ParameterError, match="eps"):
        Algebra(H.sc, eps=-1e-9)
    assert Algebra(H.sc, eps=0).eps == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_bad_per_call_eps_is_rejected_everywhere(bad):
    from altkit import identities, lie, linalg, structure, units

    H = catalog.quaternions().to_float()
    L = lie.lieify(H)
    ident = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    locus = units.classify_locus_tn(catalog.tn(a=-1, g=1))
    calls = [
        lambda: H.one().is_zero(bad),
        lambda: H.mul_operator(H.one()).is_singular(bad),
        lambda: H.first_singular([H.one().coords], bad),
        lambda: identities.check_identity(H, "associative", eps=bad),
        lambda: identities.is_strictly_middle(H, eps=bad),
        lambda: identities.is_division_sampled(H, eps=bad),
        lambda: structure.commutative_nucleus(H, eps=bad),
        lambda: structure.is_automorphism(H, ident, eps=bad),
        lambda: structure.reflection_decompose(catalog.quaternions(), ident, eps=bad),
        lambda: structure.classify_middle_c(catalog.tn(a=-1, g=1), eps=bad),
        lambda: lie.check_jacobi(L, tol=bad),
        lambda: lie.derived_series(L, eps=bad),
        lambda: lie.classify_lie(L, eps=bad),
        lambda: units.verify_unit(H, H.basis(1), bad),
        lambda: units.solve_units_sampled(H, seeds=2, tol=bad),
        lambda: units.grid_unit_search(H, radius=1, tol=bad),
        lambda: units.equation_satisfied(locus, locus.points[0], bad),
        lambda: linalg.rank(ident, bad),
        lambda: linalg.det(ident, bad),
        lambda: linalg.dets([ident], bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="eps"):
            call()
