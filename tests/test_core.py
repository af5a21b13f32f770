import gc
import random
import weakref
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


class _FractionElement:
    """Reference: Element arithmetic with one parsed scalar per coordinate,
    a Fraction per coordinate per sum, scalar multiple and product, over
    the `_mul_coords` products checked above."""

    def __init__(self, A, coords):
        coords = tuple(core.parse_scalar(c) for c in coords)
        if A.scalar_mode == "float":
            coords = tuple(float(c) for c in coords)
        self.algebra, self.coords = A, coords

    def _new(self, coords):
        return _FractionElement(self.algebra, coords)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._new([-a for a in self.coords])

    def scaled(self, s):
        s = core.parse_scalar(s)
        return self._new([s * a for a in self.coords])

    def __truediv__(self, s):
        s = core.parse_scalar(s)
        return self._new([a / s for a in self.coords])

    def __eq__(self, other):
        return other.algebra is self.algebra and other.coords == self.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def multiply(self, other):
        return self._new(self.algebra._mul_coords(self.coords, other.coords))

    def associator(self, y, z):
        A = self.algebra
        xy, yz = A._mul_coords(self.coords, y.coords), A._mul_coords(y.coords, z.coords)
        left, right = A._mul_coords(xy, z.coords), A._mul_coords(self.coords, yz)
        return self._new([a - b for a, b in zip(left, right)])

    def commutator(self, y):
        xy = self.algebra._mul_coords(self.coords, y.coords)
        yx = self.algebra._mul_coords(y.coords, self.coords)
        return self._new([a - b for a, b in zip(xy, yx)])

    def mul_operator(self, side):
        n = self.algebra.dim
        cols = []
        for j in range(n):
            e_j = [1 if i == j else 0 for i in range(n)]
            cols.append(self.algebra._mul_coords(self.coords, e_j) if side == "left"
                        else self.algebra._mul_coords(e_j, self.coords))
        return [[col[r] for col in cols] for r in range(n)]


SCALARS = [3, -2, 0, Fraction(-3, 4), Fraction(5, 3), 0.5, 2 ** 0.5, -0.0]


def _same(got, want):
    """Same coordinates, value for value and type for type (a float's repr
    is exact, so floats agree bit for bit), and the same equality and hash
    as the reference."""
    assert _typed(got) == _typed(list(want.coords))
    assert got == got.algebra.element(want.coords)
    assert hash(got) == hash(want)


def _check_element_ops(pairs, step=1):
    """Every Element operation on every (x, y, z) drawn from ``pairs`` of
    (Element, reference); returns some results, as pairs, for chaining."""
    made = []
    for a, (x, xo) in enumerate(pairs):
        A = x.algebra
        _same(-x, -xo)
        for s in SCALARS:
            _same(s * x, xo.scaled(s))
            _same(x * s, xo.scaled(s))
            if s:
                _same(x / s, xo / s)
            else:
                for divide in (lambda: x / s, lambda: xo / s):
                    with pytest.raises(ZeroDivisionError):
                        divide()
        for side in ("left", "right"):
            got = A.mul_operator(x, side).matrix
            assert [_typed(list(r)) for r in got] == [_typed(r) for r in xo.mul_operator(side)]
        for b in range(0, len(pairs), step):
            (y, yo), (z, zo) = pairs[b], pairs[(a + b) % len(pairs)]
            _same(x + y, xo + yo)
            _same(x - y, xo - yo)
            _same(x * y, xo.multiply(yo))
            _same(A.associator(x, y, z), xo.associator(yo, zo))
            _same(A.commutator(x, y), xo.commutator(yo))
            if b == a:
                made += [(x + y, xo + yo), (Fraction(1, 3) * x, xo.scaled(Fraction(1, 3))),
                         (x * y, xo.multiply(yo)), (x - y / 7, xo - yo / 7)]
    return made


def _element_pairs(A, vectors):
    return [(A.element(v), _FractionElement(A, v)) for v in vectors]


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_element_arithmetic_matches_fraction_reference(A):
    rng = random.Random(A.dim + 1)
    n = A.dim
    vectors = [[Fraction(int(i == j)) for i in range(n)] for j in (0, n - 1)]
    vectors += [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) * rng.randint(0, 1)
                 for _ in range(n)] for _ in range(3)]
    vectors += [[0] * n, [1 if i % 2 else 0 for i in range(n)]]
    if A.unit is not None:
        vectors.append(list(A.unit))
    floats = [[float(c) for c in v] for v in vectors]
    mixed = [[float(c) * 2 ** 0.5 if i % 2 else c for i, c in enumerate(v)] for v in vectors]
    step = 1 if n <= 6 else 3
    # exact table: integer forms; float table: bit for bit; exact table
    # with float coordinates, alone and beside integer forms
    for B, vecs in ((A, vectors), (A.to_float(), floats), (A, vectors[:4] + mixed[:4])):
        made = _check_element_ops(_element_pairs(B, vecs), step)
        _check_element_ops(made, 5)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(rationals, st.integers(-5, 5),
                          st.floats(-4, 4, allow_nan=False, allow_infinity=False)),
                min_size=12, max_size=12),
       st.sampled_from(["quaternions", "mplus", "mzero", "tp"]), st.booleans())
def test_element_arithmetic_matches_fraction_reference_drawn(values, name, to_float):
    A = (catalog.tp(alpha1=Fraction(1, 2), beta1=Fraction(-4, 3), delta2=3, gamma2=Fraction(7, 4))
         if name == "tp" else catalog.build(name))
    A = A.to_float() if to_float else A
    pairs = _element_pairs(A, [values[:4], values[4:8], values[8:]])
    exact = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    pairs += _element_pairs(A, [exact[:4], exact[4:8]])  # integer forms on an exact table
    _check_element_ops(_check_element_ops(pairs), 3)


def test_equality_and_hash_across_forms(H):
    half = H.element([Fraction(1, 2), 0, 0, 0])
    assert half == H.element([0.5, 0, 0, 0]) == H.element(["1/2", 0.0, 0, 0])
    assert hash(half) == hash(H.element([0.5, 0, 0, 0])) == hash(H.element(["1/2", 0.0, 0, 0]))
    assert half != H.element([0.5000001, 0, 0, 0])
    assert 2 * half != half  # the same integers over another denominator
    x = H.element([Fraction(2, 3), -1, Fraction(5, 6), Fraction(1, 4)])
    y = H.element([Fraction(1, 6), 3, 0, Fraction(-7, 2)])
    routes = [(x + y) - y, 2 * (x / 2), x * Fraction(3, 7) / Fraction(3, 7), -(-x),
              (x * 6 + y) - y - 5 * x, H.element(list(x.coords)),
              H.element([float(c) for c in x.coords[:2]] + list(x.coords[2:])) + H.zero()]
    for r in routes[:-1]:
        assert r == x and hash(r) == hash(x)
        assert r._int_form() and x._int_form()
        assert (r._ints, r._den) == (x._ints, x._den)  # one canonical form
    assert x - x == H.zero() == 0 * x == H.one() - H.one()
    assert hash(x - x) == hash(H.zero()) == hash(0 * x)
    assert (H.one() - H.one())._den == 1
    # unit lists dedup exactly as before, with every form in one set
    i, j = H.by_label("i"), H.by_label("j")
    units = [i, -i, -(-i), i * 1, (i + j) - j, H.element([0, 1.0, 0, 0]), j, -(j * -1)]
    assert set(units) == {i, -i, j}
    assert len(set(units)) == len({_FractionElement(H, u.coords) for u in units}) == 3


def test_an_algebra_is_freed_without_the_cycle_collector():
    # an algebra keeps no Element (an Element holds its algebra), so its
    # basis, unit and products leave no reference cycle behind
    gc.disable()
    try:
        A = catalog.tp(alpha1=Fraction(1, 2), beta2=-1, delta2=1)
        x = A.one() + A.basis(1)
        A.associator(x, x, A.by_label("w")).coords
        A.basis_elements(), A.mul_operator(x), A.cube
        ref = weakref.ref(A)
        del A, x
        assert ref() is None
    finally:
        gc.enable()


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
