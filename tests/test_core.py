import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altkit import catalog, core
from altkit.core import Algebra, DimensionError, ParameterError
from altkit.identities import _point_rows
import oracle
from oracle import typed

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


def _fraction_mul_coords(A, u, v, zero=0):
    """Reference: the Fraction loop over the nonzero table entries, one
    Fraction product and sum per term, ``zero`` where no term lands."""
    out = [zero] * A.dim
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
    return oracle.catalog_tables(catalog.build)


def _exact_pairs(A, rng):
    n = A.dim
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    drawn = [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) * rng.randint(0, 1)
              for _ in range(n)] for _ in range(6)]
    vecs = basis + drawn + [[1 if i % 2 else 0 for i in range(n)]]  # ints too
    if A.unit is not None:
        vecs.append(list(A.unit))
    return [(u, v) for u in vecs for v in vecs]


def _floats(coords):
    return [float(c) for c in coords]


def _reference_mul(A, u, v):
    """The reference product of coordinate lists: the Fraction loop, with
    Fraction zeros, for exact operands on an exact table; otherwise the
    same loop on `A.to_float()` over the coordinates as floats, whose float
    sums the float checks in this file pin bit for bit."""
    if A.scalar_mode == "exact" and not any(isinstance(c, float) for c in (*u, *v)):
        return _fraction_mul_coords(A, u, v, Fraction(0))
    return _fraction_mul_coords(A.to_float(), _floats(u), _floats(v))


def _end_of_sum_mul_coords(A, u, v):
    """A float product that `multiply` does not take on an exact table:
    the float sums over the table's integers (its entries times its scale),
    each divided by the scale once, at the end.  Its last bits differ from
    the product on `to_float()`, whose entries are each rounded once."""
    out = A._accumulate([(i, c) for i, c in enumerate(u) if c],
                        [(j, c) for j, c in enumerate(v) if c])
    return [acc / A._scale if acc else acc for acc in out]


def _check_exact_products(A, rng):
    for u, v in _exact_pairs(A, rng):
        want = _fraction_mul_coords(A, u, v, Fraction(0))
        assert all(type(c) is Fraction for c in want)
        assert typed(A.element(u) * A.element(v)) == typed(want)


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_product_matches_fraction_reference_on_catalog(A):
    rng = random.Random(A.dim)
    assert A.scalar_mode == "exact"
    _check_exact_products(A, rng)

    # a float table: the same float loop, bit for bit and type for type
    Af = A.to_float()
    for u, v in _exact_pairs(A, rng):
        uf, vf = _floats(u), _floats(v)
        want = _fraction_mul_coords(Af, uf, vf)
        assert typed(Af.element(uf) * Af.element(vf)) == typed(Af.element(want))
        assert typed(Af.element(u) * Af.element(v)) == typed(Af.element(want))

    # float coordinates on the exact table (Newton points, sqrt witnesses):
    # the product on `to_float()` of the coordinates as floats, bit for bit,
    # so a float wherever a term lands, even a term of exact coordinates (a
    # float zero adds no term, so it may leave the result exact); within
    # the algebra's eps of the Fraction reference
    for u, v in _exact_pairs(A, rng):
        uf = [float(c) * 2 ** 0.5 for c in u]
        mixed = [float(c) if i % 2 else c for i, c in enumerate(v)]
        for x, y in ((uf, v), (u, mixed), (uf, mixed)):
            prod = A.element(x) * A.element(y)
            want = _fraction_mul_coords(Af, _floats(x), _floats(y))
            assert typed(prod) == typed(A.element(want))
            exact = _fraction_mul_coords(A, x, y)
            assert all(core.scalars_close(g, w, A.eps) for g, w in zip(prod.coords, exact))


@pytest.mark.parametrize("table", [catalog.quaternions(),
                                   catalog.ak(2, a11=Fraction(1, 3))])
def test_product_matches_fraction_reference_past_int64(table):
    big = oracle.scaled(table)
    assert big.cube.dtype == object  # the cube falls back to Python ints
    _check_exact_products(big, random.Random(3))
    bigf = big.to_float()
    for u, v in _exact_pairs(big, random.Random(4)):
        want = _fraction_mul_coords(bigf, _floats(u), _floats(v))
        assert typed(bigf.element(u) * bigf.element(v)) == typed(bigf.element(want))


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
                assert typed(B.associator(x, y, z)) == typed(assoc)
                assert typed(B.commutator(x, y)) == typed(comm)
            x = [c * 2 ** 0.5 for c in uf]  # a float point on the exact table
            assoc, comm = _reference_laws(A, x, v, w)
            x, y, z = A.element(x), A.element(v), A.element(w)
            for got, want in ((A.associator(x, y, z), assoc), (A.commutator(x, y), comm)):
                assert [type(c) for c in got.coords] == [type(c) for c in want.coords]
                assert (got - want).is_zero(A.eps)


# contract: Element arithmetic, value for value and type for type
class _FractionElement:
    """Reference: Element arithmetic with one parsed scalar per coordinate,
    a Fraction per coordinate per sum, scalar multiple and product, over
    the `_reference_mul` products."""

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
        return self._new(_reference_mul(self.algebra, self.coords, other.coords))

    def associator(self, y, z):
        A = self.algebra
        xy, yz = _reference_mul(A, self.coords, y.coords), _reference_mul(A, y.coords, z.coords)
        left, right = _reference_mul(A, xy, z.coords), _reference_mul(A, self.coords, yz)
        return self._new([a - b for a, b in zip(left, right)])

    def commutator(self, y):
        xy = _reference_mul(self.algebra, self.coords, y.coords)
        yx = _reference_mul(self.algebra, y.coords, self.coords)
        return self._new([a - b for a, b in zip(xy, yx)])

    def mul_operator(self, side):
        n = self.algebra.dim
        cols = []
        for j in range(n):
            e_j = [1 if i == j else 0 for i in range(n)]
            cols.append(_reference_mul(self.algebra, self.coords, e_j) if side == "left"
                        else _reference_mul(self.algebra, e_j, self.coords))
        return [[col[r] for col in cols] for r in range(n)]


SCALARS = [3, -2, 0, Fraction(-3, 4), Fraction(5, 3), 0.5, 2 ** 0.5, -0.0]


def _same(got, want):
    """Same coordinates, value for value and type for type (a float's repr
    is exact, so floats agree bit for bit), and the same equality and hash
    as the reference."""
    assert typed(got) == typed(list(want.coords))
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
            assert [typed(list(r)) for r in got] == [typed(r) for r in xo.mul_operator(side)]
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
# a tiny float whose square underflows: an exact coordinate that rounds to
# 0.0 then adds no float term, as on to_float()
@example([0] * 7 + [1.6581956938105584e-202] + [Fraction(0)] * 2 + [0] * 2, "quaternions", False)
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
        assert r._den and x._den
        assert (r._ints, r._den) == (x._ints, x._den)  # one canonical form
    assert x - x == H.zero() == 0 * x == H.one() - H.one()
    assert hash(x - x) == hash(H.zero()) == hash(0 * x)
    assert (H.one() - H.one())._den == 1
    # unit lists dedup exactly as before, with every form in one set
    i, j = H.by_label("i"), H.by_label("j")
    units = [i, -i, -(-i), i * 1, (i + j) - j, H.element([0, 1.0, 0, 0]), j, -(j * -1)]
    assert set(units) == {i, -i, j}
    assert len(set(units)) == len({_FractionElement(H, u.coords) for u in units}) == 3


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_an_element_form_is_fixed_when_it_is_built(A):
    # exact coordinates on an exact table: the canonical integer form from
    # construction on; a float table or a float coordinate: _den == 0
    rng = random.Random(A.dim + 2)
    n = A.dim
    vectors = [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
               for _ in range(3)] + [[0] * n, ["1/2"] * n, list(A.unit)]
    exact = [A.element(v) for v in vectors] + A.basis_elements() + [A.one(), A.zero()]
    others = [A.element([float(c) if i == n - 1 else c for i, c in enumerate(e.coords)])
              for e in exact]
    others += [A.to_float().element(v) for v in vectors] + [A.to_float().one()]
    for e in exact:
        assert e._den > 0 and math.gcd(e._den, *e._ints) == 1
        assert [Fraction(c, e._den) for c in e._ints] == list(e.coords)
    for e in others:
        assert e._den == 0 and e._ints is None
    # arithmetic reads the form and never changes it
    slots = [(e._ints, e._den) for e in exact + others]
    for e in exact + others:
        e.algebra.associator(e, e, e), e.algebra.mul_operator(e), -e, e / 3, e == e
        rows = _point_rows([e])
        e.algebra.mul_operators(rows), e.algebra.associator_slices((1,), rows)
    assert [(e._ints, e._den) for e in exact + others] == slots
    assert all(r._den > 0 for r in (exact[0] + exact[1], exact[0] * exact[2], exact[1] / 7))


SLOT_SETS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))


def _bits(M):
    """A float array's bit patterns: equal arrays of these are equal bit for
    bit, the sign of a zero included."""
    assert M.dtype == float
    return M.view(np.int64)


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_kernels_read_float_coords_as_to_float(A):
    # float rows make the kernel float: on the exact table they give the
    # arrays of the same rows on A.to_float(), bit for bit
    rng = random.Random(A.dim + 5)
    n = A.dim
    F = np.array([[float(Fraction(k - 2, 4)) for k in range(n)],
                  [rng.uniform(-3, 3) for _ in range(n)],
                  [0.1] + [float(Fraction(rng.randint(-7, 7), rng.randint(1, 6)))
                           for _ in range(n - 1)],
                  [0.0] * n])
    Af = A.to_float()
    for slots in SLOT_SETS:
        assert np.array_equal(_bits(A.associator_slices(slots, F)),
                              _bits(Af.associator_slices(slots, F)))
        for c in range(len(F)):
            assert np.array_equal(_bits(A.associator_slices(slots, F[c:c + 1])),
                                  _bits(Af.associator_slices(slots, F[c:c + 1])))
    assert np.array_equal(_bits(A.mul_operators(F)), _bits(Af.mul_operators(F)))
    for k in range(len(F)):
        assert A.first_singular(F[k:]) == Af.first_singular(F[k:])
    assert A.first_singular(F[-1:]) == 0  # the zero row


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_float_points_check_as_on_to_float(A):
    # a unit or plane point with a float coordinate makes its whole group
    # float, a point with exact coordinates beside it included: each
    # associator law then gives the report of the same points on
    # A.to_float(), its witness points bit for bit, and its defect too
    # unless the witness is exact (then the copy's defect is it rounded)
    from altkit import identities

    Af = A.to_float()
    n = A.dim
    e1 = A.element([1.0 if k == 1 else 0 for k in range(n)])
    one = A.element([float(c) for c in A.unit])
    cases = [([e1, -e1], (one, e1)), ([A.basis(1), -e1], (A.one(), e1))]
    for points, plane in cases:
        assert all(_point_rows(list(group)).dtype == float for group in (points, plane))
        for kind in identities.IdentityKind:
            if kind == identities.IdentityKind.COMMUTATIVE:
                continue
            got, want = (identities.check_identity(B, kind, units=units, c_span=span)
                         for B, units, span in (
                             (A, points, plane),
                             (Af, [Af.element(_floats(p.coords)) for p in points],
                              [Af.element(_floats(p.coords)) for p in plane])))
            assert (got.holds, got.method) == (want.holds, want.method), kind
            if got.witness is None:
                continue
            g, w = got.witness, want.witness
            for u, v in zip((g.x, g.y, g.z), (w.x, w.y, w.z)):
                assert np.array_equal(_float_bits(u.coords), _float_bits(v.coords))
            if g.defect._den:
                assert np.allclose(_floats(g.defect.coords), w.defect.coords, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(_float_bits(g.defect.coords), _float_bits(w.defect.coords))


def _float_bits(coords):
    """`_bits` of coordinates read as floats (an exact zero reads as 0.0)."""
    return _bits(np.array(_floats(coords), dtype=float))


# entries that are not all integers (scale > 1)
_SCALED_TABLES = [A for A in _catalog_tables() if A._scale > 1]


def _float_work_rows(A):
    # five float rows and one with a float among rationals
    rng = random.Random(A.dim + 7)
    n = A.dim
    rows = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(5)]
    rows.append([0.5] + [Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n - 1)])
    return rows


@pytest.mark.parametrize("A", _SCALED_TABLES, ids=repr)
def test_float_work_on_an_exact_table_is_the_work_on_to_float(A):
    # a float coordinate makes every computation run on the one cached
    # float copy, bit for bit
    from altkit import identities, units

    Af = A.to_float()
    assert Af is A.to_float() and Af.to_float() is Af
    rows = _float_work_rows(A)
    pairs = [(A.element(r), Af.element(r)) for r in rows]
    for a, b in itertools.product(range(len(pairs)), repeat=2):
        (x, xf), (y, yf), (z, zf) = pairs[a], pairs[b], pairs[(a + b) % len(pairs)]
        assert np.array_equal(_float_bits((x * y).coords), _float_bits((xf * yf).coords))
        assert np.array_equal(_float_bits(A.associator(x, y, z).coords),
                              _float_bits(Af.associator(xf, yf, zf).coords))
    for (x, xf), side in itertools.product(pairs, ("left", "right")):
        got, want = A.mul_operator(x, side).matrix, Af.mul_operator(xf, side).matrix
        assert np.array_equal(_bits(np.array(got, dtype=float)),
                              _bits(np.array(want, dtype=float)))
    U = np.array(rows[:5])
    assert np.array_equal(_bits(A.multiply_rows(U, U[::-1])), _bits(Af.multiply_rows(U, U[::-1])))

    # a Newton cloud: the same points, the same unit verdicts, and the same
    # partial-law witnesses and defects
    cloud, cloudf = (units.solve_units_sampled(B, seeds=30, seed=1) for B in (A, Af))
    assert [_float_bits(q.coords).tolist() for q in cloud.points] == \
        [_float_bits(q.coords).tolist() for q in cloudf.points]
    for tol in (None, 0.0):
        assert [units.verify_unit(A, q, tol) for q in cloud.points] == \
            [units.verify_unit(Af, q, tol) for q in cloudf.points]
    for kind in identities.PARTIAL_KINDS:
        got, want = (identities.check_identity(B, kind, units=c.points)
                     for B, c in ((A, cloud), (Af, cloudf)))
        assert got.holds == want.holds
        if got.witness is not None:
            for u, w in zip((got.witness.x, got.witness.y, got.witness.z, got.witness.defect),
                            (want.witness.x, want.witness.y, want.witness.z, want.witness.defect)):
                assert np.array_equal(_float_bits(u.coords), _float_bits(w.coords))


def test_the_end_of_sum_reading_gives_other_last_bits_on_some_table():
    # the bit-for-bit pins above can tell the summation order apart: on
    # some of their tables a product of their rows read by summing at the
    # end differs from the product in its last bits
    def moved(A):
        xs = [A.element(r) for r in _float_work_rows(A)]
        return any(_floats((x * y).coords) !=
                   _end_of_sum_mul_coords(A, _floats(x.coords), _floats(y.coords))
                   for x, y in itertools.product(xs, repeat=2))

    assert any(moved(A) for A in _SCALED_TABLES)


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_mul_operators_stay_int64_on_a_python_int_cube(A):
    # big is A with every entry times c: its cube holds Python ints, and an
    # element's integer form is that of the element of A times c
    c = 2 ** 40 + 1
    big = oracle.scaled(A, c)
    assert big.cube.dtype == object
    rng = random.Random(A.dim)
    vectors = [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(A.dim)]
               for _ in range(3)] + [[c] * A.dim]
    rows = _point_rows([A.element(v) for v in vectors])
    assert np.array_equal(rows, _point_rows([big.element(v) for v in vectors]))
    small, ops = A.mul_operators(rows), big.mul_operators(rows)
    assert ops.dtype == np.int64
    assert np.array_equal(ops, small * (c % core.MODULUS) % core.MODULUS)


# contract: multiply_rows is multiply row for row, floats bit for bit
def _rows_reference(A, X, Y):
    """Reference for `multiply_rows` on exact rows: `multiply` of each pair
    of rows as Elements, times the table's scale."""
    return [[c * A._scale for c in A.multiply(A.element(x), A.element(y)).coords]
            for x, y in zip(X.tolist(), Y.tolist())]


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_multiply_rows_matches_multiply_on_every_path(A):
    rng = np.random.default_rng(A.dim)
    X, Y = rng.integers(-50, 51, (2, 9, A.dim))
    # int64 on an exact table
    P = A.multiply_rows(X, Y)
    assert P.dtype == np.int64 and P.tolist() == _rows_reference(A, X, Y)
    # Python ints: rows near 2^40 on A, and A with every entry times c,
    # where `_fits_int64` fails
    c = 2 ** 40 + 1
    big = oracle.scaled(A, c)
    for B, U, V in ((A, X * c, Y * c), (big, X, Y)):
        P = B.multiply_rows(U, V)
        assert P.dtype == object and P.tolist() == _rows_reference(B, U, V)
    # a float table: the float sums of `multiply`, bit for bit
    U, V = rng.uniform(-2, 2, (2, 9, A.dim))
    Af = A.to_float()
    P = Af.multiply_rows(U, V)
    assert P.dtype == float
    assert P.tolist() == [list((Af.element(u) * Af.element(v)).coords)
                          for u, v in zip(U.tolist(), V.tolist())]
    # float rows on the exact table (the Newton re-check): the true product,
    # summed on `to_float()` as there, bit for bit
    assert np.array_equal(_bits(A.multiply_rows(U, V)), _bits(P))


def test_multiply_rows_rejects_mismatched_rows(H):
    with pytest.raises(DimensionError):
        H.multiply_rows(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        H.multiply_rows(np.zeros((2, 4)), np.zeros((3, 4)))


SQUARE_SHAPES = {(0, 1): lambda v, y: (v, v, y), (1, 2): lambda v, y: (y, v, v),
                 (0, 2): lambda v, y: (v, y, v)}


def _square_points(A, rng):
    return A.basis_elements() + [
        A.element([Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(A.dim)])
        for _ in range(3)]


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_square_slices_match_the_element_associator(A):
    # the two-slot kernel, v in two arguments; exact: Q[c] is one positive
    # multiple of the true associators per element
    rng = random.Random(A.dim + 2)
    points = _square_points(A, rng)
    for slots, shape in SQUARE_SHAPES.items():
        Q = A.associator_slices(slots, _point_rows(points))
        assert Q.shape == (len(points), A.dim, A.dim) and Q.dtype == np.int64
        for v, rows in zip(points, Q):
            want = [A.associator(*shape(v, y)).coords for y in A.basis_elements()]
            ratios = {Fraction(int(q)) / w for row, wrow in zip(rows, want)
                      for q, w in zip(row, wrow) if w}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)
            assert all((q == 0) == (w == 0) for row, wrow in zip(rows, want)
                       for q, w in zip(row, wrow))
    # floats: within a tolerance set by the entries' size
    Af = A.to_float()
    fpoints = [Af.element([rng.uniform(-3, 3) for _ in range(A.dim)]) for _ in range(3)]
    for slots, shape in SQUARE_SHAPES.items():
        Q = Af.associator_slices(slots, _point_rows(fpoints))
        assert Q.dtype == float
        want = [[Af.associator(*shape(v, y)).coords for y in Af.basis_elements()]
                for v in fpoints]
        assert np.allclose(Q, want, rtol=0, atol=1e-9)


def test_square_slices_reject_bad_slots(H):
    for slots in [(0, 0), (1, 0), (2, 1), (0, 3), (0, 1, 2), (), (3,), (-1,),
                  [0, 1], 0, 1, None, "left"]:
        with pytest.raises(ParameterError):
            H.associator_slices(slots, np.eye(4)[:1])


def test_kernels_reject_elements(H):
    # the kernels take coordinate rows only: a list of Elements is
    # malformed rows, as rows of the wrong width are
    for arg in ([H.one()], H.basis_elements(), np.eye(3)):
        with pytest.raises(DimensionError, match="rows"):
            H.associator_slices((0, 1), arg)
        with pytest.raises(DimensionError, match="rows"):
            H.mul_operators(arg)
        with pytest.raises(DimensionError, match="rows"):
            H.first_singular(arg)


def test_kernels_reject_object_rows_that_are_not_integers():
    # read as integers, the row (i + j) / 2 would be truncated to zero
    T = catalog.tn(c=1)
    assert T.associator_slices((0, 2), np.array([[0, 1, 1, 0]], dtype=object)).any()
    for row in ([0, Fraction(1, 2), Fraction(1, 2), 0], [0, 1, 0.5, 0]):
        X = np.array([row], dtype=object)
        with pytest.raises(DimensionError, match="rows must hold integers"):
            T.associator_slices((0, 2), X)
        with pytest.raises(DimensionError, match="rows must hold integers"):
            T.mul_operators(X)
        with pytest.raises(DimensionError, match="rows must hold integers"):
            T.first_singular(X)


def test_multiply_rows_rejects_object_rows_that_are_not_integers():
    # read as integers, the object row [0, 0.5, 1, 0] gave _scale (3) times
    # a wrong product, [0.25, 0, 0, 0]; as floats it is the true one
    T = catalog.tn(a=Fraction(1, 3), g=Fraction(-1, 3))
    X = np.array([[0, 0.5, 1, 0]], dtype=object)
    ints = np.array([[0, 1, 2, 0]], dtype=object)
    for left, right in ((X, X), (ints, X), (X, ints)):
        with pytest.raises(DimensionError, match="rows must hold integers"):
            T.multiply_rows(left, right)
    floats = X.astype(float)
    assert T.multiply_rows(floats, floats)[0].tolist() == pytest.approx([1 / 12, 0, 0, 0])
    # object rows of integers are read as the integers they hold
    assert (T.multiply_rows(ints, ints).tolist()
            == T.multiply_rows(ints.astype(np.int64), ints.astype(np.int64)).tolist())


ONE_SLOT_SHAPES = {(0,): lambda v, y, z: (v, y, z), (1,): lambda v, y, z: (y, v, z),
                   (2,): lambda v, y, z: (y, z, v)}


@pytest.mark.parametrize("A", _catalog_tables(), ids=repr)
def test_one_slot_slices_match_the_element_associator(A):
    # D[c, a, b] is (v, e_a, e_b) with v in the slot: exact on an exact
    # table (one positive multiple per element), within eps on a float one
    rng = random.Random(A.dim + 3)
    basis = A.basis_elements()
    points = _square_points(A, rng)
    Af = A.to_float()
    fpoints = [Af.element([rng.uniform(-3, 3) for _ in range(A.dim)]) for _ in range(2)]
    for slots, shape in ONE_SLOT_SHAPES.items():
        D = A.associator_slices(slots, _point_rows(points))
        assert D.shape == (len(points),) + (A.dim,) * 3 and D.dtype == np.int64
        for v, rows in zip(points, D):
            want = [[A.associator(*shape(v, y, z)).coords for z in basis] for y in basis]
            ratios = {Fraction(int(q)) / w for q, w in zip(rows.flat, np.ravel(want)) if w}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)
            assert all((q == 0) == (w == 0) for q, w in zip(rows.flat, np.ravel(want)))
        want = [[[Af.associator(*shape(v, y, z)).coords for z in Af.basis_elements()]
                 for y in Af.basis_elements()] for v in fpoints]
        assert np.allclose(Af.associator_slices(slots, _point_rows(fpoints)), want,
                           rtol=0, atol=1e-9)


def _loop_unit_violation(sc, unit, labels, eps):
    """Reference: the first basis vector e_j, 1*e_j before e_j*1, whose
    product with the unit is not e_j, as the unit-axiom message, or None."""
    n = len(sc)
    for j in range(n):
        e_j = [int(i == j) for i in range(n)]
        for u, v, name in ((unit, e_j, "1*x"), (e_j, unit, "x*1")):
            got = [sum(u[i] * v[m] * sc[i][m][k] for i in range(n) for m in range(n))
                   for k in range(n)]
            if any(not core.scalars_close(g, b, eps) for g, b in zip(got, e_j)):
                return f"unit axiom violated on basis vector {labels[j]} ({name})"
    return None


def test_unit_axiom_message_names_the_first_failing_side():
    # unit e0; e0*e2 = e1 + e2 breaks 1*x at e2, e1*e0 = right e1 breaks x*1
    # at the earlier e1 unless right == 1, and e0*e1 = left e1 breaks 1*x
    # there unless left == 1; the unit is checked column by column, 1*x
    # before x*1
    def table(right, left=1):
        sc = [[[int(k == max(i, j)) if min(i, j) == 0 else 0 for k in range(3)]
               for j in range(3)] for i in range(3)]
        sc[0][2] = [0, 1, 1]
        sc[1][0] = [0, right, 0]
        sc[0][1] = [0, left, 0]
        return sc

    labels = ("a", "b", "c")
    for sc, want in ((table(2), "b (x*1)"), (table(1), "c (1*x)"), (table(2, 3), "b (1*x)")):
        floats = [[[float(c) for c in cell] for cell in row] for row in sc]
        for cube, unit in ((sc, [1, 0, 0]), (floats, [1.0, 0.0, 0.0]), (sc, [1.0, 0.0, 0.0])):
            message = _loop_unit_violation(cube, unit, labels, 1e-9)
            assert message == f"unit axiom violated on basis vector {want}"
            with pytest.raises(core.AlgebraError) as err:
                Algebra(cube, labels=labels, unit=unit)
            assert str(err.value) == message
    fixed = table(1)
    fixed[0][2] = [0, 0, 1]
    Algebra(fixed, unit=[1, 0, 0]), Algebra(fixed, unit=[1.0, 1e-12, 0.0])


def test_unit_axiom_on_a_scaled_table_compares_the_true_product():
    # e*e = e/2 (scale 2): 2e is the unit, and 1*e = 2 * (e/2) = e; the
    # table's integers would give 2e, so a float unit is checked on the
    # float product, not on the scaled sums
    half = [[[Fraction(1, 2)]]]
    for unit in ([2], ["2"], [2.0]):
        A = Algebra(half, unit=unit)
        assert A._scale == 2 and A.one() * A.basis(0) == A.basis(0)
    for unit in ([1], [1.0], [Fraction(1, 2)], [2.000001]):
        with pytest.raises(core.AlgebraError, match="e0 \\(1\\*x\\)"):
            Algebra(half, unit=unit)
    # the float copy checks the axiom in floats: 49 * float(1/49) != 1, so
    # at eps 0 the exact table stands and its float work raises
    A = Algebra([[[Fraction(1, 49)]]], unit=[49], eps=0)
    assert A.one() * A.one() == A.one()
    with pytest.raises(core.AlgebraError, match="unit axiom"):
        A.to_float()
    with pytest.raises(core.AlgebraError, match="unit axiom"):
        A.multiply(A.element([0.5]), A.one())


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
        lambda: H.first_singular(np.eye(4)[:1], bad),
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


@pytest.mark.parametrize("bad", [2.5, 2.0, True, -1])
def test_a_count_that_is_not_a_nonnegative_integer_is_rejected_everywhere(bad):
    from altkit import identities, units

    H = catalog.quaternions()
    T = catalog.tn(a=-1)
    locus = units.classify_locus_tn(T)
    calls = [
        lambda: core.draw_twelfths(random.Random(0), bad),
        lambda: core.draw_uniform(random.Random(0), -2.0, 2.0, bad),
        lambda: units.solve_units_sampled(H, seeds=bad),
        lambda: identities.is_division_sampled(H, samples=bad),
        lambda: units.rational_locus_points(T, Fraction(-1), bad),
        lambda: units.locus_sample_points(locus, T, bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=f"got {bad!r}"):
            call()
    # an integer of another type is a count
    assert core.require_count(np.int64(3), "count") == 3


# Contract: the seeded draws are the random module's own loops, value for
# value and state for state, so every sampled witness and `sampled(k)`
# count that pins the stream of `random.Random` holds.  The counts straddle
# a block of `_BLOCK_WORDS` words: a twelfth takes at least two words and
# is asked for as four, a uniform value takes exactly two.
def test_seeded_draws_repeat_the_random_module_loops():
    B = core._BLOCK_WORDS
    for block, dtype, draw, loop in (
            (B // 4, np.int64, core.draw_twelfths,
             lambda rng, k: [rng.randint(-6, 6) * (12 // rng.randint(1, 4)) for _ in range(k)]),
            (B // 2, np.float64, lambda rng, k: core.draw_uniform(rng, -2.0, 2.0, k),
             lambda rng, k: [rng.uniform(-2.0, 2.0) for _ in range(k)]),
            (B // 2, np.float64, lambda rng, k: core.draw_uniform(rng, -6, 6, k),
             lambda rng, k: [rng.uniform(-6, 6) for _ in range(k)])):
        for count in (0, 1, 2, block - 1, block, block + 1, 3 * block + 5):
            for seed in range(200):
                mine, ref = random.Random(seed), random.Random(seed)
                got, want = draw(mine, count), np.array(loop(ref, count), dtype=dtype)
                # bit for bit: the int64 values, or the float64 bits
                assert got.dtype == dtype
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert mine.getstate() == ref.getstate()
                assert mine.random() == ref.random()
