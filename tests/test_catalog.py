import math
import random
from fractions import Fraction

import numpy as np
import pytest

from altkit import catalog, structure
from altkit.core import Algebra, ParameterError, parse_scalar

F = Fraction


def test_quaternion_table_row():
    H = catalog.quaternions()
    j = H.by_label("j")
    assert j * j == -H.one()
    assert H.by_label("i") * j == H.by_label("k")


def test_tn_point_j_squares_to_one():
    A = catalog.tn(a=1)
    j = A.by_label("j")
    assert j * j == A.one()


def test_ak_coefficients():
    A = catalog.ak(1, a11=2, a12=3)
    v11, v12 = A.by_label("v11"), A.by_label("v12")
    assert v11 * v11 == 2 * A.one()
    assert v12 * v12 == 3 * A.one()
    assert (v11 * v12).is_zero(0.0)


def test_ak_dimension_and_labels():
    for k in (1, 3, 5):
        A = catalog.ak(k)
        assert A.dim == 2 * k + 2
        assert A.labels[:2] == ("1", "e1")


def test_ak_commutative_up_to_k5():
    import random

    from altkit import identities
    from altkit.identities import IdentityKind

    rng = random.Random(0)
    for k in range(1, 6):
        coeffs = {f"a{i}{j}": F(rng.randint(1, 9), rng.randint(1, 4))
                  for i in range(1, k + 1) for j in (1, 2)}
        A = catalog.ak(k, **coeffs)
        assert identities.check_identity(A, IdentityKind.COMMUTATIVE).holds


def test_ak_validation():
    with pytest.raises(ParameterError):
        catalog.ak(0)
    with pytest.raises(ParameterError):
        catalog.ak(1, a11=0)
    with pytest.raises(ParameterError):
        catalog.ak(1, a11=-2)
    with pytest.raises(ParameterError):
        catalog.ak(1, a99=1)


def test_ak_rejects_non_integral_k():
    for k in (Fraction(3, 2), 2.9, "5/2", None, True):
        with pytest.raises(ParameterError):
            catalog.ak(k)
    assert catalog.ak(Fraction(2)).dim == 6
    assert catalog.ak(3.0).dim == 8


def test_tc_validation():
    with pytest.raises(ParameterError):
        catalog.tc(h=2)
    catalog.tc(h=1)  # fine


def test_tn_special_case_products():
    A = catalog.tn_special_case(1, 1)
    j, k = A.by_label("j"), A.by_label("k")
    assert j * k == A.one() - A.by_label("i")
    # not alternative: (jj)j != j(jj)
    jj = j * j
    defect = (jj * j) - (j * jj)
    assert defect == 2 * k

    zero_slice = catalog.tn_special_case(0, 0)
    jz = zero_slice.by_label("j")
    assert (jz * jz).is_zero(0.0)


def test_mzero_products_vanish():
    Z = catalog.mzero()
    j, k = Z.by_label("j"), Z.by_label("k")
    for prod in (j * j, j * k, k * j, k * k):
        assert prod.is_zero(0.0)


def test_fixed_tables_are_tn_points():
    pairs = [
        (catalog.mplus(), catalog.tn(a=1, g=-1)),
        (catalog.mzero(), catalog.tn()),
        (catalog.quaternions(), catalog.tn(a=-1, g=1)),
    ]
    for fixed, point in pairs:
        assert fixed.sc == point.sc


def test_mplus_as_reflection_table_point():
    # the reflection-table twin of the j*j = k*k = 1 table: the sign
    # conventions force w*v = i and v*w = -i, and then j -> w, k -> -v
    # is an algebra map
    T = catalog.tp(alpha1=1, beta2=1, delta2=-1, gamma1=1)
    M = catalog.mplus()
    w, v = T.by_label("w"), T.by_label("v")
    assert w * w == T.one()
    assert v * v == T.one()
    mapping = [  # columns: images of 1, i, j, k
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, -1],
    ]
    assert structure.is_isomorphism(M, T, mapping, eps=0.0).ok


def test_every_catalog_algebra_has_a_unit():
    algebras = [
        catalog.ak(2), catalog.tn(a=1, b=2), catalog.tc(a=1, h=1),
        catalog.tp(alpha1=-1), catalog.mplus(), catalog.mzero(),
        catalog.quaternions(), catalog.complex_numbers(),
    ]
    for A in algebras:
        assert A.unit is not None
        for b in A.basis_elements():
            assert A.one() * b == b


def test_build_dispatch():
    A = catalog.build("ak", k=2, a11=2)
    assert A.family[0] == "ak"
    with pytest.raises(ParameterError):
        catalog.build("nope")
    with pytest.raises(ParameterError):
        catalog.build("tn", bogus=1)


def test_tn_params_extraction():
    H = catalog.quaternions()
    params = catalog.tn_params(H)
    assert params["a"] == -1 and params["g"] == 1
    with pytest.raises(ParameterError):
        catalog.tn_params(catalog.tc())


# -- the slot statement against the earlier per-family builders ----------------
#
# contract: each table as the paper states it, independent of the slot data.
# The builders below are the catalog as it was before each family was stated
# as slots, kept as the reference: every table must match them entry for
# entry and type for type.


def _ref_vec(n, entries):
    out = [F(0)] * n
    for k, c in entries.items():
        out[k] = c
    return out


def _ref_neg(v):
    return [-c for c in v]


def _ref_ak(k, **coeffs):
    k = int(F(k))
    names = [f"a{i}{j}" for i in range(1, k + 1) for j in (1, 2)]
    a = {name: parse_scalar(coeffs.get(name, 1)) for name in names}
    n = 2 * k + 2
    labels = ["1", "e1"] + [f"v{i}{j}" for i in range(1, k + 1) for j in (1, 2)]
    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]

    def put(p, q, entries):
        sc[p][q] = _ref_vec(n, entries)

    for p in range(n):
        put(0, p, {p: F(1)})
        put(p, 0, {p: F(1)})
    put(1, 1, {0: F(-1)})
    for i in range(1, k + 1):
        v1, v2 = 2 * i, 2 * i + 1
        put(1, v1, {v2: F(1)})
        put(v1, 1, {v2: F(1)})
        put(1, v2, {v1: F(-1)})
        put(v2, 1, {v1: F(-1)})
        put(v1, v1, {0: a[f"a{i}1"]})
        put(v2, v2, {0: a[f"a{i}2"]})
    return Algebra(sc, labels=labels, unit=_ref_vec(n, {0: F(1)}))


def _ref_four_dim(j_row, k_row, labels, i_rows):
    one, i, j, kv = (_ref_vec(4, {m: 1}) for m in range(4))
    ij, ik, ji, ki = (_ref_vec(4, {m: c}) for m, c in i_rows)
    sc = [
        [one, i, j, kv],
        [i, _ref_neg(one), ij, ik],
        [j, ji, j_row[0], j_row[1]],
        [kv, ki, k_row[0], k_row[1]],
    ]
    return Algebra(sc, labels=labels, unit=one)


def _ref_tn(a=0, b=0, c=0, d=0, f=0, g=0, h=0, e=0):
    a, b, c, d, f, g, h, e = map(parse_scalar, (a, b, c, d, f, g, h, e))
    jj, jk = [a, b, c, d], [f, g, h, e]
    return _ref_four_dim((jj, jk), (_ref_neg(jk), list(jj)), ["1", "i", "j", "k"],
                         ((3, 1), (2, -1), (3, -1), (2, 1)))


def _ref_tc(a=0, b=0, f=0, g=0, h=0):
    a, b, f, g, h = map(parse_scalar, (a, b, f, g, h))
    jj, jk = [a, b, F(0), F(0)], [f, g, h, F(0)]
    return _ref_four_dim((jj, jk), (list(jk), _ref_neg(jj)), ["1", "i", "j", "k"],
                         ((3, 1), (2, -1), (3, 1), (2, -1)))


_TP_NAMES = ("alpha1", "alpha2", "beta1", "beta2", "delta1", "delta2",
             "gamma1", "gamma2")


def _ref_tp(**params):
    ps = {name: parse_scalar(params.get(name, 0)) for name in _TP_NAMES}
    ww, wv, vw, vv = ([ps[f"{x}1"], ps[f"{x}2"], F(0), F(0)]
                      for x in ("alpha", "beta", "delta", "gamma"))
    return _ref_four_dim((ww, wv), (vw, vv), ["1", "i", "w", "v"],
                         ((3, -1), (2, 1), (3, 1), (2, -1)))


def _ref_complex():
    one, i = [F(1), F(0)], [F(0), F(1)]
    return Algebra([[one, i], [i, _ref_neg(one)]], labels=["1", "i"], unit=one)


def _fingerprint(A):
    """What an Algebra holds, scalar types and signed zeros included: a
    table built from its entries holds what parsing its dense table holds."""
    cube = A.cube
    return (A.scalar_mode, repr(cube.dtype), repr(cube.tolist()),
            np.signbit(cube.astype(float)).tolist(), A._scale, repr(A._rows), A.eps,
            repr(A.sc), repr(A.labels), repr(A.unit))


def _draw(rng):
    """An exact, float, signed-zero or int parameter value."""
    kind = rng.randrange(5)
    if kind == 0:
        return F(rng.randint(-5, 5), rng.randint(1, 3))
    if kind == 1:
        return rng.uniform(-3, 3)
    if kind == 2:
        return rng.choice((0.0, -0.0))
    if kind == 3:
        return rng.randint(-3, 3)
    return F(0)


def test_tables_equal_the_reference_builders():
    rng = random.Random(12)
    count = 0
    for _ in range(150):
        params = {p: _draw(rng) for p in "abcdfghe" if rng.random() < 0.7}
        assert _fingerprint(catalog.tn(**params)) == _fingerprint(_ref_tn(**params))
        params = {p: _draw(rng) for p in "abfg" if rng.random() < 0.7}
        params["h"] = rng.choice((0, 1, F(1), 0.0, -0.0, 1.0))
        assert _fingerprint(catalog.tc(**params)) == _fingerprint(_ref_tc(**params))
        params = {p: _draw(rng) for p in _TP_NAMES if rng.random() < 0.7}
        assert _fingerprint(catalog.tp(**params)) == _fingerprint(_ref_tp(**params))
        a, b = _draw(rng), _draw(rng)
        assert (_fingerprint(catalog.tn_special_case(a, b))
                == _fingerprint(_ref_tn(a=a, b=b, f=b, g=-parse_scalar(a))))
        k = rng.randint(1, 4)
        coeffs = {f"a{i}{j}": rng.choice((F(rng.randint(1, 9), rng.randint(1, 4)),
                                          rng.uniform(0.1, 3), rng.randint(1, 4)))
                  for i in range(1, k + 1) for j in (1, 2) if rng.random() < 0.7}
        assert _fingerprint(catalog.ak(k, **coeffs)) == _fingerprint(_ref_ak(k, **coeffs))
        count += 5
    fixed = [
        (catalog.mplus(), _ref_tn(a=1, g=-1)),
        (catalog.mzero(), _ref_tn()),
        (catalog.quaternions(), _ref_tn(a=-1, g=1)),
        (catalog.complex_numbers(), _ref_complex()),
        # entries past int64: a cube of Python ints
        (catalog.tn(b=2**70, c=F(1, 3**40)), _ref_tn(b=2**70, c=F(1, 3**40))),
    ]
    for new, ref in fixed:
        assert _fingerprint(new) == _fingerprint(ref)
        assert _fingerprint(new.to_float()) == _fingerprint(ref.to_float())
    assert count + len(fixed) == 755
    # a float zero keeps its sign through a slot with c = -1
    A = catalog.tn(f=0.0)
    assert math.copysign(1.0, A.sc[3][2][0]) == -1.0
    assert math.copysign(1.0, A.sc[2][3][0]) == 1.0


# parameters for each builder that no other family name matches (tn()
# is mzero)
_SMALL = {"ak": {"k": 3}, "tn": {"a": 2, "b": 1}}


def test_slots_are_disjoint_from_each_other_and_the_fixed_entries(monkeypatch):
    statements = []  # (family, labels, fixed, slots) as handed to the builder
    real = catalog._table

    def spy(labels, fixed, slots, params):
        statements.append((name, labels, fixed, slots))
        return real(labels, fixed, slots, params)

    monkeypatch.setattr(catalog, "_table", spy)
    for name in catalog.FAMILY_NAMES:
        catalog.build(name, **_SMALL.get(name, {}))
    assert [s[0] for s in statements] == list(catalog.FAMILY_NAMES)
    for name, labels, fixed, slots in statements:
        n = len(labels)
        shared = {(0, x, x) for x in range(n)} | {(x, 0, x) for x in range(n)}
        shared.add((1, 1, 0))
        fixed_cells = [(i, j, k) for i, j, k, _ in fixed]
        assert len(set(fixed_cells)) == len(fixed_cells), name
        assert not set(fixed_cells) & shared, name
        cells = [(i, j, k) for entries in slots.values() for i, j, k, _ in entries]
        assert len(set(cells)) == len(cells), name
        for i, j, k in cells:
            assert i != 0 and j != 0, (name, i, j, k)
            assert (i, j, k) not in set(fixed_cells) | shared, (name, i, j, k)
        assert all(0 <= x < n for cell in cells + fixed_cells for x in cell), name


def test_each_table_is_constructed_once(monkeypatch):
    # one Algebra per builder call, and none while its family is recognised;
    # `_setup` fills every Algebra, parsed or built from its cube
    calls = []
    setup = Algebra._setup

    def counting(self, *args, **kwargs):
        calls.append(self)
        setup(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "_setup", counting)
    for name in catalog.FAMILY_NAMES:
        calls.clear()
        A = catalog.build(name, **_SMALL.get(name, {}))
        assert A.family[0] == name
        assert len(calls) == 1 and calls[0] is A


# -- recognising a table from its cube ---------------------------------------
#
# A family's params, stated here from its builder's documentation: every
# parameter the builder takes, at its default where not given.

_TN_NAMED = {"mplus": {"a": 1, "g": -1}, "mzero": {}, "quaternions": {"a": -1, "g": 1}}
_DEFAULTS = {"tn": dict.fromkeys("abcdfghe", 0), "tc": dict.fromkeys("abfgh", 0),
             "tp": dict.fromkeys(_TP_NAMES, 0), "complex": {}}


def _family(name, **given):
    """The (name, params) that recognition reads off build(name, **given)."""
    if name == "ak":
        k = given["k"]
        return "ak", {"k": k, **{f"a{i}{j}": given.get(f"a{i}{j}", 1)
                                 for i in range(1, k + 1) for j in (1, 2)}}
    if name in _TN_NAMED:
        given, name = _TN_NAMED[name], "tn"
    params = {**_DEFAULTS[name], **given}
    if name == "tn":  # a tn point equal to a named one takes its name
        name = next((point for point, nonzero in _TN_NAMED.items()
                     if params == {**_DEFAULTS["tn"], **nonzero}), "tn")
    return name, params


# the catalog tables of the tests, each family at zero parameters, and a
# float table
_BUILDS = [
    ("ak", {"k": 1, "a11": 1, "a12": 1}),
    ("ak", {"k": 2, "a11": F(1, 3), "a12": 2, "a21": F(5, 2), "a22": 7}),
    ("ak", {"k": 3}), ("ak", {"k": 10}),
    ("tn", {"a": -3, "b": 1, "c": 2, "d": F(1, 2), "f": 1, "g": -1, "h": 3, "e": F(-2, 3)}),
    ("tn", {"a": 2, "b": 1}), ("tn", {"a": -1, "g": 1, "h": 1}), ("tn", {"a": 1, "g": -1}),
    ("tn", {}), ("tn", {"a": 0.5, "f": -0.0}),
    ("tc", {"a": 2, "b": F(-1, 3), "f": 1, "g": 2, "h": 1}), ("tc", {"a": 1, "h": 1}),
    ("tc", {}),
    ("tp", {"alpha1": -1, "beta2": -1, "delta2": 1, "gamma1": -1}), ("tp", {"delta1": 1}),
    ("tp", {"alpha1": F(1, 3), "beta2": F(-2, 5), "delta2": F(1, 7), "gamma1": F(-3, 2)}),
    ("tp", {}),
    ("mplus", {}), ("mzero", {}), ("quaternions", {}), ("complex", {}),
]


def _wanted(B, name, given):
    """B's family as `_family` states it, on a float table with each
    parameter rounded to float once, as `to_float()` rounds each entry."""
    name, params = _family(name, **given)
    if B.scalar_mode == "float":
        params = {p: v if p == "k" else float(v) for p, v in params.items()}
    return name, params


def test_a_catalog_table_is_recognised_as_its_builders_point():
    for name, given in _BUILDS:
        A = catalog.build(name, **given)
        for B in (A, A.to_float()):
            for C in (B, Algebra.loads(B.dumps())):
                want = _wanted(C, name, given)
                assert catalog.recognise(C) == want and C.family == want, (name, given, C)
                # exact params on an exact table, floats on a float one
                kind = float if C.scalar_mode == "float" else Fraction
                assert all(type(v) is kind for p, v in C.family[1].items() if p != "k")


def _matches(A):
    """The names under which each family's statement alone recognises A."""
    names = []
    for statement in catalog._statements(A.dim):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(catalog, "_statements", lambda n: [statement])
            found = catalog.recognise(A)
        names += [found[0]] if found else []
    return names


def _drawn_builds(rng):
    """Seeded tn, tc, tp and ak draws, many of their parameters zero."""
    tn = {p: _draw(rng) for p in "abcdfghe" if rng.random() < 0.5}
    tc = {p: _draw(rng) for p in "abfg" if rng.random() < 0.5}
    tc["h"] = rng.choice((0, 1))
    tp = {p: _draw(rng) for p in _TP_NAMES if rng.random() < 0.5}
    k = rng.randint(1, 3)
    ak = {"k": k, **{f"a{i}{j}": F(rng.randint(1, 9), rng.randint(1, 4))
                     for i in range(1, k + 1) for j in (1, 2) if rng.random() < 0.5}}
    return [("tn", tn), ("tc", tc), ("tp", tp), ("ak", ak)]


def test_at_most_one_family_matches_a_table():
    rng = random.Random(23)
    builds = list(_BUILDS)
    for _ in range(300):
        builds += _drawn_builds(rng)
    for name, given in builds:
        A = catalog.build(name, **given)
        for B in (A, A.to_float()):
            want = _wanted(B, name, given)
            assert _matches(B) == [want[0]] and B.family == want, (name, given)


def _edited(A, cells=(), unit="same"):
    """A's table with each cell (i, j, k) of ``cells`` set to its value,
    and the unit given (A's by default)."""
    sc = [[list(cell) for cell in row] for row in A.sc]
    for (i, j, k), value in dict(cells).items():
        sc[i][j][k] = value
    return Algebra(sc, labels=A.labels, unit=A.unit if unit == "same" else unit)


def _moved(A, src, dst):
    """A with the entry at cell src moved to cell dst."""
    return _edited(A, {src: 0, dst: A.sc[src[0]][src[1]][src[2]]})


def _swapped(A, p, q):
    """A in the basis with e_p and e_q swapped."""
    perm = list(range(A.dim))
    perm[p], perm[q] = q, p
    n = range(A.dim)
    sc = [[[A.sc[perm[i]][perm[j]][perm[k]] for k in n] for j in n] for i in n]
    return Algebra(sc, labels=[A.labels[i] for i in perm],
                   unit=[A.unit[i] for i in perm])


def test_a_table_off_every_family_is_not_recognised():
    tn, tc = catalog.tn(a=2, b=1), catalog.tc(a=1, h=1)
    tp = catalog.tp(alpha1=F(1, 3), beta2=F(-2, 5), delta2=F(1, 7), gamma1=F(-3, 2))
    ak = catalog.ak(2, a11=F(1, 3), a21=2)
    off = [
        # one entry moved off its slot
        _moved(tn, (3, 3, 1), (3, 3, 2)), _moved(tc, (2, 3, 2), (2, 3, 3)),
        _moved(tp, (3, 2, 1), (3, 2, 2)), _moved(ak, (4, 4, 0), (4, 4, 1)),
        # two basis vectors swapped
        _swapped(tn, 1, 2), _swapped(tc, 1, 2), _swapped(tp, 1, 2),
        _swapped(catalog.mplus(), 1, 2), _swapped(ak, 1, 2), _swapped(ak, 2, 4),
        _swapped(catalog.tn(a=-3, b=1, c=2, d=F(1, 2), f=1, g=-1, h=3, e=F(-2, 3)), 2, 3),
        # no unit
        _edited(tn, unit=None), _edited(catalog.complex_numbers(), unit=None),
        # tc's slots holding h = 2
        _edited(tc, {(2, 3, 2): 2, (3, 2, 2): 2}),
        # a float table only within eps of a family
        _edited(tn.to_float(), {(2, 2, 0): 2 + 1e-12}),
    ]
    for A in off:
        assert catalog.recognise(A) is None and A.family is None, A.sc
    # the basis counts: the quaternions with i and j swapped are a tp point
    assert catalog.recognise(_swapped(catalog.quaternions(), 1, 2)) == \
        _family("tp", alpha1=-1, beta2=-1, delta2=1, gamma1=-1)
