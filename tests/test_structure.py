import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle
from altkit import catalog, identities, linalg, structure
from altkit.core import (
    Algebra,
    AlgebraError,
    DimensionError,
    NucleusContradictionError,
    ParameterError,
    ReflectionError,
    morphism_defect,
)
from oracle import transport

F = Fraction

REFLECTION = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def assert_same_report(src, dst, f, eps=None):
    """is_isomorphism against the transported products: the verdict, and on
    a failure the first basis pair with both its sides, which
    `core.morphism_defect` names too."""
    got = structure.is_isomorphism(src, dst, f, eps)
    tol = max(src.eps, dst.eps) if eps is None else eps
    if src.dim != dst.dim or oracle.rank(f, tol) < src.dim:
        assert got == (False, None)
        return got
    hit = oracle.morphism_defect(src, dst, f, tol)
    assert got.ok == (hit is None)
    if hit is not None:
        (i, j), mapped, direct = hit
        x, y, got_mapped, got_direct = got.witness
        assert (x, y) == (src.basis(i), src.basis(j))
        assert oracle.close(got_mapped.coords, mapped) and oracle.close(got_direct.coords, direct)
        assert morphism_defect(src, dst, [list(r) for r in f], tol) == (i, j)
    return got


def test_nucleus_quaternions():
    H = catalog.quaternions()
    nucleus = structure.commutative_nucleus(H)
    assert len(nucleus) == 1
    assert nucleus[0] == H.one()


def test_nucleus_commutative_algebra_is_everything():
    A = catalog.ak(2, a11=2, a12=1, a21=F(1, 3), a22=5)
    assert len(structure.commutative_nucleus(A)) == A.dim
    T = catalog.tc(a=1, b=2, f=3, g=4, h=1)
    assert len(structure.commutative_nucleus(T)) == 4
    # e1*e0 = e0 + c*e1 against e0*e1 = e0: the nucleus and the commutative
    # check apply one tolerance rule, exact c exactly, float c within eps
    for c, eps, commutative in ((F(1, 10**12), 1e-9, False), (1e-7, 1e-6, True)):
        A = Algebra([[[0, 0], [1, 0]], [[1, c], [0, 0]]], eps=eps)
        assert identities.check_identity(A, "commutative", eps=eps).holds == commutative
        assert len(structure.commutative_nucleus(A)) == (2 if commutative else 0)
        assert len(structure.commutative_nucleus(A, eps=eps)) == (2 if commutative else 0)


def test_nucleus_invariant_under_automorphisms():
    H = catalog.quaternions()
    nucleus = structure.commutative_nucleus(H)
    span = [list(b.coords) for b in nucleus]
    for b in nucleus:
        image = linalg.matvec(REFLECTION, list(b.coords))
        assert linalg.rank(span + [image]) == linalg.rank(span)


def test_is_automorphism():
    H = catalog.quaternions()
    assert structure.is_automorphism(H, REFLECTION).ok
    ident = linalg.identity_matrix(4)
    assert structure.is_automorphism(H, ident).ok

    bad = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    report = structure.is_automorphism(H, bad)
    assert not report.ok
    x, y, mapped, direct = report.witness
    assert (x, y) == (H.by_label("i"), H.by_label("j"))
    assert mapped == H.by_label("k")
    assert direct == -H.by_label("k")


def test_is_automorphism_takes_numpy_integer_maps():
    # numpy integers are Rationals without as_integer_ratio
    H = catalog.quaternions()
    assert_same_report(H, H, np.array(REFLECTION))
    assert_same_report(H, H, np.array([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_is_automorphism_rejects_singular():
    H = catalog.quaternions()
    zero = [[0] * 4 for _ in range(4)]
    assert not structure.is_automorphism(H, zero).ok


def test_reflection_decompose_quaternions():
    H = catalog.quaternions()
    dec = structure.reflection_decompose(H, REFLECTION)
    assert [b for b in dec.B_basis] == [H.one(), H.by_label("i")]
    assert [c for c in dec.C_basis] == [H.by_label("j"), H.by_label("k")]
    one, i, w, v = dec.tp_basis
    assert i == H.by_label("i")
    assert w == H.by_label("j")
    assert v == -H.by_label("k")
    assert dec.tp_params == tuple(F(x) for x in (-1, 0, 0, -1, 0, 1, -1, 0))
    assert all(dec.verdicts.values())


# automorphisms of H: i -> j -> k -> i, of order three, and conjugation by
# (1 + i)/sqrt(2), j -> k -> -j, of order four
CYCLE = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
ROTATION = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def test_reflection_decompose_requires_order_two():
    # ker(phi - 1) is the whole space only for the identity, and with
    # ker(phi + 1) it spans the space only for phi^2 = 1; exact and float
    H = catalog.quaternions()
    for phi, message in ((linalg.identity_matrix(4), "the identity map is not a reflection"),
                         (CYCLE, "the map does not square to the identity"),
                         (ROTATION, "the map does not square to the identity")):
        phi_float = [[float(x) for x in row] for row in phi]
        for A, f in ((H, phi), (H, phi_float), (H.to_float(), phi_float)):
            assert structure.is_automorphism(A, f).ok
            with pytest.raises(ReflectionError, match=f"^{message}$"):
                structure.reflection_decompose(A, f)
    with pytest.raises(ReflectionError, match="^the supplied map is not an automorphism$"):
        structure.reflection_decompose(H, [[2, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]])


def test_reflection_decompose_mplus_structurally():
    # the split itself goes through even though the table is not a
    # division algebra; the sampled division check is the caller's signal
    M = catalog.mplus()
    dec = structure.reflection_decompose(M, REFLECTION)
    assert dec.tp_params == tuple(F(x) for x in (1, 0, 0, 1, 0, -1, 1, 0))
    from altkit import identities

    assert not identities.is_division_sampled(M, samples=20).division


def test_reflection_decompose_commutative_input_contradicts():
    # a commutative table admitting the reflection: i commutes with the
    # minus-plane, which the nucleus argument forbids for division inputs
    T = catalog.tc(a=1, b=0, f=0, g=0, h=0)
    with pytest.raises(NucleusContradictionError):
        structure.reflection_decompose(T, REFLECTION)


def test_classify_examples():
    assert structure.classify_middle_c({"a": 4, "g": -4}).target == "Mplus"
    assert structure.classify_middle_c({}).target == "Mzero"
    out = structure.classify_middle_c({"a": -1, "g": 1})
    assert out.target == "H"
    assert out.witness_verified
    # scaling witness for a = 4 is exact: diag(1, 1, 2, 2)
    out4 = structure.classify_middle_c({"a": 4, "g": -4})
    assert out4.witness[2][2] == 2
    assert out4.witness_verified


def test_classify_irrational_scaling_verifies_to_tolerance():
    out = structure.classify_middle_c({"a": 2, "g": -2})
    assert out.target == "Mplus"
    assert out.witness_verified
    assert isinstance(out.witness[2][2], float)


def test_classify_preconditions():
    # b, c, d nonzero: units confined to the line through i
    out = structure.classify_middle_c({"a": 1, "b": 1})
    assert out.target == "Unclassified"
    assert "confined" in out.reason

    # partial alternativity fails when g is not the derived value; the
    # reason names the violated constant
    out = structure.classify_middle_c({"a": 4, "g": -1})
    assert out.target == "Unclassified"
    assert out.reason == "table constant g = -1 violates the derived value -4"


def test_classify_rejects_a_parameter_tn_lacks():
    with pytest.raises(ParameterError, match="'tn' has no parameter z"):
        structure.classify_middle_c({"z": 1})


def test_classify_accepts_algebra_input():
    H = catalog.quaternions()
    out = structure.classify_middle_c(H)
    assert out.target == "H"
    assert out.witness_verified


def test_is_isomorphism_cross_algebra():
    A = catalog.tn(a=4, g=-4)
    M = catalog.mplus()
    witness = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert structure.is_isomorphism(A, M, witness, eps=0.0).ok
    wrong = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]
    assert not structure.is_isomorphism(A, M, wrong, eps=0.0).ok


def test_decomposition_json():
    H = catalog.quaternions()
    dec = structure.reflection_decompose(H, REFLECTION)
    data = dec.to_dict()
    assert tuple(data["tp_params"]) == catalog.TP_PARAMS == (
        "alpha1", "alpha2", "beta1", "beta2", "delta1", "delta2", "gamma1", "gamma2")
    assert data["tp_params"]["alpha1"] == "-1"
    assert data["verdicts"]["CC_in_B"]
    assert data["tp_basis"]["w"] == ["0", "0", "1", "0"]


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def table_and_map(draw):
    n = draw(st.integers(2, 4))
    entries = draw(st.lists(small_rationals, min_size=n**3, max_size=n**3))
    sc = [[entries[n * (n * i + j):n * (n * i + j + 1)] for j in range(n)]
          for i in range(n)]
    flat = draw(st.lists(small_rationals, min_size=n * n, max_size=n * n))
    mat = [flat[n * r:n * (r + 1)] for r in range(n)]
    assume(linalg.det(mat) != 0)
    spot = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    delta = draw(small_rationals.filter(bool))
    return sc, mat, spot, delta


@settings(max_examples=60, deadline=None)
@given(table_and_map())
def test_is_isomorphism_matches_reference_on_transported_tables(case):
    sc, mat, (a, b, r), delta = case
    src = Algebra(sc)
    dst_sc = transport(src, mat)
    bent_sc = [[list(cell) for cell in row] for row in dst_sc]
    bent_sc[a][b][r] += delta
    dst, bent = Algebra(dst_sc), Algebra(bent_sc)
    for to_float in (False, True):
        if to_float:
            src, dst, bent = src.to_float(), dst.to_float(), bent.to_float()
        assert assert_same_report(src, dst, mat).ok
        assert not assert_same_report(src, bent, mat).ok


def test_is_isomorphism_matches_reference_on_catalog_maps():
    rng = random.Random(11)
    r2 = math.sqrt(2)
    maps = [linalg.identity_matrix(4), REFLECTION,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, r2, 0], [0, 0, 0, r2]],
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    maps += [[[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
              for _ in range(4)] for _ in range(20)]
    for A in (catalog.quaternions(), catalog.mplus(), catalog.tn(a=-3, g=3)):
        for src in (A, A.to_float()):
            for f in maps:
                assert_same_report(src, src, f)
                assert_same_report(src, catalog.mplus(), f)


def test_sqrt_witness_on_exact_table_compares_at_eps():
    # a = 2: an exact tn table and an exact target, with a float sqrt(2)
    # scaling witness; everything then compares as floats within eps
    A = catalog.tn(a=2, g=-2)
    M = catalog.mplus()
    witness = structure.classify_middle_c(A).witness
    assert isinstance(witness[2][2], float)
    for eps in (None, 1e-9, 1e-15):
        assert assert_same_report(A, M, witness, eps).ok
    off = [list(row) for row in witness]
    off[3][3] = 1.5
    for eps in (None, 1e-9):
        assert not assert_same_report(A, M, off, eps).ok


def test_is_isomorphism_stays_exact_near_two_to_the_forty():
    # tables and maps with entries near 2^40 (and 2^21, 2^32): the scaled
    # contraction runs far past int64, float64 rounding alone exceeds
    # eps = 1, and a defect far below one unit, or of exactly 2^64 scaled
    # units, must still show: exact data is exact under any eps
    big, lam = 2**40, 2**21 + 1
    src = Algebra([[[big + 1, 3], [1, big - 7]], [[-2, big], [5, -big - 3]]])
    # f = lam * id carries xy to lam * xy, and f(x) f(y) = lam^2 (x . y)
    scaled = [[[c / lam for c in cell] for cell in row] for row in src.sc]
    unimodular = [[big + 1, big], [1, 1]]
    # f = diag(2^32, 1) onto an integer table; bumping e0*e0 moves
    # f(e0) f(e0) by 2^64
    wide = [[2**32, 0], [0, 1]]
    dst_int = [[[1, 0], [3, 5]], [[-2, 7], [0, -1]]]
    src_int = Algebra(transport(Algebra(dst_int), oracle.inverse(wide)))
    cases = (
        (src, [[lam, 0], [0, lam]], scaled, (1, 0, 1), F(1, lam**2)),
        (src, unimodular, transport(src, unimodular), (1, 0, 1), F(1, lam**2)),
        (src_int, wide, dst_int, (0, 0, 0), 1),
    )
    for src, mat, dst_sc, (a, b, r), bump in cases:
        assert assert_same_report(src, Algebra(dst_sc), mat, eps=1.0).ok
        dst_sc[a][b][r] += bump
        assert not assert_same_report(src, Algebra(dst_sc), mat, eps=1.0).ok


@pytest.mark.parametrize("bad", [
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[1, 0, 0, 0], [0, 1, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    REFLECTION + [[0, 0, 0, 0]],
])
def test_maps_of_the_wrong_shape_are_rejected(bad):
    H = catalog.quaternions()
    with pytest.raises(DimensionError):
        structure.is_automorphism(H, bad)
    with pytest.raises(DimensionError):
        structure.reflection_decompose(H, bad)


STRUCTURE_TABLES = [
    catalog.ak(1, a11=1, a12=1),
    catalog.ak(2, a11=F(1, 3), a12=2, a21=F(5, 2), a22=7),
    catalog.ak(3),
    catalog.tn(a=-3, b=1, c=2, d=F(1, 2), f=1, g=-1, h=3, e=F(-2, 3)),
    catalog.tn(a=2, b=1),
    catalog.tn(a=-1, g=1, h=1),
    catalog.tc(a=2, b=F(-1, 3), f=1, g=2, h=1),
    catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1),
    catalog.mplus(),
    catalog.mzero(),
    catalog.quaternions(),
    catalog.complex_numbers(),
]


def _seeded_tables(count, seed=5):
    """Seeded tn, tc and tp points with small rational constants, many of
    them zero."""
    rng = random.Random(seed)

    def draw():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) * rng.randint(0, 1)

    names = {catalog.tn: "abcdfghe", catalog.tc: "abfg",
             catalog.tp: ("alpha1", "alpha2", "beta1", "beta2",
                          "delta1", "delta2", "gamma1", "gamma2")}
    builders = list(names)
    out = []
    for k in range(count):
        build = builders[k % 3]
        params = {p: draw() for p in names[build]}
        if build is catalog.tc:
            params["h"] = rng.randint(0, 1)  # tc takes h = 0 or 1
        out.append(build(**params))
    return out


def assert_nucleus_matches(A):
    """RefTable's nucleus verdict: the basis commutes with every basis
    vector, is independent and has the nucleus's dimension."""
    got = structure.commutative_nucleus(A)
    assert oracle.ref(A).nucleus_ok(oracle.coords(got))
    return got


@pytest.mark.parametrize("A", STRUCTURE_TABLES + _seeded_tables(12), ids=repr)
def test_nucleus_from_the_cube_matches_the_table_loop(A):
    # the same nucleus on the table, its float copy and the table scaled
    # past int64
    bases = [oracle.coords(assert_nucleus_matches(B))
             for B in (A, A.to_float(), oracle.scaled(A))]
    assert all(oracle.same_span(bases[0], basis, A.eps) for basis in bases[1:])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.randoms(use_true_random=True))
def test_nucleus_from_the_cube_matches_the_table_loop_on_sparse_tables(n, zeros, rng):
    values = [0] * zeros + [1, -1, 2, F(1, 2), F(-3, 2)]
    sc = [[[rng.choice(values) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:  # symmetrize part of the table: larger nuclei
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                sc[j][i] = list(sc[i][j])
    A = Algebra(sc)
    for B in (A, A.to_float(), oracle.scaled(A)):
        assert_nucleus_matches(B)


REFLECTIONS = [[[1, 0, 0, 0], [0, s1, 0, 0], [0, 0, s2, 0], [0, 0, 0, s3]]
               for s1, s2, s3 in itertools.product((1, -1), repeat=3)]


def _split_cases():
    """(table, reflection) pairs: catalog and seeded tables, each exact, as
    floats and scaled, under the diagonal reflections; then non-diagonal
    reflections, and a float map on an exact table."""
    tables = STRUCTURE_TABLES + _seeded_tables(60) + [
        catalog.tn(a=4, g=-4), catalog.tn(a=2, g=-2), catalog.tn(a=-2, g=2),
        catalog.tn(a=-1, c=F(-1, 3))]
    cases = [(B, phi) for A in tables for B in (A, A.to_float(), oracle.scaled(A))
             for phi in REFLECTIONS]
    Q = catalog.quaternions()
    swap = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    rot = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
    floats = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]
    return cases + [(B, phi) for B in (Q, Q.to_float()) for phi in (swap, rot, floats)]


def _assert_split_is_the_tp_table(A, phi, dec):
    """What a split states, on RefTable: B and C are the +1 and -1
    eigenvectors of phi; (1, i, w, v) is the unit, a point of B, a point of
    C of length 1, and w*i; its transported products are `catalog.tp` at
    the split's eight scalars; and its verdicts are those the products of
    B and C give."""
    R, eps = oracle.ref(A), A.eps
    plus, minus = oracle.coords(dec.B_basis), oracle.coords(dec.C_basis)
    images = [[sum(m * c for m, c in zip(row, x)) for row in phi] for x in plus + minus]
    for x, image, sign in zip(plus + minus, images, (1, 1, -1, -1)):
        assert R.vec_zero([a - sign * b for a, b in zip(image, x)])
    one, i, w, v = oracle.coords(dec.tp_basis)
    assert R.vec_close(one, A.unit) and R.vec_close(v, R.mul(w, i))
    assert oracle.same_span(plus, plus + [i], eps) and oracle.same_span(minus, minus + [w], eps)
    assert R.vec_zero([sum(c * c for c in w) - 1])
    tp = catalog.tp(**dict(zip(catalog.TP_PARAMS, dec.tp_params)))
    assert oracle.morphism_defect(tp, A, list(zip(one, i, w, v))) is None

    def products_in(left, right, target):
        prods = [R.mul(x, y) for x in left for y in right]
        return oracle.same_span(target, target + prods, eps), oracle.same_span(target, prods, eps)

    # the verdicts, against eliminating B*C, C*B and C*C
    inside, spans = zip(*(products_in(x, y, t) for x, y, t in
                          ((plus, minus, minus), (minus, plus, minus), (minus, minus, plus))))
    assert dec.verdicts == {
        "eigendims_2_2": True,
        "i_squares_to_minus_one": True,
        "anticommutation": True,
        **dict(zip(("BC_in_C", "CB_in_C", "CC_in_B"), inside)),
        **dict(zip(("BC_equals_C", "CB_equals_C", "CC_equals_B"), spans)),
    }


# a product off the canonical table: the one table check names it
TABLE_MESSAGE = re.compile(
    r"(\S+) in the basis \(1, i, w, v = w\*i\) is not the canonical "
    r"reflection table's; canonical table extraction does not apply")


def test_reflection_split_is_the_transported_tp_table():
    # every split is the tp table transported along its basis; on a 4-dim
    # table the map is refused as a reflection exactly when it is the
    # identity or the transported products reject it; a tp table splits
    # along its own basis into its own scalars
    outcomes, spans = set(), set()
    for B, phi in _split_cases():
        try:
            dec = structure.reflection_decompose(B, phi)
        except AlgebraError as exc:
            if B.dim == 4:
                automorphism = oracle.is_isomorphism(B, B, phi)
                assert isinstance(exc, ReflectionError) == \
                    (not automorphism or phi == linalg.identity_matrix(4))
            named = TABLE_MESSAGE.fullmatch(str(exc))
            outcomes.add(named.group(1) if named else type(exc).__name__)
            continue
        _assert_split_is_the_tp_table(B, phi, dec)
        if B.family and B.family[0] == "tp" and B.scalar_mode == "exact" and phi == REFLECTION:
            assert dec.tp_params == tuple(B.family[1][p] for p in catalog.TP_PARAMS)
        outcomes.add("ok")
        spans.add(dec.verdicts["CC_equals_B"])
    assert outcomes == {"ok", "i*w", "i*v", "ReflectionError", "DecompositionError",
                        "NucleusContradictionError"}
    assert spans == {True, False}


def test_coords_reads_one_elimination():
    H = catalog.quaternions()
    for B in (H, H.to_float(), oracle.scaled(H)):
        one, i, j, k = B.basis_elements()
        # each x is the combination of its coefficients, in a plane and in a
        # four-vector basis
        for basis, xs in (([one, i], [one]), ([one, i], [i, one + i, 3 * i]),
                          ([one, i], [one - i, 2 * one]),
                          ([one + i, i - j, 2 * j + k, 3 * k],
                           [one, j, 3 * one - k, B.element([1, 2, 3, 4])])):
            for x, coeffs in zip(xs, structure._coords(basis, xs, B.eps)):
                combo = 0 * one
                for c, b in zip(coeffs, basis):
                    combo = combo + c * b
                assert (combo - x).is_zero(B.eps)
        # a dependent basis, and a vector outside the span
        assert structure._coords([one, i, one + i], [i], B.eps) is None
        assert structure._coords([one, i], [i, j], B.eps) is None


def _tn_points(count, seed=7):
    """Seeded tn points: mostly on b = c = d = 0, often with g = -a and
    f = h = e = 0, sometimes off by one constant."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = F(rng.randint(-9, 9), rng.randint(1, 4))
        params = {"a": a, "g": -a}
        roll = rng.random()
        if roll < 0.15:
            params[rng.choice("bcd")] = F(rng.randint(1, 3))
        elif roll < 0.55:
            params[rng.choice("fghe")] = F(rng.randint(-3, 3), rng.randint(1, 2))
        out.append(params)
    return out


def test_classifier_targets_exactly_the_isomorphic_table():
    # the target the sign of a names is the verdict exactly when the
    # scaling map diag(1, 1, s, s), s^2 = |a| (s = 1 at a = 0), carries the
    # table onto it, which the transported products decide; the witness is
    # that map
    tables = {"Mzero": catalog.mzero(), "Mplus": catalog.mplus(), "H": catalog.quaternions()}
    targets = set()
    for params in _tn_points(160):
        A, a = catalog.tn(**params), params["a"]
        name = "Mzero" if a == 0 else "Mplus" if a > 0 else "H"
        root = F(math.isqrt(abs(a.numerator)), math.isqrt(a.denominator))
        s = 1 if a == 0 else root if root * root == abs(a) else math.sqrt(abs(a))
        scaling = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, s, 0], [0, 0, 0, s]]
        for B in (A, A.to_float()):
            out = structure.classify_middle_c(B)
            if oracle.is_isomorphism(B, tables[name], scaling):
                assert (out.target, out.witness_verified) == (name, True), params
                assert oracle.ref(B).vec_close([c for row in out.witness for c in row],
                                               [c for row in scaling for c in row])
            else:
                assert (out.target, out.witness) == ("Unclassified", None), params
            targets.add(out.target)
    assert targets == {"Mplus", "Mzero", "H", "Unclassified"}
