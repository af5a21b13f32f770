import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from altkit import catalog, identities, linalg, structure, units
from altkit.core import (
    Algebra,
    AlgebraError,
    DecompositionError,
    DimensionError,
    NucleusContradictionError,
    ReflectionError,
    first_defect,
    integer_form,
    morphism_defect,
    scalar_is_zero,
    scalars_close,
    sqrt_scalar,
    tolerance,
)

F = Fraction

REFLECTION = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def _loop_is_isomorphism(src, dst, f, eps=None):
    """Reference: every basis pair through Element products, one at a time."""
    if src.dim != dst.dim:
        return structure.MorphismReport(False, None)
    mat = [list(r) for r in f]
    eps = max(src.eps, dst.eps) if eps is None else eps
    if scalar_is_zero(linalg.det(mat, eps), eps):
        return structure.MorphismReport(False, None)
    images = [dst.element([mat[r][j] for r in range(dst.dim)])
              for j in range(src.dim)]
    for i, j in itertools.product(range(src.dim), repeat=2):
        prod = src.multiply(src.basis(i), src.basis(j))
        mapped = dst.element(linalg.matvec(mat, list(prod.coords)))
        direct = dst.multiply(images[i], images[j])
        if not (mapped - direct).is_zero(eps):
            return structure.MorphismReport(False, (src.basis(i), src.basis(j),
                                                    mapped, direct))
    return structure.MorphismReport(True, None)


def _flat_morphism_defect(src_sc, dst_sc, mat, eps):
    """Reference: both tables and the map flattened together, as ints over
    one common denominator D, or all as floats when any entry is one."""
    n = len(mat)
    flat = [c for t in (src_sc, dst_sc, [mat]) for row in t for cell in row
            for c in cell]
    if any(isinstance(c, float) for c in flat):
        vals, scale = np.array(flat, dtype=float), 1
    else:
        ints, scale = integer_form(flat)
        vals = np.array(ints, dtype=object)
    S, T = vals[: 2 * n**3].reshape(2, n, n, n)
    Mt = vals[2 * n**3:].reshape(n, n).T
    direct = np.dot(Mt, np.dot(Mt, T.reshape(n, -1)).reshape(n, n, n))
    return first_defect(scale * np.dot(S, Mt) - direct.swapaxes(0, 1), eps)


def assert_same_report(src, dst, f, eps=None):
    """is_isomorphism equals the reference loop, coordinate types included,
    and its basis-pair check the flattened reference."""
    got = structure.is_isomorphism(src, dst, f, eps)
    want = _loop_is_isomorphism(src, dst, f, eps)
    assert got == want
    if src.dim == dst.dim:
        mat, tol = [list(r) for r in f], max(src.eps, dst.eps) if eps is None else eps
        assert morphism_defect(src, dst, mat, tol) == \
            _flat_morphism_defect(src.sc, dst.sc, mat, tol)
    for g, w in zip(got.witness or (), want.witness or ()):
        assert [type(c) for c in g.coords] == [type(c) for c in w.coords]
    return got


def _inverse(mat):
    """The inverse of a square matrix: the right half of `linalg.rref` of
    [mat | I]."""
    n = len(mat)
    rows, pivots = linalg.rref([list(row) + [F(int(i == j)) for j in range(n)]
                                for i, row in enumerate(mat)])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in rows[:n]]


def transport(src, mat):
    """The table that makes mat (columns: images of src basis vectors) an
    isomorphism: e_a * e_b = f(f^-1(e_a) f^-1(e_b))."""
    n = src.dim
    inv = _inverse(mat)
    pre = [src.element([inv[i][a] for i in range(n)]) for a in range(n)]
    return [[linalg.matvec(mat, list((pre[a] * pre[b]).coords)) for b in range(n)]
            for a in range(n)]


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


def test_reflection_decompose_requires_order_two():
    H = catalog.quaternions()
    with pytest.raises(ReflectionError):
        structure.reflection_decompose(H, linalg.identity_matrix(4))
    # conjugation by (1+i)/sqrt(2) has order four: j -> k, k -> -j
    rot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    assert structure.is_automorphism(H, rot).ok
    with pytest.raises(ReflectionError):
        structure.reflection_decompose(H, rot)
    with pytest.raises(ReflectionError):
        # not an automorphism at all
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
    src_int = Algebra(transport(Algebra(dst_int), _inverse(wide)))
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


# -- the parent's routines, kept as references ----------------------------------


def _sc_nucleus(A, eps=None):
    """The null space of the Fraction (or float) rows sc[i][j][r] -
    sc[j][i][r] over j, one row per (i, r)."""
    n, sc = A.dim, A.sc
    stacked = [[sc[i][j][r] - sc[j][i][r] for j in range(n)]
               for i in range(n) for r in range(n)]
    eps = A.eps if eps is None else eps
    return [A.element(v) for v in linalg.null_space(stacked, eps)]


def _in_plane_coeffs(x, plane, eps):
    """One elimination per vector: the coefficients of x in span(plane)."""
    p0, p1 = (p.coords for p in plane)
    reduced, pivots = linalg.rref([list(row) for row in zip(p0, p1, x.coords)], eps)
    if 2 in pivots:
        return None
    coeffs = [F(0), F(0)]
    for row_i, p in enumerate(pivots):
        coeffs[p] = reduced[row_i][2]
    return coeffs


def _four_plane_coords(plane, xs, eps):
    coords = [_in_plane_coeffs(x, plane, eps) for x in xs]
    return None if any(c is None for c in coords) else coords


def _three_rank_products_in(A, left, right, target, eps):
    prods = [list(A.multiply(x, y).coords) for x in left for y in right]
    rows = [list(t.coords) for t in target]
    r = linalg.rank(rows, eps)
    return linalg.rank(rows + prods, eps) == r, linalg.rank(prods, eps) == r


def _columns(elements):
    return [list(row) for row in zip(*(e.coords for e in elements))]


def _parent_plane_coords(plane, xs, eps):
    """One elimination of [p0 p1 | xs]: the coefficients of each x in
    span(plane), or None if a pivot falls in an x's column."""
    reduced, pivots = linalg.rref(_columns([*plane, *xs]), eps)
    if any(p >= 2 for p in pivots):
        return None
    coords = [[F(0), F(0)] for _ in xs]
    for row, p in zip(reduced, pivots):
        for coeffs, value in zip(coords, row[2:]):
            coeffs[p] = value
    return coords


def _parent_products_in(A, left, right, target, eps):
    """One elimination of [products | target]: do the products lie in, and
    span, span(target)?"""
    prods = [A.multiply(x, y) for x in left for y in right]
    _, pivots = linalg.rref(_columns([*prods, *target]), eps)
    return len(pivots) == 2, sum(p < len(prods) for p in pivots) == 2


def _parent_choose_i(A, plane, eps):
    one = A.one()
    b = next((c for c in plane
              if linalg.rank([list(one.coords), list(c.coords)], eps) == 2), None)
    if b is None:
        raise DecompositionError("plus-eigenspace is a line through the unit")
    coords = _parent_plane_coords([one, b], [A.multiply(b, b)], eps)
    if coords is None:
        raise DecompositionError("plus-eigenspace is not closed under products")
    (p, q), = coords
    disc = p + q * q / 4
    if disc >= 0 or scalar_is_zero(disc, eps):
        raise DecompositionError("plus-eigenspace is not a copy of the complex plane")
    y = sqrt_scalar(-1 / disc)
    return -q * y / 2 * one + y * b


def _parent_reflection_decompose(A, phi, eps=None):
    """The split with five hand-written product tests (i*i = -1, the two
    anticommutations, i*(w*i) = w, C*C in span{1, i}) and three
    eliminations for the containment verdicts."""
    eps = tolerance(eps, A.eps)
    if A.unit is None or A.dim != 4:
        raise DecompositionError("reflection split needs a 4-dimensional unital algebra")
    mat = linalg.square_matrix(phi, A.dim)
    if not structure.is_automorphism(A, mat, eps).ok:
        raise ReflectionError("the supplied map is not an automorphism")
    n = A.dim
    ident = linalg.identity_matrix(n)
    plus = [[mat[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    if all(scalar_is_zero(x, eps) for row in plus for x in row):
        raise ReflectionError("the identity map is not a reflection")
    sq = linalg.matmul(mat, mat)
    if any(not scalars_close(sq[i][j], ident[i][j], eps)
           for i in range(n) for j in range(n)):
        raise ReflectionError("the map does not square to the identity")
    minus = [[mat[i][j] + ident[i][j] for j in range(n)] for i in range(n)]
    B = [A.element(v) for v in linalg.null_space(plus, eps)]
    C = [A.element(v) for v in linalg.null_space(minus, eps)]
    if len(B) != 2 or len(C) != 2:
        raise DecompositionError(
            f"eigenspace dimensions ({len(B)}, {len(C)}) are not (2, 2); "
            "the input is degenerate or not a division algebra")

    one = A.one()
    i_elem = _parent_choose_i(A, B, eps)
    if not units.verify_unit(A, i_elem, eps):
        raise DecompositionError("failed to solve x^2 = -1 in the plus-eigenspace")
    w = C[0] / sqrt_scalar(sum(c * c for c in C[0].coords))
    v = A.multiply(w, i_elem)
    if linalg.rank([list(e.coords) for e in (one, i_elem, w, v)], eps) != 4:
        raise DecompositionError("1, i, w, w*i do not form a basis")
    iw, wi = A.multiply(i_elem, w), A.multiply(w, i_elem)
    if (iw - wi).is_zero(eps):
        raise NucleusContradictionError(
            "i commutes with the minus-eigenspace; the commutative nucleus "
            "exceeds the scalars, so the input is not a division algebra")
    if not ((iw + wi).is_zero(eps)
            and (A.multiply(i_elem, v) + A.multiply(v, i_elem)).is_zero(eps)):
        raise DecompositionError(
            "i neither commutes nor anticommutes with the minus-eigenspace; "
            "the input is not partially alternative")
    if not (A.multiply(i_elem, v) - w).is_zero(eps):
        raise DecompositionError(
            "i*(w*i) != w: the alternative law fails at i; canonical table "
            "extraction does not apply")
    coords = _parent_plane_coords([one, i_elem], [A.multiply(x, y) for x, y in
                                                  ((w, w), (w, v), (v, w), (v, v))], eps)
    if coords is None:
        raise DecompositionError("a product of minus-eigenvectors lands outside span{1, i}")
    params = tuple(x for pair in coords for x in pair)
    inside, spans = zip(*(_parent_products_in(A, x, y, t, eps)
                          for x, y, t in ((B, C, C), (C, B, C), (C, C, B))))
    verdicts = {
        "eigendims_2_2": True,
        "i_squares_to_minus_one": True,
        "anticommutation": True,
        **dict(zip(("BC_in_C", "CB_in_C", "CC_in_B"), inside)),
        **dict(zip(("BC_equals_C", "CB_equals_C", "CC_equals_B"), spans)),
    }
    return structure.ReflectionDecomposition(tuple(B), tuple(C), (one, i_elem, w, v),
                                             params, verdicts)


def _gated_classify(source, eps=None, seed=0):
    """The classifier that first samples partial left and right
    alternativity at 10 locus points, then checks the constraints."""
    A = source if isinstance(source, Algebra) else catalog.tn(**dict(source))
    params = catalog.tn_params(A)
    eps = A.eps if eps is None else eps
    if any(params[key] != 0 for key in ("b", "c", "d")):
        return "Unclassified", None, None
    a = params["a"]
    sample = units.locus_sample_points(units.classify_locus_tn(A), A, 10, seed=seed)
    for kind in (identities.IdentityKind.PARTIAL_LEFT_ALT,
                 identities.IdentityKind.PARTIAL_RIGHT_ALT):
        if not identities.check_identity(A, kind, units=sample, eps=eps).holds:
            return "Unclassified", None, None
    for name, expected in {"f": 0, "g": -a, "h": 0, "e": 0}.items():
        if not scalars_close(params[name], expected, eps):
            return "Unclassified", None, None
    if scalar_is_zero(a, eps):
        target_name, scale = "Mzero", F(1)
    elif a > 0:
        target_name, scale = "Mplus", sqrt_scalar(a)
    else:
        target_name, scale = "H", sqrt_scalar(-a)
    witness = [[1 if r == c else 0 for c in range(4)] for r in range(4)]
    witness[2][2] = witness[3][3] = scale
    target = structure.target_algebra(target_name)
    verified = structure.is_isomorphism(A, target, witness, eps).ok
    return target_name, tuple(tuple(row) for row in witness), verified


def _typed_row(row):
    return [(type(c), repr(c)) for c in row]


def _typed(elements):
    return [_typed_row(e.coords) for e in elements]


def _scaled(A, c=2 ** 40 + 1):
    """A with its table times c and its unit over c (Python-int cube)."""
    unit = None if A.unit is None else [u / c for u in A.unit]
    return Algebra([[[x * c for x in cell] for cell in row] for row in A.sc],
                   unit=unit, eps=A.eps)


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
    got = structure.commutative_nucleus(A)
    assert _typed(got) == _typed(_sc_nucleus(A))
    return got


@pytest.mark.parametrize("A", STRUCTURE_TABLES + _seeded_tables(12), ids=repr)
def test_nucleus_from_the_cube_matches_the_table_loop(A):
    # the same basis vector for vector and type for type (a float's repr
    # is exact, so bit for bit, signed zeros included)
    dims = {len(assert_nucleus_matches(B)) for B in (A, A.to_float(), _scaled(A))}
    assert len(dims) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.randoms(use_true_random=False))
def test_nucleus_from_the_cube_matches_the_table_loop_on_sparse_tables(n, zeros, rng):
    values = [0] * zeros + [1, -1, 2, F(1, 2), F(-3, 2)]
    sc = [[[rng.choice(values) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:  # symmetrize part of the table: larger nuclei
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                sc[j][i] = list(sc[i][j])
    A = Algebra(sc)
    for B in (A, A.to_float(), _scaled(A)):
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
    cases = [(B, phi) for A in tables for B in (A, A.to_float(), _scaled(A))
             for phi in REFLECTIONS]
    Q = catalog.quaternions()
    swap = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    rot = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
    floats = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]
    return cases + [(B, phi) for B in (Q, Q.to_float()) for phi in (swap, rot, floats)]


def _decomposition(A, phi, split=structure.reflection_decompose):
    """The split's outcome with every scalar typed, or its exception's type
    and message."""
    try:
        dec = split(A, phi)
    except Exception as exc:  # compared, never swallowed: the caller asserts
        return type(exc), str(exc)
    return (_typed(dec.B_basis), _typed(dec.C_basis), _typed(dec.tp_basis),
            _typed_row(dec.tp_params), dec.verdicts)


# the parent's messages for a product off the canonical table, and the
# products the one table check may name in their place
FOLDED = {
    "i*(w*i) != w": {"i*v"},
    "i neither commutes nor anticommutes": {"i*w", "i*v"},
}
TABLE_MESSAGE = re.compile(
    r"(\S+) in the basis \(1, i, w, v = w\*i\) is not the canonical "
    r"reflection table's; canonical table extraction does not apply")


def test_reflection_split_matches_the_parent_split():
    # the same bases, scalars and verdicts type for type, and the same
    # errors; the parent's two messages for a product off the canonical
    # table are one message now, which names the product
    outcomes, folded, named = set(), set(), set()
    for B, phi in _split_cases():
        got = _decomposition(B, phi)
        want = _decomposition(B, phi, _parent_reflection_decompose)
        if isinstance(want[0], type):
            prefix = next((p for p in FOLDED if want[1].startswith(p)), None)
            if prefix is not None:
                assert got[0] is DecompositionError, (B, phi)
                product = TABLE_MESSAGE.fullmatch(got[1])
                assert product and product.group(1) in FOLDED[prefix], got[1]
                folded.add(prefix)
                named.add(product.group(1))
                continue
        assert got == want, (B, phi)
        outcomes.add(got[1] if isinstance(got[0], type) else "ok")
    assert folded == set(FOLDED) and named == {"i*w", "i*v"}
    assert "ok" in outcomes and len(outcomes) > 3


def test_split_verdicts_match_the_three_eliminations():
    # what the verified automorphism proves, and the rank of the scalars,
    # against eliminating B*C, C*B and C*C on each successful split
    seen = set()
    for B, phi in _split_cases():
        try:
            dec = structure.reflection_decompose(B, phi)
        except AlgebraError:
            continue
        P, C = dec.B_basis, dec.C_basis
        inside, spans = zip(*(_three_rank_products_in(B, x, y, t, B.eps)
                              for x, y, t in ((P, C, C), (C, P, C), (C, C, P))))
        assert dec.verdicts == {
            "eigendims_2_2": True,
            "i_squares_to_minus_one": True,
            "anticommutation": True,
            **dict(zip(("BC_in_C", "CB_in_C", "CC_in_B"), inside)),
            **dict(zip(("BC_equals_C", "CB_equals_C", "CC_equals_B"), spans)),
        }, (B, phi)
        seen.add(dec.verdicts["CC_equals_B"])
    assert seen == {True, False}


def test_coords_reads_one_elimination():
    H = catalog.quaternions()
    for B in (H, H.to_float(), _scaled(H)):
        one, i, j, k = B.basis_elements()
        # a plane: the parent's plane coordinates, type for type
        for xs in ([one], [i, one + i, 3 * i], [one - i, 2 * one]):
            got = structure._coords([one, i], xs, B.eps)
            for want in (_parent_plane_coords([one, i], xs, B.eps),
                         _four_plane_coords([one, i], xs, B.eps)):
                assert [_typed_row(c) for c in got] == [_typed_row(c) for c in want]
        # a four-vector basis: each x is the combination of its coefficients
        basis = [one + i, i - j, 2 * j + k, 3 * k]
        xs = [one, j, 3 * one - k, B.element([1, 2, 3, 4])]
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


def test_classifier_matches_the_gated_classifier():
    targets = set()
    for params in _tn_points(160):
        A = catalog.tn(**params)
        for B in (A, A.to_float()):
            out = structure.classify_middle_c(B)
            assert (out.target, out.witness, out.witness_verified) == \
                _gated_classify(B), params
            targets.add(out.target)
    assert targets == {"Mplus", "Mzero", "H", "Unclassified"}
