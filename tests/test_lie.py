import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from altkit import catalog, lie, linalg
from altkit.claims import LIE_CASES, _deciding_points
from altkit.core import Algebra, AlgebraError, DimensionError
from oracle import typed

F = Fraction

TP_NAMES = ("alpha1", "alpha2", "beta1", "beta2",
            "delta1", "delta2", "gamma1", "gamma2")

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def _assert_classifies_as_reference(L):
    """classify_lie(L) against RefTable's type, witness verdict, Jacobi
    verdict and derived dimensions for L's brackets, with its witness
    checked by transporting the canonical brackets.  Returns it."""
    got, series = lie.classify_lie(L), lie.derived_series(L)
    assert oracle.lie_ref(L).lie_ok(L.brackets, lie.check_jacobi(L)[0], series,
                                    got.type_tag, got.witness_verified)
    assert list(got.derived) == [len(term) for term in series]
    if got.type_tag == lie.TYPE_UNRECOGNIZED:
        assert (got.parameter, got.alpha_beta, got.witness, got.witness_verified) == \
            (None, (None, None), None, None)
        return got
    assert got.alpha_beta == tuple(L.brackets[3][2][:2])
    assert got.parameter == (None if got.type_tag == lie.TYPE_G1_G37 else 0)
    canonical = lie.LieAlgebra(lie.canonical_brackets(got.type_tag))
    assert oracle.is_isomorphism(canonical, L, got.witness) == got.witness_verified
    return got


# contract: the derived series row for row, floats bit for bit, since the
# order of [L, L]'s rows fixes the signs of the zeros a float elimination leaves
def _sc_derived_series(L, eps=None):
    """Reference: [L, L] from the table rows sc[i][j] (i < j), each deeper
    term from the brackets of every two rows of the term before."""
    eps = L.eps if eps is None else eps
    n = L.dim
    current = [[F(1) if p == i else F(0) for p in range(n)] for i in range(n)]
    series = [current]
    prods = [L.sc[i][j] for i in range(n) for j in range(i + 1, n)]
    while True:
        nxt = linalg.row_basis(prods, eps) if prods else []
        series.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(current):
            return series
        current = nxt
        rows = [L.element(u) for u in current]
        prods = [(x * y).coords for a, x in enumerate(rows) for y in rows[a + 1:]]


def _scaled_lie(L, c=2 ** 40 + 1):
    """L with every bracket times c: a cube of Python ints."""
    return lie.LieAlgebra([[[x * c for x in cell] for cell in row] for row in L.sc],
                          eps=L.eps)


def _float_lie(L, moved=None, by=0.0):
    """L's brackets as floats, with entry (i, j, k) = moved, if given,
    shifted by ``by`` and its antisymmetric partner by -by."""
    b = [[[float(c) for c in cell] for cell in row] for row in L.sc]
    if moved is not None:
        i, j, k = moved
        b[i][j][k] += by
        b[j][i][k] -= by
    return lie.LieAlgebra(b, labels=L.labels, eps=L.eps)


def random_tp(rng):
    return catalog.tp(**{n: F(rng.randint(-6, 6), rng.randint(1, 4))
                         for n in TP_NAMES})


def test_lieify_ak_is_abelian():
    L = lie.lieify(catalog.ak(2, a11=2, a12=1, a21=3, a22=F(1, 2)))
    assert all(c == 0 for row in L.brackets for cell in row for c in cell)
    assert lie.derived_dims(L) == [6, 0]


def test_lieify_quaternions():
    L = lie.lieify(catalog.quaternions())
    i = [0, 1, 0, 0]
    j = [0, 0, 1, 0]
    k = [0, 0, 0, 1]
    assert L.bracket(i, j) == [0, 0, 0, 2]
    assert L.bracket(j, k) == [0, 2, 0, 0]
    assert L.bracket(k, i) == [0, 0, 2, 0]


def test_lieify_tp_brackets():
    params = dict(zip(TP_NAMES, (F(1), F(2), F(3), F(4), F(5), F(6), F(7), F(8))))
    L = lie.lieify(catalog.tp(**params))
    one, i, w, v = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    assert L.bracket(i, w) == [0, 0, 0, -2]
    assert L.bracket(i, v) == [0, 0, 2, 0]
    alpha = params["delta1"] - params["beta1"]
    beta = params["delta2"] - params["beta2"]
    assert L.bracket(v, w) == [alpha, beta, 0, 0]
    assert L.bracket(one, v) == [0, 0, 0, 0]


@settings(max_examples=30, deadline=None)
@given(st.tuples(*([rationals] * 8)))
def test_lieify_antisymmetric(values):
    L = lie.lieify(catalog.tp(**dict(zip(TP_NAMES, values))))
    n = L.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert L.brackets[i][j][k] == -L.brackets[j][i][k]


def _ref_lieify(A):
    """Reference: the LieAlgebra of the definition, [e_i, e_j] = sum_k
    (sc[i][j][k] - sc[j][i][k]) e_k, parsed from those scalars."""
    n = A.dim
    b = [[[A.sc[i][j][k] - A.sc[j][i][k] for k in range(n)] for j in range(n)]
         for i in range(n)]
    return lie.LieAlgebra(b, labels=A.labels, eps=A.eps)


def _assert_lieify_is_its_definition(A):
    got, want = lie.lieify(A), _ref_lieify(A)
    assert type(got) is lie.LieAlgebra
    assert typed(got.sc) == typed(want.sc)  # builds each one's sc
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        assert typed(getattr(got, name)) == typed(value), name


def _signed_zero_table(A, rng):
    """A's table as floats with about half of its zeros -0.0."""
    return Algebra([[[-0.0 if c == 0 and rng.random() < 0.5 else float(c) for c in cell]
                     for cell in row] for row in A.sc], labels=A.labels)


def test_lieify_is_its_definition_on_catalog_tables():
    rng = random.Random(5)
    tables = _catalog_tables()
    tables += [_signed_zero_table(A, rng) for A in tables if A.scalar_mode == "exact"]
    tables += [oracle.scaled(A) for A in (catalog.quaternions(), catalog.ak(2, a11=F(1, 3)),
                                          catalog.tn(a=-1, g=1, h=1))]
    assert any(np.signbit(A.cube).any() for A in tables if A.scalar_mode == "float")
    assert sum(A.cube.dtype == object for A in tables) == 3
    for A in tables:
        _assert_lieify_is_its_definition(A)


def _sparse_tables(n, zeros, rng):
    """An exact table drawn from a few values, mostly zeros, as itself,
    as its float copy, with signed float zeros, and scaled past int64."""
    values = [0] * zeros + [1, -1, 2, F(1, 2), F(-3, 2)]
    A = Algebra([[[rng.choice(values) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)])
    return A, A.to_float(), _signed_zero_table(A, rng), oracle.scaled(A)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30), st.randoms(use_true_random=True))
def test_lieify_is_its_definition_on_sparse_tables(n, zeros, rng):
    for A in _sparse_tables(n, zeros, rng):
        _assert_lieify_is_its_definition(A)


def test_jacobi_holds_for_tp():
    rng = random.Random(3)
    for _ in range(20):
        ok, witness = lie.check_jacobi(lie.lieify(random_tp(rng)), tol=0.0)
        assert ok, witness


def _hand_built_brackets(scalar=F, delta=1):
    """[e0, e1] = e2, [e1, e2] = e0, [e2, e0] = delta e0: the Jacobi sum at
    (0, 1, 2) is -delta e2."""
    n = 3
    b = [[[scalar(0)] * n for _ in range(n)] for _ in range(n)]

    def put(i, j, entries):
        for k, c in entries.items():
            b[i][j][k] = scalar(c)
            b[j][i][k] = -scalar(c)

    put(0, 1, {2: 1})
    put(1, 2, {0: 1})
    put(2, 0, {0: delta})
    return b


def test_jacobi_fails_for_hand_built_brackets():
    ok, witness = lie.check_jacobi(lie.LieAlgebra(_hand_built_brackets()))
    assert not ok
    assert witness[:3] == (0, 1, 2)


def _cyclic_jacobi_reference(L, tol=None):
    """Reference: for an antisymmetric bracket the cyclic sum of associators
    (x, y, z) + (y, z, x) + (z, x, y) is -2 times the Jacobi sum.  The first
    i < j < k at which RefTable's associators of the bracket table give a
    cyclic sum past 2 tol, with the Jacobi sum of RefTable's brackets."""
    R, n = oracle.ref(L), L.dim
    tol = L.eps if tol is None else tol
    T = R.T  # the associators times the table's scale squared
    cyclic = T + T.transpose(2, 0, 1, 3) + T.transpose(1, 2, 0, 3)
    e = [[int(p == q) for p in range(n)] for q in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        if not R.vec_zero(list(cyclic[i, j, k]), 2 * tol):
            x, y, z = e[i], e[j], e[k]
            terms = (R.mul(x, R.mul(y, z)), R.mul(y, R.mul(z, x)), R.mul(z, R.mul(x, y)))
            return False, (i, j, k, [sum(c) for c in zip(*terms)])
    return True, None


def assert_jacobi_is_the_reference(L, tol):
    """check_jacobi's verdict, failing triple and Jacobi sum are the
    reference's; returns the verdict."""
    (ok, got), (want_ok, want) = lie.check_jacobi(L, tol=tol), _cyclic_jacobi_reference(L, tol)
    assert ok == want_ok
    if not ok:
        assert got[:3] == want[:3] and oracle.ref(L).vec_close(got[3], want[3])
    return ok


def _jacobi_cases():
    tables = [
        catalog.ak(1, a11=1, a12=1),
        catalog.ak(2, a11=F(1, 3), a12=2, a21=F(5, 2), a22=7),
        catalog.ak(3),
        catalog.tn(a=-3, b=1, c=2, d=F(1, 2), f=1, g=-1, h=3, e=F(-2, 3)),
        catalog.tn(a=2, b=1),
        catalog.tc(a=2, b=F(-1, 3), f=1, g=2, h=1),
        catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1),
        catalog.tp(alpha1=F(1, 2), alpha2=3, beta1=F(-4, 3), beta2=1,
                   delta1=2, delta2=F(1, 5), gamma1=-1, gamma2=F(7, 4)),
        catalog.mplus(),
        catalog.mzero(),
        catalog.quaternions(),
        catalog.complex_numbers(),
    ]
    cases = [lie.lieify(B) for A in tables for B in (A, A.to_float())]
    cases += [lie.LieAlgebra(_hand_built_brackets(s)) for s in (F, float)]
    # a float Jacobi sum on either side of eps = 1e-6
    cases += [lie.LieAlgebra(_hand_built_brackets(float, delta), eps=1e-6)
              for delta in (0.75e-6, 1.5e-6)]
    cases.append(lie.lieify(catalog.tn(a=-1, g=1, h=1)))
    for A in (catalog.quaternions(), catalog.ak(2, a11=F(1, 3)),
              catalog.tn(a=-1, g=1, h=1)):
        big = oracle.scaled(A)  # entries past int64's bound: object cubes
        assert big.cube.dtype == object
        cases.append(lie.lieify(big))
    assert sum(L.cube.dtype == object for L in cases) == 2  # ak's bracket is 0
    return cases


def test_jacobi_matches_the_cyclic_associator_reference():
    failing = 0
    for L in _jacobi_cases():
        for tol in (None, 0.0):
            failing += not assert_jacobi_is_the_reference(L, tol)
    # at both tols: the first tn table and the hand-built brackets, exact
    # and float, and tn(a=-1, g=1, h=1) with its scaled copy; the small
    # float sums fail at tol 0, and at eps only the one past it
    assert failing == 15


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30), st.randoms(use_true_random=True))
def test_jacobi_matches_the_cyclic_associator_reference_on_sparse_tables(n, zeros, rng):
    for A in _sparse_tables(n, zeros, rng):
        L = lie.lieify(A)
        for tol in (None, 0.0):
            assert_jacobi_is_the_reference(L, tol)


@pytest.mark.parametrize("m", [2, 8])
def test_deciding_points_determine_a_quadratic(m):
    # the monomials 1, p_a, p_a p_b (a <= b) at the deciding points: a
    # square matrix of full rank, so a quadratic zero there is zero
    names = [f"p{a}" for a in range(m)]
    points = _deciding_points(names)
    monomials = ([()] + [(a,) for a in names]
                 + list(itertools.combinations_with_replacement(names, 2)))
    rows = [[math.prod(p[x] for x in mono) for mono in monomials] for p in points]
    assert len(rows) == len(monomials) == 1 + 2 * m + m * (m - 1) // 2
    assert linalg.rank(rows) == len(monomials)


def test_brackets_must_be_antisymmetric():
    bad = [[[F(1)]]]
    with pytest.raises(AlgebraError):
        lie.LieAlgebra(bad)


@pytest.mark.parametrize(
    "alpha,beta,expected_dims",
    [
        (1, 0, [4, 3, 1, 0]),
        (-2, 0, [4, 3, 1, 0]),
        (0, 2, [4, 3, 3]),
        (3, -5, [4, 3, 3]),
        (0, 0, [4, 2, 0]),
        (Fraction(1, 10**12), 0, [4, 3, 1, 0]),  # exact alpha != 0, however small
    ],
)
def test_derived_series_dims(alpha, beta, expected_dims):
    L = lie.tp_lie_algebra(alpha, beta)
    assert lie.derived_dims(L) == expected_dims


def _catalog_tables():
    tables = [catalog.ak(1, a11=1, a12=1), catalog.ak(2, a11=F(1, 3), a21=F(5, 2)),
              catalog.ak(3), catalog.tn(a=-3, b=1, c=2, d=F(1, 2), f=1, g=-1, h=3),
              catalog.tn(a=2, b=1), catalog.tc(a=2, b=F(-1, 3), f=1, g=2, h=1),
              catalog.tp(alpha1=F(1, 2), alpha2=3, beta1=F(-4, 3), beta2=1,
                         delta1=2, delta2=F(1, 5), gamma1=-1, gamma2=F(7, 4)),
              catalog.mplus(), catalog.mzero(), catalog.quaternions(),
              catalog.complex_numbers()]
    tables += [catalog.tp(delta1=alpha, delta2=beta) for (alpha, beta), _ in LIE_CASES]
    return [B for A in tables for B in (A, A.to_float())]


def _catalog_lie_algebras():
    return [lie.lieify(A) for A in _catalog_tables()]


@pytest.mark.parametrize("L", _catalog_lie_algebras(), ids=repr)
def test_derived_series_matches_the_pairwise_loop(L):
    # each term is independent and spans the brackets of every two rows of
    # the term before (RefTable's products on the bracket table); the
    # series stops at 0 or where the dimension stays
    series = lie.derived_series(L)
    R = oracle.ref(L)
    for before, term in zip(series, series[1:]):
        brackets = [R.mul(u, v) for a, u in enumerate(before) for v in before[a + 1:]]
        assert oracle.rank(term, L.eps) == len(term)
        assert oracle.same_span(term, brackets, L.eps)
    dims = [len(term) for term in series]
    assert dims[-1] in (0, dims[-2]) and all(a > b for a, b in zip(dims[:-2], dims[1:-1]))
    # and the table-row pin, on L and on L scaled past int64
    assert typed(lie.derived_series(L)) == typed(_sc_derived_series(L))
    big = _scaled_lie(L)
    assert typed(lie.derived_series(big)) == typed(_sc_derived_series(big))


def test_derived_algebra_reads_the_brackets_of_distinct_basis_vectors():
    # [e0, e0] = 4e-7 e0 is zero within L's eps, not exactly: at a tighter
    # eps it would be a direction of its own, but [L, L] is spanned by the
    # brackets [e_i, e_j], i < j, alone
    b = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][2], b[1][0][2] = 1.0, -1.0
    b[0][0][0] = 4e-7
    L = lie.LieAlgebra(b, eps=1e-6)
    assert lie.derived_dims(L, eps=1e-12) == [3, 1, 0]
    assert typed(lie.derived_series(L, eps=1e-12)) == \
        typed(_sc_derived_series(L, eps=1e-12))


def test_derived_series_keeps_a_float_zero_row_before_a_nonzero_one():
    # float elimination takes the first of two pivots of equal size, so the
    # zero row [e0, e1] = 0, by its place among the rows, fixes the signs
    # of the zeros in [L, L]'s basis: dropping it gives -0.0 for 0.0
    rows = [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0, -1.0, 0.0, 1.0],
            [-1.5, 0.0, 0.5, 1.5], [2.0, 0.0, -0.5, 1.0], [-1.5, -1.0, 0.5, -2.0]]
    b = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), row in zip(itertools.combinations(range(4), 2), rows):
        b[i][j], b[j][i] = row, [-c for c in row]
    L = lie.LieAlgebra(b)
    want = typed(_sc_derived_series(L))
    assert typed(lie.derived_series(L)) == want
    assert typed([linalg.row_basis(rows[1:], L.eps)]) != want[1:2]


def _zero_row_ahead_of_a_tie(n, rng):
    """Brackets whose row [e0, e1] is zero and whose next two rows start
    0, +-1 (the second, half the time, the first negated), the rest drawn
    from a few values: float elimination breaks the tie in column 1 by row
    position, which the zero row shifts."""
    values = [0, 1, -1, 2, F(1, 2), F(-3, 2)]
    pairs = list(itertools.combinations(range(n), 2))
    rows = [[rng.choice(values) for _ in range(n)] for _ in pairs]
    rows[0], rows[1][:2], rows[2][:2] = [0] * n, [0, rng.choice([1, -1])], [0, rng.choice([1, -1])]
    if rng.random() < 0.5:
        rows[2] = [-c for c in rows[1]]
    b = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in zip(pairs, rows):
        b[i][j], b[j][i] = row, [-c for c in row]
    return b


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.randoms(use_true_random=True))
def test_derived_series_matches_the_table_rows_on_sparse_tables(n, zeros, rng):
    values = [0] * zeros + [1, -1, 2, F(1, 2), F(-3, 2)]
    sc = [[[rng.choice(values) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    L = lie.lieify(Algebra(sc))
    tie = _zero_row_ahead_of_a_tie(max(n, 4), rng)
    for M in (L, lie.lieify(Algebra(sc).to_float()), _scaled_lie(L),
              lie.LieAlgebra(tie), lie.LieAlgebra([[[float(c) for c in cell] for cell in row]
                                                   for row in tie])):
        assert typed(lie.derived_series(M)) == typed(_sc_derived_series(M))


@pytest.mark.parametrize(
    "alpha,beta,expected",
    [
        (0, 2, lie.TYPE_G1_G37),
        (0, 0, lie.TYPE_G1_G35),
        (1, 0, lie.TYPE_G49_ZERO),
        (-2, 0, lie.TYPE_G49_ZERO),
        (-1, 4, lie.TYPE_G1_G37),
    ],
)
def test_classify_types_with_verified_witnesses(alpha, beta, expected):
    out = lie.classify_tp_lie(alpha, beta)
    assert out.type_tag == expected
    assert out.witness_verified
    ok, _ = lie.match_canonical(
        lie.tp_lie_algebra(alpha, beta), out.type_tag, out.witness)
    assert ok


@pytest.mark.parametrize("alpha,beta", [(0, -3), (3, -5)])
def test_classify_negative_beta_cannot_reach_compact_table(alpha, beta):
    # the Killing form on span{i, v, w} is diag(-8, -4b, -4b): indefinite
    # for beta < 0, so these brackets are the noncompact sl(2, R) type and
    # the emitted rotation-type witness necessarily fails its check
    out = lie.classify_tp_lie(alpha, beta)
    assert out.type_tag == lie.TYPE_G1_G37
    assert out.witness_verified is False


def test_exact_witness_when_scaling_is_rational():
    out = lie.classify_tp_lie(0, 2)  # sqrt(2*beta) = 2
    assert out.witness[3][1] == F(1, 2)
    assert all(isinstance(x, Fraction) for row in out.witness for x in row)
    out2 = lie.classify_tp_lie(-2, 0)  # sqrt(-2*alpha) = 2
    assert all(isinstance(x, Fraction) for row in out2.witness for x in row)


def test_g35_parameter_is_zero():
    # the shape fixes ad(i) on span{v, w} at [[0, -2], [2, 0]]: the
    # parameter is the table's typed zero, exact or float
    L = lie.tp_lie_algebra(0, 0)
    H = lie.lieify(catalog.tp().to_float())
    for M, zero in ((L, F(0)), (_float_lie(L), 0.0),
                    (lie.tp_lie_algebra(0.0, 0.0), 0.0), (H, 0.0)):
        out = lie.classify_lie(M)
        assert out.type_tag == lie.TYPE_G1_G35
        assert type(out.parameter) is type(zero) and out.parameter == zero
        assert out.to_dict()["parameter"] == ("0" if type(zero) is F else 0.0)


def test_match_canonical_identity_on_canonical_table():
    can = lie.LieAlgebra(lie.canonical_brackets(lie.TYPE_G49_ZERO))
    ok, _ = lie.match_canonical(can, lie.TYPE_G49_ZERO, linalg.identity_matrix(4))
    assert ok


def test_match_canonical_wrong_tag():
    abelianish = lie.tp_lie_algebra(0, 0)
    ok, _ = lie.match_canonical(abelianish, lie.TYPE_G1_G37,
                                linalg.identity_matrix(4))
    assert not ok


def test_match_canonical_rejects_singular_witness():
    L = lie.tp_lie_algebra(0, 2)
    ok, detail = lie.match_canonical(L, lie.TYPE_G1_G37, [[0] * 4] * 4)
    assert not ok
    assert "singular" in detail


@pytest.mark.parametrize("witness", [
    linalg.identity_matrix(3),
    [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0]] * 5,
])
def test_match_canonical_rejects_a_witness_of_the_wrong_shape(witness):
    with pytest.raises(DimensionError):
        lie.match_canonical(lie.tp_lie_algebra(0, 2), lie.TYPE_G1_G37, witness)


def test_classify_reads_alpha_beta_from_tensor():
    L = lie.lieify(catalog.quaternions())
    # quaternion basis (1, i, j, k) is not in reflection-table shape
    # ([i, j] = 2k, not -2v); reshuffle to (1, i, w, v) = (1, i, j, -k)
    out = lie.classify_lie(L)
    assert out.type_tag == lie.TYPE_UNRECOGNIZED

    mat = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, -1],
    ]
    # the product in that basis, and its brackets
    sc = oracle.transport(catalog.quaternions(), oracle.inverse(mat))
    T = lie.lieify(Algebra(sc, labels=("1", "i", "w", "v"), unit=(1, 0, 0, 0)))
    out = lie.classify_lie(T)
    assert out.type_tag == lie.TYPE_G1_G37
    assert out.alpha_beta == (0, 2)
    assert out.witness_verified


def test_scale_invariance_of_type():
    rng = random.Random(7)
    for _ in range(20):
        alpha = F(rng.randint(-5, 5))
        beta = F(rng.randint(-5, 5))
        lam = F(rng.randint(1, 6), rng.randint(1, 3))
        assert (lie.classify_tp_lie(alpha, beta).type_tag
                == lie.classify_tp_lie(lam * lam * alpha, lam * lam * beta).type_tag)


def test_classification_json():
    data = lie.classify_tp_lie(1, 0).to_dict()
    assert data["type"] == "g49_zero"
    assert data["alpha"] == "1"
    assert data["beta"] == "0"
    assert data["derived_dims"] == [4, 3, 1, 0]
    assert data["witness_verified"] is True


def test_match_canonical_matches_reference_on_lie_cases():
    # every case witness against every canonical table, by the transported
    # brackets: the verdict, and the first mismatching pair with both sides
    mismatches = 0
    for (alpha, beta), _ in LIE_CASES:
        out = lie.classify_tp_lie(alpha, beta)
        for L in (lie.tp_lie_algebra(alpha, beta),
                  lie.lieify(catalog.tp(delta1=alpha, delta2=beta).to_float())):
            for tag in (lie.TYPE_G1_G35, lie.TYPE_G1_G37, lie.TYPE_G49_ZERO):
                ok, mismatch = lie.match_canonical(L, tag, out.witness)
                canonical = lie.LieAlgebra(lie.canonical_brackets(tag))
                hit = oracle.morphism_defect(canonical, L, out.witness)
                assert ok == (hit is None)
                if not ok:
                    mismatches += 1
                    (p, q), mapped, direct = hit
                    R = oracle.ref(L)
                    assert mismatch[:2] == (p, q)
                    assert R.vec_close(mismatch[2], direct) and R.vec_close(mismatch[3], mapped)
        if beta < 0:  # the stated case split: this witness cannot validate
            ok, mismatch = lie.match_canonical(lie.tp_lie_algebra(alpha, beta),
                                               lie.TYPE_G1_G37, out.witness)
            assert not ok and len(mismatch) == 4
    assert mismatches >= 28


def test_classify_matches_the_reference_on_lie_cases_and_catalog_tables():
    tables = [lie.tp_lie_algebra(alpha, beta) for (alpha, beta), _ in LIE_CASES]
    tables += [_float_lie(L) for L in tables]
    tables += _catalog_lie_algebras()
    tags = [_assert_classifies_as_reference(L).type_tag for L in tables]
    assert set(tags) == {lie.TYPE_G1_G35, lie.TYPE_G1_G37,
                                     lie.TYPE_G49_ZERO, lie.TYPE_UNRECOGNIZED}


@settings(max_examples=30, deadline=None)
@given(st.tuples(*([rationals] * 8)))
def test_classify_matches_the_reference_on_drawn_tp_tables(values):
    A = catalog.tp(**dict(zip(TP_NAMES, values)))
    for B in (A, A.to_float()):
        assert _assert_classifies_as_reference(lie.lieify(B)).type_tag \
            != lie.TYPE_UNRECOGNIZED


# every bracket entry [e_i, e_j]_k, i < j, but the 1 and i coordinates of
# [w, v]: moving those reads a different (alpha, beta), still on the shape
_OFF_SHAPE = [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(4)
              if (i, j) != (2, 3) or k >= 2]


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (-2, 0), (0, 2), (3, -5)])
def test_a_bracket_moved_off_the_shape_is_unrecognized(alpha, beta):
    L = lie.tp_lie_algebra(alpha, beta)
    eps, tag = L.eps, lie.classify_lie(L).type_tag
    assert len(_OFF_SHAPE) == 22
    for i, j, k in _OFF_SHAPE:
        b = [[list(cell) for cell in row] for row in L.sc]
        b[i][j][k] += F(1, 7)
        b[j][i][k] -= F(1, 7)
        moved = lie.LieAlgebra(b, labels=L.labels)
        assert _assert_classifies_as_reference(moved).type_tag == lie.TYPE_UNRECOGNIZED
        far = _float_lie(L, (i, j, k), 2 * eps)
        assert _assert_classifies_as_reference(far).type_tag == lie.TYPE_UNRECOGNIZED
        near = _float_lie(L, (i, j, k), eps / 2)
        assert _assert_classifies_as_reference(near).type_tag == tag
