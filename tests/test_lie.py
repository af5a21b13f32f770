import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altkit import catalog, lie, linalg
from altkit.claims import LIE_CASES, _deciding_points
from altkit.core import (Algebra, AlgebraError, DimensionError, ParameterError,
                         first_defect, parse_scalar, scalar_is_zero, scalars_close,
                         sqrt_scalar)

F = Fraction

TP_NAMES = ("alpha1", "alpha2", "beta1", "beta2",
            "delta1", "delta2", "gamma1", "gamma2")

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def _inverse(mat):
    """The inverse of a square matrix: the right half of `linalg.rref` of
    [mat | I]."""
    n = len(mat)
    rows, pivots = linalg.rref([list(row) + [F(int(i == j)) for j in range(n)]
                                for i, row in enumerate(mat)])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in rows[:n]]


def _ref_put(b, i, j, entries):
    """Reference: set [e_i, e_j] = sum entries[k] e_k and [e_j, e_i] to its
    negative."""
    for k, c in entries.items():
        b[i][j][k] = parse_scalar(c)
        b[j][i][k] = -b[i][j][k]


def _ref_canonical_brackets(type_tag, parameter=0):
    """Reference: the canonical tables built by hand, with the parameter
    that only the value 0 ever reached."""
    parameter = parse_scalar(parameter)
    n = 4
    b = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    if type_tag == lie.TYPE_G1_G37:
        _ref_put(b, 0, 1, {2: 1})  # [e1, e2] = e3
        _ref_put(b, 1, 2, {0: 1})  # [e2, e3] = e1
        _ref_put(b, 2, 0, {1: 1})  # [e3, e1] = e2
    elif type_tag == lie.TYPE_G1_G35:
        bp = parameter
        _ref_put(b, 0, 2, {0: bp, 1: -1})  # [e1, e3] = b'e1 - e2
        _ref_put(b, 1, 2, {0: 1, 1: bp})   # [e2, e3] = e1 + b'e2
    elif type_tag == lie.TYPE_G49_ZERO:
        ap = parameter
        _ref_put(b, 1, 2, {0: 1})           # [e2, e3] = e1
        _ref_put(b, 0, 3, {0: 2 * ap})      # [e1, e4] = 2a'e1
        _ref_put(b, 1, 3, {1: ap, 2: -1})   # [e2, e4] = a'e2 - e3
        _ref_put(b, 2, 3, {1: 1, 2: ap})    # [e3, e4] = e2 + a'e3
    else:
        raise ParameterError(f"no canonical table for type {type_tag!r}")
    return tuple(tuple(tuple(cell) for cell in row) for row in b)


def _ref_read_alpha_beta(L, eps):
    """Reference: [1, -] = 0, [i, w] = -2v, [i, v] = 2w and [v, w] in
    span{1, i}, each tested on its own; then (alpha, beta) off [v, w]."""
    if L.dim != 4:
        return None
    n = 4

    def expect(i, j, want):
        return all(scalars_close(L.brackets[i][j][k], want[k], eps) for k in range(n))

    for j in range(n):
        if not expect(0, j, [0, 0, 0, 0]):
            return None
    if not expect(1, 2, [0, 0, 0, -2]) or not expect(1, 3, [0, 0, 2, 0]):
        return None
    vw = L.brackets[3][2]
    if not (scalar_is_zero(vw[2], eps) and scalar_is_zero(vw[3], eps)):
        return None
    return vw[0], vw[1]


def _ref_g35_parameter(L, eps):
    """Reference: the real part of ad(i)'s eigenvalue pair on span{v, w}
    over its imaginary part, from the brackets."""
    a, b = L.brackets[1][3][3], L.brackets[1][2][3]
    c, d = L.brackets[1][3][2], L.brackets[1][2][2]
    tr = a + d
    disc = 4 * (a * d - b * c) - tr * tr
    if disc <= 0 or scalar_is_zero(disc, eps):
        raise AlgebraError("adjoint action on the derived plane has real eigenvalues")
    return tr / sqrt_scalar(disc)


def _ref_classify_lie(L, eps=None):
    """Reference: the case split with the references above, each witness
    checked by `_loop_match_canonical` against its reference table."""
    eps = L.eps if eps is None else eps
    dims = tuple(lie.derived_dims(L, eps))
    ab = _ref_read_alpha_beta(L, eps)
    if ab is None:
        return lie.LieClassification(lie.TYPE_UNRECOGNIZED, None, (None, None),
                                     None, None, dims)
    alpha, beta = ab
    one, half_i = [1, 0, 0, 0], [0, F(1, 2), 0, 0]
    if scalar_is_zero(alpha, eps) and scalar_is_zero(beta, eps):
        tag, param = lie.TYPE_G1_G35, _ref_g35_parameter(L, eps)
        cols = [[0, 0, 0, 1], [0, 0, 1, 0], half_i, one]
    elif scalar_is_zero(beta, eps):
        tag, param = lie.TYPE_G49_ZERO, F(0)
        scale = 1 / sqrt_scalar(2 * alpha if alpha > 0 else -2 * alpha)
        cols = [[F(1 if alpha > 0 else -1, 2), 0, 0, 0], [0, 0, 0, scale],
                [0, 0, scale, 0], half_i]
    else:
        tag, param = lie.TYPE_G1_G37, None
        scale = 1 / sqrt_scalar(2 * beta if beta > 0 else -2 * beta)
        cols = [[alpha / (2 * beta), F(1, 2), 0, 0], [0, 0, 0, scale],
                [0, 0, scale if beta > 0 else -scale, 0], one]
    witness = tuple(tuple(parse_scalar(cols[c][r]) for c in range(4)) for r in range(4))
    ok, _ = _loop_match_canonical(L, tag, witness, parameter=param or 0, eps=eps)
    return lie.LieClassification(tag, param, (alpha, beta), witness, ok, dims)


def _assert_classifies_as_reference(L, eps=None):
    """classify_lie(L).to_dict() equals the reference's; on a float g3,5
    table the reference's parameter may be a float within eps of 0, which
    the shape fixes at 0.0.  Returns the classification."""
    got, want = lie.classify_lie(L, eps), _ref_classify_lie(L, eps)
    if got.type_tag == lie.TYPE_G1_G35 and L.scalar_mode == "float":
        assert type(got.parameter) is float and got.parameter == 0.0
        assert abs(want.parameter) <= (L.eps if eps is None else eps)
        want = dataclasses.replace(want, parameter=0.0)
    assert got.to_dict() == want.to_dict()
    assert [type(x) for x in got.to_dict().values()] == \
        [type(x) for x in want.to_dict().values()]
    return got


def _loop_match_canonical(L, type_tag, witness, parameter=0, eps=None):
    """Reference: every bracket pair p < q transported one at a time."""
    eps = L.eps if eps is None else eps
    table = _ref_canonical_brackets(type_tag, parameter)
    n = L.dim
    mat = [list(row) for row in witness]
    if scalar_is_zero(linalg.det(mat, eps), eps):
        return False, "witness matrix is singular"
    cols = [[mat[r][c] for r in range(n)] for c in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            got = L.bracket(cols[p], cols[q])
            want = [0] * n
            for r in range(n):
                c = table[p][q][r]
                if c:
                    want = [w + c * x for w, x in zip(want, cols[r])]
            if any(not scalars_close(g, w, eps) for g, w in zip(got, want)):
                return False, (p, q, got, want)
    return True, None


def _loop_bracket(L, u, v):
    """Reference: sum over i, j, k of u_i v_j b[i][j][k] e_k, term by term
    in that order over the nonzero entries, int 0 where no term lands."""
    out = [0] * L.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                coeff = ui * vj
                for k, c in enumerate(L.sc[i][j]):
                    if c:
                        out[k] = out[k] + coeff * c
    return out


def _loop_derived_series(L, eps=None):
    """Reference: every term from the brackets of every two rows of the
    term before, the first from the unit basis vectors."""
    eps = L.eps if eps is None else eps
    n = L.dim
    current = [[F(1) if p == i else F(0) for p in range(n)] for i in range(n)]
    series = [current]
    while True:
        prods = [_loop_bracket(L, u, v) for a, u in enumerate(current)
                 for v in current[a + 1:]]
        nxt = linalg.row_basis(prods, eps) if prods else []
        series.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(current):
            return series
        current = nxt


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


def _typed_series(series):
    return [[[(type(c), repr(c)) for c in row] for row in term] for term in series]


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


def _typed(x):
    """x with every scalar as its type and repr, arrays with their dtype."""
    if isinstance(x, np.ndarray):
        return x.dtype, _typed(x.tolist())
    if isinstance(x, (tuple, list)):
        return [_typed(y) for y in x]
    return type(x), repr(x)


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
    assert _typed(got.sc) == _typed(want.sc)  # builds each one's sc
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        assert _typed(getattr(got, name)) == _typed(value), name


def _signed_zero_table(A, rng):
    """A's table as floats with about half of its zeros -0.0."""
    return Algebra([[[-0.0 if c == 0 and rng.random() < 0.5 else float(c) for c in cell]
                     for cell in row] for row in A.sc], labels=A.labels)


def _scaled_table(A, c=2 ** 40 + 1):
    """A's table times c: a cube of Python ints unless the table is 0."""
    return Algebra([[[x * c for x in cell] for cell in row] for row in A.sc],
                   labels=A.labels)


def test_lieify_is_its_definition_on_catalog_tables():
    rng = random.Random(5)
    tables = _catalog_tables()
    tables += [_signed_zero_table(A, rng) for A in tables if A.scalar_mode == "exact"]
    tables += [_scaled_table(A) for A in (catalog.quaternions(), catalog.ak(2, a11=F(1, 3)),
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
    return A, A.to_float(), _signed_zero_table(A, rng), _scaled_table(A)


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


def _associator_slice(A, slot, v):
    """The parent's one-Element kernel: D[a, b, :] = the associator with
    argument ``slot`` set to v and the other two, in order, to e_a, e_b."""
    S, (x,) = A._operands([v], 1)
    L, R = np.tensordot(x, S, 1), np.tensordot(x, S, (0, 1))  # v e_m, e_m v
    if slot == 0:  # (v e_a) e_b - v (e_a e_b)
        return np.tensordot(L, S, 1) - np.tensordot(S, L, 1)
    if slot == 1:  # (e_a v) e_b - e_a (v e_b)
        return np.tensordot(R, S, 1) - np.tensordot(L, S, (1, 1)).swapaxes(0, 1)
    # (e_a e_b) v - e_a (e_b v)
    return np.tensordot(S, R, 1) - np.tensordot(R, S, (1, 1)).swapaxes(0, 1)


def _cyclic_jacobi_reference(L, tol=None):
    """Reference: for an antisymmetric bracket the cyclic sum of associators
    (x,y,z) + (y,z,x) + (z,x,y) is -2 times the Jacobi sum, so three
    associator slices per e_i, compared at 2 tol."""
    tol = L.eps if tol is None else tol
    n = L.dim
    for i in range(n):
        e_i = L.basis(i)
        cyclic = (_associator_slice(L, 0, e_i) + _associator_slice(L, 2, e_i)
                  + _associator_slice(L, 1, e_i).swapaxes(0, 1))  # [j, k]
        cyclic[: i + 1] = 0  # keep i < j < k
        cyclic[np.tril_indices(n)] = 0
        hit = first_defect(cyclic, 2 * tol)
        if hit is not None:
            j, k = hit
            x, y, z = (L.basis(p) for p in (i, j, k))
            jacobi = x * (y * z) + y * (z * x) + z * (x * y)
            return False, (i, j, k, list(jacobi.coords))
    return True, None


def _typed_jacobi(result):
    """(ok, witness) with each scalar's type and repr."""
    ok, witness = result
    if witness is None:
        return ok, None
    *ijk, coords = witness
    return ok, [(type(x), repr(x)) for x in ijk], [(type(c), repr(c)) for c in coords]


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
        big = _scaled_table(A)  # entries past int64's bound: object cubes
        assert big.cube.dtype == object
        cases.append(lie.lieify(big))
    assert sum(L.cube.dtype == object for L in cases) == 2  # ak's bracket is 0
    return cases


def test_jacobi_matches_the_cyclic_associator_reference():
    failing = 0
    for L in _jacobi_cases():
        for tol in (None, 0.0):
            got = lie.check_jacobi(L, tol=tol)
            assert _typed_jacobi(got) == _typed_jacobi(_cyclic_jacobi_reference(L, tol))
            failing += not got[0]
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
            got = lie.check_jacobi(L, tol=tol)
            assert _typed_jacobi(got) == _typed_jacobi(_cyclic_jacobi_reference(L, tol))


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
    # [L, L] from the table rows, then brackets of the deeper terms only:
    # the same bases as bracketing every pair at every step, row for row
    # and type for type (a float's repr is exact, so bit for bit)
    def typed(series):
        return [[[(type(c), repr(c)) for c in row] for row in term] for term in series]

    assert typed(lie.derived_series(L)) == typed(_loop_derived_series(L))
    assert lie.derived_dims(L) == [len(term) for term in _loop_derived_series(L)]
    # and the same as the table-row form, on L and on L scaled past int64
    assert _typed_series(lie.derived_series(L)) == _typed_series(_sc_derived_series(L))
    big = _scaled_lie(L)
    assert _typed_series(lie.derived_series(big)) == _typed_series(_sc_derived_series(big))


def test_derived_algebra_reads_the_brackets_of_distinct_basis_vectors():
    # [e0, e0] = 4e-7 e0 is zero within L's eps, not exactly: at a tighter
    # eps it would be a direction of its own, but [L, L] is spanned by the
    # brackets [e_i, e_j], i < j, alone
    b = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][2], b[1][0][2] = 1.0, -1.0
    b[0][0][0] = 4e-7
    L = lie.LieAlgebra(b, eps=1e-6)
    assert lie.derived_dims(L, eps=1e-12) == [3, 1, 0]
    assert _typed_series(lie.derived_series(L, eps=1e-12)) == \
        _typed_series(_sc_derived_series(L, eps=1e-12))


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
    want = _typed_series(_sc_derived_series(L))
    assert _typed_series(lie.derived_series(L)) == want
    assert _typed_series([linalg.row_basis(rows[1:], L.eps)]) != want[1:2]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.randoms(use_true_random=False))
def test_derived_series_matches_the_table_rows_on_sparse_tables(n, zeros, rng):
    values = [0] * zeros + [1, -1, 2, F(1, 2), F(-3, 2)]
    sc = [[[rng.choice(values) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    L = lie.lieify(Algebra(sc))
    for M in (L, lie.lieify(Algebra(sc).to_float()), _scaled_lie(L)):
        assert _typed_series(lie.derived_series(M)) == _typed_series(_sc_derived_series(M))


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
        assert out.parameter == _ref_g35_parameter(M, M.eps)
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
    n = 4
    sc = [[[None] * n for _ in range(n)] for _ in range(n)]
    H = catalog.quaternions()
    inv = _inverse([[F(mat[i][j]) for j in range(n)] for i in range(n)])
    # transport the product along the basis change and re-derive brackets
    cols = [[F(mat[r][c]) for r in range(n)] for c in range(n)]
    for i in range(n):
        for j in range(n):
            prod = (H.element(cols[i]) * H.element(cols[j])).coords
            sc[i][j] = linalg.matvec(inv, prod)
    T = lie.lieify(catalog.quaternions().__class__(sc, labels=("1", "i", "w", "v"),
                                                   unit=(1, 0, 0, 0)))
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
    # every case witness against every canonical table: the verdicts, the
    # mismatching pair and the scalar type of each coordinate
    mismatches = 0
    for (alpha, beta), _ in LIE_CASES:
        out = lie.classify_tp_lie(alpha, beta)
        parameter = out.parameter or 0
        for L in (lie.tp_lie_algebra(alpha, beta),
                  lie.lieify(catalog.tp(delta1=alpha, delta2=beta).to_float())):
            for tag in (lie.TYPE_G1_G35, lie.TYPE_G1_G37, lie.TYPE_G49_ZERO):
                got = lie.match_canonical(L, tag, out.witness)
                want = _loop_match_canonical(L, tag, out.witness, parameter=parameter)
                assert got == want
                if not got[0]:
                    mismatches += 1
                    for g, w in zip(got[1][2:], want[1][2:]):
                        assert [type(c) for c in g] == [type(c) for c in w]
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
    eps = L.eps
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
        assert _assert_classifies_as_reference(near).type_tag \
            == lie.classify_lie(L).type_tag
