from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from altkit import linalg
from oracle import typed

F = Fraction


def test_rref_and_rank():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    rows, pivots = linalg.rref(mat)
    assert pivots == [0, 1]
    assert linalg.rank(mat) == 2
    # an epsilon acts only on floats: a tiny exact pivot still counts,
    # and an int matrix (third row 3*first + 7*second) is eliminated exactly
    assert linalg.rank([[F(1, 10**12), 0], [0, 1]], 1e-9) == 2
    ints = [[3, -9, -3], [3, 8, 5], [30, 29, 26]]
    assert linalg.rank(ints) == linalg.rank(ints, 1e-9) == 2


def test_null_space_exact():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = linalg.null_space(mat)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in mat)


def test_null_space_trivial():
    mat = [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.null_space(mat) == []


def test_det_exact():
    mat = [[F(2), F(1)], [F(1), F(1)]]
    assert linalg.det(mat) == 1
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.det(singular) == 0


def test_det_float_pivoting():
    mat = [[1e-12, 1.0], [1.0, 1.0]]
    assert abs(linalg.det(mat) + 1.0) < 1e-9


def test_inverse_roundtrip():
    # the tests' exact inverse, against numpy's product of Fractions
    mat = [[F(2), F(1), F(0)], [F(0), F(1), F(3)], [F(1), F(0), F(1)]]
    inv = oracle.inverse(mat)
    product = np.dot(np.array(mat, dtype=object), np.array(inv, dtype=object))
    assert product.tolist() == linalg.identity_matrix(3)
    with pytest.raises(ValueError):
        oracle.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_row_basis():
    rows = [[F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
    basis = linalg.row_basis(rows)
    assert len(basis) == 2


# exact entries: small ones (zero most often), ints past 2**63, and
# Fractions with small and with large denominators
entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)]),
    st.integers(-2**70, 2**70),
    st.fractions(max_denominator=7),
    st.builds(F, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)


@st.composite
def exact_matrices(draw):
    """Rows of exact entries, with a zero row and a copy of a row (either
    drawn or not) at drawn places."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6))
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows


@settings(max_examples=150, deadline=None)
@given(exact_matrices())
def test_exact_elimination_matches_the_fraction_oracle(mat):
    # the fraction-free elimination in ints gives the reduced form of plain
    # Fraction Gauss-Jordan, type for type, whatever eps it is given
    rows, pivots = oracle.rref(mat)
    assert typed(linalg.rref(mat)) == typed(linalg.rref(mat, 0.5)) == typed((rows, pivots))
    assert linalg.rank(mat) == len(pivots)
    assert typed(linalg.row_basis(mat)) == typed(rows)
    n = len(mat[0]) if mat else 0
    null = []
    for f in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        null.append(v)
    assert typed(linalg.null_space(mat)) == typed(null)
