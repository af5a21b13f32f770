from fractions import Fraction

import pytest

import oracle
from altkit import linalg

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
    # the tests' exact inverse, against linalg's product
    mat = [[F(2), F(1), F(0)], [F(0), F(1), F(3)], [F(1), F(0), F(1)]]
    inv = oracle.inverse(mat)
    assert linalg.matmul(mat, inv) == linalg.identity_matrix(3)
    with pytest.raises(ValueError):
        oracle.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_row_basis():
    rows = [[F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
    basis = linalg.row_basis(rows)
    assert len(basis) == 2
