from fractions import Fraction

import pytest

from altkit import catalog, structure
from altkit.core import ParameterError

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
