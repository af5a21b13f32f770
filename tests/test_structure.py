from fractions import Fraction

import pytest

from altkit import catalog, identities, linalg, structure
from altkit.core import Algebra, NucleusContradictionError, ReflectionError

F = Fraction

REFLECTION = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


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
    phi = structure.LinearMap(tuple(tuple(row) for row in REFLECTION), H)
    for b in nucleus:
        assert linalg.in_span(span, list(phi(b).coords))


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

    # partial alternativity fails when g is not the derived value
    out = structure.classify_middle_c({"a": 4, "g": -1})
    assert out.target == "Unclassified"
    assert "partial" in out.reason or "constant" in out.reason


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
    assert data["tp_params"]["alpha1"] == "-1"
    assert data["verdicts"]["CC_in_B"]
    assert data["tp_basis"]["w"] == ["0", "0", "1", "0"]
