"""The batched division test against the per-candidate loop it replaced."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from altkit import catalog, identities, linalg
from altkit.core import MODULUS, Algebra, ParameterError
from altkit.identities import DivisionReport, _point_rows
import oracle
from oracle import random_element, typed


# contract: the division test's verdict, witness and sampled(k) count
def _loop_is_division_sampled(A, samples=identities.DEFAULT_SAMPLES, seed=0, eps=None):
    """The reference: one candidate at a time, two Fraction or float
    determinants each, stopping at the first singular operator."""
    eps = A.eps if eps is None else eps
    rng = random.Random(seed)
    basis = A.basis_elements()
    candidates = itertools.chain(
        basis,
        (basis[i] + basis[j] for i in range(A.dim) for j in range(A.dim) if i < j),
        (random_element(A, rng) for _ in range(samples)),
    )
    checked = 0
    for a in candidates:
        if a.is_zero(eps):
            continue
        checked += 1
        for side in ("left", "right"):
            if A.mul_operator(a, side).is_singular(eps):
                return DivisionReport(False, a, f"sampled({checked})")
    return DivisionReport(True, None, f"sampled({checked})")


def _typed(report):
    """to_dict() beside the witness coordinates' types and reprs."""
    return report.to_dict(), typed(report.witness)


def _sweep_tables():
    """Seeded tables of the kinds the identity sweep runs: ak(1, 3, 6, 10),
    tn points (b != 0; a > 0, a = 0, a < 0), tc, tp and the fixed tables."""
    rng = random.Random(5)

    def draw():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def nonzero():
        return Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((-1, 1))

    tables = [catalog.ak(k, **{f"a{i}{j}": Fraction(rng.randint(1, 9), rng.randint(1, 4))
                               for i in range(1, k + 1) for j in (1, 2)})
              for k in (1, 3, 6, 10)]
    tables.append(catalog.tn(a=draw(), b=nonzero(), **{p: draw() for p in "fghe"}))
    for sign in (1, 0, -1):
        tables.append(catalog.tn(a=abs(nonzero()) * sign, **{p: draw() for p in "fghe"}))
    tables.append(catalog.tc(a=draw(), b=draw(), f=draw(), g=draw(), h=rng.choice((0, 1))))
    tables.append(catalog.tp(**{p: draw() for p in ("alpha1", "alpha2", "beta1", "beta2",
                                                    "delta1", "delta2", "gamma1", "gamma2")}))
    tables += [catalog.quaternions(), catalog.mplus(), catalog.mzero(),
               catalog.complex_numbers()]
    return tables + [A.to_float() for A in tables]


@pytest.mark.parametrize("A", _sweep_tables(), ids=repr)
def test_batched_division_matches_the_loop(A):
    for samples in (0, 10, 50, 200):
        for seed in range(4):
            got = identities.is_division_sampled(A, samples=samples, seed=seed)
            want = _loop_is_division_sampled(A, samples=samples, seed=seed)
            assert _typed(got) == _typed(want), (samples, seed)


# contract: mul_operators and linalg.dets give linalg.det's float determinants bit for bit
def test_batched_float_dets_are_det_bit_for_bit():
    rng = random.Random(11)
    tables = [A.to_float() for A in (catalog.quaternions(), catalog.mplus(),
                                     catalog.mzero(), catalog.ak(2, a11=2, a12=Fraction(1, 3)),
                                     catalog.tn(a=-2, f=1, g=Fraction(1, 2), h=0, e=1))]
    count = 0
    for A in tables:
        candidates = A.basis_elements() + [random_element(A, rng) for _ in range(100 - A.dim)]
        for eps in (A.eps, 0.5):
            dets = linalg.dets(A.mul_operators(_point_rows(candidates)), eps)
            for a, pair in zip(candidates, dets):
                for side, got in zip(("left", "right"), pair):
                    want = linalg.det(A.mul_operator(a, side).matrix, eps)
                    assert float(want).hex() == float(got).hex()
                    count += 1
    assert count == 2000


def test_determinant_divisible_by_the_modulus_is_confirmed_exactly():
    # e1 * e1 = -MODULUS: det L_(x + y e1) = x^2 + MODULUS y^2, zero modulo
    # the prime whenever x is, yet zero only at x = y = 0
    A = Algebra([[[1, 0], [0, 1]], [[0, 1], [-MODULUS, 0]]], unit=[1, 0])
    V = np.array([[1, 0], [0, 1], [1, 1]])
    assert linalg.nonsingular_mod(A.mul_operators(V)).tolist() == [
        [True, True], [False, False], [True, True]]
    assert [A.first_singular(V[c:c + 1]) for c in range(3)] == [None, None, None]
    report = identities.is_division_sampled(A, samples=50, seed=3)
    assert report.division
    assert _typed(report) == _typed(_loop_is_division_sampled(A, samples=50, seed=3))


@pytest.mark.parametrize("table", [catalog.quaternions(), catalog.ak(2, a11=Fraction(1, 3))])
def test_division_on_an_object_cube(table):
    big = oracle.scaled(table)
    assert big.cube.dtype == object
    report = identities.is_division_sampled(big, samples=20, seed=1)
    assert report.division == identities.is_division_sampled(table, samples=20, seed=1).division
    assert _typed(report) == _typed(_loop_is_division_sampled(big, samples=20, seed=1))


def test_zero_candidates_are_skipped_and_not_counted():
    A = catalog.complex_numbers()
    rng = random.Random(1)
    zeros = sum(random_element(A, rng).is_zero() for _ in range(200))
    assert zeros == 2  # a 2-dim draw is zero with probability 1/169
    report = identities.is_division_sampled(A, samples=200, seed=1)
    assert report.division
    assert report.method == f"sampled({2 + 1 + 200 - zeros})"
    assert _typed(report) == _typed(_loop_is_division_sampled(A, samples=200, seed=1))
    # on a float table a candidate within eps of 0 in every coordinate is
    # zero: at eps 1.5 the basis, the sum and some draws are skipped
    B = A.to_float()
    report = identities.is_division_sampled(B, samples=200, seed=1, eps=1.5)
    assert report.method != "sampled(203)"
    assert _typed(report) == _typed(_loop_is_division_sampled(B, samples=200, seed=1, eps=1.5))


def test_a_negative_sample_count_is_rejected():
    H = catalog.quaternions()
    for A in (H, H.to_float()):
        with pytest.raises(ParameterError, match="-1"):
            identities.is_division_sampled(A, samples=-1)
    assert identities.is_division_sampled(H, samples=0).method == "sampled(10)"


def test_singular_flags_on_exact_tables_rest_on_the_modulus():
    M = catalog.mplus()
    V = np.array([[1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    ops = M.mul_operators(V)
    assert ops.dtype == np.int64 and ops.min() >= 0 and ops.max() < MODULUS
    # 1 + j is a zero divisor of mplus; 1 and i are not
    assert (~linalg.nonsingular_mod(ops)).any(axis=1).tolist() == [True, False, False]
    assert M.first_singular(V) == 0 and M.first_singular(V[1:]) is None


@pytest.mark.parametrize("float_table", [False, True])
def test_a_division_scan_builds_an_element_only_for_its_witness(float_table, built_elements):
    H, M = catalog.quaternions(), catalog.mplus()
    if float_table:
        H, M = H.to_float(), M.to_float()
    for A in (H, M):
        A.basis_elements()  # the cached basis slots are built before the count
    built = built_elements
    built.clear()
    # a full scan: the basis, the six sums and 200 draws, and no Element
    report = identities.is_division_sampled(H, seed=0)
    assert (report.division, report.method) == (True, "sampled(210)")
    assert built == []
    # a failing scan builds exactly its witness, 1 + j
    report = identities.is_division_sampled(M, seed=0)
    assert (report.division, report.method) == (False, "sampled(6)")
    assert built == [report.witness] and report.witness == M.one() + M.by_label("j")


@pytest.mark.parametrize("A", _sweep_tables() + [oracle.scaled(catalog.quaternions())], ids=repr)
def test_basis_and_pair_operators_are_the_loop_bit_for_bit(A):
    # the basis vectors, the sums e_i + e_j and multiples -2 e_i take their
    # operators from the cube's slices; with a dense row beside them the
    # same rows run the loop over every column, and the two agree entry for
    # entry (floats bit for bit, the sign of a zero included)
    rng = random.Random(A.dim)
    basis = A.basis_elements()
    dense = [random_element(A, rng) for _ in range(2)]
    pairs = [basis[i] + basis[j] for i, j in itertools.combinations(range(A.dim), 2)]
    for group in (basis, pairs, [-2 * e for e in basis]):
        got = A.mul_operators(_point_rows(group))
        want = A.mul_operators(_point_rows(group + dense))[:len(group)]
        assert typed(got) == typed(want)
        if A.scalar_mode == "float":
            for v, ops in zip(group, got):
                for side, M in zip(("left", "right"), ops):
                    assert typed(M) == typed(np.array(A.mul_operator(v, side).matrix, dtype=float))
