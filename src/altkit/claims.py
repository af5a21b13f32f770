"""Built-in verification suite: every headline fact about the named
algebras, re-derived mechanically and reported claim by claim.

Each claim is a callable that raises AssertionError with a readable
message on failure.  ``run_claims`` executes them (optionally filtered by
group) and returns structured results, recording any other exception as
a failed claim; the CLI's ``verify-paper`` subcommand prints one
PASS/FAIL line per claim.  Claims pin their own tolerances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from . import catalog, identities, lie, structure, units
from .core import _fits_int64, draw_twelfths
from .identities import IdentityKind


@dataclass(frozen=True)
class Claim:
    id: str
    group: str
    description: str
    fn: Callable


@dataclass(frozen=True)
class ClaimResult:
    id: str
    description: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SuiteOptions:
    seed: int
    samples: int
    # the locus claims' (table, Newton cloud) pairs, filled by the first
    # claim of the run that reads them (`_newton_clouds`); not settable, so
    # they are always this run's seed and sample count
    clouds: list = field(
        default_factory=list, init=False, compare=False, repr=False)


def _random_ak_coeffs(rng: random.Random, k: int) -> dict:
    return {
        f"a{i}{j}": Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for i in range(1, k + 1)
        for j in (1, 2)
    }


def _ak_units(A):
    return [A.by_label("e1"), -A.by_label("e1")]


# -- ak family -----------------------------------------------------------------


def claim_ak_dimension(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    for k in range(1, 6):
        A = catalog.ak(k, **_random_ak_coeffs(rng, k))
        assert A.dim == 2 * k + 2, f"k={k}: dim {A.dim} != {2 * k + 2}"


def claim_ak_partially_alternative(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    for k in range(1, 6):
        for draw in range(3):
            A = catalog.ak(k, **_random_ak_coeffs(rng, k))
            for report in identities.is_partially_alternative(
                A, _ak_units(A), units_complete=True, eps=0.0
            ):
                assert report.holds, (
                    f"k={k} draw={draw}: {report.kind.value} fails at "
                    f"{report.witness}"
                )
                assert report.method == "exhaustive-basis"


def claim_ak_not_left_alternative(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    for k in (1, 2):
        coeffs = _random_ak_coeffs(rng, k)
        A = catalog.ak(k, **coeffs)
        report = identities.check_identity(A, IdentityKind.LEFT_ALT)
        assert not report.holds, f"k={k}: left alternativity unexpectedly holds"
        assert report.witness is not None and not report.witness.defect.is_zero(0.0)
        v11, v12 = A.by_label("v11"), A.by_label("v12")
        defect = A.associator(v11, v11, v12)
        assert defect == coeffs["a11"] * v12, (
            f"(v11, v11, v12) defect {defect} != a11*v12"
        )


def claim_ak_units_complete(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    for k in (1, 2, 3):
        A = catalog.ak(k, **_random_ak_coeffs(rng, k))
        found = units.grid_unit_search(A, radius=3.0, step=Fraction(1, 4), tol=1e-9)
        expected = {A.by_label("e1"), -A.by_label("e1")}
        assert set(found) == expected, (
            f"k={k}: grid search found {sorted(str(q) for q in found)}"
        )


# -- fully plane-associative slice ----------------------------------------------


def _c_span(A):
    return (A.one(), A.basis(1))


def _deciding_points(names) -> list:
    """The origin, c*e_a (c = 1, 2) and e_a + e_b (a < b) in the parameters
    ``names``, as dicts: a polynomial of degree <= 2 that vanishes there is
    zero.  On the line through 0 and e_a it is a quadratic in c, fixed by
    its values at c = 0, 1, 2; then its value at e_a + e_b fixes the
    coefficient of p_a p_b.  A catalog table is affine in its parameters,
    so a law of degree <= 2 in the table (an associator law, or Jacobi for
    its commutator) that holds at these points holds for every table."""
    origin = dict.fromkeys(names, 0)
    return ([origin] + [{**origin, a: c} for a in names for c in (1, 2)]
            + [{**origin, a: 1, b: 1} for a, b in itertools.combinations(names, 2)])


def claim_slice_three_sided(opt: SuiteOptions):
    for point in _deciding_points(("a", "b")):
        A = catalog.tn_special_case(**point)
        for kind in (IdentityKind.LEFT_C_ASSOC, IdentityKind.MIDDLE_C_ASSOC,
                     IdentityKind.RIGHT_C_ASSOC):
            report = identities.check_identity(A, kind, c_span=_c_span(A), eps=0.0)
            assert report.holds, f"(a={point['a']}, b={point['b']}): {kind.value} fails"


def claim_slice_not_alternative(opt: SuiteOptions):
    for point in _deciding_points(("a", "b")):
        a, b = point["a"], point["b"]
        A = catalog.tn_special_case(a, b)
        j = A.by_label("j")
        jj = A.multiply(j, j)
        defect = A.multiply(jj, j) - A.multiply(j, jj)
        assert defect == (2 * b) * A.by_label("k"), f"(a={a}, b={b}): {defect} != 2b*k"
        assert b == 0 or not defect.is_zero(0.0), f"(a={a}, b={b}): (jj)j == j(jj)"


# -- a middle plane-associative point that is not partially alternative ---------


def claim_middle_counterexample(opt: SuiteOptions):
    A = catalog.tn(a=-1, g=1, h=1)
    middle = identities.check_identity(
        A, IdentityKind.MIDDLE_C_ASSOC, c_span=_c_span(A), eps=0.0
    )
    assert middle.holds, "middle plane-associativity fails"
    k = A.by_label("k")
    assert units.verify_unit(A, k, 0.0), "k*k != -1"
    report = identities.check_identity(
        A, IdentityKind.PARTIAL_RIGHT_ALT, units=[k], eps=0.0
    )
    assert not report.holds, "partial right alternativity unexpectedly holds"
    j = A.by_label("j")
    defect = A.associator(j, k, k)
    assert not defect.is_zero(0.0), "(j, k, k) has zero defect"


# -- unit loci -------------------------------------------------------------------


def _locus_claim(builder, kind, equation):
    def fn(opt: SuiteOptions):
        A = builder()
        locus = units.classify_locus_tn(A)
        assert locus.kind == kind, f"kind {locus.kind} != {kind}"
        got = {key: val for key, val in locus.equation.items()}
        want = {key: Fraction(val) for key, val in equation.items()}
        assert got == want, f"equation {got} != {want}"
        for q in locus.points:
            assert units.verify_unit(A, q, 0.0), f"stored point {q} is not a unit"
    return fn


def _newton_clouds(opt: SuiteOptions) -> list:
    """(table, Newton cloud) of mplus, mzero and the quaternions at the
    run's seed and sample count, tol pinned at 1e-9: computed once per
    `run_claims` call, on first use, and held in its options."""
    if not opt.clouds:
        # all three or none: a solve that raises leaves the list empty
        tables = [catalog.mplus(), catalog.mzero(), catalog.quaternions()]
        opt.clouds.extend([(A, units.solve_units_sampled(
            A, seeds=opt.samples, tol=1e-9, seed=opt.seed)) for A in tables])
    return opt.clouds


def claim_newton_scalar_part(opt: SuiteOptions):
    # tolerances pinned: the claim is epsilon-robust by design
    for A, cloud in _newton_clouds(opt):
        assert cloud.points, f"{A}: no converged units"
        worst = max(abs(float(q.coords[0])) for q in cloud.points)
        assert worst <= 1e-8, f"{A}: unit with scalar part {worst}"


def claim_sampled_on_quadric(opt: SuiteOptions):
    for A, cloud in _newton_clouds(opt):
        locus = units.classify_locus_tn(A)
        for q in cloud.points:
            assert units.equation_satisfied(locus, q, 1e-8), (
                f"{A}: cloud point off the locus equation"
            )
        # rational_locus_points keeps only units, so a wrong equation shows
        # as fewer distinct points than asked for
        a = catalog.tn_params(A)["a"]
        points = units.rational_locus_points(A, Fraction(a), 10, seed=opt.seed)
        distinct = {q.coords for q in points}
        assert len(distinct) == 10, f"{A}: {len(distinct)} distinct locus points of 10"
        for q in points:
            assert units.verify_unit(A, q, 0.0)


# -- classification of middle plane-associative tables ---------------------------


def claim_classify_positive(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    draws = [Fraction(4), Fraction(rng.randint(1, 9), rng.randint(1, 4)),
             Fraction(rng.randint(1, 9), rng.randint(1, 4))]
    for a in draws:
        out = structure.classify_middle_c({"a": a, "g": -a})
        assert out.target == "Mplus", f"a={a}: got {out.target} ({out.reason})"
        assert out.witness_verified, f"a={a}: witness failed the isomorphism check"


def claim_classify_zero(opt: SuiteOptions):
    out = structure.classify_middle_c({})
    assert out.target == "Mzero", f"got {out.target} ({out.reason})"
    assert out.witness_verified


def claim_classify_negative(opt: SuiteOptions):
    rng = random.Random(opt.seed + 1)
    draws = [Fraction(-1), -Fraction(rng.randint(1, 9), rng.randint(1, 4)),
             -Fraction(rng.randint(1, 9), rng.randint(1, 4))]
    for a in draws:
        out = structure.classify_middle_c({"a": a, "g": -a})
        assert out.target == "H", f"a={a}: got {out.target} ({out.reason})"
        assert out.witness_verified, f"a={a}: witness failed the isomorphism check"


def claim_targets_associative(opt: SuiteOptions):
    for builder in (catalog.mplus, catalog.mzero, catalog.quaternions):
        A = builder()
        report = identities.check_identity(A, IdentityKind.ASSOCIATIVE, eps=0.0)
        assert report.holds, f"{A}: associativity fails at {report.witness}"


# -- strict commutative case ------------------------------------------------------


def claim_strict_commutative_partial(opt: SuiteOptions):
    """The partial laws at the unit set {i, -i} of ten strictly-middle tc
    draws.  The claim is about that unit set only.  These tables have other
    real imaginary units: on tc(a=1/2, b=-5/2, f=3/2, g=1/2, h=1), the
    first draw at seed 0, Newton finds the pair
    +-(0.2665, 0.2947, 0.5356, -0.5925), where partial left and right
    alternativity fail and partial flexibility holds.  Over the full real
    unit set such a table is not partially left- or right-alternative;
    tests/test_units.py pins that counterexample."""
    rng = random.Random(opt.seed)
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 200:
        attempts += 1
        params = {
            "a": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            "b": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            "f": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            "g": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            "h": rng.choice((0, 1)),
        }
        A = catalog.tc(**params)
        strict = identities.is_strictly_middle(A, _c_span(A), eps=0.0)
        if not strict.strict:
            continue
        checked += 1
        comm = identities.check_identity(A, IdentityKind.COMMUTATIVE, eps=0.0)
        assert comm.holds, f"{params}: table is not commutative"
        i = A.basis(1)
        for report in identities.is_partially_alternative(A, [i, -i], eps=0.0):
            assert report.holds, (
                f"{params}: {report.kind.value} fails at {report.witness}"
            )
    assert checked == 10, f"only {checked} strict draws found"


# -- reflection split of the quaternions -------------------------------------------


def claim_reflection_split(opt: SuiteOptions):
    H = catalog.quaternions()
    refl = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]

    nucleus = structure.commutative_nucleus(H)
    assert len(nucleus) == 1, f"nucleus dimension {len(nucleus)} != 1"
    division = identities.is_division_sampled(H, samples=50, seed=opt.seed)
    assert division.division, f"zero divisor found: {division.witness}"

    # the split itself proves the planes, i*i = -1, the anticommutation and
    # the containments, and that the scalars rebuild H along (1, i, w, v)
    dec = structure.reflection_decompose(H, refl)
    assert dec.verdicts["CC_equals_B"], "product containment CC_equals_B fails"
    expected = tuple(Fraction(x) for x in (-1, 0, 0, -1, 0, 1, -1, 0))
    assert dec.tp_params == expected, f"table scalars {dec.tp_params} != {expected}"


# -- commutator Lie classification ---------------------------------------------


LIE_CASES = (
    ((0, 2), lie.TYPE_G1_G37),
    ((0, -3), lie.TYPE_G1_G37),
    ((0, 0), lie.TYPE_G1_G35),
    ((1, 0), lie.TYPE_G49_ZERO),
    ((-2, 0), lie.TYPE_G49_ZERO),
    ((3, -5), lie.TYPE_G1_G37),
    ((-1, 4), lie.TYPE_G1_G37),
)


def claim_lie_jacobi(opt: SuiteOptions):
    for params in _deciding_points(catalog.TP_PARAMS):
        L = lie.lieify(catalog.tp(**params))
        ok, witness = lie.check_jacobi(L, tol=0.0)
        assert ok, f"{params}: Jacobi fails at {witness}"


def claim_lie_case_types(opt: SuiteOptions):
    for (alpha, beta), expected in LIE_CASES:
        out = lie.classify_tp_lie(alpha, beta)
        assert out.type_tag == expected, (
            f"({alpha}, {beta}): {out.type_tag} != {expected}"
        )


def claim_lie_case_witnesses(opt: SuiteOptions):
    bad = []
    for (alpha, beta), expected in LIE_CASES:
        out = lie.classify_tp_lie(alpha, beta)
        if not out.witness_verified:
            bad.append((alpha, beta))
    assert not bad, (
        f"witness fails the canonical-table check at {bad}: for beta < 0 the "
        "Killing form on span{i, v, w} is indefinite (sl(2, R) type), so no "
        "real basis change reaches the compact canonical table"
    )


def claim_lie_derived_series(opt: SuiteOptions):
    for (alpha, beta), _ in LIE_CASES:
        out = lie.classify_tp_lie(alpha, beta)
        if beta != 0:
            assert out.derived == (4, 3, 3), f"({alpha},{beta}): {out.derived}"
        elif alpha != 0:
            assert out.derived == (4, 3, 1, 0), f"({alpha},{beta}): {out.derived}"
        else:
            assert out.derived == (4, 2, 0), f"({alpha},{beta}): {out.derived}"


# -- property suites --------------------------------------------------------------


def _bilinearity_draws(rng: random.Random, algebras, samples: int) -> list:
    """The draws of the bilinearity samples, sample s on the algebra
    algebras[s % len(algebras)], in the order a loop of one Element per
    sample takes them: al, be, then the coordinates of x, y and z, each
    randint(-6, 6) over randint(1, 4), drawn in that order.  All of them
    are one `draw_twelfths` call, which keeps each value num/den as
    num * (12 // den), its value over 12, and leaves ``rng`` where that
    loop leaves it.  The flat draw is split into each algebra's samples as
    the rows [al, be, x, y, z] of one array: int64, or Python ints where
    `_fits_int64` fails for the claim's products."""
    k, widths = len(algebras), [2 + 3 * alg.dim for alg in algebras]
    full, rest = divmod(samples, k)
    cycle = sum(widths)
    flat = draw_twelfths(rng, full * cycle + sum(widths[:rest]))
    head, tail = flat[:full * cycle].reshape(full, cycle), flat[full * cycle:]
    draws, start = [], 0
    for a, (alg, width) in enumerate(zip(algebras, widths)):
        D = head[:, start:start + width]
        if a < rest:
            D = np.vstack([D, tail[start:start + width]])
        start += width
        smax = int(np.abs(alg.cube).max(initial=0))
        # entries of (al x + be y) z and al xz + be yz: n^2 terms, each up to
        # 2 * 72^3 * smax over 12^3
        draws.append(D if _fits_int64(alg.dim, smax, 2 * 72 ** 3) else D.astype(object))
    return draws


def claim_props_bilinearity(opt: SuiteOptions):
    """(al x + be y) z = al xz + be yz and z (al x + be y) = al zx + be zy
    at 1000 exact random samples, alternating between the quaternions and
    an ak(2) table.  The samples are the draws of one Element per sample,
    taken as integers over 12 (`_bilinearity_draws`).  Each product of an
    operand pair is one batched `Algebra.multiply_rows` call over all of an
    algebra's samples, and the two sides are compared exactly."""
    algebras = (catalog.quaternions(),
                catalog.ak(2, a11=2, a12=Fraction(1, 2), a21=3, a22=1))
    draws = _bilinearity_draws(random.Random(opt.seed), algebras, 1000)
    for alg, D in zip(algebras, draws):
        n, mul = alg.dim, alg.multiply_rows
        al, be = D[:, :1], D[:, 1:2]
        x, y, z = D[:, 2:2 + n], D[:, 2 + n:2 + 2 * n], D[:, 2 + 2 * n:]
        w = al * x + be * y
        assert np.array_equal(mul(w, z), al * mul(x, z) + be * mul(y, z)), \
            f"{alg}: the product is not linear in its left argument"
        assert np.array_equal(mul(z, w), al * mul(z, x) + be * mul(z, y)), \
            f"{alg}: the product is not linear in its right argument"


def claim_props_implications(opt: SuiteOptions):
    # each table, with whether +-(basis vector 1) are all its units: +-e1 on
    # ak (the theorem `cli.units_for` relies on), +-i on tn_special_case(1, 1)
    cases = [
        (catalog.quaternions(), False),
        (catalog.mplus(), False),
        (catalog.mzero(), False),
        (catalog.complex_numbers(), False),
        (catalog.ak(1, a11=2, a12=3), True),
        (catalog.ak(2), True),
        (catalog.tn_special_case(1, 1), True),
        (catalog.tc(a=1, h=1), False),
        (catalog.tp(alpha1=-1, beta2=-1, delta2=1, gamma1=-1), False),
        (catalog.tn(a=-1, g=1, h=1), False),
    ]
    for A, complete in cases:
        q = A.basis(1)
        unit_pts = [q, -q]
        assoc = identities.check_identity(A, IdentityKind.ASSOCIATIVE, eps=0.0)
        alts = {
            kind: identities.check_identity(A, kind)
            for kind in (IdentityKind.LEFT_ALT, IdentityKind.RIGHT_ALT,
                         IdentityKind.FLEXIBLE)
        }
        partials = {
            kind: identities.check_identity(A, kind, units=unit_pts,
                                            units_complete=complete)
            for kind in identities.PARTIAL_KINDS
        }
        if assoc.holds:
            assert all(r.holds for r in alts.values()), f"{A}: assoc but not alt"
        if alts[IdentityKind.LEFT_ALT].holds:
            assert partials[IdentityKind.PARTIAL_LEFT_ALT].holds, A
        if alts[IdentityKind.RIGHT_ALT].holds:
            assert partials[IdentityKind.PARTIAL_RIGHT_ALT].holds, A
        if alts[IdentityKind.FLEXIBLE].holds:
            assert partials[IdentityKind.PARTIAL_FLEXIBLE].holds, A


def claim_props_scale_invariance(opt: SuiteOptions):
    rng = random.Random(opt.seed)
    for _ in range(20):
        alpha = Fraction(rng.randint(-5, 5))
        beta = Fraction(rng.randint(-5, 5))
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((-1, 1))
        first = lie.classify_tp_lie(alpha, beta).type_tag
        second = lie.classify_tp_lie(lam * lam * alpha, lam * lam * beta).type_tag
        assert first == second, f"({alpha},{beta}) vs lambda={lam}: {first} != {second}"


CLAIMS: List[Claim] = [
    Claim("ak.dimension", "ak",
          "family of planes over the complex line has dimension 2k+2",
          claim_ak_dimension),
    Claim("ak.partially-alternative", "ak",
          "partial left/flexible/right laws hold with unit set {e1, -e1}, "
          "k = 1..5, three random positive coefficient draws",
          claim_ak_partially_alternative),
    Claim("ak.not-left-alternative", "ak",
          "left alternativity fails; (v11, v11, v12) has defect a11*v12",
          claim_ak_not_left_alternative),
    Claim("ak.units-complete", "ak",
          "complete grid search over [-3,3]^n at step 1/4 finds no unit "
          "besides e1 and -e1 for k <= 3",
          claim_ak_units_complete),
    Claim("cassoc.slice-three-sided", "cassoc",
          "the c=d=e=h=0, f=b, g=-a slice satisfies left, middle and right "
          "plane-associativity exactly",
          claim_slice_three_sided),
    Claim("cassoc.slice-not-alternative", "cassoc",
          "on the same slice with b != 0, (jj)j - j(jj) = 2b*k != 0",
          claim_slice_not_alternative),
    Claim("middle.counterexample", "middle",
          "the a=-1, g=h=1 table is middle plane-associative yet fails "
          "partial right alternativity at the unit k",
          claim_middle_counterexample),
    Claim("locus.hyperboloid", "locus",
          "units of the j*j = k*k = 1 table form -x^2+y^2+z^2 = -1",
          _locus_claim(catalog.mplus, units.KIND_HYPERBOLOID,
                       {"x2": -1, "y2": 1, "z2": 1, "rhs": -1})),
    Claim("locus.planes", "locus",
          "units of the nilpotent-plane table form x^2 = 1",
          _locus_claim(catalog.mzero, units.KIND_PLANES,
                       {"x2": 1, "y2": 0, "z2": 0, "rhs": 1})),
    Claim("locus.sphere", "locus",
          "units of the quaternions form x^2+y^2+z^2 = 1",
          _locus_claim(catalog.quaternions, units.KIND_SPHERE,
                       {"x2": 1, "y2": 1, "z2": 1, "rhs": 1})),
    Claim("locus.newton-scalar-part", "locus",
          "every Newton-found unit has scalar coordinate below 1e-8",
          claim_newton_scalar_part),
    Claim("locus.sampled-on-quadric", "locus",
          "Newton clouds satisfy the exact locus equation and exact locus "
          "points verify as units",
          claim_sampled_on_quadric),
    Claim("classify.positive", "classify",
          "a > 0 with derived constants classifies as Mplus with a verified "
          "isomorphism witness",
          claim_classify_positive),
    Claim("classify.zero", "classify",
          "the all-zero table classifies as Mzero",
          claim_classify_zero),
    Claim("classify.negative", "classify",
          "a < 0 with derived constants classifies as the quaternions",
          claim_classify_negative),
    Claim("classify.targets-associative", "classify",
          "all three classification targets are associative",
          claim_targets_associative),
    Claim("strict.commutative-partial-alternative", "strict",
          "ten strictly-middle commutative draws pass the partial laws with "
          "unit set {i, -i}",
          claim_strict_commutative_partial),
    Claim("reflection.split", "reflection",
          "quaternions split under diag(1,1,-1,-1): nucleus is the scalars, "
          "plane dimensions 2/2, anticommutation, product containments, and "
          "the extracted canonical-table scalars rebuild the algebra",
          claim_reflection_split),
    Claim("lie.jacobi-random", "lie",
          "the commutator bracket of every reflection table satisfies the "
          "Jacobi identity exactly, proved at the 45 points that decide a "
          "quadratic in its eight parameters",
          claim_lie_jacobi),
    Claim("lie.case-types", "lie",
          "the (alpha, beta) case split assigns the expected type tags",
          claim_lie_case_types),
    Claim("lie.case-witnesses", "lie",
          "every emitted change-of-basis witness reproduces its canonical "
          "table",
          claim_lie_case_witnesses),
    Claim("lie.derived-series", "lie",
          "derived series dimensions are (4,3,3) for beta != 0 and "
          "(4,3,1,0) for alpha != 0, beta = 0",
          claim_lie_derived_series),
    Claim("props.bilinearity", "props",
          "1000 exact random samples of bilinearity of the product",
          claim_props_bilinearity),
    Claim("props.implications", "props",
          "associative implies alternative implies partially alternative "
          "across the whole catalog",
          claim_props_implications),
    Claim("props.scale-invariance", "props",
          "the Lie type is invariant under (alpha, beta) -> "
          "(l^2 alpha, l^2 beta)",
          claim_props_scale_invariance),
]


def run_claims(
    only: Optional[str] = None,
    seed: int = 0,
    samples: int = 200,
) -> List[ClaimResult]:
    opt = SuiteOptions(seed=seed, samples=samples)
    results = []
    for claim in CLAIMS:
        if only and claim.group != only and not claim.id.startswith(only):
            continue
        try:
            claim.fn(opt)
        except AssertionError as exc:
            results.append(ClaimResult(claim.id, claim.description, False, str(exc)))
        except Exception as exc:  # a crashing claim fails; the suite goes on
            detail = f"ERROR: {type(exc).__name__}: {exc}"
            results.append(ClaimResult(claim.id, claim.description, False, detail))
        else:
            results.append(ClaimResult(claim.id, claim.description, True))
    return results
