"""The three workloads: the inputs each builds from the seed, and its calls.

Every workload is a closed loop with one caller: a pass is a list of calls
issued one after another, each when the previous one has returned.  A call
returns the program's output; its judge compares that output with the
reference answer (see reference.py) after the pass, outside the timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from altkit import catalog, cli, identities, lie, structure, units
from altkit.identities import IdentityKind

from .reference import PAPER_EXPECTED, RefTable, grid_reference

NEWTON_SEEDS = 200
GRID_RADIUS = 3
GRID_STEP = Fraction(1, 4)
UNIT_TOL = 1e-9


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    judge: Callable[[object], bool]


def _draw(rng: random.Random, lo: int = -6, hi: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((-1, 1))


def _ak(rng: random.Random, k: int):
    coeffs = {f"a{i}{j}": Fraction(rng.randint(1, 9), rng.randint(1, 4))
              for i in range(1, k + 1) for j in (1, 2)}
    return catalog.ak(k, **coeffs)


def _tn_point(rng: random.Random, sign_a: Optional[int], b_nonzero: bool):
    """A tn point; the locus depends only on a and on b, c, d being zero."""
    params = {name: _draw(rng) for name in "fghe"}
    if b_nonzero:
        params.update(a=_draw(rng), b=_nonzero(rng))
    else:
        params["a"] = 0 if sign_a == 0 else abs(_nonzero(rng)) * sign_a
    return catalog.tn(**params), params


def _tc_point(rng: random.Random):
    return catalog.tc(a=_draw(rng), b=_draw(rng), f=_draw(rng), g=_draw(rng),
                      h=rng.choice((0, 1)))


def _tp_point(rng: random.Random):
    names = ("alpha1", "alpha2", "beta1", "beta2", "delta1", "delta2",
             "gamma1", "gamma2")
    return catalog.tp(**{name: _draw(rng) for name in names})


def _coords(elements) -> List[list]:
    return [list(e.coords) for e in elements]


def _unit_pair(A, index: int) -> set:
    e = [Fraction(0)] * A.dim
    e[index] = Fraction(1)
    return {tuple(e), tuple(-c for c in e)}


class Workload:
    """Inputs built once from the seed (the set-up), then passes of calls."""

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.rng = random.Random(f"{self.name}:{seed}")

    def pass_seed(self, index: int) -> int:
        """Seed handed to the program's own samplers in pass ``index``; it
        changes from pass to pass so a run averages over sampler draws."""
        return self.seed * 1000 + index

    def build(self) -> None:
        """Build the workload's tables (timed as set-up)."""

    def prepare(self) -> None:
        """Compute reference answers (not timed)."""

    def calls(self, index: int) -> List[Call]:
        raise NotImplementedError


# -- paper-suite ---------------------------------------------------------------

PAPER_TINY = ("ak.dimension", "locus.sphere", "lie.case-witnesses")


def run_claim(claim_id: str, seed: int):
    """`altkit verify-paper --only <claim> --format json --seed <seed>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-paper", "--only", claim_id, "--format", "json",
                       "--seed", str(seed)])
    return rc, out.getvalue()


def judge_claim(claim_id: str, expected: dict, output) -> bool:
    rc, text = output
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != 1 or records[0].get("id") != claim_id:
        return False
    passed = records[0].get("passed")
    return passed == expected[claim_id] and rc == (0 if passed else 1)


class PaperSuite(Workload):
    """Each of the 25 claims through the CLI verb, in process."""

    name = "paper-suite"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.claim_ids = tuple(PAPER_EXPECTED) if size == "full" else PAPER_TINY
        self.expected = dict(PAPER_EXPECTED)

    def calls(self, index: int) -> List[Call]:
        seed = self.pass_seed(index)
        return [Call("claim", lambda c=cid: run_claim(c, seed),
                     lambda out, c=cid: judge_claim(c, self.expected, out))
                for cid in self.claim_ids]


# -- identity-sweep --------------------------------------------------------------


@dataclass
class SweepTable:
    A: object
    ref: RefTable
    finite_units: Optional[set]   # the exact unit set when the locus is finite
    c_span: tuple
    c_coords: List[list]
    middle_holds: bool = False
    zero_divisor: bool = False


class IdentitySweep(Workload):
    """Every identity kind and the structure checks on seeded tables, each
    table in exact mode and again as a float copy."""

    name = "identity-sweep"

    def build(self) -> None:
        rng = self.rng
        tables = []  # (algebra, finite unit set or None)
        ks = (1, 3, 6, 10) if self.size == "full" else (1,)
        for k in ks:
            A = _ak(rng, k)
            tables.append((A, _unit_pair(A, 1)))
        if self.size == "full":
            A, _ = _tn_point(rng, None, True)
            tables.append((A, _unit_pair(A, 1)))
            for sign in (1, 0, -1):
                tables.append((_tn_point(rng, sign, False)[0], None))
            tables.append((_tc_point(rng), None))
            tables.append((_tp_point(rng), None))
            for builder in (catalog.quaternions, catalog.mplus, catalog.mzero):
                tables.append((builder(), None))
        else:
            tables.append((catalog.quaternions(), None))
        tables.append((catalog.complex_numbers(), None))
        self.algebras = [(A, fin) for A, fin in tables]
        self.algebras += [(A.to_float(), fin) for A, fin in tables]

    def prepare(self) -> None:
        self.tables = []
        for A, finite in self.algebras:
            ref = RefTable(A.sc, A.unit, A.eps)
            c_span = (A.one(), A.basis(1))
            t = SweepTable(A, ref, finite, c_span, _coords(c_span))
            t.middle_holds = ref.law_holds("middle-c-assoc", t.c_coords)
            t.zero_divisor = ref.basis_zero_divisor()
            self.tables.append(t)

    def calls(self, index: int) -> List[Call]:
        seed = self.pass_seed(index)
        out = []
        for t in self.tables:
            out.extend(self._table_calls(t, seed))
        return out

    def _table_calls(self, t: SweepTable, seed: int) -> List[Call]:
        A = t.A
        calls = []
        for kind in IdentityKind:
            if kind in identities.PARTIAL_KINDS:
                def run(kind=kind):
                    points, complete = cli.units_for(A, NEWTON_SEEDS, seed, None)
                    return points, complete, identities.check_identity(
                        A, kind, units=points, units_complete=complete, seed=seed)
                judge = lambda out, kind=kind: self._judge_partial(t, kind, *out)
            else:
                c_span = t.c_span if kind in identities.C_ASSOC_KINDS else None
                run = lambda kind=kind, c=c_span: identities.check_identity(
                    A, kind, c_span=c, seed=seed)
                judge = lambda out, kind=kind: self._judge_law(t, kind, out)
            calls.append(Call(kind.value, run, judge))
        if t.middle_holds:
            calls.append(Call("strictly-middle",
                              lambda: identities.is_strictly_middle(A, t.c_span),
                              lambda out: self._judge_strict(t, out)))
        calls.append(Call("division",
                          lambda: identities.is_division_sampled(A, seed=seed),
                          lambda out: self._judge_division(t, out)))
        calls.append(Call("nucleus", lambda: structure.commutative_nucleus(A),
                          lambda out: t.ref.nucleus_ok(_coords(out))))
        calls.append(Call("lie", lambda: self._lie_chain(A),
                          lambda out: self._judge_lie(t, out)))
        return calls

    @staticmethod
    def _lie_chain(A):
        L = lie.lieify(A)
        ok, _ = lie.check_jacobi(L)
        series = lie.derived_series(L)
        return L, ok, series, lie.classify_lie(L)

    @staticmethod
    def _witness_ok(t: SweepTable, kind: str, w) -> bool:
        z = None if w.z is None else list(w.z.coords)
        return t.ref.witness_ok(kind, list(w.x.coords), list(w.y.coords), z,
                                list(w.defect.coords))

    def _verdict_ok(self, t: SweepTable, kind: str, report) -> bool:
        """A law that holds has no witness; a failing one has a real one."""
        if report.holds:
            return report.witness is None
        return report.witness is not None and self._witness_ok(t, kind, report.witness)

    def _judge_law(self, t: SweepTable, kind: IdentityKind, report) -> bool:
        want = t.ref.law_holds(kind.value, t.c_coords)
        return (report.kind == kind and report.holds == want
                and self._verdict_ok(t, kind.value, report))

    def _judge_partial(self, t: SweepTable, kind: IdentityKind, points,
                       complete, report) -> bool:
        coords = [tuple(q.coords) for q in points]
        if not coords or not all(t.ref.unit_residual_ok(q) for q in coords):
            return False
        if complete and set(coords) != t.finite_units:
            return False
        if (report.method == "exhaustive-basis") != bool(complete):
            return False
        if report.witness is not None and tuple(report.witness.y.coords) not in coords \
                and tuple(report.witness.x.coords) not in coords:
            return False
        want = t.ref.partial_law_holds(kind.value, coords)
        return report.holds == want and self._verdict_ok(t, kind.value, report)

    def _judge_strict(self, t: SweepTable, report) -> bool:
        left = t.ref.law_holds("left-c-assoc", t.c_coords)
        right = t.ref.law_holds("right-c-assoc", t.c_coords)
        if (report.left_holds, report.right_holds) != (left, right):
            return False
        if report.strict != (not (left and right)):
            return False
        if not report.strict:
            return report.witness is None
        kind = "left-c-assoc" if not left else "right-c-assoc"
        return report.witness is not None and self._witness_ok(t, kind, report.witness)

    @staticmethod
    def _judge_division(t: SweepTable, report) -> bool:
        if report.division:
            return report.witness is None and not t.zero_divisor
        w = report.witness
        return (w is not None and not t.ref.vec_zero(list(w.coords))
                and t.ref.operator_singular(list(w.coords)))

    @staticmethod
    def _judge_lie(t: SweepTable, out) -> bool:
        L, ok, series, cls = out
        return t.ref.lie_ok(L.brackets, ok, series, cls.type_tag,
                            cls.witness_verified)


# -- unit-loci ---------------------------------------------------------------------


class UnitLoci(Workload):
    """Newton sampling, the complete grid search and the exact tn loci."""

    name = "unit-loci"

    def build(self) -> None:
        rng = self.rng
        full = self.size == "full"
        ak = {k: _ak(rng, k) for k in ((1, 2, 3, 6, 10) if full else (1,))}
        fixed = {"quaternions": catalog.quaternions(), "mplus": catalog.mplus(),
                 "mzero": catalog.mzero()}
        if full:
            self.newton = [fixed["quaternions"], fixed["mplus"], fixed["mzero"],
                           _tp_point(rng), _tc_point(rng)]
            self.newton += [ak[k] for k in (1, 3, 6, 10)]
            self.grid = list(fixed.values()) + [ak[k] for k in (1, 2, 3)]
            # six points of each locus kind; with 24 locus solves the median
            # call sits inside their cluster instead of between two tables
            loci = [(None, True), (1, False), (0, False), (-1, False)] * 6
        else:
            self.newton = [fixed["quaternions"], ak[1]]
            self.grid = [fixed["quaternions"], ak[1]]
            loci = [(None, True), (-1, False)]
        self.loci = [_tn_point(rng, sign, b) for sign, b in loci]
        self.radius = GRID_RADIUS if full else 1
        self.newton_seeds = NEWTON_SEEDS if full else 10

    def prepare(self) -> None:
        self.newton_refs = [RefTable(A.sc, A.unit, A.eps) for A in self.newton]
        self.grid_refs = []
        for A in self.grid:
            ref = RefTable(A.sc, A.unit, A.eps)
            if A.family[0] == "ak":
                want = _unit_pair(A, 1)
            else:
                want = grid_reference(ref, self.radius, GRID_STEP)
            self.grid_refs.append(want)
        self.loci_refs = [(RefTable(A.sc, A.unit, A.eps), self._locus_reference(p))
                          for A, p in self.loci]

    @staticmethod
    def _locus_reference(params: dict):
        """(kind, equation) of -x^2 + a(y^2 + z^2) = -1, sign-normalised."""
        if any(params.get(key, 0) != 0 for key in "bcd"):
            return units.KIND_FINITE, None
        a = Fraction(params["a"])
        if a > 0:
            return units.KIND_HYPERBOLOID, {"x2": -1, "y2": a, "z2": a, "rhs": -1}
        if a == 0:
            return units.KIND_PLANES, {"x2": 1, "y2": 0, "z2": 0, "rhs": 1}
        return units.KIND_SPHERE, {"x2": 1, "y2": -a, "z2": -a, "rhs": 1}

    def calls(self, index: int) -> List[Call]:
        seed = self.pass_seed(index)
        calls = []
        for A, ref in zip(self.newton, self.newton_refs):
            calls.append(Call(
                "newton",
                lambda A=A: units.solve_units_sampled(
                    A, seeds=self.newton_seeds, tol=UNIT_TOL, seed=seed),
                lambda out, ref=ref: self._judge_newton(ref, out)))
        for A, want in zip(self.grid, self.grid_refs):
            calls.append(Call(
                "grid",
                lambda A=A: units.grid_unit_search(
                    A, radius=self.radius, step=GRID_STEP, tol=UNIT_TOL),
                lambda out, want=want: self._judge_grid(want, out)))
        for (A, params), (ref, want) in zip(self.loci, self.loci_refs):
            calls.append(Call(
                "locus",
                lambda A=A, a=params["a"]: self._locus(A, a, seed),
                lambda out, ref=ref, want=want: self._judge_locus(ref, want, out)))
        return calls

    @staticmethod
    def _locus(A, a, seed):
        locus = units.classify_locus_tn(A)
        extra = [] if locus.complete else units.rational_locus_points(
            A, Fraction(a), 10, seed=seed)
        return locus, extra

    @staticmethod
    def _judge_newton(ref: RefTable, locus) -> bool:
        coords = [tuple(q.coords) for q in locus.points]
        return (locus.kind == units.KIND_CLOUD and bool(coords)
                and len(set(coords)) == len(coords)
                and all(ref.unit_residual_ok(q, UNIT_TOL) for q in coords))

    @staticmethod
    def _judge_grid(want: set, points) -> bool:
        coords = [tuple(q.coords) for q in points]
        return len(set(coords)) == len(coords) and set(coords) == want

    @staticmethod
    def _judge_locus(ref: RefTable, want, out) -> bool:
        locus, extra = out
        kind, equation = want
        if locus.kind != kind:
            return False
        points = [tuple(q.coords) for q in list(locus.points) + list(extra)]
        if not all(ref.unit_residual_ok(q) for q in points):
            return False
        if kind == units.KIND_FINITE:
            i_pair = {tuple(Fraction(int(p == 1)) * s for p in range(4)) for s in (1, -1)}
            return locus.equation is None and set(points) == i_pair
        if {k: Fraction(v) for k, v in locus.equation.items()} != \
                {k: Fraction(v) for k, v in equation.items()}:
            return False
        if not extra:
            return False
        for q in points:
            x, y, z = q[1], q[2], q[3]
            value = equation["x2"] * x * x + equation["y2"] * y * y \
                + equation["z2"] * z * z
            if q[0] != 0 or value != equation["rhs"]:
                return False
        return True


WORKLOADS = {w.name: w for w in (PaperSuite, IdentitySweep, UnitLoci)}
