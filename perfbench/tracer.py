"""Wrappers installed from the benchmark's side around altkit's public
functions: a verdict tally (always on) and span tracing (traced run only).

Both replace attributes on altkit's modules and classes at run time and put
the originals back afterwards; altkit's source is not touched.  Callers
inside altkit reach the wrappers too, because the package calls across
modules through module attributes (``identities.check_identity``) and
methods through the class.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, List, Optional

from altkit import catalog, claims, cli, core, identities, lie, linalg, structure, units

LAYERS = ("core", "linalg", "catalog", "identities", "units", "structure", "lie",
          "claims", "cli")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__.get(attr)
        if original is None:  # gone from this version of the package
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- verdict tally -----------------------------------------------------------------


def _strength(name: str, result) -> str:
    """'proof' for exhaustive-basis reports, complete grids and finite exact
    loci; 'sampled' for everything else."""
    if name == "check_identity":
        return "proof" if result.method == "exhaustive-basis" else "sampled"
    if name == "grid_unit_search":
        return "proof"
    if name == "classify_locus_tn":
        return "proof" if result.complete else "sampled"
    return "sampled"  # is_division_sampled, solve_units_sampled


VERDICT_FUNCTIONS = ((identities, "check_identity"), (identities, "is_division_sampled"),
                     (units, "grid_unit_search"), (units, "solve_units_sampled"),
                     (units, "classify_locus_tn"))


class VerdictTally:
    """Counts every verdict the program reports, by function and strength,
    and the points the unit searches return."""

    def __init__(self):
        self.counts: Counter = Counter()  # (function name, strength) -> count
        self.points: Counter = Counter()  # newton.points, newton.starts, grid.points
        self._patches = Patches()

    def install(self) -> None:
        for module, name in VERDICT_FUNCTIONS:
            self._patches.replace(module, name, functools.partial(self._wrap, name))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts, points = self.counts, self.points
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name, _strength(name, result)] += 1
            if name == "solve_units_sampled":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                # start points: every +-basis vector plus the random seeds
                points["newton.starts"] += 2 * bound.arguments["A"].dim \
                    + bound.arguments["seeds"]
                points["newton.points"] += len(result.points)
            elif name == "grid_unit_search":
                points["grid.points"] += len(result)
            return result
        return tallied

    def snapshot(self) -> tuple:
        return Counter(self.counts), Counter(self.points)

    def since(self, snap: tuple) -> tuple:
        """(verdicts, points) counted after the snapshot was taken."""
        return self.counts - snap[0], self.points - snap[1]


def strength_totals(verdicts: Counter, functions=None) -> Counter:
    """Proof and sampled totals, optionally for some functions only."""
    out = Counter()
    for (name, strength), c in verdicts.items():
        if functions is None or name in functions:
            out[strength] += c
    return out


# -- span tracing ------------------------------------------------------------------

# Public functions and methods traced per module.  Scalar helpers that run
# once per coordinate (parse_scalar, scalar_is_zero, random_rational, ...)
# and Element equality and hashing are left out: tracing them would cost
# more than the work they do, and their time stays in the caller's span.
MODULE_FUNCTIONS = {
    catalog: ("ak", "tn", "tn_special_case", "tc", "tp", "mplus", "mzero",
              "quaternions", "complex_numbers", "build", "tn_params"),
    linalg: ("identity_matrix", "transpose", "matvec", "matmul", "rref", "rank",
             "null_space", "det", "inverse", "solve", "row_basis", "in_span"),
    identities: ("is_partially_alternative", "is_strictly_middle",
                 "is_division_sampled", "random_element"),
    units: ("verify_unit", "solve_units_sampled", "rational_locus_points",
            "classify_locus_tn", "locus_sample_points", "equation_satisfied",
            "grid_unit_search"),
    structure: ("commutative_nucleus", "is_isomorphism", "is_automorphism",
                "reflection_decompose", "target_algebra", "classify_middle_c"),
    lie: ("lieify", "check_jacobi", "derived_series", "derived_dims",
          "canonical_brackets", "match_canonical", "tp_lie_algebra",
          "classify_tp_lie", "classify_lie"),
    claims: ("run_claims",),
    cli: ("main", "resolve_algebra", "units_for"),
}
ALGEBRA_METHODS = ("element", "basis", "basis_elements", "zero", "one", "by_label",
                   "multiply", "associator", "commutator", "left_matrix",
                   "right_matrix", "mul_operator", "to_float", "to_dict")
ELEMENT_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__truediv__", "is_zero")
MULOP_METHODS = ("det", "is_singular")


class Tracer:
    """Spans (name, start, end, parent) kept in memory in flat arrays."""

    def __init__(self):
        self.names: List[str] = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = Patches()

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def truncate(self, size: int) -> None:
        """Drop every span from index ``size`` on."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[size:]

    def _wrap(self, fn: Callable, namer: Callable) -> Callable:
        name_arr, parent_arr = self.name, self.parent
        start_arr, end_arr, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_arr)
            name_arr.append(namer(args, kwargs))
            parent_arr.append(stack[-1])
            end_arr.append(0.0)
            stack.append(idx)
            start_arr.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_arr[idx] = perf_counter()
                stack.pop()
        return traced

    def _fixed(self, name: str) -> Callable:
        nid = self.name_id(name)
        return lambda args, kwargs: nid

    def _by_mode(self, method: str, mode_of: Callable) -> Callable:
        ids = {mode: self.name_id(f"core.{mode}.{method}") for mode in ("exact", "float")}
        return lambda args, kwargs: ids[mode_of(args[0])]

    def _by_kind(self) -> Callable:
        ids = {kind: self.name_id(f"identities.check_identity[{kind.value}]")
               for kind in identities.IdentityKind}
        Kind = identities.IdentityKind

        def namer(args, kwargs):
            kind = args[1] if len(args) > 1 else kwargs["kind"]
            return ids[Kind(kind)]
        return namer

    def install(self) -> None:
        p = self._patches
        for module, names in MODULE_FUNCTIONS.items():
            layer = module.__name__.split(".")[-1]
            for fname in names:
                p.replace(module, fname,
                          lambda fn, n=f"{layer}.{fname}": self._wrap(fn, self._fixed(n)))
        p.replace(identities, "check_identity",
                  lambda fn: self._wrap(fn, self._by_kind()))
        p.replace(core.Algebra, "__init__",
                  lambda fn: self._wrap(fn, self._fixed("core.init")))
        for owner, methods, mode_of in (
                (core.Algebra, ALGEBRA_METHODS, lambda a: a.scalar_mode),
                (core.Element, ELEMENT_METHODS, lambda e: e.algebra.scalar_mode),
                (core.MulOperator, MULOP_METHODS,
                 lambda m: m.element.algebra.scalar_mode)):
            for method in methods:
                p.replace(owner, method,
                          lambda fn, m=method, f=mode_of: self._wrap(fn, self._by_mode(m, f)))
        for method in ("__init__", "bracket", "to_dict"):
            p.replace(lie.LieAlgebra, method,
                      lambda fn, m=method: self._wrap(fn, self._fixed(f"lie.LieAlgebra.{m}")))
        # claim functions are held by the CLAIMS list, one span name per group
        saved = list(claims.CLAIMS)
        for i, claim in enumerate(saved):
            claims.CLAIMS[i] = dataclasses.replace(
                claim, fn=self._wrap(claim.fn, self._fixed(f"claims.{claim.group}")))
        self._saved_claims = saved

    def uninstall(self) -> None:
        claims.CLAIMS[:] = self._saved_claims
        self._patches.restore()

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
