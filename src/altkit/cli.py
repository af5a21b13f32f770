"""Command-line front end.

Verbs: describe, check, units, nucleus, decompose, classify, lieify,
verify-paper.  Algebras come either from the catalog (--algebra NAME with
repeatable --param key=value) or from a JSON file (--file PATH).  Reports
are newline-delimited JSON objects with --format json, readable text
otherwise.

Exit codes: 0 success; 1 a requested check failed (an identity does not
hold, or verify-paper had failing claims); 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import catalog, claims, identities, lie, structure, units
from .core import (
    Algebra,
    AlgebraError,
    ParameterError,
    default_eps,
    parse_scalar,
    tolerance,
)
from .identities import IdentityKind

CHECK_NAMES = [kind.value for kind in IdentityKind] + ["strictly-middle"]


def _add_common(parser: argparse.ArgumentParser, *reads: str,
                needs_algebra: bool = True):
    """The algebra source and --format, plus each of --eps, --seed and
    --samples named in ``reads`` (only the verbs that read a flag take it)."""
    if needs_algebra:
        parser.add_argument("--algebra", "--family", dest="algebra",
                            help="catalog family name (%s)" % ", ".join(catalog.FAMILY_NAMES))
        parser.add_argument("--file", help="path to an algebra JSON file")
        parser.add_argument("--param", action="append", default=[],
                            metavar="NAME=VALUE",
                            help="family parameter; repeatable")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    if "eps" in reads:
        parser.add_argument("--eps", type=float, default=None,
                            help="float comparison tolerance (default %s)" % default_eps())
    if "seed" in reads:
        parser.add_argument("--seed", type=int, default=0)
    if "samples" in reads:
        parser.add_argument("--samples", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altkit",
        description="Structure-constant toolkit for real nonassociative algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("describe", help="print an algebra (JSON round-trips)")
    _add_common(p)

    p = sub.add_parser("check", help="check one identity")
    _add_common(p, "eps", "seed", "samples")
    p.add_argument("--identity", required=True, choices=CHECK_NAMES)
    p.add_argument("--c-basis", default="0,1",
                   help="comma-separated basis indices spanning the "
                        "distinguished plane (default 0,1)")

    p = sub.add_parser("units", help="imaginary-unit locus")
    _add_common(p, "eps", "seed", "samples")

    p = sub.add_parser("nucleus", help="basis of the commutative nucleus")
    _add_common(p, "eps")

    p = sub.add_parser("decompose", help="split along a reflection")
    _add_common(p, "eps")
    p.add_argument("--reflection", default="1,1,-1,-1",
                   help="diagonal entries of the reflection (default 1,1,-1,-1)")
    p.add_argument("--reflection-file",
                   help="JSON file holding a full reflection matrix")

    p = sub.add_parser("classify",
                       help="classify a tn-family point up to isomorphism")
    _add_common(p, "eps")

    p = sub.add_parser("lieify", help="commutator Lie algebra and its type")
    _add_common(p, "eps")

    p = sub.add_parser("verify-paper",
                       help="run the built-in verification suite")
    _add_common(p, "seed", "samples", needs_algebra=False)
    p.add_argument("--only", default=None,
                   help="restrict to one claim group (e.g. ak, locus, lie)")

    return parser


def _parse_params(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--param expects NAME=VALUE, got {pair!r}")
        out[name] = parse_scalar(value)
    return out


def resolve_algebra(args) -> Algebra:
    if bool(args.algebra) == bool(args.file):
        raise ParameterError("give exactly one algebra source: --algebra or --file")
    if args.file:
        if args.param:
            raise ParameterError("--param only applies to catalog algebras")
        return Algebra.load(args.file)
    return catalog.build(args.algebra, **_parse_params(args.param))


def units_for(A: Algebra, samples: int, seed: int,
              eps: Optional[float]) -> Tuple[list, bool]:
    """Wire an imaginary-unit set for the partial checks.

    Returns (points, complete).  ak gets +-e1 (complete); the tn families
    their exact locus (complete when finite, else points sampled on it);
    tc, tp and complex only +-i (not complete: tc has other real units);
    anything else the Newton cloud.
    """
    name = A.family[0] if A.family else None
    if name == "ak":
        q = A.basis(1)
        return [q, -q], True
    if name in catalog.TN_FAMILIES:
        locus = units.classify_locus_tn(A)
        if locus.complete:
            return list(locus.points), True
        return units.locus_sample_points(locus, A, max(10, min(samples, 25)),
                                         seed=seed), False
    if name in ("tc", "tp", "complex"):
        q = A.basis(1)
        return [q, -q], False
    cloud = units.solve_units_sampled(A, seeds=samples, tol=eps, seed=seed)
    return list(cloud.points), False


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _c_span_from(args, A: Algebra):
    try:
        i1, i2 = (int(x) for x in args.c_basis.split(","))
    except ValueError:
        raise ParameterError(f"--c-basis expects two indices, got {args.c_basis!r}")
    return (A.basis(i1), A.basis(i2))


def cmd_describe(args) -> int:
    A = resolve_algebra(args)
    if args.format == "json":
        print(json.dumps(A.to_dict()))
        return 0
    lines = [f"dimension {A.dim}, scalars {A.scalar_mode}",
             "basis: " + " ".join(A.labels)]
    width = max(len(str(lab)) for lab in A.labels) + 1
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            row.append(repr(A.multiply(A.basis(i), A.basis(j)))[1:-1])
        lines.append(f"{A.labels[i]:>{width}} | " + "  ".join(row))
    print("\n".join(lines))
    return 0


def cmd_check(args) -> int:
    A = resolve_algebra(args)
    eps = args.eps
    if args.identity == "strictly-middle":
        report = identities.is_strictly_middle(A, _c_span_from(args, A), eps=eps)
        _emit(args, report.to_dict(),
              ("strictly middle" if report.strict else "not strict")
              + f" (left holds: {report.left_holds}, right holds: {report.right_holds})")
        return 0 if report.strict else 1
    kind = IdentityKind(args.identity)
    kwargs = {"eps": eps}
    if kind in identities.PARTIAL_KINDS:
        points, complete = units_for(A, args.samples, args.seed, eps)
        if not points:
            raise AlgebraError("no imaginary units found to feed the partial check")
        kwargs.update(units=points, units_complete=complete)
    if kind in identities.C_ASSOC_KINDS:
        kwargs.update(c_span=_c_span_from(args, A))
    report = identities.check_identity(A, kind, **kwargs)
    text = f"{kind.value}: {'holds' if report.holds else 'FAILS'} [{report.method}]"
    if report.witness is not None:
        text += f"\n  witness x={report.witness.x} y={report.witness.y}" \
                f" z={report.witness.z} defect={report.witness.defect}"
    _emit(args, report.to_dict(), text)
    return 0 if report.holds else 1


def cmd_units(args) -> int:
    A = resolve_algebra(args)
    name = A.family[0] if A.family else None
    if name in catalog.TN_FAMILIES:
        locus = units.classify_locus_tn(A)
    else:
        locus = units.solve_units_sampled(A, seeds=args.samples, tol=args.eps,
                                          seed=args.seed)
    payload = locus.to_dict(max_points=50)
    text = f"locus kind: {locus.kind}"
    if locus.equation:
        eq = {k: str(v) for k, v in locus.equation.items()}
        text += f"\n  equation: {eq['x2']}*x^2 + {eq['y2']}*y^2 + {eq['z2']}*z^2" \
                f" = {eq['rhs']} on basis indices {list(locus.ambient)}"
    text += f"\n  points ({min(len(locus.points), 50)} shown): " + \
            " ".join(repr(p) for p in locus.points[:50])
    _emit(args, payload, text)
    return 0


def cmd_nucleus(args) -> int:
    A = resolve_algebra(args)
    basis = structure.commutative_nucleus(A, eps=args.eps)
    payload = {"dim": len(basis), "basis": [b.json_coords() for b in basis]}
    _emit(args, payload,
          f"commutative nucleus dimension {len(basis)}: "
          + " ".join(repr(b) for b in basis))
    return 0


def _reflection_matrix(args, A: Algebra):
    if args.reflection_file:
        with open(args.reflection_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ParameterError(f"the map must be a {A.dim}x{A.dim} matrix, a list of rows")
        return [[parse_scalar(x) for x in row] for row in data]
    diag = [parse_scalar(x) for x in args.reflection.split(",")]
    if len(diag) != A.dim:
        raise ParameterError(
            f"--reflection needs {A.dim} diagonal entries, got {len(diag)}"
        )
    return [[diag[i] if i == j else Fraction(0) for j in range(A.dim)]
            for i in range(A.dim)]


def cmd_decompose(args) -> int:
    A = resolve_algebra(args)
    phi = _reflection_matrix(args, A)
    dec = structure.reflection_decompose(A, phi, eps=args.eps)
    text = (
        "plus-plane: " + " ".join(repr(b) for b in dec.B_basis)
        + "\nminus-plane: " + " ".join(repr(c) for c in dec.C_basis)
        + "\ncanonical basis (1, i, w, v): "
        + " ".join(repr(e) for e in dec.tp_basis)
        + "\ntable scalars: "
        + ", ".join(f"{n}={v}" for n, v in zip(catalog.TP_PARAMS, dec.tp_params))
        + "\nverdicts: " + ", ".join(f"{k}={v}" for k, v in dec.verdicts.items())
    )
    _emit(args, dec.to_dict(), text)
    return 0


def cmd_classify(args) -> int:
    A = resolve_algebra(args)
    out = structure.classify_middle_c(A, eps=args.eps)
    text = f"type: {out.target}"
    if out.reason:
        text += f"\n  reason: {out.reason}"
    if out.witness is not None:
        text += f"\n  witness verified: {out.witness_verified}"
    _emit(args, out.to_dict(), text)
    return 0


def cmd_lieify(args) -> int:
    A = resolve_algebra(args)
    L = lie.lieify(A)
    ok, witness = lie.check_jacobi(L, tol=args.eps)
    classification = lie.classify_lie(L, eps=args.eps)
    dims = list(classification.derived)
    payload = {"brackets": L.to_dict()["brackets"], "jacobi": ok,
               "derived_dims": dims, "classification": None}
    text = f"jacobi: {ok}; derived dims: {dims}"
    if classification.type_tag != lie.TYPE_UNRECOGNIZED:
        payload["classification"] = classification.to_dict()
        text += (f"\n  type: {classification.type_tag}"
                 f" (alpha={classification.alpha_beta[0]},"
                 f" beta={classification.alpha_beta[1]},"
                 f" witness verified: {classification.witness_verified})")
    else:
        text += "\n  type: unrecognized (brackets are not in reflection-table shape)"
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    results = claims.run_claims(only=args.only, seed=args.seed, samples=args.samples)
    if not results:
        print(f"no claims match group {args.only!r}", file=sys.stderr)
        return 2
    failed = 0
    for res in results:
        if args.format == "json":
            print(json.dumps(res.to_dict()))
        else:
            mark = "PASS" if res.passed else "FAIL"
            line = f"{mark}  {res.id:<38} {res.description}"
            if not res.passed:
                line += f"\n      -> {res.detail}"
            print(line)
        failed += 0 if res.passed else 1
    if args.format == "text":
        print(f"{len(results) - failed}/{len(results)} claims passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "describe": cmd_describe,
    "check": cmd_check,
    "units": cmd_units,
    "nucleus": cmd_nucleus,
    "decompose": cmd_decompose,
    "classify": cmd_classify,
    "lieify": cmd_lieify,
    "verify-paper": cmd_verify,
}


@functools.lru_cache(maxsize=None)
def _parser(eps: float) -> argparse.ArgumentParser:
    """`build_parser()`, built once per process for each default eps that
    its --eps help shows: an argparse tree is a reference cycle."""
    return build_parser()


def _check_flags(args) -> None:
    """A bad --eps or a negative --samples is an input error on every verb
    that takes it, whichever path its table then takes."""
    if getattr(args, "eps", None) is not None:
        tolerance(args.eps)
    if getattr(args, "samples", 0) < 0:
        raise ParameterError(f"--samples must be nonnegative, got {args.samples}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser(default_eps()).parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.verb](args)
    except (AlgebraError, OSError, json.JSONDecodeError) as exc:
        print(f"altkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
