"""Metric definitions and the arithmetic that produces them.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
traced passes: a layer's self time is the time of its spans minus the time
of their child spans, and ``<group>.s`` metrics add up the whole time of the
outermost span of a group (a span inside another span of the same group is
not counted twice).  Per-layer values are means per traced pass, so the
layers' self times plus ``bench.self_s`` add up to ``trace.pass_s``.  All
times are in reference seconds (see calibration.py).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Dict, List

from altkit.identities import IdentityKind

from .tracer import LAYERS, strength_totals

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "verdict_p50_ms": ("ms", "lower"),
    "verdict_p90_ms": ("ms", "lower"),
    "proof_share": ("ratio", "higher"),
    "agree_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

KINDS = tuple(kind.value for kind in IdentityKind)
CLAIM_GROUPS = ("ak", "cassoc", "middle", "locus", "classify", "strict",
                "reflection", "lie", "props")

# inclusive-time metric -> span names of its group
GROUPS = {
    **{f"identities.{k}.s": (f"identities.check_identity[{k}]",) for k in KINDS},
    "identities.division.s": ("identities.is_division_sampled",),
    "identities.strictly-middle.s": ("identities.is_strictly_middle",),
    "units.newton.s": ("units.solve_units_sampled",),
    "units.grid.s": ("units.grid_unit_search",),
    "units.locus.s": ("units.classify_locus_tn", "units.rational_locus_points",
                      "units.locus_sample_points", "units.equation_satisfied"),
    "structure.nucleus.s": ("structure.commutative_nucleus",),
    "structure.morphism.s": ("structure.is_isomorphism", "structure.is_automorphism"),
    "structure.reflection.s": ("structure.reflection_decompose",),
    "structure.classify.s": ("structure.classify_middle_c",),
    "lie.lieify.s": ("lie.lieify",),
    "lie.jacobi.s": ("lie.check_jacobi",),
    "lie.derived.s": ("lie.derived_series", "lie.derived_dims"),
    "lie.classify.s": ("lie.classify_lie", "lie.classify_tp_lie"),
    **{f"claims.{g}.s": (f"claims.{g}",) for g in CLAIM_GROUPS},
}
# call-count metric -> span names counted (every span, nested or not)
COUNTS = {
    "core.multiply.calls": ("core.exact.multiply", "core.float.multiply"),
    "core.associator.calls": ("core.exact.associator", "core.float.associator"),
    "units.newton.calls": ("units.solve_units_sampled",),
    "units.verify.calls": ("units.verify_unit",),
}
# measured over the traced set-up (building the workload's tables)
SETUP_METRICS = ("catalog.build.s", "catalog.build.calls", "core.init.s")

PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "core.exact.self_s": ("s", "lower"),
    "core.float.self_s": ("s", "lower"),
    **{name: ("count", "lower") for name in COUNTS},
    "linalg.calls": ("count", "lower"),
    **{name: ("s", "lower") for name in GROUPS},
    "identities.proof_verdicts": ("count", "higher"),
    "identities.sampled_verdicts": ("count", "lower"),
    "units.newton.points_per_start": ("ratio", "higher"),
    "units.grid.points": ("count", "lower"),
    "catalog.build.s": ("s", "lower"),
    "catalog.build.calls": ("count", "lower"),
    "core.init.s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def end_to_end(walls: List[float], latencies: List[float], verdicts: Counter,
               attempted: int, failed: int, peak_rss_mb: float) -> Dict[str, float]:
    totals = strength_totals(verdicts)
    judged = totals["proof"] + totals["sampled"]
    return {
        "pass_s": statistics.median(walls),
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdict_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "proof_share": totals["proof"] / judged if judged else 0.0,
        "agree_share": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def _group_of(names: List[str]) -> Dict[int, str]:
    by_name = {span: metric for metric, spans in GROUPS.items() for span in spans}
    out = {}
    for nid, name in enumerate(names):
        if name in by_name:
            out[nid] = by_name[name]
        elif name.startswith("catalog."):
            out[nid] = "catalog.build.s"
        elif name == "core.init":
            out[nid] = "core.init.s"
    return out


def analyse_spans(tracer, lo: int, hi: int) -> Dict[str, float]:
    """Self time per layer, group times and call counts for spans [lo, hi)."""
    names = tracer.names
    name_arr, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
    group_of = _group_of(names)
    layer_of = [n.split(".")[0] for n in names]
    dur = [end[i] - start[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    top = 0.0
    for i in range(lo, hi):
        p = parent[i]
        if p < 0:
            top += dur[i - lo]
        else:
            child[p - lo] += dur[i - lo]

    out: Dict[str, float] = defaultdict(float)
    calls = Counter()
    open_spans: List[int] = []
    depth = Counter()
    for i in range(lo, hi):
        nid = name_arr[i]
        calls[nid] += 1
        own = dur[i - lo] - child[i - lo]
        out[f"{layer_of[nid]}.self_s"] += own
        mode = names[nid].split(".")[1] if layer_of[nid] == "core" else ""
        if mode in ("exact", "float"):
            out[f"core.{mode}.self_s"] += own
        # ancestors of i are the open spans up to its parent
        while open_spans and open_spans[-1] != parent[i]:
            depth[group_of.get(name_arr[open_spans.pop()])] -= 1
        group = group_of.get(nid)
        if group is not None and depth[group] == 0:
            out[group] += dur[i - lo]
            if group == "catalog.build.s":
                out["catalog.build.calls"] += 1
        open_spans.append(i)
        depth[group] += 1
    by_name = {names[nid]: c for nid, c in calls.items()}
    for metric, spans in COUNTS.items():
        out[metric] = sum(by_name.get(s, 0) for s in spans)
    out["linalg.calls"] = sum(c for n, c in by_name.items() if n.startswith("linalg."))
    out["spans.top_s"] = top
    return out


def per_layer(traced: List[dict], setup: Dict[str, float], setup_speed: float,
              overheads: List[float]) -> Dict[str, float]:
    """Means over traced passes, times in reference seconds.  Each pass dict
    holds its span analysis, 'wall' (the sum of its call latencies), 'speed'
    (reference over wall seconds), and 'verdicts' and 'points' from the tally."""
    def scale(name: str, value: float, speed: float) -> float:
        return value * speed if PER_LAYER[name][0] == "s" else value

    count = len(traced)
    out = {name: 0.0 for name in PER_LAYER}
    points = Counter()
    for t in traced:
        speed = t["speed"]
        for key, value in t["spans"].items():
            if key in out and key not in SETUP_METRICS:
                out[key] += scale(key, value, speed) / count
        out["bench.self_s"] += (t["wall"] - t["spans"]["spans.top_s"]) * speed / count
        out["trace.pass_s"] += t["wall"] * speed / count
        ident = strength_totals(t["verdicts"], ("check_identity", "is_division_sampled"))
        out["identities.proof_verdicts"] += ident["proof"] / count
        out["identities.sampled_verdicts"] += ident["sampled"] / count
        points.update(t["points"])
    if points["newton.starts"]:
        out["units.newton.points_per_start"] = points["newton.points"] / points["newton.starts"]
    out["units.grid.points"] = points["grid.points"] / count
    for name in SETUP_METRICS:
        out[name] = scale(name, setup.get(name, 0.0), setup_speed)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out
