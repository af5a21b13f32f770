"""Fast tests of the benchmark itself, on a tiny size of each workload.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, reference, workloads  # noqa: E402
from perfbench.child import Run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def launch(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metric_table():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        [(n, u, b) for n, (u, b) in metrics.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(n, u, b) for n, (u, b) in metrics.PER_LAYER.items()]
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed(workload, trace):
    proc = launch(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert result["metrics"]["agree_share"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_without_the_package_source_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = launch(tmp_path, "paper-suite", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def one_pass(workload):
    workload.build()
    workload.prepare()
    run = Run(workload, seconds=0)
    run.tally.install()
    try:
        run.one_pass(0)
    finally:
        run.tally.uninstall()
    return run


def test_checker_counts_a_wrong_expected_claim_outcome():
    assert one_pass(workloads.PaperSuite(3, "tiny")).failed == 0
    wl = workloads.PaperSuite(3, "tiny")
    wl.expected["ak.dimension"] = False
    assert one_pass(wl).failed == 1


def test_checker_counts_a_wrong_law_verdict(monkeypatch):
    wl = workloads.IdentitySweep(3, "tiny")
    assert one_pass(wl).failed == 0
    honest = reference.RefTable.law_holds
    monkeypatch.setattr(reference.RefTable, "law_holds",
                        lambda self, kind, c=None: not honest(self, kind, c)
                        if kind == "associative" else honest(self, kind, c))
    wl = workloads.IdentitySweep(3, "tiny")
    # one associative verdict per table, exact and float copies of each
    assert one_pass(wl).failed == len(wl.tables)


def test_checker_counts_a_wrong_grid_or_locus_answer(monkeypatch):
    wl = workloads.UnitLoci(3, "tiny")
    assert one_pass(wl).failed == 0
    wl = workloads.UnitLoci(3, "tiny")
    wl.build()
    wl.prepare()
    wl.grid_refs[0] = set(list(wl.grid_refs[0])[1:])  # forget one grid point
    wl.loci_refs[0] = (wl.loci_refs[0][0], (workloads.units.KIND_SPHERE, None))
    run = Run(wl, seconds=0)
    run.one_pass(0)
    assert run.failed == 2


def test_a_forged_witness_is_rejected():
    from altkit import catalog
    H = catalog.quaternions()
    ref = reference.RefTable(H.sc, H.unit, H.eps)
    i, j = [0, 1, 0, 0], [0, 0, 1, 0]
    assert ref.witness_ok("commutative", i, j, None, [0, 0, 0, 2])
    assert not ref.witness_ok("commutative", i, j, None, [0, 0, 0, 1])
    assert not ref.witness_ok("associative", i, j, i, [0, 0, 0, 0])


def test_self_times_and_outermost_groups():
    tracer = Tracer()
    # grid (0..10) > verify (1..3); locus (10..20) > rational points (12..19)
    spans = [("units.grid_unit_search", 0, 10, -1), ("units.verify_unit", 1, 3, 0),
             ("units.classify_locus_tn", 10, 20, -1),
             ("units.rational_locus_points", 12, 19, 2)]
    for name, start, end, parent in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    out = metrics.analyse_spans(tracer, 0, len(tracer))
    assert out["units.self_s"] == 20
    assert out["units.grid.s"] == 10
    assert out["units.locus.s"] == 10  # the nested locus span is not added again
    assert out["units.verify.calls"] == 1
    assert out["spans.top_s"] == 20
