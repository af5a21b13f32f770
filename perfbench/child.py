"""One workload in one fresh process: set up, run passes, print the result.

Started by run.py as ``python3 -m perfbench.child`` from the checkout root
with ``src`` on PYTHONPATH.  The last stdout line is a JSON object.  With
``--setup-only`` the process only imports altkit and builds the workload's
tables, and prints the set-up time.  Every time it reports is in reference
seconds (see calibration.py).
"""

from time import perf_counter

SETUP_START = perf_counter()  # set-up is timed from before altkit is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import List, Optional  # noqa: E402

import altkit  # noqa: E402
import numpy  # noqa: E402

from . import metrics  # noqa: E402
from .calibration import Calibrator, speed_factor  # noqa: E402
from .tracer import Tracer, VerdictTally  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402


@dataclass
class Record:
    call: object
    start: float
    latency: float        # wall seconds
    reference: float      # the latency in reference seconds
    out: object
    err: Optional[BaseException]


def run_pass(calls) -> List[Record]:
    """Issue the calls one after another.  Kernel samples for the
    calibration are taken between calls, outside every latency."""
    cal = Calibrator()
    cal.sample(force=True)
    raw = []
    for call in calls:
        start = perf_counter()
        try:
            out, err = call.run(), None
        except Exception as exc:  # a raising call is a failed call, not a crash
            out, err = None, exc
        raw.append((call, start, perf_counter() - start, out, err))
        cal.sample()
    cal.sample(force=True)
    return [Record(call, start, lat, cal.scale(start, lat), out, err)
            for call, start, lat, out, err in raw]


def judge(records: List[Record]) -> int:
    """Number of calls that raised or disagree with the reference."""
    failed = 0
    for r in records:
        if r.err is not None:
            failed += 1
            print(f"# {r.call.label} raised {type(r.err).__name__}: {r.err}",
                  file=sys.stderr)
            continue
        try:
            ok = r.call.judge(r.out)
        except Exception as exc:  # malformed output the reference cannot read
            print(f"# {r.call.label} output unreadable: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"# {r.call.label} disagrees with the reference", file=sys.stderr)
    return failed


class Run:
    """Passes, outcomes and timings of one workload run."""

    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.tally = VerdictTally()
        self.wall_passes: List[float] = []       # untraced passes, wall seconds
        self.reference_passes: List[float] = []  # the same in reference seconds
        self.latencies: List[float] = []         # reference seconds
        self.attempted = 0
        self.failed = 0

    def one_pass(self, index: int, tracer: Optional[Tracer] = None):
        """(records, verdicts, points, first span index) of one pass."""
        calls = self.wl.calls(index)
        snap = self.tally.snapshot()
        lo = len(tracer) if tracer is not None else 0
        if tracer is not None:
            tracer.install()
        try:
            records = run_pass(calls)
        finally:
            if tracer is not None:
                tracer.uninstall()
        verdicts, points = self.tally.since(snap)
        self.attempted += len(records)
        self.failed += judge(records)
        if tracer is None:
            self.wall_passes.append(sum(r.latency for r in records))
            self.reference_passes.append(sum(r.reference for r in records))
        return records, verdicts, points, lo

    def _time_left(self, start: float, done: int) -> bool:
        """Whether another pass (or pair) like the ones so far still fits."""
        elapsed = perf_counter() - start
        return elapsed + elapsed / done <= self.seconds

    def untraced(self) -> dict:
        start = perf_counter()
        verdicts = Counter()
        index = 0
        while True:
            records, v, _, _ = self.one_pass(index)
            index += 1
            self.latencies.extend(r.reference for r in records)
            verdicts.update(v)
            if not self._time_left(start, index):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics.end_to_end(self.reference_passes, self.latencies, verdicts,
                                  self.attempted, self.failed, rss_mb)

    def traced(self, tracer: Tracer, setup: dict, setup_speed: float) -> dict:
        """Pairs of passes on the same inputs, one traced and one not, in
        alternating order; per-layer numbers come from the traced ones.
        Spans of the set-up and the first traced pass are kept for writing;
        later passes' spans are dropped once analysed, to bound memory."""
        start = perf_counter()
        traced, overheads = [], []
        index = 0
        while True:
            pair = {}
            for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
                records, verdicts, points, lo = self.one_pass(
                    index, tracer if is_traced else None)
                pair[is_traced] = sum(r.reference for r in records)
                if is_traced:
                    wall = sum(r.latency for r in records)
                    traced.append({"wall": wall, "speed": pair[True] / wall,
                                   "spans": metrics.analyse_spans(tracer, lo, len(tracer)),
                                   "verdicts": verdicts, "points": points})
                    if len(traced) > 1:
                        tracer.truncate(lo)
            overheads.append(pair[True] - pair[False])
            index += 1
            if not self._time_left(start, index):
                break
        return metrics.per_layer(traced, setup, setup_speed, overheads)


def environment(args) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "altkit": altkit.__file__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="file the traced run's spans are written to")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl.build()
    setup_wall = perf_counter() - SETUP_START
    if tracer is not None:
        tracer.uninstall()
    speed = speed_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall * speed}))
        return 0

    wl.prepare()
    run = Run(wl, args.seconds)
    run.tally.install()
    try:
        if tracer is not None:
            setup_spans = metrics.analyse_spans(tracer, 0, len(tracer))
            values = run.traced(tracer, setup_spans, speed)
        else:
            values = run.untraced()
            values["setup_s"] = setup_wall * speed
    finally:
        run.tally.uninstall()
    if tracer is not None and args.spans:
        tracer.write(args.spans)

    info = environment(args)
    info.update(passes=len(run.wall_passes), calls=run.attempted,
                pass_wall_s=[round(w, 6) for w in run.wall_passes],
                pass_reference_s=[round(w, 6) for w in run.reference_passes])
    print("# info " + json.dumps(info))
    names = metrics.PER_LAYER if tracer is not None else metrics.END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
