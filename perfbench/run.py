#!/usr/bin/env python3
"""Run one altkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; altkit is imported from its ``src``.  Each
workload runs in a fresh process with BLAS and OpenMP pinned to one thread.
Set-up time is the median over several fresh processes that only import
altkit and build the workload's tables.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  An
earlier line starting with ``# env`` records the versions, the seed and the
source it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 8      # extra set-up-only processes; the run itself is one more
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list, timeout: float) -> list:
    """Run ``python3 -m perfbench.child`` and return its stdout lines.

    subprocess.run kills and reaps the child if it overruns the timeout."""
    proc = subprocess.run([sys.executable, "-m", "perfbench.child", *args],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench.child exited with {proc.returncode}")
    return proc.stdout.splitlines()


def source_record() -> dict:
    """The commit when the checkout is a git work tree, and a digest of the
    package source either way (a driver checkout has no .git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "altkit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        else:
            commit = ref
    return {"commit": commit, "altkit_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-suite, identity-sweep or unit-loci")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few inputs of each workload (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "altkit" / "__init__.py").is_file():
        print(f"perfbench: no altkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    spans_dir = ROOT / ".perfbench"
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
        run_args += ["--spans", str(spans_dir / f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                lines = run_child(common + ["--setup-only"], PROBE_TIMEOUT_S)
                setup.append(json.loads(lines[-1])["setup_s"])
        lines = run_child(run_args, CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        setup_s = result["metrics"]["setup_s"]
        setup.append(setup_s["value"])
        setup_s["value"] = statistics.median(setup)
    info = next((json.loads(line[len("# info "):]) for line in lines
                 if line.startswith("# info ")), {})
    info.update(source_record(), setup_samples=setup)
    print("# env " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
