#!/usr/bin/env python3
"""Build and run the paper-geometry benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-batch --seed 2005 --seconds 20 --trace 0

The script builds perfbench/bench.exe with dune (the simulator libraries
are compiled from source in the checkout), runs one workload and relays
its output.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The exit code is
non-zero when the build fails, the run fails its correctness checks or
the run overruns its time limit.

--workload all runs the three workloads one after the other and ends
with one JSON object whose metric names are prefixed by the workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["paper-batch", "paper-serve", "paper-dynamic"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# A run must end within 180 s; keep a margin for start-up and exit.
RUN_LIMIT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    return proc.returncode == 0 and os.path.exists(EXE)


def revision():
    """git revision when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    # Stop git at this directory, so a checkout that is not a repository
    # does not report the revision of one that encloses it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_workload(workload, args, rev, deadline):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", rev,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.time())
        )
    except subprocess.TimeoutExpired:
        print("perfbench: %s overran its time limit" % workload, file=sys.stderr)
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return (lines, result), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "lib"]:
        if not os.path.exists(needed):
            print("perfbench: no %s here; run from the repository root" % needed,
                  file=sys.stderr)
            return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rev = revision()

    if args.workload != "all":
        got, code = run_workload(args.workload, args, rev, time.time() + RUN_LIMIT_S)
        if got is None:
            return code
        lines, result = got
        print("\n".join(lines))
        return code if result is not None else (code or 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        got, code = run_workload(workload, args, rev, time.time() + RUN_LIMIT_S)
        status = status or code
        if got is None or got[1] is None:
            return status or 1
        lines, result = got
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = m
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
