#!/usr/bin/env python3
"""Build and run the benchmark for one workload and one seed.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Builds perfbench/bench.exe with dune from the sources of the checkout this
file sits in, runs it, checks that its result line names exactly the
metrics BENCHMARK.json lists (end_to_end for --trace 0, per_layer for
--trace 1), and passes its output through. The last line of standard
output is the JSON result. Exits non-zero, printing no result, when the
build fails, when bench.exe fails (it refuses to run while any MM_* variable
is set), or when the result is malformed.
A traced run also writes a Chrome trace to perfbench/out/. "--workload all"
runs every workload in turn, each in its own process, and ends with a
table of every metric of every workload.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    """dune on PATH, else in an opam switch (whose bin/ then joins PATH).

    opam installs dune into the switch's bin/, which is on PATH only in a
    shell that has loaded the opam environment.
    """
    dune = shutil.which("dune")
    if dune:
        return dune
    opam_root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
    switch = os.environ.get("OPAMSWITCH", "")
    for cand in [os.path.join(opam_root, switch, "bin", "dune")] + sorted(
            glob.glob(os.path.join(opam_root, "*", "bin", "dune"))):
        if os.access(cand, os.X_OK):
            return cand
    fail("dune not found on PATH or in an opam switch")


def build():
    dune = find_dune()
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    cmd = [dune, "build", "--root", ROOT, "-j", "2", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            missing, extra, units)
    return None


def run_one(workload, args):
    """Run one workload; returns (output lines, result or None, problem or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(out_dir, "%s-seed%d.trace.json" % (workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], None, "benchmark timed out"
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        return lines, None, "benchmark exited with code %d" % r.returncode
    problem = check_result(lines[-1], args.trace)
    if problem:
        return lines[:-1], None, problem
    return lines, json.loads(lines[-1]), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    build()
    if args.workload != "all":
        lines, _, problem = run_one(args.workload, args)
        sys.stdout.write("\n".join(lines) + "\n")
        if problem:
            fail(problem)
        return
    table, problems = [], []
    for w in [w["name"] for w in spec()["workloads"]]:
        lines, res, problem = run_one(w, args)
        sys.stdout.write("\n".join(lines) + "\n")
        if problem:
            problems.append("%s: %s" % (w, problem))
            continue
        for name, m in res["metrics"].items():
            table.append((w, name, m["value"], m["unit"]))
        pct = 100.0 * res["failed"] / max(1, res["attempted"])
        table.append((w, "fail_pct", pct, "%"))
    print("\nall workloads, seed %d:" % args.seed)
    for w, name, value, unit in table:
        print("  %-12s %-32s %16.6f %s" % (w, name, value, unit))
    if problems:
        fail("; ".join(problems))


if __name__ == "__main__":
    main()
