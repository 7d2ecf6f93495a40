#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the `stbench` program from source (stbench/CMakeLists.txt compiles the
simulator libraries in ../src), then runs one workload and passes its output
through. The last line of stdout is the program's JSON result.

    python3 stbench/run.py --workload paper-triangle --seed 1 --seconds 10 --trace 0
    python3 stbench/run.py --workload all --seed 1 --seconds 10 --trace 0

`--workload all` runs the three workloads one after another and prints a
table of every end-to-end metric; its last line is a JSON object keyed by
workload. Build output goes to stderr. The build tree is $CARGO_TARGET_DIR
(default `.bench_build`) under the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-triangle", "pair-faults-warm", "mesh64-sweep")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configure (once) and build the program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("stbench: simulator sources (src/) not found next to stbench/")
    out = os.path.join(build_dir(), "stbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "stbench", "-j", "4"],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(out, "stbench")


def run_one(exe, workload, args):
    spans = os.path.join(build_dir(), "spans-%s.csv" % workload)
    cmd = [
        exe,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--refs", os.path.join(HERE, "references.txt"),
    ]
    if args.trace:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("stbench: build failed: %s" % e)

    if args.workload != "all":
        code, out = run_one(exe, args.workload, args)
        sys.stdout.write(out)
        return code

    results, worst = {}, 0
    for w in WORKLOADS:
        code, out = run_one(exe, w, args)
        sys.stdout.write(out)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w] = None
    print("\n%-18s %-24s %16s" % ("workload", "metric", "value"))
    for w, r in results.items():
        if r is None:
            print("%-18s (no result)" % w)
            continue
        for name, m in r["metrics"].items():
            print("%-18s %-24s %16.6g %s" % (w, name, m["value"], m["unit"]))
        print("%-18s %-24s %16.6g frac" % (
            w, "failed_frac", r["failed"] / max(1, r["attempted"])))
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
