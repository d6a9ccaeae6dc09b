#!/usr/bin/env python3
"""End-to-end benchmark of the CATAPULT library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine_select --seed 1 --seconds 25 --trace 0

Builds the library and the benchmark program from source with CMake into
.bench_build/perfbench (RelWithDebInfo, the repository's default build type),
then runs one workload. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. Exits non-zero when the build fails, any panel is wrong, or
the metrics reported are not the ones BENCHMARK.json declares.

Workloads (see BENCHMARK.json for why each exists):
  mine_select   one-shot mining, selection-bound (exact-GED diversity)
  mine_cluster  one-shot sharded mining, clustering-bound (MCS, CSG folds)
  serve_mix     open-loop traffic against an in-process server: cache hits
                beside cold, cache-bypassing selections

--trace 1 runs the traced pass instead: per-layer metrics, a Chrome trace and
a layer table under .bench_build/perfbench/results.

Other modes:
  --selftest              build and run the benchmark's own tests
  --record-digests NAME   print the committed-digest lines of a workload
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def declared_metrics_problem(result_line, traced):
    """Why a result's metrics differ from those BENCHMARK.json declares for
    its kind of run (per_layer when traced, end_to_end otherwise), or None.
    BENCHMARK.json is the one list of names and units; the program's tables
    are checked against it on every run."""
    try:
        metrics = json.loads(result_line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return "no result line"
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    want = [(m["name"], m["unit"]) for m in declared]
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(got) != sorted(want):
        return ("metrics %s differ from BENCHMARK.json's %s"
                % (sorted(set(got) ^ set(want)),
                   "per_layer" if traced else "end_to_end"))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", metavar="NAME")
    args = parser.parse_args()

    os.chdir(ROOT)
    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.call([os.path.abspath(
            os.path.join(BUILD, "perfbench_selftest"))], cwd=BUILD)

    if not build("catapult_perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "catapult_perfbench")
    common = ["--workdir", os.path.join(BUILD, "work"),
              "--results-dir", os.path.join(BUILD, "results"),
              "--repo", ".", "--digests", os.path.join("perfbench", "digests.txt")]
    if args.record_digests:
        return subprocess.call([binary, "--record-digests", args.record_digests] +
                               common[:2])
    if not args.workload:
        parser.error("--workload is required")
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", args.trace] + common,
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    problem = declared_metrics_problem(lines[-1] if lines else "",
                                       args.trace == "1")
    if problem:
        # Hold the result back: it does not report what BENCHMARK.json says.
        print("\n".join(lines[:-1]))
        print("perfbench: " + problem, file=sys.stderr)
        return 1
    print(run.stdout, end="")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
