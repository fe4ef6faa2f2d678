#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--reference <file>] [--record <file>]

Run from the root of a checkout. The benchmark program (vpir_perfbench)
and the simulator libraries it links are compiled from the checkout's
src/ and perfbench/src/ into .bench_build/ (the first run builds; later
runs only check that the build is current). Build output goes to
stderr, so the last line of stdout is the program's JSON result. The
exit status is the program's: 0 when every output was correct, 1 when
a check failed, 2 on a usage or build error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-sweep", "fast-forward", "fuzz-campaign", "store-replay"]


def build(build_dir, env):
    """Configure (once) and build vpir_perfbench; return its path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "vpir_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(build_dir, "vpir_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: every workload in seconds")
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.txt"))
    ap.add_argument("--record", help="write digests here instead of "
                    "checking them (re-recording the reference)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/; run from the root of a full checkout",
              file=sys.stderr)
        return 2

    # Keep every file the build and the run write inside the checkout,
    # compiler temporaries included.
    bench_root = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, TMPDIR=os.path.join(bench_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(os.path.join(bench_root, "perfbench"), env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(bench_root, "work", tag)
    traces = os.path.join(bench_root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--reference", args.reference,
           "--trace-out", os.path.join(traces, tag + ".spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.record:
        cmd += ["--record", args.record]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
