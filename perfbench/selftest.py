#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (under a minute after the
first build). Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  1. every workload prints every metric BENCHMARK.json names, with its
     unit, untraced (end-to-end) and traced (per-layer), and passes;
  2. a planted reference mismatch makes the command fail;
  3. a planted VPIR_FAULT_RB_DROPINV on fuzz-campaign makes cells fail
     (failed > 0) and the command fail;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     command exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run(workload, trace, extra=(), env=None, cwd=ROOT, seed=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       env=dict(os.environ, **(env or {})), timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    failures = []

    def check(ok, what, stderr=""):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)
            if stderr:
                print(stderr[-3000:])

    for w in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v.get("unit") for k, v in
                   (res or {}).get("metrics", {}).items()}
            check(rc == 0 and res is not None and res["correct"] and
                  res["attempted"] >= 1 and res["failed"] == 0,
                  "%s trace=%d passes" % (w["name"], trace), err)
            check(got == want, "%s trace=%d prints every %s metric with "
                  "its unit" % (w["name"], trace, group),
                  "missing/extra: %s" % sorted(set(want) ^ set(got)))

    os.makedirs(SCRATCH, exist_ok=True)
    planted = os.path.join(SCRATCH, "reference.planted.txt")
    with open(os.path.join(HERE, "reference.txt")) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("paper-sweep tiny "):
            parts = line.split(" ")
            parts[3] = "%016x" % (int(parts[3], 16) ^ 1)
            lines[i] = " ".join(parts)
            break
    with open(planted, "w") as f:
        f.write("\n".join(lines) + "\n")
    rc, res, err = run("paper-sweep", 0, ["--reference", planted])
    check(rc != 0 and res is not None and not res["correct"] and
          "differ from the recorded reference" in err,
          "planted reference mismatch fails the command", err)

    # 0xd1ffe4 is the campaign seed of the repository's own planted-fault
    # proof (tools/CMakeLists.txt). At full size a campaign's thousand
    # programs catch the fault; forty tiny ones need a seed known to.
    rc, res, err = run("fuzz-campaign", 0, seed=0xd1ffe4,
                       env={"VPIR_FAULT_RB_DROPINV": "0.01"})
    check(rc != 0 and res is not None and res["failed"] > 0 and
          not res["correct"],
          "planted VPIR_FAULT_RB_DROPINV fails fuzz-campaign cells", err)

    bare = tempfile.mkdtemp(dir=SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, res, err = run("paper-sweep", 0, cwd=bare)
        check(rc != 0 and res is None,
              "without the simulator sources the command fails cleanly",
              err)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
