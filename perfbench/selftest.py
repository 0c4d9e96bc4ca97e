#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

usage (from the root of a checkout):  python3 perfbench/selftest.py

Checks, with short runs:
  1. every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is
     used once;
  2. every workload emits exactly the end-to-end metrics with --trace 0
     and exactly the per-layer metrics with --trace 1, all finite, and
     the traced run reports its tracing overhead;
  3. the output check fails a run whose second pass was perturbed
     (--inject-mismatch);
  4. in a directory holding only BENCHMARK.json and the benchmark's own
     files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    names = e2e + layer + [w["name"] for w in bench["workloads"]]
    check(all(NAME.match(n) for n in names), "metric and workload names match [A-Za-z0-9_.-]+")
    check(len(set(e2e + layer)) == len(e2e + layer), "metric names are unique")

    for w in (w["name"] for w in bench["workloads"]):
        for trace, want in (("0", e2e), ("1", layer)):
            proc = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace])
            res = result(proc)
            check(proc.returncode == 0 and res is not None, f"{w} --trace {trace} runs")
            if res is None:
                continue
            got = res["metrics"]
            check(sorted(got) == sorted(want), f"{w} --trace {trace} emits exactly its metrics")
            check(all(math.isfinite(v["value"]) for v in got.values()),
                  f"{w} --trace {trace} metrics are finite")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} --trace {trace} has no failed operation")
            if trace == "1":
                check("bench.trace_overhead_s" in got, f"{w} reports its tracing overhead")

    proc = run(["--workload", "clone-factory", "--seconds", "1", "--inject-mismatch"])
    res = result(proc)
    check(res is not None and not res["correct"] and res["failed"] >= 1,
          "the output check fails on an injected mismatch")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out"))
        proc = run(["--workload", "corun", "--seconds", "1"], cwd=bare)
        check(proc.returncode != 0 and result(proc) is None,
              "without the program's sources it exits non-zero and prints no result")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
