#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

usage (from the root of a checkout):
  python3 perfbench/steady.py --set NAME [--fixed-seed N]
  python3 perfbench/steady.py --render

Runs every workload 10 times at the run length BENCHMARK.json
fixes, interleaving the workloads so that host drift falls on all of
them alike.  Run i uses seed i (1, 2, ...); with --fixed-seed N every
run uses seed N, so that the spread is the host's alone.  For each end-to-end metric it
reports the median, the quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, and appends the set to the record.
With two or more sets in the record it also compares the last two:
the shift of each median in the metric's worse direction, against the
metric's bound.  The record is perfbench/steadiness.json; --render only
rewrites the markdown beside it (steadiness.md) against the bounds
BENCHMARK.json holds now.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
RECORD = os.path.join(HERE, "steadiness.json")
MARKDOWN = os.path.join(HERE, "steadiness.md")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_shift(first, second, better):
    """Relative change of the median in the metric's worse direction."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--set")
    ap.add_argument("--render", action="store_true")
    ap.add_argument("--fixed-seed", type=int)
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.render:
        with open(MARKDOWN, "w") as f:
            f.write(render_markdown(json.load(open(RECORD)), e2e))
        return
    if not args.set:
        ap.error("--set is required")

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = {w: [] for w in workloads}
    for i in range(RUNS):
        seed = args.fixed_seed if args.fixed_seed is not None else i + 1
        for w in workloads:
            res = run_once(w, seed, seconds)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {seed}: failed operations {res['failed']}")
            runs[w].append({"seed": seed, "attempted": res["attempted"],
                            "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    entry = {"set": args.set, "started": started, "run_seconds": seconds,
             "runs_per_workload": RUNS, "workloads": {}}
    for w in workloads:
        entry["workloads"][w] = {
            "runs": runs[w],
            "summary": {m: summarise([r["metrics"][m] for r in runs[w]]) for m in e2e},
        }
        for m in e2e:
            s = entry["workloads"][w]["summary"][m]
            print(f"{w:14s} {m:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {e2e[m]['bound']}")

    record = {"sets": []}
    if os.path.exists(RECORD):
        record = json.load(open(RECORD))
    record["sets"].append(entry)
    if len(record["sets"]) >= 2:
        a, b = record["sets"][-2], record["sets"][-1]
        for w in b["workloads"]:
            if w not in a["workloads"]:
                continue
            for m in e2e:
                shift = worse_shift(a["workloads"][w]["summary"][m]["median"],
                                    b["workloads"][w]["summary"][m]["median"], e2e[m]["better"])
                print(f"{w:14s} {m:14s} {a['set']} -> {b['set']}: worse by {shift:+.4f} "
                      f"(bound {e2e[m]['bound']})")
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    with open(MARKDOWN, "w") as f:
        f.write(render_markdown(record, e2e))


def seeds_of(st):
    seeds = sorted({r["seed"] for v in st["workloads"].values() for r in v["runs"]})
    if len(seeds) == 1:
        return f"every run at seed {seeds[0]}"
    return f"seeds {seeds[0]}-{seeds[-1]}, one per run"


def render_markdown(record, e2e):
    out = ["# Steadiness record", "",
           "Generated by `perfbench/steady.py` from `steadiness.json`. Each set runs every",
           "workload 10 times, workloads interleaved. spread = (q3 - q1) / median over",
           "the set's runs. A metric counts as steady when its spread stays within its bound",
           "(`setup_s` excepted) and its median does not worsen by more than the bound",
           "from one set to the next.", ""]
    for st in record["sets"]:
        out += [f"## Set {st['set']}", "",
                f"Started {st['started']}, {st['runs_per_workload']} runs per workload of "
                f"{st['run_seconds']} s, " + seeds_of(st) + ".", "",
                "| workload | metric | median | q1 | q3 | spread | bound |",
                "|---|---|---|---|---|---|---|"]
        for w, v in st["workloads"].items():
            for m, s in v["summary"].items():
                out.append(f"| {w} | {m} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                           f"| {s['spread']:.4f} | {e2e[m]['bound']} |")
        out.append("")
        out.append("Every run had zero failed operations (the set stops at the first that "
                   "does not).")
        out.append("")
    sets = record["sets"]
    for a, b in zip(sets, sets[1:]):
        out += [f"## Set {a['set']} -> set {b['set']}", "",
                "Relative change of each median in the metric's worse direction.", "",
                "| workload | metric | worse by | bound |", "|---|---|---|---|"]
        for w in b["workloads"]:
            if w not in a["workloads"]:
                continue
            for m in e2e:
                shift = worse_shift(a["workloads"][w]["summary"][m]["median"],
                                    b["workloads"][w]["summary"][m]["median"], e2e[m]["better"])
                out.append(f"| {w} | {m} | {shift:+.4f} | {e2e[m]['bound']} |")
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    main()
