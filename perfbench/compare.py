#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect DIR [--seeds 1-10] [--workloads a,b]
    python3 perfbench/compare.py DIR                # one set: medians, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR   # two sets

`collect` runs perfbench/run.py once per workload and seed and keeps each
run's stdout as DIR/<workload>-seed<N>.out.  Comparing reads those files:

* deterministic counts (states, transitions, schedules, total steps,
  attack execution steps, spilled bytes) must match exactly, run by run,
  between runs of the same workload and seed;
* the share of failed operations must be the same;
* for each end-to-end metric it prints the median and quartiles of each
  set, the spread (interquartile distance over the median) and how much
  worse the new median is, against the metric's bound in BENCHMARK.json.

Exits 1 if a count differs, a failure share differs, a spread (other
than setup_s's) exceeds its bound, or a median got worse by more than
its bound.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args, spec):
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "1" if args.trace else "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=False)
            path = os.path.join(args.dir, f"{workload}-seed{seed}.out")
            with open(path, "w") as f:
                f.write(run.stdout)
            print(f"{workload} seed {seed}: exit {run.returncode}",
                  file=sys.stderr)


def read_set(directory):
    """{workload: {seed: (report, result)}} from a collected directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"{path}: no result", file=sys.stderr)
            continue
        report = json.loads(lines[-2])["perfbench_report"]
        result = json.loads(lines[-1])
        runs.setdefault(report["workload"], {})[report["seed"]] = (report,
                                                                   result)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def compare(base, new, spec):
    problems = 0
    metrics = spec["end_to_end"]
    for workload in sorted(set(base) | set(new)):
        a = base.get(workload, {})
        b = new.get(workload, {})
        print(f"== {workload}: {len(a)} base runs, {len(b)} new runs")
        for seed in sorted(set(a) & set(b)):
            ca, cb = a[seed][0]["counts"], b[seed][0]["counts"]
            if ca != cb:
                problems += 1
                diff = sorted(k for k in set(ca) | set(cb)
                              if ca.get(k) != cb.get(k))
                print(f"  COUNTS DIFFER at seed {seed}: {', '.join(diff)}")
        for side, runs in (("base", a), ("new", b)):
            shares = {r["failed"] / r["attempted"] for _, r in runs.values()}
            if len(shares) > 1:
                problems += 1
                print(f"  {side}: failure share varies across runs: {shares}")
        if a and b:
            sa = {r["failed"] / r["attempted"] for _, r in a.values()}
            sb = {r["failed"] / r["attempted"] for _, r in b.values()}
            if sa != sb:
                problems += 1
                print(f"  FAILURE SHARE DIFFERS: {sa} vs {sb}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            meds = []
            for runs in (a, b):
                values = [r["metrics"][name]["value"] for _, r in runs.values()
                          if name in r["metrics"]]
                if len(values) < 2:
                    cols.append("-")
                    meds.append(None)
                    continue
                med, q1, q3, spread = summary(values)
                meds.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    problems += 1
                    flag = " SPREAD>BOUND"
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                            f"spread {spread:.3f}{flag}")
            worse = ""
            if None not in meds and meds[0]:
                change = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    change = -change
                worse = f"worse by {change:+.3f} (bound {bound})"
                if change > bound:
                    problems += 1
                    worse += " REGRESSION"
            print(f"  {name:14s} {m['unit']:5s} base {cols[0]} | "
                  f"new {cols[1]} | {worse}")
    return problems


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        parser = argparse.ArgumentParser(prog="compare.py collect")
        parser.add_argument("dir")
        parser.add_argument("--seeds", default="1-10")
        parser.add_argument("--workloads", default="")
        parser.add_argument("--trace", action="store_true")
        collect(parser.parse_args(sys.argv[2:]), spec)
        return 0
    parser = argparse.ArgumentParser(prog="compare.py")
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args()
    base = read_set(args.base)
    new = read_set(args.new) if args.new else {}
    problems = compare(base, new, spec)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
