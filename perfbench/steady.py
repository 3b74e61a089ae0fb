#!/usr/bin/env python3
"""Steadiness and A/B runs of the simulator benchmark.

Run from the root of a git checkout of the simulator.

  python3 perfbench/steady.py sets [--workloads W ...]
      Two sets of ten runs of this tree's build, each run with its own
      seed (set A seeds 1..10, set B seeds 11..20). For every workload
      and end-to-end metric it prints each set's median and quartiles
      and the spread (Q3 - Q1) / median, and says whether the sets
      agree: every spread within the metric's bound, the two medians
      apart by no more than the bound in either direction, and the
      same share of failed requests.

  python3 perfbench/steady.py ab --base COMMIT [--workloads W ...]
      Builds COMMIT from `git archive` in a fresh tree and build
      directory under .bench_ab/, with this tree's perfbench/ copied
      in so both sides run identical benchmark code. Then runs ten
      interleaved pairs (the same seed on both sides, alternating
      which side goes first) and prints each side's median and
      quartiles per metric, and how many pairs each side won.

Every run lasts BENCHMARK.json's run_seconds; bounds and metric
directions come from there too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10   # runs per set in `sets`, and pairs in `ab`


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(tree, workload, seed, seconds, trace=0):
    """One benchmark run in checkout `tree`; returns its JSON result."""
    out = subprocess.run(
        ["python3", os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {workload} seed {seed}"
                 f" in {tree}\n{out.stdout}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(out.stdout, file=sys.stderr)
    return result


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0
    if metric["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def summarize(values):
    """(Q1, median, Q3, spread) as statistics.quantiles(n=4) gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return q1, q2, q3, spread


def cmd_sets(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = []
    for s in range(2):
        seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
        results = {w: [] for w in workloads}
        for w in workloads:
            for seed in seeds:
                r = run_once(ROOT, w, seed, seconds)
                results[w].append(r)
                print(f"set {'AB'[s]} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in
                    r["metrics"].items()), flush=True)
        sets.append(results)

    ok = True
    print()
    print(f"{'workload':16} {'metric':14} {'set':3} {'median':>12} "
          f"{'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        shares = []
        for results in sets:
            shares.append(sum(r["failed"] for r in results[w]) /
                          sum(r["attempted"] for r in results[w]))
            ok = ok and all(r["correct"] for r in results[w])
        if len(set(shares)) > 1:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results[w]]
                q1, q2, q3, spread = summarize(values)
                medians.append(q2)
                within = spread <= metric["bound"]
                ok = ok and within
                print(f"{w:16} {name:14} {'AB'[s]:3} {q2:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                      f"{metric['bound']:6.2f}"
                      f"{'' if within else '  SPREAD OVER BOUND'}")
            drift = worse_by(metric, medians[0], medians[1])
            agree = abs(drift) <= metric["bound"]
            ok = ok and agree
            print(f"{'':16} {name:14} B vs A: {drift:+.3f} "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("\nsteady: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


def build_base(commit):
    """Fresh tree of `commit` with this tree's perfbench/ copied in."""
    sha = subprocess.run(["git", "rev-parse", "--short", commit],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    tree = os.path.join(ROOT, ".bench_ab", sha)
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {sha} failed")
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def cmd_ab(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"base": build_base(args.base), "this": ROOT}
    for tree in sides.values():  # build both before timing anything
        run_once(tree, workloads[0], 1, 1)
    for w in workloads:
        results = {side: [] for side in sides}
        for pair in range(RUNS):
            order = ["base", "this"] if pair % 2 == 0 else ["this", "base"]
            for side in order:
                r = run_once(sides[side], w, pair + 1, seconds)
                results[side].append(r)
            rates = {side: results[side][-1]["metrics"]["sim_req_per_s"]
                     ["value"] for side in sides}
            print(f"{w} pair {pair + 1}: " + "  ".join(
                f"{side} {rate:.6g}" for side, rate in rates.items()),
                flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = {side: [r["metrics"][name]["value"]
                           for r in results[side]] for side in sides}
            for side in sides:
                q1, q2, q3, spread = summarize(vals[side])
                print(f"{w:16} {name:14} {side:5} median {q2:12.6g} "
                      f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:.3f}")
            wins = sum(1 for b, t in zip(vals["base"], vals["this"])
                       if worse_by(metric, b, t) < 0)
            losses = sum(1 for b, t in zip(vals["base"], vals["this"])
                         if worse_by(metric, b, t) > 0)
            print(f"{w:16} {name:14} this better in {wins}, worse in "
                  f"{losses} of {RUNS} pairs")
        for side in sides:
            if not all(r["correct"] for r in results[side]):
                print(f"{w}: {side} failed its checks")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_sets = sub.add_parser("sets")
    p_sets.add_argument("--workloads", nargs="*")
    p_ab = sub.add_parser("ab")
    p_ab.add_argument("--base", required=True)
    p_ab.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    spec = load_spec()
    return cmd_sets(args, spec) if args.cmd == "sets" else cmd_ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
