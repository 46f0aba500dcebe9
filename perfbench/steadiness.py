#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of fresh runs agree.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--first-seed 1]

Runs every workload --runs times in each of two sets of fresh processes,
one seed per run (set two uses the next --runs seeds). For every end-to-end
metric it prints each set's median and quartiles and the spread
(Q3 - Q1) / median, and says whether:
  - each spread is within the metric's bound in BENCHMARK.json (and whether
    it is below a third of it, the target). setup_s is exempt: it is one
    cold set-up per run, and the bound on it guards its median only; its
    spread is printed;
  - the second set's median is not worse than the first's by more than the
    bound, for every metric;
  - the share of failed operations is the same in both sets.
Exits 0 when every check holds. Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    values = "  ".join(f"{k}={v['value']:.6g}"
                       for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed}: attempted {result['attempted']} "
          f"failed {result['failed']}  {values}", file=sys.stderr,
          flush=True)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n" +
                         "\n".join(lines[-4:-1]))
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    ok = True
    for name in names:
        sets = []
        for s in range(2):
            base = args.first_seed + s * args.runs
            runs = [run_once(name, base + i, bench["run_seconds"])
                    for i in range(args.runs)]
            sets.append(runs)
        print(f"== {name}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        for m in metrics:
            key, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [summary([r["metrics"][key]["value"] for r in rs])
                     for rs in sets]
            notes = []
            for i, (med, q1, q3, spread) in enumerate(stats):
                print(f"  {key:16s} set{i + 1}: median {med:12.6g}  "
                      f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.2%}")
                if key == "setup_s":
                    continue
                if spread > bound:
                    notes.append(f"set{i + 1} spread above bound {bound:.0%}")
                elif spread > bound / 3:
                    notes.append(f"set{i + 1} spread above target "
                                 f"{bound / 3:.1%}")
            m1, m2 = stats[0][0], stats[1][0]
            worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
            if worse > bound:
                notes.append(f"set2 median worse by {worse:.1%}")
            hard = [n for n in notes if "target" not in n]
            ok = ok and not hard
            print(f"  {key:16s} {'ok' if not hard else 'FAIL'} "
                  f"{'; '.join(notes)}")
        same = shares[0] == shares[1]
        ok = ok and same
        print(f"  failed share: {shares[0]:.6f} vs {shares[1]:.6f} "
              f"{'ok' if same else 'FAIL'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
