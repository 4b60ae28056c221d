#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload in two sets separated in time.

Each set runs every workload in BENCHMARK.json once per seed 1-10, for the
run length BENCHMARK.json names; the second set starts two minutes after the
first ends. For every end-to-end metric it prints, per set, the median and
quartiles of the runs, the spread (quartile distance as a share of the
median) and how far the second set's median moved from the first's in the
metric's worse direction (drift), against the metric's bound.

    python3 perfbench/steady.py                       # print the table
    python3 perfbench/steady.py --json steady.json    # also save every run

The benchmark counts as steady when every spread is at most a third of its
metric's bound, every drift is within the bound, and the share of failed
operations is the same in both sets. `setup_s` is gated on its drift only:
its bound is there to catch work moved into set-up, not to bound the noise of
a short set-up across seeds.

Run it from the repository root. It builds nothing itself: the benchmark
command does (`cargo run --release` on first use).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
SETS = 2
GAP_S = 120


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", help="write every run and summary to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    runs = {w: [] for w in workloads}  # workload -> list of sets -> list of results
    for s in range(SETS):
        if s:
            print(f"# waiting {GAP_S} s before set {s + 1}", file=sys.stderr)
            time.sleep(GAP_S)
        for w in workloads:
            results = []
            for seed in SEEDS:
                r = run_once(bench["command"], w, seed, seconds)
                print(f"# set {s + 1} {w} seed {seed}: attempted {r['attempted']} failed {r['failed']} "
                      f"wall {r['wall_s']:.1f} s", file=sys.stderr)
                results.append(r)
            runs[w].append(results)

    report = {}
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16} {'unit':<5} " + " ".join(
            f"{'set' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(SETS))
              + f" {'drift':>8} {'bound':>6}")
        fail_share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]]
        per_run = sorted({r["failed"] / r["attempted"] for rs in runs[w] for r in rs})
        report[w] = {"failed_share": fail_share, "metrics": {}}
        if any(not r["correct"] for rs in runs[w] for r in rs):
            ok = False
            print("  INCORRECT OUTPUT in some run")
        if len(per_run) != 1:
            ok = False
        for m in metrics:
            name = m["name"]
            sets = [summary([r["metrics"][name]["value"] for r in rs]) for rs in runs[w]]
            a, b = sets[0]["median"], sets[-1]["median"]
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spread_ok = name == "setup_s" or all(x["spread"] <= m["bound"] / 3 for x in sets)
            drift_ok = drift <= m["bound"]
            ok &= spread_ok and drift_ok
            cells = " ".join(f"{x['median']:>14.6g} [{x['q1']:.5g}, {x['q3']:.5g}] {x['spread']:>6.3f}"
                             .rjust(44) for x in sets)
            flag = "" if spread_ok and drift_ok else "  <-- over"
            print(f"  {name:<16} {m['unit']:<5} {cells} {drift:>8.3f} {m['bound']:>6}{flag}")
            report[w]["metrics"][name] = {"sets": sets, "drift": drift, "bound": m["bound"]}
        print(f"  failed/attempted per set: {fail_share}; distinct per-run shares: {per_run}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "seeds": list(SEEDS), "runs": runs, "summary": report}, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady: a spread exceeds a third of its bound, a median drifted past it,"
          " or the failed share differs between runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
