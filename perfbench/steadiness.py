#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarizes how
steady each end-to-end metric is.

    python3 perfbench/steadiness.py --runs 10 [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Every workload of BENCHMARK.json runs once per seed 1..runs, for its
run_seconds, untraced. For every (workload, metric) it reports the median,
quartiles (statistics.quantiles, n=4), range and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, plus the
steal time (host.steal_ms) each run saw and the host/build record of the
first run. Exit status 1 when any spread exceeds its bound.
--compare checks two such summaries of the same code: exit status 1 when a
second median is worse than the first by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def compare(first_path, second_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(first_path) as fh:
        first = json.load(fh)["workloads"]
    with open(second_path) as fh:
        second = json.load(fh)["workloads"]
    worst = 0.0
    for w, data in first.items():
        for name, r in data["metrics"].items():
            a = r["median"]
            b = second[w]["metrics"][name]["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            worst = max(worst, worse / r["bound"])
            print(f"{w:8} {name:24} {a:12.6g} {b:12.6g} worse {worse:+.4f} "
                  f"bound {r['bound']:.3f}")
    print(f"\nworst (second worse than first) / bound: {worst:.3f}")
    return 1 if worst > 1.0 else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"runs": args.runs, "seconds": seconds,
               "seeds": list(range(1, args.runs + 1)),
               "workloads": {}}
    tick_ms = 1000.0 / os.sysconf("SC_CLK_TCK")
    worst = 0.0
    for w in workloads:
        values = {}
        steal = []
        host = None
        for seed in summary["seeds"]:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True, check=True).stdout.strip().splitlines()
            record = json.loads(out[0])["record"]
            result = json.loads(out[-1])
            steal.append(record["steal_ticks"] * tick_ms)
            if host is None:
                host = {k: v for k, v in record.items()
                        if k not in ("seed", "traffic_digest", "steal_ticks",
                                     "setup_s_samples", "rounds")}
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()),
                file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "min": min(vals), "max": max(vals),
                          "spread": spread, "bound": bounds[name],
                          "values": vals}
            worst = max(worst, spread / bounds[name])
        summary["workloads"][w] = {"host": host,
                                   "host_steal_ms_per_run": steal,
                                   "metrics": rows}

    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    for w, data in summary["workloads"].items():
        print(f"\n{w}  steal ms per run: {data['host_steal_ms_per_run']}")
        print(f"  {'metric':24} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, r in data["metrics"].items():
            print(f"  {name:24} {r['median']:12.6g} {r['spread']:8.4f} "
                  f"{r['bound']:6.3f}")
    print(f"\nworst spread / bound: {worst:.3f}")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
