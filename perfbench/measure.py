#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/measure.py --seeds 10                      # every workload, end to end
    python3 perfbench/measure.py --workloads chaos --seeds 5     # one workload
    python3 perfbench/measure.py --trace 1 --seeds 3             # per-layer metrics
    python3 perfbench/measure.py --seeds 10 --record "label"     # append to results.jsonl

For each metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median. The command and run length
come from BENCHMARK.json, so this measures exactly what a single run does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results.jsonl")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Simulated outcomes that not every workload has, and the raw host
    # times, ride on their own line.
    for line in lines:
        if line.startswith("extra: ") and trace == 0:
            for k, v in json.loads(line[len("extra: "):]).items():
                if v["value"] is not None:
                    result["metrics"][k] = v
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    return result, wall


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=5, help="runs per workload, seeds 1..N")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="LABEL", help="append the summary to results.jsonl")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        values, units, walls = {}, {}, []
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(spec, name, seed, args.trace)
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(f"  {name} seed {seed}: {wall:.1f} s", file=sys.stderr)
        print(f"{name}: {args.seeds} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed {failed} of {attempted} operations")
        rows = {}
        for metric, vs in values.items():
            s = summarise(vs)
            rows[metric] = dict(s, unit=units[metric])
            bound = bounds.get(metric) if args.trace == 0 else None
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of its bound"
            print(f"  {metric:<28} median {s['median']:>16.6g} {units[metric]:<7} "
                  f"q1 {s['q1']:>14.6g}  q3 {s['q3']:>14.6g}  spread {s['spread']:6.3f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in vs))
        summary[name] = {"runs": args.seeds, "attempted": attempted, "failed": failed, "metrics": rows}

    if args.record:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        entry = {
            "label": args.record,
            "commit": sha or None,
            "date": time.strftime("%Y-%m-%d"),
            "host": f"{os.cpu_count()} cores",
            "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "workloads": summary,
        }
        with open(RESULTS, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"recorded -> {RESULTS}")


if __name__ == "__main__":
    main()
