#!/usr/bin/env python3
"""Steadiness check for the solver benchmark.

    python3 solverbench/steadiness.py --runs 10 [--traced-runs 3] [--workloads tiny-bp,...]

Runs ``run.py`` repeatedly from the root of the checkout, one process at a
time, alternating the workloads, each run with another ``--seed``.  For every
workload and end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median, beside the bound in
``BENCHMARK.json``.  It fails if a run fails, if ``plan_cost`` or the share
of failed solves differs between runs, or if a per-layer count differs
between traced runs.  Traced runs add the tracing overhead (traced minus
untraced ``solve_s``) and each layer's share of self time.  The figures are
also written to ``solverbench/out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs")
    return result


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": list(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--traced-runs", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    plain = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for rep in range(max(args.runs, args.traced_runs)):
        for w in workloads:
            for trace, store, count in ((0, plain, args.runs), (1, traced, args.traced_runs)):
                if rep < count:
                    res = run_once(w, rep, bench["run_seconds"], trace)
                    store[w].append(res)
                    print(f"{w} seed={rep} trace={trace} "
                          f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    report = {}
    problems = []
    for w in workloads:
        rows = {}
        runs = plain[w]
        if len(runs) >= 2:
            shares = {r["failed"] / r["attempted"] for r in runs}
            if len(shares) != 1:
                problems.append(f"{w}: failed share differs between runs: {sorted(shares)}")
            costs = {r["metrics"]["plan_cost"]["value"] for r in runs}
            if len(costs) != 1:
                problems.append(f"{w}: plan_cost differs between runs: {sorted(costs)}")
            for name in bounds:
                rows[name] = spread([r["metrics"][name]["value"] for r in runs])
                rows[name]["bound"] = bounds[name]
        layers = {}
        if traced[w]:
            first = traced[w][0]["metrics"]
            for name, m in first.items():
                values = [r["metrics"][name]["value"] for r in traced[w]]
                if m["unit"] != "s" and len(set(values)) != 1:
                    problems.append(f"{w}: {name} differs between traced runs: {values}")
                layers[name] = statistics.median(values)
            if runs:
                solve = statistics.median(r["metrics"]["solve_s"]["value"] for r in runs)
                layers["overhead_s"] = layers["trace.solve_s"] - solve
        report[w] = {"runs": len(runs), "traced_runs": len(traced[w]), "end_to_end": rows,
                     "per_layer": layers}

        print(f"\n{w}: {len(runs)} runs, {len(traced[w])} traced")
        for name, row in rows.items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else "WIDE"
            print(f"  {name:12s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                  f"  spread {row['spread']:.4f}  bound {row['bound']}  {flag}")
        if layers:
            self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            if "overhead_s" in layers:
                print(f"  tracing overhead {layers['overhead_s']:.4f} s "
                      f"on traced solve_s {layers['trace.solve_s']:.4f} s")
            for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
                if name.endswith(".self_s") and value >= 0.001 * self_total:
                    print(f"  {name[:-7]:32s} self {value:9.4f} s  "
                          f"{100 * value / self_total:5.1f}%  calls "
                          f"{layers[name[:-7] + '.calls']:.0f}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    for msg in problems:
        print(f"NOT STEADY: {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
