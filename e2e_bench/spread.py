#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median, quartiles
and spread (IQR as a share of the median, the figure BENCHMARK.json's bounds
are set against).

    python3 e2e_bench/spread.py --workload eosio_sweep --seeds 1-10 [--trace 0]

Run from the repository root. The command and run length come from
BENCHMARK.json; every result line is checked to carry exactly the metrics
BENCHMARK.json lists for the chosen trace mode, with their units.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    listed = bench["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    bounds = {m["name"]: m.get("bound") for m in listed}

    values = {name: [] for name in units}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - start
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        if not result["correct"] or set(metrics) != set(units):
            sys.exit(f"seed {seed}: bad result line {result}")
        for name, m in metrics.items():
            if m["unit"] != units[name]:
                sys.exit(f"seed {seed}: {name} unit {m['unit']} != {units[name]}")
            values[name].append(m["value"])
        first = listed[0]["name"]
        print(f"seed {seed}: {first} {metrics[first]['value']:.6g}; attempted "
              f"{result['attempted']} failed {result['failed']}; {elapsed:.1f}s; "
              + run.stderr.strip().splitlines()[0], flush=True)

    print(f"{'metric':32} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "" if bound is None or spread < bound / 3 else "  above bound/3"
        print(f"{name:32} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
