"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py [--runs 10] [--first-seed 0] [--workloads sweep,ties]

Set A uses seeds first-seed .. first-seed+runs-1 and set B the next ``runs``
seeds.  For every workload and end-to-end metric it prints each set's
quartiles, the spread (q3 - q1) / median, and how far set B's median is
worse than set A's, next to the metric's bound from BENCHMARK.json.  A
spread (other than that of setup_s) or a shift above the bound, or a
different share of failed operations, is flagged and makes the exit code 1.
Each run's result line is appended to perfbench/out/compare.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "compare.jsonl")

    flagged = False
    for workload in names:
        sets = []
        for first in (args.first_seed, args.first_seed + args.runs):
            results = []
            for seed in range(first, first + args.runs):
                result = run_once(spec, workload, seed)
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                if not result["correct"]:
                    flagged = True
                    print(f"{workload} seed {seed}: a check failed", file=sys.stderr)
                results.append(result)
            sets.append(results)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"\n{workload}: failed share A {shares[0]:.6f}  B {shares[1]:.6f}")
        if shares[0] != shares[1]:
            flagged = True
        print(f"  {'metric':20s} {'unit':6s} {'bound':>6s}  {'A q1':>11s} {'A median':>11s} "
              f"{'A q3':>11s} {'A spr':>6s}  {'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
              f"{'B spr':>6s} {'worse':>7s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = [statistics.quantiles([r["metrics"][name]["value"] for r in rs], n=4)
                    for rs in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in cols]
            a, b = cols[0][1], cols[1][1]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            over = worse > bound or (name != "setup_s" and max(spreads) > bound)
            flagged = flagged or over
            print(f"  {name:20s} {metric['unit']:6s} {bound:6.3f}  "
                  + "  ".join(f"{c[0]:11.4f} {c[1]:11.4f} {c[2]:11.4f} {s:6.3f}"
                              for c, s in zip(cols, spreads))
                  + f" {worse:+7.3f}" + ("  OVER" if over else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
