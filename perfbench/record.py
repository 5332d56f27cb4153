#!/usr/bin/env python3
"""Record a baseline: run every workload over several seeds and write
results/BENCH_<tag>.json.

    python3 perfbench/record.py --tag seed --seeds 1-10

For each seed in turn it runs every workload with --trace 0 (seeds outside,
workloads inside, so slow drift of the machine spreads over all of them),
then one --trace 1 run per workload with the first seed.  Per end-to-end
metric it stores the ten values, their median and quartiles, and the spread
(q3 - q1) / median that BENCHMARK.json's bound is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, machine_info

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            runs[w].append(bench(w, seed, spec["run_seconds"], 0))
            print(w, seed, {k: round(v["value"], 4) for k, v in runs[w][-1]["metrics"].items()},
                  flush=True)
    out = {"tag": args.tag, "machine": machine_info(), "run_seconds": spec["run_seconds"],
           "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        rec = {"attempted": sum(r["attempted"] for r in runs[w]),
               "failed": sum(r["failed"] for r in runs[w]), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            rec["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values}
            print(f"{w:11s} {m['name']:12s} median {statistics.median(values):10.4g} "
                  f"spread {spread:.3f} (bound {m['bound']})", flush=True)
        traced = bench(w, args.seeds[0], spec["run_seconds"], 1)
        rec["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        rec["attempted"] += traced["attempted"]
        rec["failed"] += traced["failed"]
        out["workloads"][w] = rec
    path = HERE / "results" / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
