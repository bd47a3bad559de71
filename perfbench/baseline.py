"""Run the benchmark over ten seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--out FILE]

For every workload in `BENCHMARK.json`, seeds 1 to 10 each get one untraced
`run.py` process of `run_seconds`, run one after another. For every metric the
summary holds the ten values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
which must stay well inside the metric's bound. One traced run per workload,
with seed TRACE_SEED, adds its per-layer metrics. The summary also records
the machine it ran on; `baseline.json` beside this file is the first such
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"machine": machine_info(), "seconds": seconds, "seeds": SEEDS,
           "trace_seed": TRACE_SEED, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(wl, seed, seconds, 0))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"  {wl:14s} {name:12s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
        traced = run_once(wl, TRACE_SEED, seconds, 1)
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
