"""Self-test of the benchmark harness: its checks must catch doctored outputs.

    python3 perfbench/selftest.py

Each case runs a check on a genuine output (which must pass) and on a doctored
copy (which must fail):

* a `shots.csv` in which one shot fires half a diameter after the previous
  one. The genuine run is one straight strip. On it the tip's travel and
  the straight-line spacing agree, so the case also shows that
  `checks.spacing_defects` finds nothing where the package keeps its pitch;
* a merged cloud in which one of the nine views is placed 5 mm and 2 degrees
  off its true pose;
* a `simulate --surface` call on a cloud without normals, whose `ValueError`
  must count as a failed operation rather than crash the harness.

The genuine viewpoints, register, segment and plan stages of `c10_motion`
must pass their checks too. It also checks that the metric names in
`BENCHMARK.json` are the ones the harness prints. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import numpy as np

import checks
import gen
import run
import tracing

WORK = os.path.join(run.OUT_ROOT, "selftest")


def expect(label: str, problems: list, want_failure: bool) -> bool:
    ok = bool(problems) == want_failure
    verdict = "caught" if problems else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({'; '.join(problems)})" if problems else ""))
    return ok


def benchmark_names_match() -> bool:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    want = [n for n, *_ in tracing.LAYER_METRICS] + ["cli.trace_overhead_s"]
    problems = []
    if e2e != list(run.JSON_END_TO_END):
        problems.append(f"end_to_end {e2e} != {list(run.JSON_END_TO_END)}")
    if layer != want:
        problems.append("per_layer names differ from tracing.LAYER_METRICS")
    return expect("BENCHMARK.json metric names", problems, False)


def straight_strip(path: str, n: int = 11, length: float = 0.1) -> None:
    """paths.json holding one straight strip of n targets."""
    gen.write_json(path, [
        {"segment_label": "line", "strip_index": 0, "x": float(x), "y": 0.0, "z": 0.45,
         "nx": 0.0, "ny": 0.0, "nz": -1.0}
        for x in np.linspace(-0.5 * length, 0.5 * length, n)])


def simulate_cases(cli) -> bool:
    inp, out = os.path.join(WORK, "c10", "in"), os.path.join(WORK, "c10", "out")
    truth = gen.generate("c10_motion", 1, inp)
    config = os.path.join(inp, "config.json")
    stages = run.workload_stages("c10_motion", inp, out, truth)
    runner = run.Runner(cli, stages[:4], config, out, truth)
    runner.run_pass()
    ok = expect("genuine c10_motion stages up to plan",
                [p for r in runner.problems for p in r["problems"]], False)

    line = os.path.join(WORK, "line")
    os.makedirs(line)
    straight_strip(os.path.join(line, "paths.json"))
    shots_csv = os.path.join(line, "shots.csv")
    sim = run.Stage("simulate", ["simulate", "--paths", os.path.join(line, "paths.json"),
                                 "--out-shots", shots_csv,
                                 "--out-traj", os.path.join(line, "traj.csv")],
                    ["shots.csv", "traj.csv"],
                    lambda s: checks.check_simulate(line, truth, s, False))
    runner = run.Runner(cli, [sim], config, line, truth)
    runner.call(sim, None)
    ok &= expect("genuine simulate on one straight strip",
                 [p for r in runner.problems for p in r["problems"]], False)
    ok &= expect("straight-line spacing on one straight strip",
                 checks.spacing_defects(checks.simulate_figures(line, truth)), False)

    shots = checks.read_csv(shots_csv)
    traj = checks.read_csv(os.path.join(line, "traj.csv"))
    k = len(shots) // 2
    times = [float(r["time_s"]) for r in traj]
    mid = 0.5 * (float(shots[k - 1]["time_s"]) + float(shots[k]["time_s"]))
    row = traj[int(np.searchsorted(times, mid))]
    shots[k].update({c: row[c] for c in ("time_s", "x", "y", "z")})
    with open(shots_csv, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(shots[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(shots)
    stdout = f"simulated 1 segments: {len(shots)} shots -> {shots_csv}"
    ok &= expect("shots.csv with one short spacing",
                 checks.check_simulate(line, truth, stdout, False), True)
    ok &= expect("straight-line spacing with one short spacing",
                 checks.spacing_defects(checks.simulate_figures(line, truth)), True)

    scan_view = os.path.join(WORK, "scan", "in", "view0.ply")
    bad = run.Stage("simulate", ["simulate", "--paths", os.path.join(out, "paths.json"),
                                 "--surface", scan_view, "--out-shots",
                                 os.path.join(out, "shots.csv")],
                    ["shots.csv"], lambda s: [])
    runner = run.Runner(cli, [bad], config, out, truth)
    runner.call(bad, None)
    ok &= expect("simulate --surface without normals",
                 [p for r in runner.problems for p in r["problems"]], True)
    return ok


def merged_from_truth(inp: str, truth: dict, out: str, mispose: np.ndarray | None):
    """Write merged.ply/icp.json placing every view at its true pose."""
    inv0 = np.linalg.inv(np.asarray(truth["true_poses"][0]))
    parts = []
    for k, pose in enumerate(truth["true_poses"]):
        _, rec = checks.read_ply(os.path.join(inp, f"view{k}.ply"))
        m = inv0 @ np.asarray(pose)
        if k == 1 and mispose is not None:
            m = m @ mispose
        parts.append(checks.xyz(rec) @ m[:3, :3].T + m[:3, 3])
    pts = np.vstack(parts)
    leaf = 0.002
    _, inverse = np.unique(np.floor(pts / leaf).astype(np.int64), axis=0,
                           return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.bincount(inverse)
    merged = np.stack([np.bincount(inverse, pts[:, c]) / counts for c in range(3)], 1)
    os.makedirs(out, exist_ok=True)
    gen.write_ply(os.path.join(out, "merged.ply"), merged)
    gen.write_json(os.path.join(out, "icp.json"),
                   [{"converged": True, "iterations": 1, "rmse": 0.0}] * (truth["views"] - 1))


def register_cases() -> bool:
    inp = os.path.join(WORK, "scan", "in")
    out = os.path.join(WORK, "scan", "out")
    truth = gen.generate("scan_60k", 1, inp)
    merged_from_truth(inp, truth, out, None)
    ok = expect("merged cloud at true poses", checks.check_register(out, truth, ""), False)
    err = np.eye(4)
    err[:3, :3] = gen.rodrigues(np.radians([0.0, 2.0, 0.0]))
    err[:3, 3] = [0.005, 0.0, 0.0]
    merged_from_truth(inp, truth, out, err)
    ok &= expect("merged cloud with view 1 mis-posed",
                 checks.check_register(out, truth, ""), True)
    return ok


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "facelaser", "cli.py")):
        print(f"error: no facelaser sources under {run.SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    cli = run.import_package()
    ok = benchmark_names_match()
    ok &= register_cases()
    ok &= simulate_cases(cli)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
