"""facelaser benchmark: seeded pipeline workloads run through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, so the code measured is the code in that checkout. Each run:

1. sets up `SETUP_REPEATS` times: a fresh interpreter imports `facelaser` and
   generates the workload's inputs (`gen.py`); `setup_s` is the median;
   `setup_s` and `pipeline_s` are host-normalised (see `end_to_end`);
2. runs the workload's CLI stages in this process through
   `facelaser.cli.main`, one pass after another until `--seconds` have passed;
3. checks every stage's outputs (`checks.py`); a stage call plus its checks is
   one operation, and an exception escaping a stage is a failed operation.
   The package's known shot spacing defect (`checks.KNOWN_DEFECT`) is
   printed with every run and saved, but does not fail an operation;
4. prints a table of all figures, then one JSON line with `correct`,
   `attempted`, `failed` and the metrics.

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing. With `--trace 1` untraced and traced passes alternate, and the
metrics are the per-layer ones from the traced passes (`tracing.py`), plus the
tracing overhead. A traced run makes at least two traced passes, and the
counts in `tracing.EXACT_COUNTS` must be equal in all of them, or the run is
not correct. Scratch files, the full result and the spans go to
`.perfbench_out/<workload>/`.

Workloads (why each exists):

* c10_motion   - criterion-10 fixture: 5 exact views of the 6k face, all six
                 stages, head step and roll; the pure-Python tick loop of the
                 unguarded simulator dominates.
* scan_60k     - scan-to-plan at clinical density: 9 noisy 60k-face views at
                 perturbed poses; ICP, normals, voxel grid and PLY I/O
                 dominate, and the simulator is idle (the control for
                 simulator changes).
* guarded_240k - guarded treatment over the 240k-sample face: three
                 brute-force raycasts per tick and a re-anchoring copy of the
                 dense surface dominate.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
# The host reference: a fixed KD-tree build and query, timed REF_REPEATS times
# before the set-up, before every untraced pass and after the last pass. Of
# the kernels tried, it tracked the host's speed best (correlation 0.8 with
# the c10_motion pass time). It is benchmark code, so no change to the
# package can move it.
REF_REPEATS = 3
REF_NOMINAL_S = 0.1
MIN_TRACED_PASSES = 2


@dataclass
class Stage:
    name: str
    argv: list
    outputs: list                        # files or directories under out/
    check: Callable[[str], list]         # stdout -> problems
    prepare: Callable[[], None] | None = None


def workload_stages(workload: str, inp: str, out: str, truth: dict) -> list[Stage]:
    def i(name):
        return os.path.join(inp, name)

    def o(name):
        return os.path.join(out, name)

    def simulate_stage(guarded: bool, prepare=None) -> Stage:
        argv = ["simulate", "--paths", o("paths.json"), "--motion", i("motion.json"),
                "--out-shots", o("shots.csv"), "--out-traj", o("traj.csv")]
        if guarded:
            argv[3:3] = ["--surface", i("face.ply")]
        return Stage("simulate", argv, ["shots.csv", "traj.csv"],
                     lambda s: checks.check_simulate(out, truth, s, guarded), prepare)

    report = Stage("report", ["report", "--shots", o("shots.csv"), "--paths",
                              o("paths.json"), "--out", o("report.json"),
                              "--out-svg", o("overview.svg")],
                   ["report.json", "overview.svg"],
                   lambda s: checks.check_report(out, truth, s))

    def segment(cloud) -> Stage:
        return Stage("segment", ["segment", "--cloud", cloud, "--landmarks",
                                 i("lm.json"), "--camera", i("cam.json"),
                                 "--out-dir", o("segs")], ["segs"],
                     lambda s: checks.check_segment(out, truth, s, cloud))

    if workload == "guarded_240k":
        def shorten():
            # Keep the leading path points so the guarded run fits the run time.
            if os.path.exists(o("plan.json")):
                with open(o("plan.json"), encoding="utf-8") as f:
                    rows = json.load(f)
                gen.write_json(o("paths.json"), rows[:truth["path_points"]])

        return [
            segment(i("face.ply")),
            Stage("plan", ["plan", "--cloud", os.path.join(o("segs"), "nose.ply"),
                           "--label", "nose", "--out", o("plan.json")],
                  ["plan.json"], lambda s: checks.check_plan(out, truth, s, "plan.json")),
            simulate_stage(True, shorten),
            report,
        ]
    views = [i(f"view{k}.ply") for k in range(truth["views"])]
    stages = [
        Stage("viewpoints", ["viewpoints", "--face-pose", i("face_pose.json"),
                             "--out", o("vp.json")], ["vp.json"],
              lambda s: checks.check_viewpoints(out, truth, s)),
        Stage("register", ["register", "--views", *views, "--poses", o("vp.json"),
                           "--out", o("merged.ply"), "--icp-log", o("icp.json")],
              ["merged.ply", "icp.json"], lambda s: checks.check_register(out, truth, s)),
        segment(o("merged.ply")),
        Stage("plan", ["plan", "--segments", o("segs"), "--out", o("paths.json")],
              ["paths.json"], lambda s: checks.check_plan(out, truth, s, "paths.json")),
    ]
    if workload == "c10_motion":
        stages += [simulate_stage(False), report]
    return stages


def digest(out: str, names: list) -> str:
    """sha256 over the named output files (directory contents by name)."""
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(out, name)
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))] \
            if os.path.isdir(path) else [path]
        for f in files:
            h.update(os.path.relpath(f, out).encode())
            if os.path.exists(f):
                with open(f, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload's stages and records what happened."""

    def __init__(self, cli, stages, config: str, out: str, truth: dict):
        self.cli = cli
        self.stages = stages
        self.config = config
        self.out = out
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def call(self, stage: Stage, tracer) -> float:
        """One operation: a stage call plus its output checks.

        Returns the call's wall seconds; a failure goes to `problems`.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.open(f"cli.{stage.name}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(["--config", self.config, *stage.argv])
        except SystemExit as exc:        # argparse rejects its arguments
            code = exc.code
        except Exception as exc:         # noqa: BLE001  an escaping stage error
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code} {stderr.getvalue().strip()}".strip()]
        else:
            try:
                problems = stage.check(stdout.getvalue())
            except Exception as exc:     # noqa: BLE001  unreadable output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append({"stage": stage.name, "problems": problems})
        return wall

    def run_pass(self, tracer=None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        rec = {"traced": tracer is not None, "stage_s": {}, "digests": {}}
        for stage in self.stages:
            if stage.prepare is not None:
                stage.prepare()
            rec["stage_s"][stage.name] = self.call(stage, tracer)
            rec["digests"][stage.name] = digest(self.out, stage.outputs)
        rec["pipeline_s"] = sum(rec["stage_s"].values())
        sim_files = [os.path.join(self.out, f) for f in ("shots.csv", "traj.csv")]
        if "simulate" in rec["stage_s"] and all(map(os.path.exists, sim_files)):
            rec["simulate"] = checks.simulate_figures(self.out, self.truth)
            rec["sim_rtf"] = (rec["simulate"]["ticks"] / self.truth["control_rate_hz"]
                              / rec["stage_s"]["simulate"])
        return rec


def high_percentile(values: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100.0 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_REF_POINTS = np.random.default_rng(0).normal(size=(60_000, 3))
_REF_QUERY = np.random.default_rng(1).normal(size=(20_000, 3))


def host_reference(samples: list) -> None:
    """Append REF_REPEATS timings of the host reference kernel to samples."""
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        cKDTree(_REF_POINTS).query(_REF_QUERY, k=8)
        samples.append(time.perf_counter() - t0)


def setup(workload: str, seed: int, inp: str) -> list:
    """Time SETUP_REPEATS fresh-interpreter set-ups; the last one's inputs stay."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inp, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), workload,
                        str(seed), inp], check=True)
        times.append(time.perf_counter() - t0)
    return times


def import_package():
    sys.path.insert(0, SRC)
    import facelaser.cli
    where = os.path.realpath(facelaser.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"facelaser imported from {where}, not from {SRC}")
    return facelaser.cli


def end_to_end(runner: Runner, passes: list, setup_s: list, ref: list) -> list:
    """(name, unit, samples or value) rows; JSON_END_TO_END are the JSON metrics.

    `setup_s` and `pipeline_s` are host-normalised: wall seconds scaled by
    REF_NOMINAL_S over the run's median `host_ref_s`. The shared host's speed
    drifts by a third within minutes, and the wall times drift with it; the
    normalised ones drift far less. The wall times are printed beside them.
    """
    pipeline = [p["pipeline_s"] for p in passes]
    k = REF_NOMINAL_S / statistics.median(ref)
    rows = [("setup_s", "s", [t * k for t in setup_s]),
            ("pipeline_s", "s", [t * k for t in pipeline]),
            ("peak_rss_mb", "MB",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            ("setup_wall_s", "s", setup_s),
            ("pipeline_wall_s", "s", pipeline),
            ("host_ref_s", "s", ref)]
    for name in tracing.STAGES:
        samples = [p["stage_s"][name] for p in passes if name in p["stage_s"]]
        if samples:
            rows.append((f"{name}_s", "s", samples))
    rtf = [p["sim_rtf"] for p in passes if "sim_rtf" in p]
    if rtf:
        rows.append(("sim_rtf", "sim_s/s", rtf))
    rows.append(("ops_failed", "ratio", runner.failed / max(runner.attempted, 1)))
    return rows


# The stage times (wall), sim_rtf and ops_failed are printed, not in the JSON:
# not every workload runs every stage, and on a shared host the short stages
# (milliseconds) vary between runs by more than any bound allowed.
JSON_END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb")


def value_of(samples) -> float:
    return statistics.median(samples) if isinstance(samples, list) else float(samples)


def layer_metrics(tracer, passes: list) -> tuple[list, dict]:
    stats = [tracer.pass_stats(k) for k in range(len(tracer.passes))]
    rows = [(name, unit, [fn(s) for s in stats]) for name, unit, _, fn in tracing.LAYER_METRICS]
    untraced = [p["pipeline_s"] for p in passes if not p["traced"]]
    traced_s = [p["pipeline_s"] for p in passes if p["traced"]]
    rows.append(("cli.trace_overhead_s", "s",
                 statistics.median(traced_s) - statistics.median(untraced)))
    repeat = {name: len({fn(s) for s in stats}) == 1
              for name, _, _, fn in tracing.LAYER_METRICS if name in tracing.EXACT_COUNTS}
    return rows, repeat


def print_rows(rows) -> None:
    for name, unit, samples in rows:
        line = f"  {name:48s} {value_of(samples):>14.6g} {unit:8s}"
        if isinstance(samples, list):
            hp = high_percentile(samples)
            line += f" n={len(samples)}"
            line += f" p{hp[0]}={hp[1]:.6g}" if hp else " (n<11: median only)"
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "facelaser", "cli.py")):
        print(f"error: no facelaser sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(OUT_ROOT, args.workload)
    inp, out = os.path.join(work, "in"), os.path.join(work, "out")
    ref = []
    host_reference(ref)
    setup_s = setup(args.workload, args.seed, inp)
    cli = import_package()
    with open(os.path.join(inp, "truth.json"), encoding="utf-8") as f:
        truth = json.load(f)
    runner = Runner(cli, workload_stages(args.workload, inp, out, truth),
                    os.path.join(inp, "config.json"), out, truth)

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    t_end = time.perf_counter() + args.seconds
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            tracer.install()
            tracer.begin_pass()
            try:
                passes.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracer.end_pass()
        else:
            host_reference(ref)
            passes.append(runner.run_pass())
        if time.perf_counter() >= t_end and (
                tracer is None or len(tracer.passes) >= MIN_TRACED_PASSES):
            break
    host_reference(ref)

    print(f"facelaser benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": passes, "problems": runner.problems}
    correct = runner.failed == 0
    if tracer is None:
        rows = end_to_end(runner, passes, setup_s, ref)
        metrics = {n: (u, value_of(s)) for n, u, s in rows if n in JSON_END_TO_END}
    else:
        rows, repeat = layer_metrics(tracer, passes)
        metrics = {n: (u, value_of(s)) for n, u, s in rows}
        result["counts_repeat"] = repeat
        differ = [name for name, same in repeat.items() if not same]
        if differ:
            correct = False
            runner.problems.append({"stage": "trace", "problems": [
                f"{name} differs between traced passes" for name in differ]})
        tracer.save(os.path.join(work, "spans.npz"))
        stats = tracer.pass_stats(0)
        if "simulate" in passes[1]["stage_s"]:
            kids = stats.child_seconds("cli.simulate")
            print(f"  cli.simulate span {stats.seconds('cli.simulate'):.4f} s = "
                  f"self {stats.self_seconds('cli.simulate'):.4f} s + children "
                  + " + ".join(f"{k} {v:.4f} s" for k, v in kids.items()))
        print(f"  counts repeat across {len(tracer.passes)} traced passes: {repeat}")
    print_rows(rows)
    last = passes[-1]
    if "simulate" in last:
        print(f"  simulate figures: {last['simulate']}")
    defects = collections.Counter(text for p in passes if "simulate" in p
                                  for text in checks.spacing_defects(p["simulate"]))
    result["known_defects"] = dict(defects)
    for text, n in defects.items():
        print(f"  KNOWN DEFECT, not gated, {n}x: {checks.KNOWN_DEFECT}: {text}")
    print("  output sha256: " + ", ".join(f"{k}={v[:12]}" for k, v in last["digests"].items()))
    failures = collections.Counter(f"{p['stage']}: {'; '.join(p['problems'])}"
                                   for p in runner.problems)
    for text, n in failures.most_common(10):
        print(f"  FAILED {n}x {text}")
    result["rows"] = rows
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
