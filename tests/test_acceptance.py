"""Behavior gates for the whole pipeline, one verdict line per criterion.

Every test here checks a shipped behavior end to end at a fixed tolerance and
records a single PASS/FAIL summary line; conftest replays the collected lines
in the terminal summary so the verdict table survives pytest's capture. The
tolerances are contractual: loosening them to make a run pass defeats the
point of the gate.
"""

import json
import math
import sys
import time

import numpy as np
from scipy.spatial.transform import Rotation

from facelaser.cli import main
from facelaser.cloud import save_ply, voxel_downsample
from facelaser.errors import AbortedOnSafety
from facelaser.geometry import (
    RigidTransform,
    Y_AXIS,
    Z_AXIS,
    axis_angle_to_rotation,
    rotation_to_axis_angle,
)
from facelaser.pathplan import (
    PlannerConfig,
    SegmentPath,
    bin_strips,
    path_to_poses,
    plan_segment,
)
from facelaser.registration import estimate_viewpoints, icp_point_to_plane
from facelaser.segmentation import (
    build_region_polygons,
    points_in_polygon,
    segment_face,
)
from facelaser.simulator import (
    MotionScript,
    PlanarRegion,
    SensorRig,
    ShotLog,
    SimConfig,
    coverage_metrics,
    repulsive_velocity,
    run_path,
)

from support import (
    canonical_landmarks,
    ellipsoid_cloud,
    face_cloud,
    landmarks_to_json,
    model_grid,
    plane_grid,
    point_in_polygon,
    rotation_from_normal,
    straight_path,
    unit,
    wall_cloud,
)


VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d} ({name}): {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _strip_log(xs, path_length=0.0):
    """Shots along the x-axis, one strip, 0.1 s apart."""
    n = len(xs)
    return ShotLog(0.1 * np.arange(n), np.column_stack([xs, np.zeros((n, 2))]),
                   np.zeros((n, 3)), np.zeros(n), ["seg"] * n, path_length)


# 1 ---------------------------------------------------------------------------

# Straight-run scenarios: spot diameter, travel distance, effector speed,
# expected shot count, expected mean pitch, and the reference pitch variance
# whose order of magnitude must not be exceeded.
SDT_CASES = [
    (0.010, 0.111, 0.011250, 11, 0.01009, 2.09e-9),
    (0.005, 0.131, 0.0050375, 26, 0.00505, 2.11e-9),
    (0.002, 0.146, 0.00640625, 71, 0.00205, 4.05e-9),
]


def test_criterion_01_straight_run_shot_statistics():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for diam, dist, speed, n_exp, mu_exp, var_ref in SDT_CASES:
        cfg = SimConfig(diam, speed / diam, control_rate=125.0)
        res = run_path(straight_path(dist), cfg)
        rep = coverage_metrics(res.log, diam, samples=100_000)
        good = (abs(rep.n_shots - n_exp) <= 1
                and abs(rep.mean_spacing - mu_exp) <= 0.02 * mu_exp
                and rep.var_spacing <= 10.0 * var_ref)
        ok = ok and good
        parts.append(f"{diam * 1000:g}mm: N={rep.n_shots}/{n_exp} "
                     f"mu={rep.mean_spacing * 1000:.3f}mm "
                     f"var={rep.var_spacing:.0e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(1, "straight-run shot statistics", ok,
             "; ".join(parts) + f"; {elapsed:.2f}s (<5s)")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_disk_packing_bound():
    d = 0.004
    r = 0.5 * d
    square = PlanarRegion(np.zeros(3), np.array([1.0, 0.0, 0.0]), Y_AXIS,
                          (-r, -r), (r, r))
    one = coverage_metrics(_strip_log([0.0]), d, region=square,
                           samples=1_000_000)
    strip = _strip_log(d * np.arange(20), 20 * d)
    row = coverage_metrics(strip, d, samples=1_000_000)
    ok = abs(one.coverage - 0.7854) <= 0.005 and abs(row.coverage - 0.785) <= 0.01
    _verdict(2, "disk packing bound", ok,
             f"inscribed {one.coverage:.4f} (0.7854+-0.005), "
             f"strip {row.coverage:.4f} (0.785+-0.01)")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_planar_patch_coverage():
    t0 = time.perf_counter()
    d = 0.004
    path = plan_segment(plane_grid(), PlannerConfig(d))
    res = run_path(path, SimConfig(d, 5.0, control_rate=125.0))
    square = PlanarRegion(np.zeros(3), np.array([1.0, 0.0, 0.0]), Y_AXIS,
                          (0.0, 0.0), (0.047, 0.047))
    rep = coverage_metrics(res.log, d, region=square, samples=1_000_000)

    overlaps = 0
    for strip in np.unique(res.log.strip):
        pts = res.log.positions[res.log.strip == strip]
        gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        iu = np.triu_indices(len(pts), k=1)
        # 1 nm of float slack: exactly-at-diameter pairs are not overlaps.
        overlaps += int(np.count_nonzero(gaps[iu] < d - 1e-9))
    elapsed = time.perf_counter() - t0
    ok = rep.coverage >= 0.65 and overlaps == 0 and elapsed < 30.0
    _verdict(3, "47 mm patch coverage", ok,
             f"phi={rep.coverage:.3f} (>=0.65), {rep.n_shots} shots, "
             f"{overlaps} overlapping same-strip pairs, {elapsed:.1f}s (<30s)")


# 4 ---------------------------------------------------------------------------

def _row_pitches(tilt: float, correction: bool):
    """Median and telescoping-mean surface pitch of strip rows on a tilted plane.

    The plane's surface extent scales with 1/cos(tilt) so the uncorrected
    binning always produces the same 12 strips; pitch is measured between
    strip centroids along the in-surface direction.
    """
    d = 0.004
    cloud = plane_grid(extent_x=0.02, extent_t=0.048 / math.cos(tilt),
                       pitch_x=0.002, pitch_t=0.0005, tilt=tilt)
    strips = bin_strips(cloud, d, axis=1, correction=correction)
    w = np.array([0.0, math.cos(tilt), math.sin(tilt)])
    cent = np.array([cloud.positions[s.points].mean(axis=0) @ w for s in strips])
    diffs = np.diff(cent)
    return float(np.median(diffs)), float((cent[-1] - cent[0]) / (len(cent) - 1))


def test_criterion_04_obliquity_keeps_surface_pitch():
    d = 0.004
    worst_on = 0.0
    worst_off = 0.0
    for deg in range(0, 71, 10):
        tilt = math.radians(deg)
        med_on, _ = _row_pitches(tilt, correction=True)
        # The median is the typical row-to-row pitch; edge strips would bias a
        # plain mean. For the uncorrected branch the telescoping mean (span
        # over count) is the unbiased estimate of the inflated pitch.
        _, mean_off = _row_pitches(tilt, correction=False)
        worst_on = max(worst_on, abs(med_on - d) / d)
        worst_off = max(worst_off, abs(mean_off * math.cos(tilt) - d) / d)
    ok = worst_on <= 0.02 and worst_off <= 0.02
    _verdict(4, "obliquity-corrected row pitch", ok,
             f"corrected within {worst_on * 100:.2f}% of {d * 1000:g}mm, "
             f"uncorrected within {worst_off * 100:.2f}% of d/cos(tilt), "
             f"tilts 0..70 deg (tol 2%)")


# 5 ---------------------------------------------------------------------------

def test_criterion_05_icp_recovers_known_transform():
    t0 = time.perf_counter()
    target = ellipsoid_cloud(5000, radii=(0.09, 0.12, 0.07))
    axis = unit(np.array([0.4, -0.5, 0.77]))
    # 8 deg about a skew axis plus a 9.5 mm shift: inside the stated
    # (<=10 deg, <=10 mm) disturbance envelope.
    pert = RigidTransform(axis_angle_to_rotation(axis * math.radians(8.0)),
                          np.array([0.005, -0.004, 0.007]))
    # ICP pairs each point with the voxel it falls in; at the 2 mm default
    # leaf each voxel holds one target point.
    res = icp_point_to_plane(target.transformed(pert), model_grid(target, 0.002))
    expect = pert.invert()
    rot_err = math.degrees(np.linalg.norm(rotation_to_axis_angle(
        res.transform.rotation @ expect.rotation.T)))
    tr_err = float(np.linalg.norm(res.transform.translation - expect.translation))
    monotone = bool(np.all(np.diff(res.rmse_history) <= 1e-15))
    elapsed = time.perf_counter() - t0
    ok = rot_err <= 0.5 and tr_err <= 0.001 and monotone and elapsed < 10.0
    _verdict(5, "point-to-plane alignment oracle", ok,
             f"rot err {rot_err:.2e} deg (<=0.5), trans err {tr_err:.2e} m "
             f"(<=1e-3), objective non-increasing={monotone}, "
             f"{elapsed:.2f}s (<10s)")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_rotation_roundtrips():
    rng = np.random.default_rng(20240819)
    mats = Rotation.random(10_000,
                           random_state=np.random.RandomState(20240819)).as_matrix()
    worst = 0.0
    for r in mats:
        back = axis_angle_to_rotation(rotation_to_axis_angle(r))
        worst = max(worst, float(np.abs(back - r).max()))
    for theta in (0.0, 1e-12, 1e-8, 1e-5, 0.1,
                  math.pi - 1e-5, math.pi - 1e-8, math.pi):
        for _ in range(50):
            r = Rotation.from_rotvec(unit(rng.normal(size=3)) * theta).as_matrix()
            back = axis_angle_to_rotation(rotation_to_axis_angle(r))
            worst = max(worst, float(np.abs(back - r).max()))

    frame_worst = 0.0
    tried = 0
    while tried < 1000:
        eta = unit(rng.normal(size=3))
        if abs(float(eta @ Y_AXIS)) > 0.999:    # outside the frame's domain
            continue
        tried += 1
        err = float(np.abs(rotation_from_normal(eta) @ Z_AXIS - eta).max())
        frame_worst = max(frame_worst, err)
    ok = worst < 1e-9 and frame_worst < 1e-9
    _verdict(6, "rotation round-trips", ok,
             f"worst round-trip {worst:.2e} (<1e-9) over 10400 rotations, "
             f"worst normal-frame residual {frame_worst:.2e} (<1e-9)")


# 7 ---------------------------------------------------------------------------

def _winding_inside(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Nonzero-winding-number membership, the independent reference."""
    wn = np.zeros(len(pts), dtype=int)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        left = ((b[0] - a[0]) * (pts[:, 1] - a[1])
                - (pts[:, 0] - a[0]) * (b[1] - a[1]))
        upward = (a[1] <= pts[:, 1]) & (b[1] > pts[:, 1]) & (left > 0)
        downward = (a[1] > pts[:, 1]) & (b[1] <= pts[:, 1]) & (left < 0)
        wn += upward.astype(int) - downward.astype(int)
    return wn != 0


def test_criterion_07_segmentation_partition(face_scene):
    cloud, landmarks, intrinsics = face_scene
    fixtures = [
        cloud,
        voxel_downsample(cloud, 0.004),
        cloud.transformed(RigidTransform(np.eye(3), np.array([0.005, 0.0, 0.0]))),
    ]
    partitions_exact = True
    for fix in fixtures:
        seg = segment_face(fix, landmarks, intrinsics)
        parts = [seg[label].positions for label in seg.labels()]
        parts.append(seg.residual.positions)
        stacked = np.vstack(parts)
        same_count = len(stacked) == len(fix)
        a = stacked[np.lexsort(stacked.T)]
        b = fix.positions[np.lexsort(fix.positions.T)]
        partitions_exact = partitions_exact and same_count and np.array_equal(a, b)

    rng = np.random.default_rng(11)
    disagreements = 0
    sampled = 0
    for poly in build_region_polygons(landmarks):
        lo = poly.vertices.min(axis=0) - 5.0
        hi = poly.vertices.max(axis=0) + 5.0
        pts = rng.uniform(lo, hi, size=(15_000, 2))
        sampled += len(pts)
        mine = points_in_polygon(pts, poly.vertices)
        oracle = _winding_inside(pts, poly.vertices)
        disagreements += int(np.count_nonzero(mine != oracle))
        for p in pts[:1000]:
            if point_in_polygon(p, poly.vertices) != bool(
                    _winding_inside(p[None, :], poly.vertices)[0]):
                disagreements += 1
    ok = partitions_exact and disagreements == 0 and sampled >= 100_000
    _verdict(7, "segmentation partition", ok,
             f"exact partition on {len(fixtures)} fixtures={partitions_exact}, "
             f"{disagreements} polygon-test disagreements over {sampled} samples")


# 8 ---------------------------------------------------------------------------

# (name, pulse rate, start, target): a run from the start toward a target
# behind a wall_cloud(size=0.2) at z = 0, guarded by SensorRig().
COLLISION_SCENARIOS = [
    ("fast", 5.0, np.array([0.0, 0.0, 0.06]), np.array([0.0, 0.0, -0.05])),
    ("slow", 2.0, np.array([0.0, 0.0, 0.04]), np.array([0.0, 0.0, -0.05])),
    ("oblique", 5.0, np.array([-0.03, 0.02, 0.055]), np.array([0.03, -0.02, -0.05])),
]


def collision_run(rate, start_pos, target):
    """(path, config, run_path keywords) of one collision scenario."""
    cfg = SimConfig(0.004, rate, control_rate=125.0, point_timeout=2.0)
    path = SegmentPath("intrusion", [target], [Z_AXIS], [0], "horizontal")
    return path, cfg, {"rig": SensorRig(), "cloud": wall_cloud(size=0.2),
                       "start": RigidTransform(np.eye(3), start_pos)}


def test_criterion_08_collision_guard_holds_the_line():
    rig = SensorRig()
    ok = True
    parts = []
    for name, rate, start_pos, target in COLLISION_SCENARIOS:
        path, cfg, kwargs = collision_run(rate, start_pos, target)
        try:
            run_path(path, cfg, **kwargs)
            ok = False
            parts.append(f"{name}: reached an unreachable target")
            continue
        except AbortedOnSafety as exc:
            res = exc.result
        dists = res.trajectory.dist_l
        finite = dists[np.isfinite(dists)]
        engaged = finite.min() < rig.l_min
        held = finite.min() >= 0.98 * rig.l_min
        quiet_outside = not res.trajectory.repulsing[dists > rig.l_min].any()
        ok = ok and engaged and held and quiet_outside
        parts.append(f"{name}: min D={finite.min() * 1000:.2f}mm "
                     f"(>= {0.98 * rig.l_min * 1000:.2f})")

    rng = np.random.default_rng(3)
    force_free = True
    for _ in range(200):
        l = unit(rng.normal(size=3)) * rng.uniform(rig.l_min * 1.0000001,
                                                   5 * rig.l_min)
        force_free = force_free and np.array_equal(
            repulsive_velocity(l, rig.l_min, rig.kappa), np.zeros(3))
    ok = ok and force_free
    _verdict(8, "collision guard", ok,
             "; ".join(parts) + f"; zero force outside l_min={force_free}")


# 9 ---------------------------------------------------------------------------

def _run_columns(res):
    """Every column of a run's shot log and trajectory."""
    log, traj = res.log, res.trajectory
    return [log.time, log.positions, log.axis_angle, log.strip, log.segment,
            traj.time, traj.position, traj.delta_d, traj.dist_l, traj.repulsing]


def test_criterion_09_deadband_reanchoring():
    """A head step inside the dead-band leaves a run bit-identical; a larger
    one carries every later target rigidly, with and without the guard."""
    path = plan_segment(plane_grid(0.02, 0.02), PlannerConfig(0.004))
    cfg = SimConfig(0.004, 5.0)
    standoff = 0.05
    _, plan = path_to_poses(path, standoff)
    dt = 1.0 / cfg.control_rate
    t_step = 125.25 * dt                    # one second in, between two ticks
    ident = RigidTransform.identity()
    small = RigidTransform(
        axis_angle_to_rotation(np.array([0.0, 0.0, math.radians(3.0)])),
        np.array([0.002, 0.0, 0.0]))
    large = RigidTransform(
        axis_angle_to_rotation(unit(np.array([0.3, 1.0, 0.2])) * math.radians(10.0)),
        np.array([0.01, 0.0, 0.0]))
    surface = wall_cloud(0.12, 0.004)

    untouched, follow_err, iso_err, n_later = True, 0.0, 0.0, []
    for guard in ({}, {"rig": SensorRig(), "cloud": surface}):
        def run(head=None):
            motion = None if head is None else MotionScript(
                [0.0, t_step, t_step + 0.5 * dt], [ident, ident, head])
            return run_path(path, cfg, standoff, motion=motion, **guard)

        still = run()
        untouched = untouched and all(
            np.array_equal(a, b) for a, b in zip(_run_columns(still), _run_columns(run(small))))

        # The targets the motion-free run reaches after the step time are the
        # later ones; with the large step each must be reached where the head
        # carried it.
        traj = still.trajectory
        gap = np.linalg.norm(traj.position[:, None] - plan[None], axis=-1)
        arrival = traj.time[np.argmax(gap < 1e-12, axis=0)]
        later = plan[arrival > t_step]
        n_later.append(len(later))
        traj = run(large).trajectory
        after = traj.position[traj.time > t_step]
        gap = np.linalg.norm(after[:, None] - large.apply(later)[None], axis=-1)
        follow_err = max(follow_err, float(gap.min(axis=0).max()))
        reached = after[gap.argmin(axis=0)]
        da = np.linalg.norm(later[:, None] - later[None, :], axis=-1)
        db = np.linalg.norm(reached[:, None] - reached[None, :], axis=-1)
        iso_err = max(iso_err, float(np.abs(da - db).max()))
    ok = untouched and follow_err <= 1e-12 and iso_err < 1e-9
    _verdict(9, "dead-band re-anchoring", ok,
             f"2mm/3deg untouched={untouched}, 10mm/10deg: {n_later} later targets "
             f"(unguarded, guarded) within {follow_err:.1e} m of the carried plan "
             f"(<=1e-12), pairwise-distance error {iso_err:.2e} (<1e-9)")


# 10 --------------------------------------------------------------------------

CAMERA_JSON = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
               "width": 640, "height": 480}

MOTION_JSON = [
    {"t_s": 0.0, "translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 40.0, "translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 41.0, "translation": [0.0, 0.008, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 300.0, "translation": [0.0, 0.008, 0.0],
     "axis_angle": [0.0, 0.0, 0.05]},
]


def _pipeline_inputs(root):
    inputs = root / "inputs"
    inputs.mkdir()
    (inputs / "face_pose.json").write_text(json.dumps(
        {"translation": [0.0, 0.0, 0.25], "axis_angle": [0.0, 0.0, 0.0]}))
    (inputs / "cam.json").write_text(json.dumps(CAMERA_JSON))
    (inputs / "motion.json").write_text(json.dumps(MOTION_JSON))
    (inputs / "config.json").write_text(json.dumps(
        {"mc_samples": 100_000, "n_per_side": 1}))
    landmarks_to_json(canonical_landmarks(), inputs / "lm.json")

    # Views of the world-frame face as each scanner pose would capture them;
    # the first pose is the world frame itself, so the fused cloud lines up
    # with the landmark layout.
    world = face_cloud()
    face_pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.25]))
    poses = estimate_viewpoints(face_pose, 0.25, math.radians(10.0), 1)
    views = []
    for i, pose in enumerate(poses):
        p = inputs / f"view{i}.ply"
        save_ply(world.transformed(pose.invert()), p)
        views.append(p)
    return inputs, views


def _run_pipeline(inputs, views, outdir):
    outdir.mkdir()
    cfg = str(inputs / "config.json")

    def cli(*argv):
        code = main(["--config", cfg, *map(str, argv)])
        assert code == 0, f"exit {code} from: {argv}"

    vp = outdir / "vp.json"
    merged = outdir / "merged.ply"
    icp = outdir / "icp.json"
    segs = outdir / "segs"
    paths = outdir / "paths.json"
    shots = outdir / "shots.csv"
    traj = outdir / "traj.csv"
    report = outdir / "report.json"
    svg = outdir / "overview.svg"
    cli("viewpoints", "--face-pose", inputs / "face_pose.json", "--out", vp)
    cli("register", "--views", *views, "--poses", vp, "--out", merged,
        "--icp-log", icp)
    cli("segment", "--cloud", merged, "--landmarks", inputs / "lm.json",
        "--camera", inputs / "cam.json", "--out-dir", segs)
    cli("plan", "--segments", segs, "--out", paths)
    cli("simulate", "--paths", paths, "--motion", inputs / "motion.json",
        "--out-shots", shots, "--out-traj", traj)
    cli("report", "--shots", shots, "--paths", paths, "--out", report,
        "--out-svg", svg)
    return [vp, merged, icp, paths, shots, traj, report, svg] \
        + sorted(segs.glob("*.ply"))


def test_criterion_10_pipeline_determinism(tmp_path):
    inputs, views = _pipeline_inputs(tmp_path)
    first = _run_pipeline(inputs, views, tmp_path / "a")
    second = _run_pipeline(inputs, views, tmp_path / "b")
    names_match = [f.name for f in first] == [f.name for f in second]
    diffs = [fa.name for fa, fb in zip(first, second)
             if fa.read_bytes() != fb.read_bytes()]
    n_shots = sum(1 for _ in open(first[4])) - 1
    ok = names_match and not diffs and len(first) >= 12
    _verdict(10, "pipeline determinism", ok,
             f"{len(first)} output files byte-identical across two runs "
             f"({n_shots} shots simulated)" + (f"; differing: {diffs}" if diffs
                                               else ""))
