import json
import math
from dataclasses import replace

import numpy as np
import pytest

from facelaser.cli import _path_records, main as cli_main, read_shots_csv
from facelaser.cloud import PointCloud
from facelaser.errors import (
    AbortedOnSafety,
    ContactError,
    EmptyLog,
    InvalidParam,
    NoSurfaceInRange,
)
from facelaser.geometry import (
    PoseVector6,
    RigidTransform,
    Z_AXIS,
    axis_angle_to_rotation,
)


def rotation_about_z(theta):
    return axis_angle_to_rotation(np.array([0.0, 0.0, theta]))
from facelaser.pathplan import PathPoint, SegmentPath
from facelaser.simulator import (
    EffectorState,
    MotionScript,
    SensorRig,
    ShotEvent,
    ShotLog,
    SimConfig,
    coverage_metrics,
    motion_exceeds_deadband,
    repulsive_velocity,
    run_path,
    sensor_fusion,
    step,
    transform_path,
    update_paths_on_motion,
)

from support import straight_path, wall_cloud


def sim_config(**kwargs):
    # One full diameter of travel per control tick, so every armed tick fires.
    args = dict(laser_diameter=0.002, pulse_rate=125.0, control_rate=125.0)
    args.update(kwargs)
    return SimConfig(**args)


def multi_strip_path():
    """Two 4 mm rows 3 mm apart, already in execution order (S-shape)."""
    pts = [
        PathPoint(np.array([0.0, 0.0, 0.0]), Z_AXIS.copy()),
        PathPoint(np.array([0.004, 0.0, 0.0]), Z_AXIS.copy()),
        PathPoint(np.array([0.004, 0.003, 0.0]), Z_AXIS.copy()),
        PathPoint(np.array([0.0, 0.003, 0.0]), Z_AXIS.copy()),
    ]
    return SegmentPath("seg", pts, np.array([0, 0, 1, 1]), "horizontal")


def shot_event(x, strip=0, segment="seg", index=0, time=0.0):
    pose = PoseVector6(np.array([x, 0.0, 0.0]), np.zeros(3))
    return ShotEvent(pose, time, index, strip, segment)


class TestConfigsAndRig:
    @pytest.mark.parametrize("kwargs", [
        dict(laser_diameter=0.0),
        dict(pulse_rate=0.0),
        dict(control_rate=0.0),
        dict(point_timeout=0.0),
        dict(deadband_translation=-1e-3),
        dict(deadband_rotation=-0.1),
    ])
    def test_sim_config_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            sim_config(**kwargs)

    def test_max_speed(self):
        assert SimConfig(0.004, 5.0).max_speed == pytest.approx(0.02)

    def test_default_rig_geometry(self):
        rig = SensorRig.default()
        assert rig.origins.shape == (3, 3)
        assert np.allclose(np.linalg.norm(rig.origins[:, :2], axis=1), 0.025)
        assert np.allclose(rig.origins[:, 2], 0.06)
        assert np.allclose(rig.directions, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(origins=np.zeros((2, 3)), directions=np.tile([0, 0, -1.0], (3, 1))),
        dict(origins=np.zeros((0, 3)), directions=np.zeros((0, 3))),
        dict(origins=np.zeros((1, 3)), directions=[[0.0, 0.0, -2.0]]),
        dict(origins=np.zeros((1, 3)), directions=[[0.0, 0.0, -1.0]], l_min=0.5),
        dict(origins=np.zeros((1, 3)), directions=[[0.0, 0.0, -1.0]], kappa=0.0),
        dict(origins=np.zeros((1, 3)), directions=[[0.0, 0.0, -1.0]], beam_radius=0.0),
    ])
    def test_rig_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            SensorRig(**kwargs)


class TestRepulsion:
    L_MIN = 0.04
    KAPPA = 5e-4

    def test_zero_at_and_beyond_radius(self):
        for d in (self.L_MIN, 0.05, 1.0):
            v = repulsive_velocity(np.array([0.0, 0.0, -d]), self.L_MIN, self.KAPPA)
            assert np.array_equal(v, np.zeros(3))

    def test_pushes_against_offset(self):
        l = np.array([0.0, 0.0, -0.02])
        v = repulsive_velocity(l, self.L_MIN, self.KAPPA)
        assert v[2] > 0 and v[0] == v[1] == 0.0

    def test_magnitude_formula(self):
        d = 0.5 * self.L_MIN
        v = repulsive_velocity(np.array([d, 0.0, 0.0]), self.L_MIN, self.KAPPA)
        expect = self.KAPPA * (1.0 / d - 1.0 / self.L_MIN) / d**2
        assert np.linalg.norm(v) == pytest.approx(expect, rel=1e-12)
        assert v[0] == pytest.approx(-expect)

    def test_grows_toward_contact(self):
        mags = [np.linalg.norm(repulsive_velocity(np.array([d, 0, 0]),
                                                  self.L_MIN, self.KAPPA))
                for d in (0.03, 0.02, 0.01)]
        assert mags[0] < mags[1] < mags[2]

    def test_contact_raises(self):
        with pytest.raises(ContactError):
            repulsive_velocity(np.zeros(3), self.L_MIN, self.KAPPA)


class TestSensorFusion:
    def test_wall_straight_below(self):
        wall = wall_cloud()
        rig = SensorRig.default()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.1]))
        fused = sensor_fusion(rig, wall, pose)
        assert fused is not None
        # Tip is 100 mm above the wall; the fused vector points down at it.
        assert fused[2] == pytest.approx(-0.1, abs=1e-9)
        assert np.linalg.norm(fused[:2]) < 0.03

    def test_back_side_hits_carry_no_weight(self):
        wall = wall_cloud()
        flipped = PointCloud(wall.positions, -wall.normals)
        rig = SensorRig.default()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.1]))
        assert sensor_fusion(rig, flipped, pose) is None
        with pytest.raises(NoSurfaceInRange):
            sensor_fusion(rig, flipped, pose, require=True)

    def test_out_of_range_returns_none(self):
        wall = wall_cloud()
        rig = SensorRig.default()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.5]))
        assert sensor_fusion(rig, wall, pose) is None

    def test_requires_normals(self):
        bare = PointCloud(wall_cloud().positions)
        with pytest.raises(ValueError):
            sensor_fusion(SensorRig.default(), bare,
                          RigidTransform.identity())


class TestDeadband:
    def test_translation_threshold(self):
        a = RigidTransform.identity()
        below = RigidTransform(np.eye(3), np.array([0.0029, 0.0, 0.0]))
        above = RigidTransform(np.eye(3), np.array([0.0031, 0.0, 0.0]))
        assert not motion_exceeds_deadband(a, below)
        assert motion_exceeds_deadband(a, above)

    def test_rotation_threshold(self):
        a = RigidTransform.identity()
        below = RigidTransform(rotation_about_z(math.radians(3.9)), np.zeros(3))
        above = RigidTransform(rotation_about_z(math.radians(4.1)), np.zeros(3))
        assert not motion_exceeds_deadband(a, below)
        assert motion_exceeds_deadband(a, above)

    def test_update_in_band_returns_same_object(self):
        path = multi_strip_path()
        prev = RigidTransform.identity()
        curr = RigidTransform(np.eye(3), np.array([0.002, 0.0, 0.0]))
        out, moved = update_paths_on_motion(path, prev, curr)
        assert out is path
        assert not moved

    def test_update_out_of_band_is_isometric(self):
        path = multi_strip_path()
        prev = RigidTransform.identity()
        curr = RigidTransform(rotation_about_z(0.3), np.array([0.01, -0.02, 0.005]))
        out, moved = update_paths_on_motion(path, prev, curr)
        assert moved
        a = path.positions
        b = out.positions
        assert np.allclose(b, curr.apply(a), atol=1e-12)
        da = np.linalg.norm(a[:, None] - a[None, :], axis=-1)
        db = np.linalg.norm(b[:, None] - b[None, :], axis=-1)
        assert np.allclose(da, db, atol=1e-12)
        # Normals stay unit and rotate with the pose.
        assert np.allclose(out.normals, curr.apply_direction(path.normals))

    def test_update_dict_input(self):
        paths = {"a": multi_strip_path(), "b": straight_path(0.01)}
        prev = RigidTransform.identity()
        curr = RigidTransform(np.eye(3), np.array([0.02, 0.0, 0.0]))
        out, moved = update_paths_on_motion(paths, prev, curr)
        assert moved and set(out) == {"a", "b"}
        assert np.allclose(out["b"].positions, paths["b"].positions + [0.02, 0, 0])

    def test_transform_path_keeps_metadata(self):
        path = multi_strip_path()
        t = RigidTransform(rotation_about_z(1.0), np.array([1.0, 2.0, 3.0]))
        out = transform_path(path, t)
        assert out.label == path.label
        assert np.array_equal(out.strip_indices, path.strip_indices)
        assert out.orientation == path.orientation


class TestMotionScript:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            MotionScript([0.0, 1.0], [RigidTransform.identity()])
        with pytest.raises(InvalidParam):
            MotionScript([0.0, 0.0], [RigidTransform.identity()] * 2)
        with pytest.raises(InvalidParam):
            MotionScript([], [])

    def test_stationary(self):
        pose = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        script = MotionScript.stationary(pose)
        for t in (-1.0, 0.0, 100.0):
            assert np.array_equal(script.pose_at(t).translation, pose.translation)

    def test_interpolation_and_clamping(self):
        a = RigidTransform.identity()
        b = RigidTransform(rotation_about_z(math.pi / 2), np.array([0.1, 0.0, 0.0]))
        script = MotionScript([1.0, 3.0], [a, b])
        assert np.allclose(script.pose_at(0.0).translation, a.translation)
        assert np.allclose(script.pose_at(10.0).translation, b.translation)
        mid = script.pose_at(2.0)
        assert np.allclose(mid.translation, [0.05, 0.0, 0.0])
        assert np.allclose(mid.rotation, rotation_about_z(math.pi / 4), atol=1e-12)

    def test_from_json(self, tmp_path):
        doc = (
            '[{"t_s": 0.0, "translation": [0, 0, 0], "axis_angle": [0, 0, 0]},\n'
            ' {"t_s": 2.0, "translation": [0.01, 0, 0], "axis_angle": [0, 0, 0.2]}]'
        )
        path = tmp_path / "motion.json"
        path.write_text(doc)
        script = MotionScript.from_json(path)
        assert len(script.poses) == 2
        assert np.allclose(script.pose_at(1.0).translation, [0.005, 0.0, 0.0])


class TestStep:
    def test_final_tick_lands_exactly(self):
        cfg = sim_config()
        state = EffectorState(np.array([0.0, 0.0, 0.0]), np.eye(3))
        target = np.array([0.0005, 0.0, 0.0])  # a quarter tick away
        new, info = step(state, target, cfg, armed=False)
        assert info.arrived
        assert np.array_equal(new.position, target)
        assert info.moved == pytest.approx(0.0005)

    def test_cruise_speed_is_clamped(self):
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3))
        new, info = step(state, np.array([1.0, 0.0, 0.0]), cfg, armed=False)
        assert info.moved == pytest.approx(cfg.max_speed / cfg.control_rate)
        assert not info.arrived

    def test_travel_accumulates_only_when_armed(self):
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3))
        target = np.array([1.0, 0.0, 0.0])
        idle, _ = step(state, target, cfg, armed=False)
        assert idle.delta_d == 0.0
        armed, _ = step(state, target, cfg, armed=True)
        assert armed.delta_d in (0.0, pytest.approx(0.002))

    def test_fires_at_diameter_and_resets(self):
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3), delta_d=0.0015)
        new, info = step(state, np.array([1.0, 0.0, 0.0]), cfg, armed=True)
        assert info.fired
        assert new.delta_d == 0.0

    def test_never_fires_unarmed(self):
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3), delta_d=0.1)
        _, info = step(state, np.array([1.0, 0.0, 0.0]), cfg, armed=False)
        assert not info.fired


class TestRunPath:
    def test_straight_run_pitch(self):
        cfg = sim_config()
        path = straight_path(0.01)
        res = run_path(path, cfg)
        assert len(res.log) == 5
        pos = res.log.positions
        gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.allclose(gaps, 0.002, atol=1e-12)
        assert res.log.path_length == pytest.approx(0.01)
        # No shot at the strip start itself.
        assert np.linalg.norm(pos[0] - path.positions[0]) > 1e-6

    def test_traverse_runs_dark_and_resets_pitch(self):
        cfg = sim_config()
        res = run_path(multi_strip_path(), cfg)
        shots = res.log.events
        assert [s.strip for s in shots] == [0, 0, 1, 1]
        xs = [s.psi.position[0] for s in shots]
        ys = [s.psi.position[1] for s in shots]
        assert xs == pytest.approx([0.002, 0.004, 0.002, 0.0])
        assert ys == pytest.approx([0.0, 0.0, 0.003, 0.003])

    def test_approach_leg_is_dark(self):
        cfg = sim_config()
        start = RigidTransform(np.eye(3), np.array([-0.01, 0.0, 0.0]))
        res = run_path(straight_path(0.01), cfg, start=start)
        # Approach covers 10 mm, the strip 10 mm more: still only 5 shots.
        assert len(res.log) == 5
        assert all(e.psi.position[0] > 0 for e in res.log.events)
        assert res.log.path_length == pytest.approx(0.02)

    def test_laser_disabled_logs_nothing(self):
        cfg = sim_config(laser_enabled=False)
        res = run_path(straight_path(0.01), cfg)
        assert len(res.log) == 0
        assert res.log.path_length == pytest.approx(0.01)

    def test_in_band_motion_changes_nothing(self):
        cfg = sim_config()
        still = MotionScript.stationary(RigidTransform.identity())
        wiggle = MotionScript(
            [0.0, 0.02],
            [RigidTransform.identity(),
             RigidTransform(np.eye(3), np.array([0.0, 0.002, 0.0]))])
        a = run_path(straight_path(0.01), cfg, motion=still)
        b = run_path(straight_path(0.01), cfg, motion=wiggle)
        assert np.array_equal(a.log.positions, b.log.positions)
        assert [s.time for s in a.log.events] == [s.time for s in b.log.events]

    def test_large_motion_reanchors_remaining_targets(self):
        cfg = sim_config()
        jump = MotionScript(
            [0.048, 0.0481],
            [RigidTransform.identity(),
             RigidTransform(np.eye(3), np.array([0.0, 0.01, 0.0]))])
        res = run_path(straight_path(0.02), cfg, motion=jump)
        ys = res.log.positions[:, 1]
        assert ys[0] == 0.0
        assert ys[-1] == pytest.approx(0.01, abs=1e-9)

    def test_safety_stall_aborts_with_partial_result(self):
        wall = wall_cloud()
        rig = SensorRig.default()
        cfg = SimConfig(laser_diameter=0.004, pulse_rate=5.0,
                        control_rate=125.0, point_timeout=2.0)
        target = SegmentPath(
            "down", [PathPoint(np.array([0.0, 0.0, -0.05]), Z_AXIS.copy())],
            np.array([0]), "horizontal")
        start = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.06]))
        with pytest.raises(AbortedOnSafety) as exc:
            run_path(target, cfg, rig=rig, cloud=wall, start=start)
        res = exc.value.result
        assert res is not None
        assert len(res.log) == 0
        dists = np.array([s.dist_l for s in res.trajectory])
        finite = dists[np.isfinite(dists)]
        assert finite.min() < rig.l_min           # the guard did engage
        assert finite.min() >= 0.98 * rig.l_min   # but held the line
        assert any(s.repulsing for s in res.trajectory)

    def test_repeat_runs_identical(self):
        cfg = sim_config(laser_diameter=0.004, pulse_rate=5.0)
        wall = wall_cloud(size=0.1)
        rig = SensorRig.default()
        runs = []
        for _ in range(2):
            path = straight_path(0.03, normal=(0.0, 0.0, 1.0))
            res = run_path(path, cfg, standoff=0.1, rig=rig, cloud=wall)
            runs.append(res)
        a, b = runs
        assert np.array_equal(a.log.positions, b.log.positions)
        assert [s.time for s in a.log.events] == [s.time for s in b.log.events]
        ta = np.array([[s.time, *s.position, s.delta_d] for s in a.trajectory])
        tb = np.array([[s.time, *s.position, s.delta_d] for s in b.trajectory])
        assert np.array_equal(ta, tb)



def two_segment_plan():
    """Two 20 mm strips along x, 10 mm apart in y, run as separate segments."""
    first = straight_path(0.02, label="first")
    second = straight_path(0.02, label="second", direction=(-1.0, 0.0, 0.0))
    second.points = [replace(p, chi=p.chi + np.array([0.02, 0.01, 0.0]))
                     for p in second.points]
    return {"first": first, "second": second}


# Pure translation along y: 2.5 mm of in-band drift during the first segment
# (its strip runs 0 s - 1 s), then a ramp to 5.4 mm over 0.1 s on the second
# segment's approach leg (1 s - 1.5 s), before its strip.
HEAD_DRIFT = [(0.0, 0.0), (0.5, 0.0025), (1.1, 0.0025), (1.2, 0.0054), (9.0, 0.0054)]
DRIFT_CFG = SimConfig(laser_diameter=0.004, pulse_rate=5.0, control_rate=125.0)


def head_y(t):
    return float(np.interp(t, *zip(*HEAD_DRIFT)))


def simulate_two_segments(tmp_path, via):
    """(shot events, trajectory times) of the two-segment run under drift."""
    plan = two_segment_plan()
    keys = [{"t_s": t, "translation": [0.0, y, 0.0], "axis_angle": [0.0, 0.0, 0.0]}
            for t, y in HEAD_DRIFT]
    motion_file = tmp_path / "motion.json"
    motion_file.write_text(json.dumps(keys))
    if via == "run_path":
        res = run_path(plan, DRIFT_CFG, motion=MotionScript.from_json(motion_file))
        return res.log.events, [s.time for s in res.trajectory]
    records = [r for path in plan.values() for r in _path_records(path)]
    (tmp_path / "paths.json").write_text(json.dumps(records))
    shots, traj = tmp_path / "shots.csv", tmp_path / "traj.csv"
    assert cli_main(["simulate", "--paths", str(tmp_path / "paths.json"),
                     "--motion", str(motion_file), "--out-shots", str(shots),
                     "--out-traj", str(traj)]) == 0
    times = np.loadtxt(traj, delimiter=",", skiprows=1, usecols=0)
    return read_shots_csv(shots).events, list(times)


@pytest.mark.parametrize("via", ["run_path", "cli"])
def test_one_anchor_holds_across_segments(tmp_path, via):
    """Every shot stays within the dead-band of the head-carried plan, also
    in a segment that starts after in-band drift; indices and time run on."""
    events, times = simulate_two_segments(tmp_path, via)
    plan = two_segment_plan()
    tick_travel = (0.0054 - 0.0025) / 0.1 / DRIFT_CFG.control_rate
    offsets = []
    for e in events:
        a, b = plan[e.segment].positions
        q = e.psi.position - np.array([0.0, head_y(e.time), 0.0])
        s = np.clip((q - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        offsets.append(float(np.linalg.norm(q - (a + s * (b - a)))))
    assert {e.segment for e in events} == {"first", "second"}
    assert max(offsets) <= 3e-3 + tick_travel + 1e-9
    assert [e.index for e in events] == list(range(len(events)))

    # The second segment opens with a row at the first segment's end time.
    alone = run_path(plan["first"], DRIFT_CFG,
                     motion=MotionScript.from_json(tmp_path / "motion.json"))
    n1 = len(alone.trajectory)
    assert times[n1 - 1] == pytest.approx(alone.final_state.time, abs=1e-9)
    assert times[n1] == times[n1 - 1]
    assert times[n1 + 1] > times[n1]


class TestCoverageMetrics:
    def test_empty_log_rejected(self):
        with pytest.raises(EmptyLog):
            coverage_metrics(ShotLog(), 0.004)

    def test_exact_strip_approaches_disk_packing(self):
        d = 0.004
        events = [shot_event(k * d, index=k, time=0.1 * k) for k in range(12)]
        report = coverage_metrics(ShotLog(events, 12 * d), d, samples=100_000)
        assert report.n_shots == 12
        assert report.n_spacings == 11
        assert report.mean_spacing == pytest.approx(d, abs=1e-12)
        assert report.var_spacing == pytest.approx(0.0, abs=1e-20)
        assert report.coverage == pytest.approx(math.pi / 4, abs=0.01)

    def test_cloud_fraction(self):
        d = 0.004
        r = 0.5 * d
        cloud = PointCloud(np.array([
            [0.5 * r, 0.0, 0.0],
            [r, 0.0, 0.0],
            [1.1 * r, 0.0, 0.0],
            [10 * r, 0.0, 0.0],
        ]))
        report = coverage_metrics(ShotLog([shot_event(0.0)]), d, cloud=cloud)
        assert report.coverage == pytest.approx(0.5)

    def test_spacings_only_within_strip_and_segment(self):
        d = 0.002
        events = [
            shot_event(0.000, strip=0, segment="a", index=0),
            shot_event(0.002, strip=0, segment="a", index=1),
            shot_event(0.010, strip=1, segment="a", index=2),
            shot_event(0.012, strip=1, segment="a", index=3),
            shot_event(0.030, strip=0, segment="b", index=4),
        ]
        report = coverage_metrics(ShotLog(events, 0.03), d)
        assert report.n_spacings == 2
        assert report.mean_spacing == pytest.approx(0.002)

    def test_diameter_validation(self):
        with pytest.raises(InvalidParam):
            coverage_metrics(ShotLog([shot_event(0.0)]), 0.0)
