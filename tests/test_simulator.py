import contextlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from facelaser.cli import main as cli_main, read_shots_csv
from facelaser.cloud import PointCloud, save_ply
from facelaser.errors import (
    AbortedOnSafety,
    ContactError,
    EmptyLog,
    InvalidParam,
)
from facelaser.geometry import (
    RigidTransform,
    Z_AXIS,
    axis_angle_to_rotation,
    interpolate_rotation,
    rotation_to_axis_angle,
)


def rotation_about_z(theta):
    return axis_angle_to_rotation(np.array([0.0, 0.0, theta]))
from facelaser import simulator
from facelaser.pathplan import PlannerConfig, SegmentPath, path_to_poses, plan_segment
from facelaser.segmentation import points_in_polygon
from facelaser.simulator import (
    EffectorState,
    MotionScript,
    PlanarRegion,
    SensorRig,
    ShotLog,
    SimConfig,
    coverage_metrics,
    motion_exceeds_deadband,
    repulsive_velocity,
    run_path,
    sensor_fusion,
    step,
    transform_path,
)

from support import (
    full_draw_coverage,
    path_records,
    plane_grid,
    rotation_from_normal,
    scan_raycast,
    straight_path,
    tick_legs,
    tick_trigger,
    tree_coverage,
    wall_cloud,
)
from test_acceptance import COLLISION_SCENARIOS, collision_run


# A one-point surface far out of sensor range: a guarded run whose guard never
# measures anything.
IDLE_GUARD = {"rig": SensorRig(),
              "cloud": PointCloud(np.array([[100.0, 100.0, 100.0]]),
                                  np.array([[0.0, 0.0, 1.0]]))}


def sim_config(**kwargs):
    # One full diameter of travel per control tick, so every armed tick fires.
    args = dict(laser_diameter=0.002, pulse_rate=125.0, control_rate=125.0)
    args.update(kwargs)
    return SimConfig(**args)


def multi_strip_path():
    """Two 4 mm rows 3 mm apart, already in execution order (S-shape)."""
    chi = [[0.0, 0.0, 0.0], [0.004, 0.0, 0.0], [0.004, 0.003, 0.0], [0.0, 0.003, 0.0]]
    return SegmentPath("seg", chi, [Z_AXIS] * 4, [0, 0, 1, 1], "horizontal")


def shot_log(xs, strips=0, segments="seg", path_length=0.0):
    """Shots along the x-axis, 0.1 s apart, tool unrotated."""
    n = len(xs)
    return ShotLog(0.1 * np.arange(n), np.column_stack([xs, np.zeros((n, 2))]),
                   np.zeros((n, 3)), np.broadcast_to(strips, n),
                   np.broadcast_to(segments, n), path_length)


class TestConfigsAndRig:
    @pytest.mark.parametrize("kwargs", [
        dict(laser_diameter=0.0),
        dict(pulse_rate=0.0),
        dict(control_rate=0.0),
        dict(point_timeout=0.0),
        dict(deadband_translation=-1e-3),
        dict(deadband_rotation=-0.1),
        dict(laser_diameter=float("nan")),
        dict(control_rate=float("nan")),
        dict(pulse_rate=200.0),
    ])
    def test_sim_config_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            sim_config(**kwargs)

    def test_max_speed(self):
        assert SimConfig(0.004, 5.0).max_speed == pytest.approx(0.02)

    def test_default_rig_geometry(self):
        rig = SensorRig()
        assert rig.origins.shape == (3, 3)
        assert np.allclose(np.linalg.norm(rig.origins[:, :2], axis=1), 0.025)
        assert np.allclose(rig.origins[:, 2], 0.06)
        assert np.allclose(rig.directions, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(l_min=0.5),
        dict(kappa=0.0),
        dict(beam_radius=0.0),
        dict(l_min=float("nan")),
        dict(max_range=float("nan")),
        dict(ring_radius=float("inf")),
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
        rig = SensorRig()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.1]))
        fused = sensor_fusion(rig, wall, pose)
        assert fused is not None
        # Tip is 100 mm above the wall; the fused vector points down at it.
        assert fused[2] == pytest.approx(-0.1, abs=1e-9)
        assert np.linalg.norm(fused[:2]) < 0.03

    def test_back_side_hits_carry_no_weight(self):
        wall = wall_cloud()
        flipped = PointCloud(wall.positions, -wall.normals)
        rig = SensorRig()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.1]))
        assert sensor_fusion(rig, flipped, pose) is None

    def test_out_of_range_returns_none(self):
        wall = wall_cloud()
        rig = SensorRig()
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.5]))
        assert sensor_fusion(rig, wall, pose) is None

    def test_requires_normals(self):
        bare = PointCloud(wall_cloud().positions)
        with pytest.raises(ValueError):
            sensor_fusion(SensorRig(), bare,
                          RigidTransform.identity())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_sensor_fusion_beyond_reach_matches_cast(data):
    """sensor_fusion_many returns before casting when every tip is farther
    from the cloud's bounding box than a sensor can reach. Tips just inside
    and just outside that distance, some facing the box: a batch returned
    early equals the cast batch, and the reference scan finds no hit for
    any of its rays."""
    draw = data.draw
    n = draw(st.integers(1, 25))
    points = np.array(draw(st.lists(st.tuples(*[st.floats(-0.05, 0.05)] * 3),
                                    min_size=n, max_size=n)))
    normals = np.array(draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3),
                                     min_size=n, max_size=n))) + [0.0, 0.0, 3.0]
    cloud = PointCloud(points, normals / np.linalg.norm(normals, axis=1, keepdims=True))
    max_range = draw(st.floats(0.05, 0.5))
    rig = SensorRig(ring_radius=draw(st.floats(0.0, 0.05)), offset=draw(st.floats(-0.1, 0.1)),
                    max_range=max_range, l_min=0.5 * max_range,
                    beam_radius=draw(st.floats(1e-4, 0.02)))
    reach = rig.max_range + math.hypot(rig.ring_radius, rig.offset) + rig.beam_radius
    lo, hi = points.min(axis=0), points.max(axis=0)
    rotations, tips, beyond = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        side = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(3)])
        out = side * np.array([draw(st.floats(0.05, 1.0)) for _ in range(3)])
        out /= np.linalg.norm(out)
        gap = draw(st.sampled_from([-0.5 * reach, -1e-3, -1e-6, 0.0, 1e-6, 1e-3]))
        tips.append(np.where(side > 0, hi, lo) + (reach + gap) * out)
        beyond.append(gap > 0.0)
        if draw(st.booleans()):             # the beam axis, tool -z, at the box
            rotations.append(rotation_from_normal(out, Z_AXIS if abs(out[1]) > 0.9
                                                  else np.array([0.0, 1.0, 0.0])))
        else:
            rotations.append(axis_angle_to_rotation(
                [draw(st.floats(-3.0, 3.0)) for _ in range(3)]))
    rotations, tips = np.array(rotations), np.array(tips)
    fused, contact = simulator.sensor_fusion_many(rig, cloud, rotations, tips)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_beyond_reach", lambda *args: False)
        cast_fused, cast_contact = simulator.sensor_fusion_many(rig, cloud, rotations, tips)
    assert np.array_equal(fused, cast_fused, equal_nan=True)
    assert np.array_equal(contact, cast_contact)
    assert simulator._beyond_reach(rig, cloud, rotations, tips) == all(beyond)
    for rotation, tip, far in zip(rotations, tips, beyond):
        if far:
            for origin, direction in zip(rig.origins @ rotation.T + tip,
                                         rig.directions @ rotation.T):
                assert scan_raycast(cloud, origin, direction, rig.beam_radius,
                                    rig.max_range) is None


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
        script = MotionScript([0.0], [pose])
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


# Draws this close to a tolerance may fall either side of it: the batch
# dead-band scan takes the angle by a different route than the per-pose check.
DEADBAND_MARGIN_M = 1e-12
DEADBAND_MARGIN_RAD = 1e-9


def _drawn_pose(draw):
    return RigidTransform(axis_angle_to_rotation(
        np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)])),
        np.array([draw(st.floats(-0.05, 0.05)) for _ in range(3)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_leaves_deadband_matches_per_pose_check(data):
    """MotionScript.leaves_deadband against motion_exceeds_deadband(anchor,
    pose_at(t)) at times before the first keyframe, after the last, exactly on
    keyframes and between them. Entries within the rounding margin of either
    tolerance are not compared."""
    draw = data.draw
    m = draw(st.integers(1, 4))
    times = np.cumsum([draw(st.floats(-1.0, 1.0))]
                      + [draw(st.floats(0.05, 2.0)) for _ in range(m - 1)])
    script = MotionScript(times, [_drawn_pose(draw) for _ in range(m)])
    t0, t1 = float(times[0]), float(times[-1])
    when = st.one_of(st.sampled_from(times.tolist()),
                     st.floats(t0, t1),
                     st.floats(1e-9, 2.0).map(lambda dt: t0 - dt),
                     st.floats(1e-9, 2.0).map(lambda dt: t1 + dt))
    ts = draw(st.lists(when, min_size=1, max_size=12))
    anchor = draw(st.one_of(st.just(None), st.sampled_from(script.poses)))
    if anchor is None:
        anchor = (script.pose_at(draw(st.floats(t0 - 1.0, t1 + 1.0)))
                  if draw(st.booleans()) else _drawn_pose(draw))
    trans_tol = draw(st.floats(1e-4, 0.08))
    rot_tol = draw(st.floats(1e-3, 2.5))

    batch = script.leaves_deadband(anchor, ts, trans_tol, rot_tol)
    assert batch.shape == (len(ts),)
    for t, left in zip(ts, batch.tolist()):
        pose = script.pose_at(t)
        shift = float(np.linalg.norm(pose.translation - anchor.translation))
        angle = float(np.linalg.norm(rotation_to_axis_angle(
            pose.rotation @ anchor.rotation.T)))
        if (abs(shift - trans_tol) <= DEADBAND_MARGIN_M
                or abs(angle - rot_tol) <= DEADBAND_MARGIN_RAD):
            continue
        assert left == motion_exceeds_deadband(anchor, pose, trans_tol, rot_tol), \
            (t, shift, angle)


@st.composite
def trigger_runs(draw):
    """A diameter, ticks in stretches, each (armed, travel per tick), and the
    travel carried in as (stretch, delta_d): the first armed stretch goes on
    from it, or no stretch does. Travel is any size up to two diameters,
    none, or an exact fraction or multiple of the diameter or of the firing
    threshold, whose sums land on the threshold."""
    diameter = draw(st.floats(1e-4, 1e-2))
    exact = st.tuples(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                      st.sampled_from([1.0, simulator.FIRE_FRACTION]))
    travel = st.one_of(st.floats(0.0, 2.0 * diameter), st.just(0.0),
                       exact.map(lambda f: f[0] * (diameter * f[1])))
    stretches = draw(st.lists(st.tuples(st.booleans(), st.lists(travel, max_size=12)),
                              min_size=1, max_size=6))
    armed = [number for number, (on, _) in enumerate(stretches) if on]
    goes_on = armed[0] if armed and draw(st.booleans()) else len(stretches)
    carried = draw(st.one_of(st.floats(0.0, 2.0 * diameter),
                             exact.map(lambda f: f[0] * (diameter * f[1]))))
    return diameter, (goes_on, carried), stretches


def check_trigger(diameter, carry, stretches):
    """Holds `_trigger` to the per-tick rule on one case of `trigger_runs`
    and returns its delta_d after every tick and the ticks that fired."""
    moved, stretch, want, fired = [], [], [], []
    for number, (armed, ticks) in enumerate(stretches):
        delta_d = carry[1] if armed and number == carry[0] else 0.0
        for travel in ticks:
            delta_d, fires = tick_trigger(delta_d, travel, armed, diameter)
            if fires:
                fired.append(len(moved))
            moved.append(travel)
            stretch.append(number if armed else -1)
            want.append(delta_d)
    stretch = np.array(stretch, dtype=int)
    got, shots = simulator._trigger(np.array(moved), stretch, carry,
                                    diameter * simulator.FIRE_FRACTION)
    assert got.tolist() == want and shots.tolist() == fired
    assert (stretch[shots] >= 0).all() and (got[shots] == 0.0).all()
    assert (got[stretch < 0] == 0.0).all()
    return got, shots


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trigger_runs())
def test_trigger_matches_per_tick_rule(case):
    """`_trigger` gives the per-tick rule's delta_d after every tick, bit for
    bit, and fires on the same ticks: travel accumulates only while armed,
    only the stretch the carry names starts from its delta_d, an unarmed
    tick never fires and reads 0, and a shot resets delta_d to 0."""
    check_trigger(*case)


class TestStep:
    def test_final_tick_lands_exactly(self):
        cfg = sim_config()
        state = EffectorState(np.array([0.0, 0.0, 0.0]), np.eye(3))
        target = np.array([0.0005, 0.0, 0.0])  # a quarter tick away
        new, moved, arrived, _, _ = step(state, target, cfg)
        assert arrived
        assert np.array_equal(new.position, target)
        assert moved == pytest.approx(0.0005)

    def test_cruise_speed_is_clamped(self):
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3))
        new, moved, arrived, _, _ = step(state, np.array([1.0, 0.0, 0.0]), cfg)
        assert moved == pytest.approx(cfg.max_speed / cfg.control_rate)
        assert not arrived

    # The trigger cases run one cruise tick of sim_config(), one diameter of
    # travel, or half of one, through the tick loop's `_trigger`.
    @staticmethod
    def cruise_tick():
        cfg = sim_config()
        state = EffectorState(np.zeros(3), np.eye(3))
        return cfg.laser_diameter, step(state, np.array([1.0, 0.0, 0.0]), cfg)[1]

    def test_travel_accumulates_only_when_armed(self):
        diameter, moved = self.cruise_tick()
        half = 0.5 * moved
        got, shots = check_trigger(diameter, (2, 0.0), [(False, [moved]), (True, [half, half])])
        assert got.tolist() == [0.0, half, 0.0] and shots.tolist() == [2]
        assert moved == pytest.approx(0.002)

    def test_fires_at_diameter_and_resets(self):
        diameter, moved = self.cruise_tick()
        got, shots = check_trigger(diameter, (0, 0.0015), [(True, [moved])])
        assert shots.tolist() == [0] and got.tolist() == [0.0]

    def test_never_fires_unarmed(self):
        """Unarmed ticks read 0 and never fire, even in the stretch that the
        carry names."""
        diameter, moved = self.cruise_tick()
        got, shots = check_trigger(diameter, (0, 0.1), [(False, [moved, moved])])
        assert shots.size == 0 and got.tolist() == [0.0, 0.0]

    def test_carried_surface_acts_as_its_copy(self):
        """Rays cast back through `carry` see what a moved copy of the cloud shows."""
        wall = wall_cloud()
        carry = RigidTransform(rotation_about_z(0.4) @ axis_angle_to_rotation(
            np.array([0.05, -0.03, 0.0])), np.array([0.004, -0.002, 0.009]))
        pose = carry.compose(RigidTransform(np.eye(3), np.array([0.01, 0.02, 0.03])))
        state = EffectorState(pose.translation, pose.rotation)
        target = pose.translation + carry.apply_direction([0.01, 0.0, 0.0])
        cfg = SimConfig(0.004, 5.0)
        new, _, _, dist_l, repulsing = step(state, target, cfg, SensorRig(), wall, carry)
        ref, _, _, ref_dist_l, ref_repulsing = step(state, target, cfg, SensorRig(),
                                                    wall.transformed(carry))
        assert repulsing and ref_repulsing
        assert dist_l == pytest.approx(ref_dist_l, rel=1e-12)
        assert np.allclose(new.position, ref.position, rtol=0.0, atol=1e-15)


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

    @pytest.mark.parametrize("guard", ["none", "idle"])
    def test_whole_diameters_fire_every_shot(self, guard):
        # 20 mm at 4 mm pitch and 0.16 mm per tick: the tick-by-tick travel
        # sum lands a rounding error short of each diameter.
        kwargs = {} if guard == "none" else IDLE_GUARD
        res = run_path(straight_path(0.02), SimConfig(0.004, 5.0), **kwargs)
        assert len(res.log) == 5
        assert res.log.positions[-1] == pytest.approx([0.02, 0.0, 0.0], abs=1e-12)

    def test_traverse_runs_dark_and_resets_pitch(self):
        cfg = sim_config()
        res = run_path(multi_strip_path(), cfg)
        assert res.log.strip.tolist() == [0, 0, 1, 1]
        xs, ys = res.log.positions[:, 0], res.log.positions[:, 1]
        assert xs == pytest.approx([0.002, 0.004, 0.002, 0.0])
        assert ys == pytest.approx([0.0, 0.0, 0.003, 0.003])

    def test_each_segment_restarts_the_pitch(self):
        """A 10 mm strip leaves 2 mm of travel toward a next shot; the next
        segment, one strip again, still fires one diameter from its start."""
        second = straight_path(0.01, label="second")
        second.positions = second.positions + [0.0, 0.01, 0.0]
        res = run_path({"first": straight_path(0.01, label="first"), "second": second},
                       SimConfig(0.004, 5.0))
        assert res.log.segment.tolist() == ["first"] * 2 + ["second"] * 2
        assert res.log.positions[:, 0] == pytest.approx([0.004, 0.008] * 2, abs=1e-12)

    def test_approach_leg_is_dark(self):
        cfg = sim_config()
        start = RigidTransform(np.eye(3), np.array([-0.01, 0.0, 0.0]))
        res = run_path(straight_path(0.01), cfg, start=start)
        # Approach covers 10 mm, the strip 10 mm more: still only 5 shots.
        assert len(res.log) == 5
        assert np.all(res.log.positions[:, 0] > 0)
        assert res.log.path_length == pytest.approx(0.02)

    def test_laser_disabled_logs_nothing(self):
        cfg = sim_config(laser_enabled=False)
        res = run_path(straight_path(0.01), cfg)
        assert len(res.log) == 0
        assert res.log.path_length == pytest.approx(0.01)

    def test_in_band_motion_changes_nothing(self):
        cfg = sim_config()
        still = MotionScript([0.0], [RigidTransform.identity()])
        wiggle = MotionScript(
            [0.0, 0.02],
            [RigidTransform.identity(),
             RigidTransform(np.eye(3), np.array([0.0, 0.002, 0.0]))])
        a = run_path(straight_path(0.01), cfg, motion=still)
        b = run_path(straight_path(0.01), cfg, motion=wiggle)
        assert np.array_equal(a.log.positions, b.log.positions)
        assert np.array_equal(a.log.time, b.log.time)

    def test_large_motion_reanchors_remaining_targets(self):
        cfg = sim_config()
        jump = MotionScript(
            [0.048, 0.0481],
            [RigidTransform.identity(),
             RigidTransform(np.eye(3), np.array([0.0, 0.01, 0.0]))])
        res = run_path(straight_path(0.02), cfg, motion=jump)
        ys = res.log.positions[:, 1]
        # Shots fired on ticks that start after the jump.
        after = res.log.time - 1.0 / cfg.control_rate > 0.0481
        assert ys[0] == 0.0
        # The tool ends on the re-anchored final target, and every shot after
        # the jump lies off the original line y = 0.
        assert np.allclose(res.final_state.position, [0.02, 0.01, 0.0], atol=1e-12)
        assert after.any() and np.all(ys[~after] == 0.0)
        assert np.all(ys[after] > 1e-3)

    def test_safety_stall_aborts_with_partial_result(self):
        wall = wall_cloud()
        rig = SensorRig()
        cfg = SimConfig(laser_diameter=0.004, pulse_rate=5.0,
                        control_rate=125.0, point_timeout=2.0)
        target = SegmentPath("down", [[0.0, 0.0, -0.05]], [Z_AXIS], [0], "horizontal")
        start = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.06]))
        with pytest.raises(AbortedOnSafety) as exc:
            run_path(target, cfg, rig=rig, cloud=wall, start=start)
        res = exc.value.result
        assert res is not None
        assert len(res.log) == 0
        dists = res.trajectory.dist_l
        finite = dists[np.isfinite(dists)]
        assert finite.min() < rig.l_min           # the guard did engage
        assert finite.min() >= 0.98 * rig.l_min   # but held the line
        assert res.trajectory.repulsing.any()

    def test_repeat_runs_identical(self):
        cfg = sim_config(laser_diameter=0.004, pulse_rate=5.0)
        wall = wall_cloud(size=0.1)
        rig = SensorRig()
        runs = []
        for _ in range(2):
            path = straight_path(0.03, normal=(0.0, 0.0, 1.0))
            res = run_path(path, cfg, standoff=0.1, rig=rig, cloud=wall)
            runs.append(res)
        a, b = runs
        assert np.array_equal(a.log.positions, b.log.positions)
        assert np.array_equal(a.log.time, b.log.time)
        for column in ("time", "position", "delta_d"):
            assert np.array_equal(getattr(a.trajectory, column),
                                  getattr(b.trajectory, column))



def two_segment_plan():
    """Two 20 mm strips along x, 10 mm apart in y, run as separate segments."""
    first = straight_path(0.02, label="first")
    second = straight_path(0.02, label="second", direction=(-1.0, 0.0, 0.0))
    second.positions = second.positions + np.array([0.02, 0.01, 0.0])
    return {"first": first, "second": second}


# Pure translation along y: 2.5 mm of in-band drift during the first segment
# (its strip runs 0 s - 1 s), then a ramp to 5.4 mm over 0.1 s on the second
# segment's approach leg (1 s - 1.5 s), before its strip.
HEAD_DRIFT = [(0.0, 0.0), (0.5, 0.0025), (1.1, 0.0025), (1.2, 0.0054), (9.0, 0.0054)]
DRIFT_CFG = SimConfig(laser_diameter=0.004, pulse_rate=5.0, control_rate=125.0)


def head_y(t):
    return float(np.interp(t, *zip(*HEAD_DRIFT)))


def simulate_two_segments(tmp_path, via):
    """(shot log, trajectory times) of the two-segment run under drift."""
    plan = two_segment_plan()
    keys = [{"t_s": t, "translation": [0.0, y, 0.0], "axis_angle": [0.0, 0.0, 0.0]}
            for t, y in HEAD_DRIFT]
    motion_file = tmp_path / "motion.json"
    motion_file.write_text(json.dumps(keys))
    if via == "run_path":
        res = run_path(plan, DRIFT_CFG, motion=MotionScript.from_json(motion_file))
        return res.log, list(res.trajectory.time)
    records = [r for path in plan.values() for r in path_records(path)]
    (tmp_path / "paths.json").write_text(json.dumps(records))
    shots, traj = tmp_path / "shots.csv", tmp_path / "traj.csv"
    assert cli_main(["simulate", "--paths", str(tmp_path / "paths.json"),
                     "--motion", str(motion_file), "--out-shots", str(shots),
                     "--out-traj", str(traj)]) == 0
    times = np.loadtxt(traj, delimiter=",", skiprows=1, usecols=0)
    log = read_shots_csv(shots)
    index = np.loadtxt(shots, delimiter=",", skiprows=1, usecols=0)
    assert np.array_equal(index, np.arange(len(log)))
    return log, list(times)


@pytest.mark.parametrize("via", ["run_path", "cli"])
def test_one_anchor_holds_across_segments(tmp_path, via):
    """Every shot stays within the dead-band of the head-carried plan, also
    in a segment that starts after in-band drift; indices and time run on."""
    log, times = simulate_two_segments(tmp_path, via)
    plan = two_segment_plan()
    tick_travel = (0.0054 - 0.0025) / 0.1 / DRIFT_CFG.control_rate
    offsets = []
    for segment, position, t in zip(log.segment, log.positions, log.time):
        a, b = plan[segment].positions
        q = position - np.array([0.0, head_y(t), 0.0])
        s = np.clip((q - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        offsets.append(float(np.linalg.norm(q - (a + s * (b - a)))))
    assert set(log.segment) == {"first", "second"}
    assert max(offsets) <= 3e-3 + tick_travel + 1e-9

    # The second segment opens with a row at the first segment's end time.
    alone = run_path(plan["first"], DRIFT_CFG,
                     motion=MotionScript.from_json(tmp_path / "motion.json"))
    n1 = len(alone.trajectory)
    assert times[n1 - 1] == pytest.approx(alone.final_state.time, abs=1e-9)
    assert times[n1] == times[n1 - 1]
    assert times[n1 + 1] > times[n1]


def _rejection_coverage(log, diameter, region, samples, seed):
    """Coverage as a polygon rejection sampler takes it: rounds of draws over
    the box's bounds, each keeping the draws inside the box's corner polygon
    by the half-open even-odd test, until `samples` draws are kept."""
    (u0, v0), (u1, v1) = region.lo, region.hi
    corners = np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])
    tree = cKDTree(log.positions)
    rng = np.random.default_rng(seed)
    kept = covered = 0
    while kept < samples:
        uv = rng.uniform(region.lo, region.hi, (samples, 2))
        uv = uv[points_in_polygon(uv, corners)][:samples - kept]
        dist, _ = tree.query(region.to_world(uv))
        covered += int(np.count_nonzero(dist <= 0.5 * diameter))
        kept += len(uv)
    return covered / samples


class TestCoverageMetrics:
    def test_empty_log_rejected(self):
        with pytest.raises(EmptyLog):
            coverage_metrics(shot_log([]), 0.004)

    def test_exact_strip_approaches_disk_packing(self):
        d = 0.004
        report = coverage_metrics(shot_log(d * np.arange(12), path_length=12 * d), d,
                                  samples=100_000)
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
        report = coverage_metrics(shot_log([0.0]), d, cloud=cloud)
        assert report.coverage == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_default_region_of_fewer_than_three_shots(self, n):
        """One or two shots still span a plane: a disk per shot in its padded
        square covers pi / 4 of it."""
        d = 0.004
        report = coverage_metrics(shot_log(d * np.arange(n)), d, samples=100_000)
        assert report.n_shots == n
        assert report.coverage == pytest.approx(math.pi / 4, abs=0.01)

    def test_spacings_only_within_strip_and_segment(self):
        d = 0.002
        log = shot_log([0.000, 0.002, 0.010, 0.012, 0.030], strips=[0, 0, 1, 1, 0],
                       segments=["a", "a", "a", "a", "b"], path_length=0.03)
        report = coverage_metrics(log, d)
        assert report.n_spacings == 2
        assert report.mean_spacing == pytest.approx(0.002)

    def test_diameter_validation(self):
        with pytest.raises(InvalidParam):
            coverage_metrics(shot_log([0.0]), 0.0)

    @pytest.mark.parametrize("diameter", [math.nan, math.inf])
    def test_diameter_must_be_finite(self, diameter):
        """A spot of no finite size has no cell grid over an explicit box."""
        region = PlanarRegion(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                              (0.0, 0.0), (0.01, 0.01))
        with pytest.raises(InvalidParam):
            coverage_metrics(shot_log([0.0]), diameter, region=region)

    @pytest.mark.parametrize("with_cloud", [False, True], ids=["box", "cloud"])
    @pytest.mark.parametrize("diameter", [1e155, 1e160, 1e308])
    def test_diameter_with_overflowing_square_rejected(self, diameter, with_cloud):
        """Past ~2.7e154 m the squared radius overflows, and with it the
        squared distances both counts compare, which read no location
        covered."""
        cloud = PointCloud(np.zeros((1, 3))) if with_cloud else None
        with pytest.raises(InvalidParam, match=r"finite \(diameter / 2\)\*\*2"):
            coverage_metrics(shot_log([0.0, 0.004]), diameter, cloud=cloud, samples=1000)

    def test_largest_diameters_still_count(self):
        """Just below the bound the squares are finite and the counts hold:
        two spots in their padded box, and a cloud point on a shot."""
        d = 1e154
        report = coverage_metrics(shot_log([0.0, d]), d, samples=20_000)
        assert report.coverage == pytest.approx(math.pi / 4, abs=0.02)
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [3.0 * d, 0.0, 0.0]]))
        assert coverage_metrics(shot_log([0.0, d]), d, cloud=cloud).coverage == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(samples=0), dict(samples=-3), dict(seed=-1),
    ], ids=["zero-samples", "negative-samples", "negative-seed"])
    def test_sampling_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            coverage_metrics(shot_log([0.0, 0.004]), 0.004, **kwargs)

    @pytest.mark.parametrize("lo, hi", [
        ((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.5)),
        ((math.nan, 0.0), (1.0, 1.0)), ((0.0, 0.0), (math.inf, 1.0)),
        ((0.0, -math.inf), (1.0, 1.0)), ((-1e308, -1.0), (1e308, 1.0)),
    ], ids=["flat-v", "flat-u", "reversed-v", "nan", "inf", "minus-inf",
            "overflowing-width"])
    def test_region_needs_finite_increasing_bounds(self, lo, hi):
        """A box with no area, or no finite one, has no coverage fraction."""
        with pytest.raises(InvalidParam):
            PlanarRegion(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], lo, hi)

    @pytest.mark.parametrize("field", ["origin", "u_axis", "v_axis"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_region_needs_finite_frame(self, field, bad):
        """A non-finite origin or axis is rejected by name, not left to fail
        in the kd-tree query of coverage_metrics."""
        frame = dict(origin=np.zeros(3), u_axis=[1.0, 0.0, 0.0], v_axis=[0.0, 1.0, 0.0])
        frame[field] = [bad, 0.0, 0.0]
        with pytest.raises(InvalidParam, match=f"region {field} must be finite"):
            PlanarRegion(lo=(0.0, 0.0), hi=(0.01, 0.01), **frame)

    @pytest.mark.parametrize("case", ["criterion-2", "criterion-3", "default-box"])
    def test_one_draw_matches_polygon_rejection(self, case):
        """The box's one draw gives the coverage the polygon rejection sampler
        gave for the same box, to the last bit: criteria 2 and 3's squares,
        and the padded box `report` uses when given no cloud."""
        d = 0.004
        x_axis, y_axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        if case == "criterion-2":
            log = shot_log([0.0])
            region = PlanarRegion(np.zeros(3), x_axis, y_axis, (-d / 2, -d / 2), (d / 2, d / 2))
        elif case == "criterion-3":
            log = run_path(plan_segment(plane_grid(), PlannerConfig(d)),
                           SimConfig(d, 5.0, control_rate=125.0)).log
            region = PlanarRegion(np.zeros(3), x_axis, y_axis, (0.0, 0.0), (0.047, 0.047))
        else:
            xs = d * np.arange(20) ** 1.1   # a tilted, wavy row of three strips
            log = ShotLog(0.1 * np.arange(20),
                          np.column_stack([xs, 0.003 * np.sin(xs / d), 0.2 * xs]),
                          np.zeros((20, 3)), np.arange(20) // 7, ["seg"] * 20, 0.0)
            region = simulator.default_shot_region(log.positions, d / 2)
        samples, seed = 1_000_000, 3
        box = coverage_metrics(log, d, region=region, samples=samples, seed=seed)
        assert box.coverage == _rejection_coverage(log, d, region, samples, seed)

    def test_memory_flat_in_samples(self):
        """A million-sample default-box estimate holds chunks and cells, not
        a million world points and distances (~61 MiB)."""
        d = 0.004
        xs = d * np.arange(13)
        log = shot_log(xs + 0.3 * d * np.sin(xs / d))
        tracemalloc.start()
        try:
            coverage_metrics(log, d, samples=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _log_at(positions):
    n = len(positions)
    return ShotLog(0.1 * np.arange(n), positions, np.zeros((n, 3)), np.zeros(n),
                   ["seg"] * n)


@st.composite
def coverage_cases(draw):
    """A shot log and a box in a tilted plane, drawn to stress the cell grid
    of coverage_metrics: origins up to 1 km out; boxes inside one spot,
    thin ones, or up to 1000 spots wide with few shots; shots on the plane
    and up to two radii off it, some on cell corners (of the finest grid,
    side radius / 16, and so of every coarser one); sample counts on both
    sides of a chunk edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.004, 0.0015]))
    r = 0.5 * d
    rot = axis_angle_to_rotation(rng.normal(size=3))
    origin = rng.uniform(-1.0, 1.0, 3) * draw(st.sampled_from([0.0, 1.0, 1000.0]))
    lo = rng.uniform(-1.0, 1.0, 2) * draw(st.sampled_from([0.0, 0.01, 1.0]))
    box = draw(st.sampled_from(["spot", "thin", "wide"]))
    if box == "spot":
        width = rng.uniform(0.01, 1.4, 2) * r
    elif box == "thin":
        width = rng.uniform(1.0, 100.0, 2) * d
        width[rng.integers(2)] *= draw(st.sampled_from([1e-3, 1e-6]))
    else:
        width = rng.uniform(100.0, 1000.0, 2) * d
    region = PlanarRegion(origin, rot[:, 0], rot[:, 1], lo, lo + width)
    n = draw(st.integers(1, 4 if box == "wide" else 40))
    side = r / 16 * 2.0 ** rng.integers(0, 12, n)[:, None]
    corner = lo + side * rng.integers(0, np.ceil(width / side) + 1)
    anywhere = rng.uniform(lo - r, lo + width + r, (n, 2))
    on_corner = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    off = rng.uniform(-2.0, 2.0, n) * r * (rng.random(n) < 0.5)
    positions = (region.to_world(np.where(on_corner[:, None], corner, anywhere))
                 + off[:, None] * rot[:, 2])
    samples = draw(st.sampled_from([1, 100, 5000, 2**16, 2**16 + 1]))
    return _log_at(positions), d, region, samples, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coverage_cases())
def test_coverage_equals_full_draw(case):
    """Counting proven cells whole and querying only mixed cells' samples
    gives the fraction of one full draw queried sample by sample, exactly."""
    log, d, region, samples, seed = case
    got = coverage_metrics(log, d, region=region, samples=samples, seed=seed)
    assert got.coverage == full_draw_coverage(log, d, region, samples, seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 1000.0]),
       st.sampled_from([0.004, 0.0015]), st.integers(1, 300), st.integers(1, 40))
def test_cloud_coverage_equals_tree_query(seed, scale, d, n_points, n_shots):
    """Against a cloud, the treated fraction is a bounded kd-tree query's of
    every point, bit for bit: points at exactly the radius from a shot
    along an axis, and within 8 ulps of it, clouds wider than the shots'
    box or beside it, and coincident shots, up to 1 km out."""
    rng = np.random.default_rng(seed)
    r = 0.5 * d
    origin = rng.uniform(-1.0, 1.0, 3) * scale
    shots = origin + rng.uniform(-1.0, 1.0, (n_shots, 3)) * rng.choice([0.0, r, 5.0 * d])
    shots[rng.random(n_shots) < 0.2] = shots[0]
    points = origin + rng.uniform(-1.0, 1.0, (n_points, 3)) * rng.choice([r, 5.0 * d, 50.0 * d])
    axis = np.eye(3)[rng.integers(0, 3, n_points)] * rng.choice([-1.0, 1.0], (n_points, 1))
    edge = rng.random(n_points) < 0.5
    points[edge] = (shots[rng.integers(0, n_shots, n_points)]
                    + (r + np.spacing(r) * rng.integers(-8, 9, n_points))[:, None] * axis)[edge]
    dist, _ = cKDTree(shots).query(points, distance_upper_bound=float(np.nextafter(r, np.inf)))
    got = coverage_metrics(_log_at(shots), d, cloud=PointCloud(points)).coverage
    assert got == float(np.mean(dist <= r))


@st.composite
def cell_edge_cases(draw):
    """One shot within an ulp of the covered or the empty test's edge for
    the one cell of a box a few ulps wide, 1 km out: its samples sit on the
    cell's corners, where only the margin separates the cell's proof from
    the samples' own distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 0.004
    r = 0.5 * d
    rot = axis_angle_to_rotation(rng.normal(size=3))
    u_axis, v_axis = rot[:, 0], rot[:, 1]
    lo = rng.uniform(-0.1, 0.1, 2)
    region = PlanarRegion(rng.uniform(-1000.0, 1000.0, 3), u_axis, v_axis, lo,
                          lo + np.spacing(np.abs(lo)) * rng.integers(1, 4, 2))
    side = r / 16                       # the box is narrower than one cell
    centre = region.to_world(lo + 0.5 * side)[0]
    toward_lo = region.to_world(lo)[0] - centre
    toward_lo /= np.linalg.norm(toward_lo)
    half = 0.5 * side * max(np.linalg.norm(u_axis + v_axis), np.linalg.norm(u_axis - v_axis))
    nudge = rng.uniform(-1.0, 1.0) * np.spacing(1000.0)
    if draw(st.booleans()):             # covered edge, beyond the far corner
        shot = centre - (r - half + nudge) * toward_lo
    else:                               # empty edge, beyond the lo corner
        shot = centre + (r + half + nudge) * toward_lo
    return _log_at(shot[None]), d, region, 64, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cell_edge_cases())
def test_coverage_equals_full_draw_at_cell_edges(case):
    """The margin keeps a cell whose proof is within rounding of failing
    mixed, so its corner samples are still tested."""
    log, d, region, samples, seed = case
    got = coverage_metrics(log, d, region=region, samples=samples, seed=seed)
    assert got.coverage == full_draw_coverage(log, d, region, samples, seed)


@st.composite
def crowded_cases(draw):
    """9 to 300 shots in one to three clusters of a few radii, from
    coincident to 1.5 radii wide, origins up to 1 km out: cells with many
    candidates, most of which the nearest shot beats, beside cells with a
    few. The box is the shots' own, or one of up to four radii a side from
    the clusters' common origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.004, 0.0015]))
    r = 0.5 * d
    rot = axis_angle_to_rotation(rng.normal(size=3))
    origin = rng.uniform(-1.0, 1.0, 3) * draw(st.sampled_from([0.0, 1.0, 1000.0]))
    n, k = draw(st.integers(9, 300)), draw(st.integers(1, 3))
    centres = rng.uniform(-3.0, 3.0, (k, 3)) * r
    spread = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.5, 1.5])) * r
    positions = origin + (centres[rng.integers(0, k, n)]
                          + rng.uniform(-1.0, 1.0, (n, 3)) * spread) @ rot.T
    if draw(st.booleans()):
        region = simulator.default_shot_region(positions, r)
    else:
        region = PlanarRegion(origin, rot[:, 0], rot[:, 1], rng.uniform(-4.0, 0.0, 2) * r,
                              rng.uniform(0.1, 4.0, 2) * r)
    samples = draw(st.sampled_from([1, 100, 5000, 2**16 + 1]))
    return _log_at(positions), d, region, samples, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(crowded_cases())
def test_coverage_equals_full_draw_in_crowded_cells(case):
    """A crowded cell's samples test only the candidates its nearest shot
    does not beat, and the count is still the full draw's, exactly."""
    log, d, region, samples, seed = case
    got = coverage_metrics(log, d, region=region, samples=samples, seed=seed)
    assert got.coverage == full_draw_coverage(log, d, region, samples, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 1000.0]),
       st.sampled_from([0.004, 0.0015, 0.001 * math.pi]))
def test_candidate_distance_equals_tree_query(seed, scale, d):
    """The distance a mixed cell's sample takes to a candidate shot is the
    kd-tree's, bit for bit, so both decide `<= radius` alike: points within
    8 ulps of the radius from a shot up to 1 km out, in random and in axis
    directions."""
    rng = np.random.default_rng(seed)
    r, n = 0.5 * d, 4096
    shot = rng.uniform(-1.0, 1.0, 3) * scale
    unit = rng.normal(size=(n, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    unit[: n // 8] = np.eye(3)[rng.integers(0, 3, n // 8)] * rng.choice([-1.0, 1.0], (n // 8, 1))
    points = shot + (r + np.spacing(r) * rng.integers(-8, 9, n))[:, None] * unit
    want, _ = cKDTree(shot[None]).query(points)
    got = simulator._distances(*points.T, shot[:, None], np.zeros(n, dtype=np.intp))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 1000.0]))
def test_world_columns_equal_broadcast_sum(seed, scale):
    """World points built column by column, for the mixed samples and in
    `to_world`, are the bits of the broadcast (n, 3) sum origin + u u_axis
    + v v_axis."""
    rng = np.random.default_rng(seed)
    rot = axis_angle_to_rotation(rng.normal(size=3))
    lo = rng.uniform(-1.0, 1.0, 2) * scale
    region = PlanarRegion(rng.uniform(-1.0, 1.0, 3) * scale, rot[:, 0], rot[:, 1], lo,
                          lo + rng.uniform(1e-3, 1.0, 2))
    uv = rng.uniform(region.lo, region.hi, (1000, 2))
    want = (region.origin[None, :] + uv[:, :1] * region.u_axis[None, :]
            + uv[:, 1:] * region.v_axis[None, :])
    got = np.column_stack(region.world_columns(uv[:, 0], uv[:, 1]))
    assert got.tobytes() == want.tobytes()
    assert region.to_world(uv).tobytes() == want.tobytes()


def _best_times(*functions, repeats=3):
    """Each function's fastest of `repeats` runs, the runs interleaved."""
    best = [math.inf] * len(functions)
    for _ in range(repeats):
        for i, f in enumerate(functions):
            start = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("spread", [1e-4, 0.0], ids=["within-0.1mm", "coincident"])
def test_piled_shots_stay_on_the_tree(spread):
    """2,000 shots piled within 0.1 mm, or on one point, crowd every mixed
    cell: their samples test only the shots the nearest one does not beat,
    or the one position, so the count stays exact, within twice the time of
    classifying the cells and querying every unsettled sample in a
    kd-tree, and within the memory bound, where testing thousands of
    candidates per sample, or measuring every shot of the pile for each
    cell, would take several times longer."""
    rng = np.random.default_rng(7)
    d, samples, seed = 0.004, 100_000, 2
    log = _log_at(np.array([0.01, 0.02, 0.3]) + rng.uniform(-0.5, 0.5, (2000, 3)) * spread)
    region = simulator.default_shot_region(log.positions, 0.5 * d)
    got = coverage_metrics(log, d, samples=samples, seed=seed).coverage
    assert got == full_draw_coverage(log, d, region, samples, seed)
    assert got == tree_coverage(log, d, region, samples, seed)
    fast, reference = _best_times(
        lambda: coverage_metrics(log, d, samples=samples, seed=seed),
        lambda: tree_coverage(log, d, region, samples, seed))
    assert fast < 2.0 * reference
    tracemalloc.start()
    try:
        coverage_metrics(log, d, samples=samples, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ------------------------------------------ segment blocks vs the tick loop

@contextlib.contextmanager
def stepping(tick_loop=False):
    """Record the clock of every `step` call. With tick_loop, every leg runs
    through the tick loop (`support.tick_legs` in place of `_Run._legs`), the
    reference the segment blocks are tested against."""
    calls = []
    real_step = simulator.step

    def recording_step(state, *args, **kwargs):
        calls.append(state.time)
        return real_step(state, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "step", recording_step)
        if tick_loop:
            mp.setattr(simulator._Run, "_legs", tick_legs)
        yield calls


def run_outcome(paths, cfg, tick_loop=False, **kwargs):
    """(result, abort or contact message, clocks of the `step` calls) of a run;
    a ContactError leaves no result."""
    with stepping(tick_loop) as calls:
        try:
            return run_path(paths, cfg, **kwargs), None, calls
        except AbortedOnSafety as exc:
            return exc.result, str(exc), calls
        except ContactError as exc:
            return None, str(exc), calls


def assert_same_run(paths, cfg, **kwargs):
    """Run as run_path runs and through the tick loop; assert that the two
    agree and return the abort or contact message, or None."""
    fast, fast_abort, fast_calls = run_outcome(paths, cfg, **kwargs)
    ref, ref_abort, ref_calls = run_outcome(paths, cfg, tick_loop=True, **kwargs)
    assert fast_abort == ref_abort
    if ref is None or fast is None:
        # Contact: raised by the same tick, which the tick loop steps.
        assert ref is None and fast is None
        assert fast_calls[-1] == ref_calls[-1]
        return fast_abort
    for column in ("time", "strip", "segment"):
        assert np.array_equal(getattr(fast.log, column), getattr(ref.log, column))
    for column in ("positions", "axis_angle"):
        assert np.allclose(getattr(fast.log, column), getattr(ref.log, column),
                           rtol=0.0, atol=1e-12)
    assert fast.log.path_length == pytest.approx(ref.log.path_length, abs=1e-12)
    assert len(fast.trajectory) == len(ref.trajectory)
    assert np.array_equal(fast.trajectory.time, ref.trajectory.time)
    assert np.abs(fast.trajectory.position - ref.trajectory.position).max() <= 1e-12
    assert np.abs(fast.trajectory.delta_d - ref.trajectory.delta_d).max() <= 1e-12
    a, b = fast.trajectory.dist_l, ref.trajectory.dist_l
    differ = np.flatnonzero(~np.isclose(a, b, rtol=0.0, atol=1e-12))
    if differ.size:
        i = differ[0]
        pytest.fail(f"the sensed distance differs on {differ.size} ticks, first at "
                    f"t = {fast.trajectory.time[i]:.6f} s: {a[i]!r} against the tick "
                    f"loop's {b[i]!r}; a sensor hit flipped at the beam edge")
    assert np.array_equal(fast.trajectory.repulsing, ref.trajectory.repulsing)
    a, b = fast.final_state, ref.final_state
    assert a.time == b.time
    assert np.abs(a.position - b.position).max() <= 1e-12
    assert np.abs(a.rotation - b.rotation).max() <= 1e-12
    return fast_abort


coords = st.floats(-0.015, 0.015, allow_nan=False)


@st.composite
def plans(draw):
    """One or two segments of 2-4 targets in a 30 mm cube, strips in order."""
    out = {}
    for label in ("first", "second")[:draw(st.integers(1, 2))]:
        n = draw(st.integers(2, 4))
        chi, eta = [], []
        for _ in range(n):
            chi.append([draw(coords) for _ in range(3)])
            tilt = [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), 1.0]
            eta.append(np.asarray(tilt) / np.linalg.norm(tilt))
        strips = np.cumsum([0] + [draw(st.sampled_from([0, 0, 1])) for _ in range(n - 1)])
        out[label] = SegmentPath(label, chi, eta, strips, "horizontal")
    return out


@st.composite
def head_motion(draw, dt, translation_tol, rotation_tol):
    """Head poses held between switches half a tick off the tick grid, each a
    lattice level away from the others: any two differ by at most 0.4 or at
    least 2.1 times each dead-band bound, so no tick lands near a threshold."""
    switches = sorted(draw(st.sets(st.integers(0, 600), max_size=3)))
    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [0.0, 0.0, 2.0]
    axis = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [2.0, 0.0, 0.0]
    direction, axis = direction / np.linalg.norm(direction), axis / np.linalg.norm(axis)
    poses = []
    for _ in range(len(switches) + 1):
        shift, turn = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        wiggle = np.array([draw(st.floats(-0.11, 0.11)) for _ in range(3)])
        angle = (2.5 * turn + draw(st.floats(-0.2, 0.2))) * rotation_tol
        poses.append(RigidTransform(axis_angle_to_rotation(angle * axis),
                                    (2.5 * shift * direction + wiggle) * translation_tol))
    times, keys = [0.0], [poses[0]]
    for k, (before, after) in zip(switches, zip(poses, poses[1:])):
        t = (k + 0.5) * dt
        times += [t, t + 0.1 * dt]
        keys += [before, after]
    return MotionScript(times, keys)


def guarded_surface(draw, paths, kwargs, guard):
    """The rig and cloud of a drawn guard: a wall 20-60 mm below the plan's
    cube, and for "contact" also a point at the tool's start, inside the beams
    of a ring narrower than the beam."""
    if guard == "idle":
        return IDLE_GUARD
    points = wall_cloud(0.2, 0.004).positions - [0.0, 0.0, draw(st.floats(0.02, 0.06))]
    rig = SensorRig()
    if guard == "contact":
        first = next(iter(paths.values()))
        tip = (kwargs["start"].translation if "start" in kwargs
               else path_to_poses(first, kwargs["standoff"])[1][0])
        points = np.vstack([points, tip])
        rig = SensorRig(ring_radius=0.002)
    return {"rig": rig, "cloud": PointCloud(points, np.tile(Z_AXIS, (len(points), 1)))}


@st.composite
def runs(draw, guards):
    guard = draw(st.sampled_from(guards))
    rate = draw(st.floats(50.0, 250.0))
    diameter = draw(st.floats(0.001, 0.006))
    ticks_per_shot = draw(st.floats(1.5, 30.0))
    # A wall can hold the tool off a target for good; the timeout ends such a run.
    timeouts = [1e6, 30.0, 30.0, 0.3, 1.0] if guard in ("none", "idle") else [0.3, 1.0]
    cfg = SimConfig(diameter, rate / ticks_per_shot, control_rate=rate,
                    point_timeout=draw(st.sampled_from(timeouts)),
                    laser_enabled=draw(st.sampled_from([True, True, False])),
                    deadband_translation=draw(st.floats(1e-3, 5e-3)),
                    deadband_rotation=math.radians(draw(st.floats(2.0, 8.0))))
    kwargs = {"standoff": draw(st.sampled_from([0.0, 0.01, 0.05]))}
    if draw(st.booleans()):
        kwargs["motion"] = draw(head_motion(1.0 / rate, cfg.deadband_translation,
                                            cfg.deadband_rotation))
    if draw(st.booleans()):
        kwargs["start"] = RigidTransform(np.eye(3), [draw(coords) for _ in range(3)])
    paths = draw(plans())
    if guard != "none":
        kwargs.update(guarded_surface(draw, paths, kwargs, guard))
    return paths, cfg, kwargs


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs(["none", "idle"]))
def test_closed_form_legs_match_tick_loop(run):
    paths, cfg, kwargs = run
    assert_same_run(paths, cfg, **kwargs)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs(["wall", "wall", "contact"]))
def test_guarded_legs_match_tick_loop(run):
    """Walls the guard may engage mid-leg, and a sensor hit at the tool's start."""
    paths, cfg, kwargs = run
    assert_same_run(paths, cfg, **kwargs)


whole_ticks = st.integers(-8, 40).map(lambda m: max(m, 0))     # 0 repeats a target


def on_tick(tick, dt, cfg, draw):
    """Head motion that first leaves the dead-band on `tick`, the pose held
    between switches half a tick off the grid, and may move on later."""
    still = RigidTransform(np.eye(3), np.zeros(3))
    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [0.0, 0.0, 2.0]
    direction /= np.linalg.norm(direction)
    if draw(st.booleans()):
        def head(level):
            return RigidTransform(np.eye(3), 2.5 * level * cfg.deadband_translation * direction)
    else:
        def head(level):
            return RigidTransform(axis_angle_to_rotation(
                2.5 * level * cfg.deadband_rotation * direction), np.zeros(3))
    t = (tick - 0.5) * dt
    times, poses = [0.0, t, t + 0.1 * dt], [still, still, head(1)]
    later = draw(st.sampled_from([None, 0, 2]))
    if later is not None:
        t = (tick + draw(st.integers(1, 200)) - 0.5) * dt
        times, poses = times + [t, t + 0.1 * dt], poses + [head(1), head(later)]
    return MotionScript(times, poses)


@st.composite
def bump_runs(draw):
    """bump_run with a drawn bump, speed and strips, and at times a repeated
    target: one block of three or four legs whose middle leg passes over the
    bump, where the guard engages."""
    path, _, guard = bump_run()
    drop, shift = draw(st.floats(0.0, 0.004)), draw(st.floats(-0.01, 0.02))
    bump = PointCloud(guard["cloud"].positions + [shift, 0.0, drop], guard["cloud"].normals)
    chi, strips = path.positions, [0, 0, 0, 0]
    if draw(st.booleans()):
        strips = [0, 0, 0, 1] if draw(st.booleans()) else [0, 1, 1, 1]
    repeat = draw(st.sampled_from([None, 1, 2]))
    if repeat is not None:
        chi = np.insert(chi, repeat, chi[repeat], axis=0)
        strips = strips[:repeat] + strips[repeat - 1:]
    cfg = SimConfig(draw(st.floats(0.003, 0.006)), draw(st.floats(5.0, 20.0)))
    path = SegmentPath("bump", chi, [Z_AXIS] * len(chi), strips, "horizontal")
    return path, cfg, {"rig": guard["rig"], "cloud": bump}, ("engage", (-0.05, 0.05))


@st.composite
def segment_runs(draw):
    """A run whose first event falls on a chosen tick, and what it must do.

    Each leg is a whole number of ticks of travel long (0 repeats a target),
    so the tick each leg starts on is known before the run: the head leaves
    the dead-band in the middle of a leg, on a leg's first tick or on the
    second segment's first tick; or a point_timeout fires on a later leg of
    its segment. Strips change between some targets, and the dark legs
    between them reset delta_d.
    """
    event = draw(st.sampled_from(["mid-leg", "leg-boundary", "segment-start", "timeout",
                                  "guard"]))
    if event == "guard":
        return draw(bump_runs())
    rate = draw(st.floats(50.0, 250.0))
    cfg = SimConfig(draw(st.floats(0.001, 0.006)), rate / draw(st.floats(1.5, 30.0)),
                    control_rate=rate, deadband_translation=draw(st.floats(1e-3, 5e-3)),
                    deadband_rotation=math.radians(draw(st.floats(2.0, 8.0))),
                    laser_enabled=draw(st.sampled_from([True, True, False])))
    dt = 1.0 / rate
    s = cfg.max_speed * dt
    sizes = [draw(st.integers(3, 6)) for _ in range(2 if event == "segment-start"
                                                    else draw(st.integers(1, 2)))]
    # (segment, target) of every leg in run order; the run starts at target 0.
    legs = [(g, j) for g, size in enumerate(sizes) for j in range(size) if g or j]
    if event == "segment-start":
        chosen = legs.index((1, 0))
    else:                                   # not the first leg of its segment
        chosen = draw(st.sampled_from([i for i, (g, j) in enumerate(legs)
                                       if j >= (2 if g == 0 else 1)]))
    ticks = [draw(whole_ticks) for _ in legs]
    ticks[0] = max(ticks[0], 1)
    if event == "mid-leg":
        ticks[chosen] = max(ticks[chosen], 2)
        tick = sum(ticks[:chosen]) + draw(st.integers(1, ticks[chosen] - 1))
    elif event in ("leg-boundary", "segment-start"):
        ticks[chosen] = max(ticks[chosen], 1)
        tick = sum(ticks[:chosen])
    else:
        longest = max(ticks[:chosen])
        ticks[chosen] = longest + draw(st.integers(1, 10))
        cfg.point_timeout = (longest - 0.5) * dt

    position, chi = np.zeros(3), {0: [np.zeros(3)]}
    for (g, _), m in zip(legs, ticks):
        way = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [0.0, 1e-3, 0.0]
        position = position + m * s * way / np.linalg.norm(way)
        chi.setdefault(g, []).append(position)
    paths = {}
    for g, size in enumerate(sizes):
        strips = np.cumsum([0] + [draw(st.sampled_from([0, 0, 1])) for _ in range(size - 1)])
        paths[f"seg{g}"] = SegmentPath(f"seg{g}", chi[g], [Z_AXIS] * size, strips,
                                       "horizontal")
    kwargs = {"standoff": 0.0}
    if draw(st.booleans()):
        kwargs.update(IDLE_GUARD)
    if event == "timeout":
        g, j = legs[chosen]
        return paths, cfg, kwargs, ("abort", f"target {j} of 'seg{g}' not reached")
    kwargs["motion"] = on_tick(tick, dt, cfg, draw)
    return paths, cfg, kwargs, ("re-anchor", tick * dt)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(segment_runs())
def test_segment_blocks_match_tick_loop(case):
    """run_path against the tick loop on runs whose first event is placed on
    a chosen tick, and that event happens there."""
    paths, cfg, kwargs, (kind, expect) = case
    message = assert_same_run(paths, cfg, **kwargs)
    clocks = []
    real = simulator._Run._reanchor

    def reanchor(run, head):
        clocks.append(run.state.time)
        real(run, head)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator._Run, "_reanchor", reanchor)
        res, _, _ = run_outcome(paths, cfg, **kwargs)
    if kind == "abort":
        assert message.startswith(expect) and not clocks
    elif kind == "engage":
        first = int(np.argmax(res.trajectory.repulsing))
        assert message is None and res.trajectory.repulsing[first]
        assert expect[0] < res.trajectory.position[first, 0] < expect[1]
    else:
        assert message is None and abs(clocks[0] - expect) < 1e-9


@pytest.mark.parametrize("level, reanchors", [(0.005, 2), (0.001, 0)],
                         ids=["leaves-twice", "stays-in-band"])
def test_deadband_scan_ends_at_the_last_keyframe(level, reanchors):
    """A 5 s run under head motion that ends at 1.1 s: each leaves_deadband
    call gets at most one tick at or after the last keyframe, from which on
    the head stands still, and the run re-anchors on the same ticks as the
    tick loop."""
    cfg = SimConfig(0.004, 5.0)
    dt = 1.0 / cfg.control_rate
    moves = [RigidTransform(np.eye(3), [0.0, y, 0.0]) for y in (0.0, level, 2.0 * level)]
    motion = MotionScript([0.0, 62.5 * dt, 62.6 * dt, 137.5 * dt, 137.6 * dt],
                          [moves[0], moves[0], moves[1], moves[1], moves[2]])
    path = straight_path(0.1)
    assert assert_same_run(path, cfg, motion=motion) is None
    real_reanchor, real_scan = simulator._Run._reanchor, MotionScript.leaves_deadband
    clocks, scans = ([], []), []

    def reanchor(run, head):
        clocks[tick_loop].append(run.state.time)
        real_reanchor(run, head)

    def scan(script, anchor, times, *tolerances):
        scans.append(np.asarray(times))
        return real_scan(script, anchor, times, *tolerances)

    for tick_loop in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator._Run, "_reanchor", reanchor)
            mp.setattr(MotionScript, "leaves_deadband", scan)
            if tick_loop:
                mp.setattr(simulator._Run, "_legs", tick_legs)
            res = run_path(path, cfg, motion=motion)
        assert res.final_state.time > motion.times[-1] + 3.0
    assert clocks[0] == clocks[1] and len(clocks[0]) == reanchors
    assert scans and all((times >= motion.times[-1]).sum() <= 1 for times in scans)


def test_guarded_leg_that_reanchors_before_its_first_tick():
    """The first leg takes three ticks and the head leaves the dead-band
    during the last one, so the second leg's first block has no tick."""
    cfg = SimConfig(0.004, 5.0)
    dt, s = 1.0 / cfg.control_rate, cfg.max_speed / cfg.control_rate
    path = SegmentPath("leap", [[0.0, 0.0, 0.05], [2.5 * s, 0.0, 0.05], [0.01, 0.0, 0.05]],
                       [Z_AXIS] * 3, [0, 0, 0], "horizontal")
    still = RigidTransform(np.eye(3), np.zeros(3))
    moved = RigidTransform(np.eye(3), np.array([0.0, 0.01, 0.0]))
    motion = MotionScript([0.0, 2.5 * dt, 2.6 * dt], [still, still, moved])
    assert assert_same_run(path, cfg, motion=motion, **IDLE_GUARD) is None


@pytest.mark.parametrize("tick_loop", [False, True], ids=["blocks", "tick-loop"])
def test_reanchored_leg_turns_to_the_carried_target(tick_loop):
    """A head roll beyond the dead-band arrives in the middle of a leg whose
    target is tilted, and a point timeout ends the run later on that leg.
    From the re-anchoring tick on, every shot and the final pose take the
    slerp from the leg's start rotation to carry.rotation @ the plan
    rotation, at the leg's fraction of travel; the shots before it turn
    toward the plan rotation."""
    cfg = SimConfig(0.004, 5.0, point_timeout=1.0)
    dt = 1.0 / cfg.control_rate
    tilted = np.array([0.3, 0.0, 1.0]) / np.linalg.norm([0.3, 0.0, 1.0])
    path = SegmentPath("tilt", [[0.0, 0.0, 0.0], [0.03, 0.0, 0.0]], [Z_AXIS, tilted],
                       [0, 0], "horizontal")
    roll = RigidTransform(rotation_about_z(math.radians(10.0)), np.zeros(3))
    still = RigidTransform.identity()
    # The head rolls between the ticks that start at 62 dt and at 63 dt.
    motion = MotionScript([0.0, 62.25 * dt, 62.75 * dt], [still, still, roll])
    res, message, _ = run_outcome(path, cfg, tick_loop, motion=motion)
    assert message.startswith("target 1 of 'tilt' not reached within 1 s")

    plan_rot, plan_pos = path_to_poses(path, 0.0)
    length = np.linalg.norm(plan_pos[1] - plan_pos[0])

    def turned(t, target):
        return interpolate_rotation(plan_rot[0], target,
                                    min(1.0, (t - 0.0) * cfg.max_speed / length))

    carried = roll.rotation @ plan_rot[1]
    after = res.log.time > 63.5 * dt
    assert after.any() and not after.all()
    for t, axis_angle, late in zip(res.log.time, res.log.axis_angle, after):
        want = turned(t, carried if late else plan_rot[1])
        assert np.array_equal(axis_angle, rotation_to_axis_angle(want))
    final = res.final_state
    assert final.time * cfg.max_speed < length      # the run ends mid-leg
    assert np.array_equal(final.rotation, turned(final.time, carried))


def test_timeout_aborts_alike():
    """A 20 mm leg at 20 mm/s under a 0.5 s timeout aborts at the same tick."""
    cfg = SimConfig(0.004, 5.0, point_timeout=0.5)
    start = RigidTransform(np.eye(3), np.array([-0.02, 0.0, 0.0]))
    message = assert_same_run(straight_path(0.01), cfg, start=start)
    assert message.startswith("target 0 of 'strip' not reached within 0.5 s")


@pytest.mark.parametrize("scenario", COLLISION_SCENARIOS,
                         ids=[name for name, *_ in COLLISION_SCENARIOS])
def test_collision_scenarios_match_tick_loop(scenario):
    """The criterion-8 runs engage the guard mid-leg and stall against a wall."""
    _, *args = scenario
    path, cfg, kwargs = collision_run(*args)
    message = assert_same_run(path, cfg, **kwargs)
    assert message.startswith("target 0 of 'intrusion' not reached within 2 s")


def bump_run():
    """Four targets 50 mm above a 9 mm square bump that is 25 mm below them;
    the middle leg passes over it. A weak repulsion deflects the tool without
    stalling it."""
    g = np.arange(-0.004, 0.0041, 0.001)
    xx, yy = np.meshgrid(g, g)
    bump = PointCloud(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, 0.025)]),
                      np.tile(Z_AXIS, (xx.size, 1)))
    path = SegmentPath("bump", [[-0.1, 0.0, 0.05], [-0.05, 0.0, 0.05], [0.05, 0.0, 0.05],
                                [0.05, 0.06, 0.05]], [Z_AXIS] * 4, [0] * 4, "horizontal")
    return path, SimConfig(0.004, 5.0), {"rig": SensorRig(kappa=1e-6), "cloud": bump}


def test_guard_steps_from_where_it_engages_to_the_end_of_the_leg():
    path, cfg, guard = bump_run()
    assert assert_same_run(path, cfg, **guard) is None
    res, _, calls = run_outcome(path, cfg, **guard)
    traj = res.trajectory
    engages = int(np.argmax(traj.dist_l < guard["rig"].l_min))
    assert engages > 0 and traj.repulsing[engages] and not traj.repulsing[:engages].any()
    arrives = np.flatnonzero(np.linalg.norm(traj.position - path.positions[2], axis=1) < 1e-12)
    # `step` is called with the clock at the start of each tick it takes: from
    # the engaging tick to the one that arrives, and on no leg before or after.
    assert calls == traj.time[engages - 1:arrives[0]].tolist()
    assert traj.time[-1] > traj.time[arrives[0]] + 1.0


@pytest.mark.parametrize("laser", [True, False], ids=["laser-on", "laser-off"])
def test_carried_travel_restarts_at_every_strip_run(laser):
    """Two strips over `bump_run`'s bump: the guard engages on the first
    strip's second leg, and the head steps 5 mm, out of the dead-band, in
    the middle of the second strip's leg. Replayed from the trajectory's
    tick travel, delta_d reads 0 on every unarmed tick (the dark leg between
    the strips, and every tick with the laser off), restarts from 0 at each
    strip run, goes on across the engaged guard and the re-anchor, and
    fires on the shots' ticks."""
    path, _, guard = bump_run()
    chi = np.vstack([path.positions, [[-0.05, 0.06, 0.05]]])
    plan = SegmentPath("bump", chi, [Z_AXIS] * 5, [0, 0, 0, 1, 1], "horizontal")
    cfg = SimConfig(0.004, 5.0, laser_enabled=laser)
    shift = np.array([0.0, 0.005, 0.0])
    motion = MotionScript([0.0, 13.0, 13.004], [RigidTransform.identity()] * 2
                          + [RigidTransform(np.eye(3), shift)])
    res = run_path(plan, cfg, motion=motion, **guard)
    traj = res.trajectory
    assert traj.repulsing.any()

    # Leg j ends on the tick that arrives at target j, carried by the step
    # for the last one.
    ends = [0]
    for j, target in enumerate(chi[1:] + np.vstack([np.zeros((3, 3)), shift]), 1):
        near = np.linalg.norm(traj.position[ends[-1] + 1:] - target, axis=1) <= 1e-9
        assert near.any(), f"target {j} not reached"
        ends.append(ends[-1] + 1 + int(np.argmax(near)))
    assert ends[-1] == len(traj) - 1
    assert traj.delta_d[0] == 0.0

    travel = np.linalg.norm(np.diff(traj.position, axis=0), axis=1)
    fired, delta_d = [], 0.0
    for j in range(1, 5):
        armed = laser and plan.strip_indices[j] == plan.strip_indices[j - 1]
        if not armed:
            delta_d = 0.0                   # the next strip run starts from 0
        for i in range(ends[j - 1] + 1, ends[j] + 1):
            delta_d, fires = tick_trigger(delta_d, travel[i - 1], armed, cfg.laser_diameter)
            if fires:
                fired.append(traj.time[i])
            assert traj.delta_d[i] == (pytest.approx(delta_d, abs=1e-12) if armed else 0.0)
    assert res.log.time.tolist() == fired
    assert set(res.log.strip.tolist()) == ({0, 1} if laser else set())


@pytest.mark.parametrize("height", [0.1, 1.0], ids=["sensed", "out-of-range"])
def test_guard_that_never_engages_takes_no_step(height):
    """A guarded run whose fused distance stays at or above l_min is the
    closed-form run, with the sensed distance in its trajectory."""
    wall = wall_cloud(0.2, 0.004)
    guard = {"rig": SensorRig(),
             "cloud": PointCloud(wall.positions - [0.0, 0.0, height], wall.normals)}
    res, abort, calls = run_outcome(multi_strip_path(), sim_config(), **guard)
    assert abort is None and calls == []
    plain = run_path(multi_strip_path(), sim_config())
    assert np.array_equal(res.trajectory.position, plain.trajectory.position)
    assert np.array_equal(res.log.positions, plain.log.positions)
    # The first row is the segment's start, where nothing is sensed.
    sensed = np.isfinite(res.trajectory.dist_l)
    assert not sensed[0] and (sensed[1:].all() if height < 0.3 else not sensed.any())
    assert (res.trajectory.dist_l[sensed] >= guard["rig"].l_min).all()


def test_criterion_10_shots_csv_identical_guarded_or_not(tmp_path, monkeypatch):
    """On the criterion-10 inputs, shots.csv is byte-identical between the
    segment blocks and the tick loop, reached through `_Run._legs`.
    traj.csv may differ in the 9th digit where a value sits on a rounding
    boundary; it has the same rows. Guarded by a surface out of sensor range,
    the run takes the blocks: both its files equal the unguarded ones."""
    from test_acceptance import _pipeline_inputs

    inputs, views = _pipeline_inputs(tmp_path)

    def cli(*argv):
        assert cli_main(["--config", str(inputs / "config.json"), *map(str, argv)]) == 0

    out = tmp_path / "out"
    out.mkdir()
    cli("viewpoints", "--face-pose", inputs / "face_pose.json", "--out", out / "vp.json")
    cli("register", "--views", *views, "--poses", out / "vp.json",
        "--out", out / "merged.ply")
    cli("segment", "--cloud", out / "merged.ply", "--landmarks", inputs / "lm.json",
        "--camera", inputs / "cam.json", "--out-dir", out / "segs")
    cli("plan", "--segments", out / "segs", "--out", out / "paths.json")
    save_ply(IDLE_GUARD["cloud"], out / "far.ply")
    far = ["--surface", out / "far.ply"]
    for name, guard, tick_loop in (("fast", [], False), ("ref", far, True),
                                   ("split", far, False)):
        with monkeypatch.context() as mp:
            if tick_loop:
                mp.setattr(simulator._Run, "_legs", tick_legs)
            cli("simulate", "--paths", out / "paths.json", "--motion",
                inputs / "motion.json", *guard, "--out-shots", out / f"{name}_shots.csv",
                "--out-traj", out / f"{name}_traj.csv")
    assert (out / "fast_shots.csv").read_bytes() == (out / "ref_shots.csv").read_bytes()
    for kind in ("shots", "traj"):
        assert (out / f"split_{kind}.csv").read_bytes() == \
            (out / f"fast_{kind}.csv").read_bytes()
    fast, ref = (np.loadtxt(out / f"{name}_traj.csv", delimiter=",", skiprows=1)
                 for name in ("fast", "ref"))
    assert fast.shape == ref.shape and len(fast) > 60_000
    assert np.array_equal(fast[:, 0], ref[:, 0])
    assert np.allclose(fast[:, 1:5], ref[:, 1:5], rtol=1e-8, atol=1e-12)
