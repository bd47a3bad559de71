"""Kinematic execution of planned paths with laser trigger and safety field.

The effector is a point tool driven through the path at bounded speed on a
fixed-rate control clock. Three behaviours ride on top of the motion:

* distance trigger: the laser fires every time the accumulated travel since
  the last shot reaches one spot diameter, so shot pitch is independent of
  the actual speed profile;
* proximity guard: a ring of distance sensors behind the tip measures the
  offset to the nearest surface; inside the protective radius l_min a
  repulsive velocity pushes the tool out along the fused measurement;
* re-anchoring: one anchor, the head pose at t = 0, holds for the whole
  run. Targets and the guarded surface stay in the plan frame; when the
  tracked head pose leaves a small dead-band around the last anchor, the
  targets are carried from the plan frame by the head's displacement since
  t = 0, across segment boundaries alike, and the sensor rays are carried
  back into the plan frame by its inverse. Inside the dead-band nothing
  changes.

A segment is evaluated in blocks, not tick by tick. Between two events (the
head leaving the dead-band, a point timeout, the guard engaging) every leg
is a straight line at max_speed, so the ticks of all the segment's remaining
legs are built in one array pass: one clock, the positions, the travel and
the trigger, with one pass per shot bounded to its strip, and one dead-band
check. The guard does not change that until it engages: the repulsive
velocity is exactly zero while the fused distance is at least l_min (Khatib,
IJRR 5(1), 1986). So a guarded block casts the sensor rays of each leg's
ticks in one batch, keeps the ticks before the first one whose distance is
below l_min, and steps tick by tick from there to the end of that leg,
because from then on the guard's feedback can bend the path. There `step`
moves the tool and feeds the guard; the ticks are logged, and the dead-band
checked, by the blocks' code. This tick loop is the blocks' reference.
Only `_Run._log` carries the travel toward the next shot from tick to tick,
by strip run, across events. No leg takes more ticks than make it late.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, raycast_many
from .errors import (
    AbortedOnSafety,
    ContactError,
    EmptyLog,
    FacelaserError,
    InvalidParam,
    MissingField,
    ParseError,
)
from .geometry import (
    RigidTransform,
    Vec3,
    hat,
    interpolate_rotation,
    interpolate_rotations,
    norms_by_column,
    parse_pose,
    rotation_to_axis_angle,
    rotations_to_axis_angle,
    row_norms,
)
from .pathplan import SegmentPath, path_to_poses


@dataclass
class SimConfig:
    laser_diameter: float                   # shot pitch on the path [m]
    pulse_rate: float                       # pulses per second [Hz]
    control_rate: float = 125.0             # control ticks per second [Hz]
    point_timeout: float = 30.0             # abort if one target takes longer [s]
    laser_enabled: bool = True
    deadband_translation: float = 3e-3      # ignore head motion below this [m]
    deadband_rotation: float = math.radians(4.0)    # and below this [rad]

    def __post_init__(self):
        rates = (self.laser_diameter, self.pulse_rate, self.control_rate)
        if not all(0 < v < math.inf for v in rates):
            raise InvalidParam("laser_diameter, pulse_rate and control_rate must be "
                               "positive and finite")
        if self.pulse_rate > self.control_rate:
            raise InvalidParam("pulse_rate exceeds control_rate, but the laser fires "
                               "at most once per control tick")
        if not 0 < self.point_timeout < math.inf:
            raise InvalidParam("point_timeout must be positive and finite")
        if not (self.deadband_translation >= 0 and self.deadband_rotation >= 0):
            raise InvalidParam("dead-band bounds must be non-negative")

    @property
    def max_speed(self) -> float:
        """One pulse per diameter of travel caps the speed at diameter * rate."""
        return self.laser_diameter * self.pulse_rate


@dataclass
class SensorRig:
    """Three distance sensors at 120 degrees on a ring behind the tool tip,
    looking out along the beam axis (tool -z).

    `origins` and `directions` hold the (3, 3) mount points and unit rays in
    the tool frame. Measurements are reported relative to the tool tip (the
    frame origin), not the sensor mounts, so l_min guards the tip itself.
    """

    ring_radius: float = 0.025              # mount ring radius about the beam axis [m]
    offset: float = 0.06                    # mount plane height behind the tip [m]
    max_range: float = 0.3                  # hits farther than this are ignored [m]
    l_min: float = 0.04                     # protective radius around the tip [m]
    kappa: float = 5e-4                     # repulsion gain [m^3/s]
    beam_radius: float = 0.004              # ray-to-point acceptance radius [m]

    def __post_init__(self):
        if not np.isfinite([self.ring_radius, self.offset, self.max_range,
                            self.l_min, self.kappa, self.beam_radius]).all():
            raise InvalidParam("sensor rig values must be finite")
        if self.max_range <= 0 or self.l_min <= 0 or self.kappa <= 0:
            raise InvalidParam("max_range, l_min and kappa must be positive")
        if self.l_min >= self.max_range:
            raise InvalidParam("l_min must be smaller than max_range")
        if self.beam_radius <= 0:
            raise InvalidParam("beam_radius must be positive")
        angles = 2.0 * np.pi * np.arange(3) / 3.0
        self.origins = np.stack([self.ring_radius * np.cos(angles),
                                 self.ring_radius * np.sin(angles),
                                 np.full(3, self.offset)], axis=1)
        self.directions = np.tile([0.0, 0.0, -1.0], (3, 1))


def sensor_fusion(rig: SensorRig, cloud: PointCloud, pose: RigidTransform,
                  carry: RigidTransform | None = None) -> np.ndarray | None:
    """Fused tip-to-surface offset vector, in the frame of `pose`.

    Each sensor casts its ray into the cloud; a hit contributes the vector
    from the tool tip to the hit point, weighted by how squarely the ray
    meets the skin (the cosine against the inward surface normal). Grazing
    and back-side hits carry no weight. Returns None when nothing is in range
    and raises ContactError when a hit coincides with the tip. This is
    sensor_fusion_many on one pose.
    """
    fused, contact = sensor_fusion_many(rig, cloud, pose.rotation[None],
                                        pose.translation[None], carry)
    if contact[0]:
        raise ContactError("sensor hit coincides with the tool tip")
    return None if np.isnan(fused[0, 0]) else fused[0]


def sensor_fusion_many(rig: SensorRig, cloud: PointCloud, rotations, tips,
                       carry: RigidTransform | None = None) -> tuple[np.ndarray, np.ndarray]:
    """sensor_fusion at n poses, (n, 3, 3) rotations and (n, 3) tool tips,
    with the rays of all of them cast in one batch.

    The guarded surface is `carry` applied to `cloud` (the cloud itself when
    `carry` is None), and the poses and offsets are in its frame. The
    sensors cast from inv(carry) o pose into the cloud as it is, and `carry`
    rotates the fused offsets back, so the surface is never copied.
    Returns the (n, 3) fused offsets, NaN where nothing is in range, and (n,)
    flags marking the poses where a sensor hit coincides with the tool tip.
    Every product is rounded as the one-pose arithmetic rounds it (matrix
    times vector, and dot products as np.linalg.norm takes them), and the
    sensors add up in order, so each row does not depend on the others.
    """
    if not cloud.has_normals:
        raise ValueError("sensor fusion needs a cloud with normals")
    rot = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    tip = np.asarray(tips, dtype=float).reshape(-1, 3)
    if carry is not None:
        back = carry.rotation.T
        rot, tip = back @ rot, (back @ (tip - carry.translation)[:, :, None])[..., 0]
    n = len(tip)
    if _beyond_reach(rig, cloud, rot, tip):
        return np.full((n, 3), np.nan), np.zeros(n, dtype=bool)
    origins = (rot[:, None] @ rig.origins[:, :, None])[..., 0] + tip[:, None]  # (n, sensor, 3)
    directions = (rot[:, None] @ rig.directions[:, :, None])[..., 0]
    index, distance = raycast_many(cloud, origins.reshape(-1, 3),
                                   directions.reshape(-1, 3), rig.beam_radius,
                                   rig.max_range)
    seen = (distance <= rig.max_range).reshape(n, 3)               # inf on a miss
    if not seen.any():
        return np.full((n, 3), np.nan), np.zeros(n, dtype=bool)
    index = np.where(index < 0, 0, index).reshape(n, 3)
    l_m = np.where(seen[..., None], cloud.positions[index] - tip[:, None], 0.0)
    d_m = row_norms(l_m.reshape(-1, 3)).reshape(n, 3, 1)
    contact = (seen & (d_m[..., 0] < 1e-12)).any(axis=1)
    unit = np.divide(l_m, d_m, out=np.zeros_like(l_m), where=d_m > 0.0)
    weight = (-unit[..., None, :] @ cloud.normals[index][..., :, None])[..., 0, 0]
    weight = np.where(seen & (weight > 0.0), weight, 0.0)
    acc = weight[:, 0, None] * l_m[:, 0] + weight[:, 1, None] * l_m[:, 1] \
        + weight[:, 2, None] * l_m[:, 2]
    w_sum = weight[:, 0] + weight[:, 1] + weight[:, 2]
    fused = np.divide(acc, w_sum[:, None], out=np.full((n, 3), np.nan),
                      where=w_sum[:, None] > 0.0)
    if carry is not None:
        fused = (carry.rotation @ fused[:, :, None])[..., 0]
    return fused, contact


def _beyond_reach(rig: SensorRig, cloud: PointCloud, rotations: np.ndarray,
                  tips: np.ndarray) -> bool:
    """True when every tip is too far from the cloud for any sensor to hit it.

    A hit lies within max_range of its ray's origin along the ray and within
    beam_radius of it across, and the origin (a mount) lies hypot(ring_radius,
    offset) from the tip. So no ray reaches the cloud's bounding box from a
    tip farther from it than the sum, whatever the tool's rotation. The
    slack covers rounding; non-finite poses are left to raycast_many to
    reject.
    """
    if not len(cloud) or not (np.isfinite(rotations).all() and np.isfinite(tips).all()):
        return False
    tree = cloud.kdtree()
    gap = np.maximum(np.maximum(tree.mins - tips, tips - tree.maxes), 0.0)
    reach = rig.max_range + math.hypot(rig.ring_radius, rig.offset) + rig.beam_radius
    scale = 1.0 + max(np.abs(tips).max(), np.abs(tree.mins).max(), np.abs(tree.maxes).max())
    return bool((row_norms(gap) > reach + 1e-9 * scale).all())


def repulsive_velocity(l: np.ndarray, l_min: float, kappa: float) -> np.ndarray:
    """Velocity pushing the tip away from the surface offset l.

    Zero outside the protective radius; inside, magnitude
    kappa * (1/D - 1/l_min) / D^2 directed against l. Raises ContactError
    when the offset has effectively collapsed to contact.
    """
    d = float(np.linalg.norm(l))
    if d <= 1e-6:
        raise ContactError(f"surface distance {d:.2e} m is contact")
    if d >= l_min:
        return np.zeros(3)
    gain = kappa * (1.0 / d - 1.0 / l_min) / (d * d)
    return -gain * (l / d)


def motion_exceeds_deadband(previous: RigidTransform, current: RigidTransform,
                            translation_tol: float = SimConfig.deadband_translation,
                            rotation_tol: float = SimConfig.deadband_rotation) -> bool:
    """True when the pose change is worth re-anchoring the plan for."""
    shift = float(np.linalg.norm(current.translation - previous.translation))
    rel = current.rotation @ previous.rotation.T
    angle = float(np.linalg.norm(rotation_to_axis_angle(rel)))
    return shift > translation_tol or angle > rotation_tol


def transform_path(path: SegmentPath, t: RigidTransform) -> SegmentPath:
    """Rigidly carry a planned path to a new pose (positions and normals)."""
    return SegmentPath(path.label, t.apply(path.positions),
                       t.apply_direction(path.normals), path.strip_indices.copy(),
                       path.orientation, list(path.d_s_used))


class MotionScript:
    """Piecewise-linear head pose over time (geodesic in rotation)."""

    def __init__(self, times, poses):
        self.times = np.asarray(times, dtype=float).reshape(-1)
        self.poses = list(poses)
        if len(self.times) != len(self.poses) or len(self.poses) == 0:
            raise InvalidParam("need equally many times and poses, at least one")
        if not math.isfinite(float(self.times[-1]) - float(self.times[0])) \
                or np.any(np.diff(self.times) <= 0):
            raise InvalidParam("keyframe times must be strictly increasing, over a finite span")
        self._translations = np.array([p.translation for p in self.poses])
        # Over keyframe interval i the rotation is R_i exp(phi K_i), phi going
        # from 0 to the interval's angle about the unit axis whose cross
        # matrix is K_i: R_i (I + sin(phi) K_i + (1 - cos(phi)) K_i^2).
        # _frames[i] holds R_i K_i^p for p = 0, 1, 2.
        steps = [rotation_to_axis_angle(a.rotation.T @ b.rotation)
                 for a, b in zip(self.poses, self.poses[1:])]
        self._angles = np.linalg.norm(np.reshape(steps, (-1, 3)), axis=1)
        frames = []
        for a, w, angle in zip(self.poses, steps, self._angles):
            k = hat(w / angle) if angle > 0.0 else np.zeros((3, 3))
            frames.append([a.rotation, a.rotation @ k, a.rotation @ k @ k])
        self._frames = np.reshape(frames, (-1, 3, 3, 3))

    @classmethod
    def from_json(cls, path) -> "MotionScript":
        """Keyframes as [{"t_s": .., "translation": [..], "axis_angle": [..]}].

        Raises ParseError, naming the file, for text that is not JSON, a
        keyframe that lacks a field, values that are not finite numbers, and
        keyframes the constructor rejects.
        """
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            times = [float(row["t_s"]) for row in doc]
        except KeyError as exc:
            raise ParseError(f"{path}: motion keyframe without {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not np.isfinite(times).all():
            raise ParseError(f"{path}: non-finite motion keyframe time")
        try:
            return cls(times, [parse_pose(row, path) for row in doc])
        except InvalidParam as exc:
            raise ParseError(f"{path}: {exc}") from exc

    def pose_at(self, t: float) -> RigidTransform:
        if t <= self.times[0] or len(self.poses) == 1:
            return self.poses[0]
        if t >= self.times[-1]:
            return self.poses[-1]
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        s = (t - t0) / (t1 - t0)
        a, b = self.poses[i], self.poses[i + 1]
        return RigidTransform(
            interpolate_rotation(a.rotation, b.rotation, s),
            (1.0 - s) * a.translation + s * b.translation,
        )

    def leaves_deadband(self, anchor: RigidTransform, times, translation_tol: float,
                        rotation_tol: float) -> np.ndarray:
        """Per time, whether the head pose has left the dead-band around `anchor`.

        The batch form of motion_exceeds_deadband(anchor, pose_at(t), ...):
        translations are interpolated as pose_at does, bit for bit, and the
        rotation angles agree with it to rounding. The head rotation relative
        to the anchor, R_i exp(phi K_i) A^T, is linear in [1, sin(phi),
        1 - cos(phi)], and so are its trace and antisymmetric part, which give
        its angle.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        if len(self.poses) == 1:
            return np.full(len(t), motion_exceeds_deadband(
                anchor, self.poses[0], translation_tol, rotation_tol))
        t = np.clip(t, self.times[0], self.times[-1])
        i = np.minimum(np.searchsorted(self.times, t, side="right") - 1,
                       len(self.times) - 2)
        s = ((t - self.times[i]) / (self.times[i + 1] - self.times[i]))[:, None]
        head = (1.0 - s) * self._translations[i] + s * self._translations[i + 1]
        with np.errstate(over="ignore"):    # a shift past float range reads inf
            shift = norms_by_column(head - anchor.translation)

        rel = self._frames @ anchor.rotation.T                  # (m, 3, 3, 3)
        trace = np.trace(rel, axis1=2, axis2=3)[i]
        skew = np.stack([rel[..., 2, 1] - rel[..., 1, 2], rel[..., 0, 2] - rel[..., 2, 0],
                         rel[..., 1, 0] - rel[..., 0, 1]], axis=-1)[i]
        phi = s[:, 0] * self._angles[i]
        basis = np.stack([np.ones_like(phi), np.sin(phi),
                          2.0 * np.sin(0.5 * phi) ** 2], axis=1)
        sin2 = np.einsum("np,npk->nk", basis, skew)          # norm 2 sin(angle)
        cos2 = np.einsum("np,np->n", basis, trace) - 1.0     # 2 cos(angle)
        angle = np.arctan2(0.5 * norms_by_column(sin2), 0.5 * cos2)
        return (shift > translation_tol) | (angle > rotation_tol)


@dataclass
class EffectorState:
    position: Vec3
    rotation: np.ndarray
    time: float = 0.0


@dataclass
class ShotLog:
    """Laser shots as columns; the shot index is the row number."""

    time: np.ndarray                        # (n,) firing instants [s]
    positions: np.ndarray                   # (n, 3) effector position [m]
    axis_angle: np.ndarray                  # (n, 3) effector rotation
    strip: np.ndarray                       # (n,) strip of the armed leg
    segment: np.ndarray                     # (n,) segment label
    path_length: float = 0.0

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float).reshape(-1)
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.axis_angle = np.asarray(self.axis_angle, dtype=float).reshape(-1, 3)
        self.strip = np.asarray(self.strip, dtype=int).reshape(-1)
        self.segment = np.asarray(self.segment, dtype=str).reshape(-1)

    def __len__(self) -> int:
        return len(self.time)


@dataclass
class Trajectory:
    """Tip samples as columns, one row per recorded tick."""

    time: np.ndarray
    position: np.ndarray                    # (n, 3)
    delta_d: np.ndarray
    dist_l: np.ndarray
    repulsing: np.ndarray                   # bool

    def __len__(self) -> int:
        return len(self.time)


# Travel is summed tick by tick, and a strip is often an exact multiple of the
# per-tick travel long, so rounding alone could hold back the shot due on a
# tick. The trigger fires at one diameter up to this relative slack.
FIRE_FRACTION = 1.0 - 1e-9


def step(state: EffectorState, target: Vec3, config: SimConfig,
         rig: SensorRig | None = None, cloud: PointCloud | None = None,
         carry: RigidTransform | None = None) -> tuple[EffectorState, float, bool, float, bool]:
    """One control tick of motion and guard toward `target`; returns the new
    state, the travel, whether it arrived, the fused surface distance (inf
    if none) and whether the guard repulsed.

    Tracking velocity points at the target at max_speed (shortened on the
    final approach so the tick lands exactly). The repulsive term is added
    and the sum clamped back to max_speed. The guarded surface is `carry`
    applied to `cloud`, as sensor_fusion_many takes it. The trigger is not
    stepped here: the run's `_log` adds the travel up.
    """
    dt = 1.0 / config.control_rate
    to_target = target - state.position
    dist = float(np.linalg.norm(to_target))
    if dist <= config.max_speed * dt:
        v = to_target / dt
    elif dist > 0.0:
        v = to_target * (config.max_speed / dist)
    else:
        v = np.zeros(3)

    dist_l = math.inf
    repulsing = False
    if rig is not None and cloud is not None:
        fused = sensor_fusion(rig, cloud, RigidTransform(state.rotation, state.position), carry)
        if fused is not None:
            dist_l = float(np.linalg.norm(fused))
            v_rep = repulsive_velocity(fused, rig.l_min, rig.kappa)
            if v_rep.any():
                repulsing = True
                v = v + v_rep
    speed = float(np.linalg.norm(v))
    if speed > config.max_speed:
        v = v * (config.max_speed / speed)

    new_pos = state.position + v * dt
    moved = float(np.linalg.norm(v) * dt)
    arrived = bool(np.linalg.norm(new_pos - target) <= 1e-9)
    new_state = EffectorState(new_pos, state.rotation, state.time + dt)
    return new_state, moved, arrived, dist_l, repulsing


@dataclass
class RunResult:
    log: ShotLog
    trajectory: Trajectory
    final_state: EffectorState


def run_path(paths, config: SimConfig, standoff: float = 0.0,
             rig: SensorRig | None = None, cloud: PointCloud | None = None,
             motion: MotionScript | None = None,
             start: RigidTransform | None = None, record: bool = True) -> RunResult:
    """Execute planned segments in order and log shots plus the tip trajectory.

    `paths` is one SegmentPath or an ordered {label: SegmentPath} dict. The
    tool begins at the first target (or at `start`, adding an approach
    leg); each later segment starts where the previous one ended, on one
    clock and one shot count. Legs between consecutive targets of the same
    strip run with the trigger armed; every other leg runs dark and resets
    the accumulated travel, so every strip restarts its pitch from its first
    target. The head pose at t = 0 anchors the whole run: when a motion
    script moves the head outside the dead-band around the last anchor, the
    targets are carried from the plan frame by the head's displacement since
    t = 0, and the guard casts its rays back into the plan frame, where the
    cloud stays. A leg that cannot be reached within
    point_timeout (typically because the safety field holds the tool off)
    aborts the run.

    With both `rig` and `cloud` the run is guarded. Each segment is evaluated
    in blocks of legs up to the first tick where the guard engages; from
    there to the end of that leg the run steps tick by tick. The result
    equals the tick loop's to rounding.
    """
    if standoff < 0:
        raise InvalidParam("standoff must be non-negative")
    guarded = rig is not None and cloud is not None
    if guarded:
        if not cloud.has_normals:
            raise MissingField("the guarded surface has no normals, which the "
                               "proximity sensors need")
        cloud.kdtree()                      # built here, not on a control tick
    run = _Run(config, motion, rig if guarded else None,
               cloud if guarded else None, record)
    if start is not None:
        run.state = EffectorState(start.translation.copy(), start.rotation.copy())
    segments = [paths] if isinstance(paths, SegmentPath) else list(paths.values())
    for path in segments:
        run.segment(path, standoff)
    return run.result()


def _trigger(moved: np.ndarray, stretch: np.ndarray, carry: tuple[int, float],
             threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """delta_d after each tick, and the ticks where the laser fires.

    `stretch` numbers the armed stretch each tick belongs to, -1 where it is
    unarmed; the stretch that `carry` = (stretch, delta_d) numbers starts
    from its delta_d, every other from 0, and unarmed ticks read 0. Travel
    is summed one tick at a time from the last shot, in order, with one pass
    per shot bounded to that shot's stretch; a tick whose sum reaches
    `threshold` fires and leaves delta_d at 0.
    """
    delta_d = np.zeros(len(moved))
    fired = []
    edges = np.flatnonzero(np.diff(stretch, prepend=-2)).tolist() + [len(moved)]
    for lo, hi in zip(edges, edges[1:]):
        if stretch[lo] < 0:
            continue
        begin, start = lo, carry[1] if stretch[lo] == carry[0] else 0.0
        while begin < hi:
            acc = moved[begin:hi].copy()
            acc[0] += start
            np.add.accumulate(acc, out=acc)
            k = int(np.argmax(acc >= threshold))
            if acc[k] < threshold:
                delta_d[begin:hi] = acc
                break
            tick = begin + k
            delta_d[begin:tick] = acc[:k]
            delta_d[tick] = 0.0
            fired.append(tick)
            begin, start = tick + 1, 0.0
    return delta_d, np.array(fired, dtype=np.intp)


class _Run:
    """State of one run_path call: clock, anchor, targets, shots, samples,
    and the segment's legs as columns: the leg toward target j began at
    leg_t0[j] in rotation leg_from[j], leg_len0[j] from its target."""

    def __init__(self, config: SimConfig, motion, rig, cloud, record: bool):
        self.config = config
        self.motion = motion
        self.rig = rig
        self.cloud = cloud                  # the guarded surface, in the plan frame
        self.record = record
        self.head0 = self.anchor = motion.pose_at(0.0) if motion is not None else None
        self.carry = None                   # head o inv(head0) once re-anchored
        self.state: EffectorState | None = None
        self.shots: list[tuple] = []        # blocks of time, position, axis_angle, strip, label
        self.samples: list[np.ndarray] = []  # (k, 7) blocks of trajectory rows
        self.total = 0.0
        # Every leg is late by this tick: no block or scan takes more of one.
        self.max_ticks = np.ceil(config.point_timeout * config.control_rate) + 2

    def result(self) -> RunResult:
        rows = np.concatenate(self.samples) if self.samples else np.empty((0, 7))
        trajectory = Trajectory(rows[:, 0], rows[:, 1:4], rows[:, 4], rows[:, 5],
                                rows[:, 6] != 0.0)
        columns = map(np.concatenate, zip(*self.shots)) if self.shots else ([],) * 5
        return RunResult(ShotLog(*columns, self.total), trajectory, self.state)

    def _log(self, legs, times, positions, moved, dist_l, repulsing=False) -> None:
        """Log ticks: tick i, of leg legs[i], moves moved[i] and ends at
        times[i] in positions[i], having sensed dist_l[i]. `_trigger` fires
        on the armed legs' ticks by strip run, from `carried`, which only
        this method keeps: the run and delta_d of the last armed tick logged.
        The shots get their rotations in one stacked slerp. All but times,
        positions and moved may be one value for every tick."""
        legs = np.broadcast_to(legs, moved.shape)
        stretch = np.where(self.armed[legs], self.run_of[legs], -1)
        delta_d, fired = _trigger(moved, stretch, self.carried,
                                  self.config.laser_diameter * FIRE_FRACTION)
        if len(moved) and stretch[-1] >= 0:
            self.carried = int(stretch[-1]), float(delta_d[-1])
        if fired.size:
            legs = legs[fired]
            rotations = interpolate_rotations(self.leg_from[legs], self.tgt_rot[legs],
                                              self._fractions(legs, times[fired]))
            self.shots.append((times[fired], positions[fired],
                               rotations_to_axis_angle(rotations), self.strips[legs],
                               np.full(len(legs), self.label)))
        self.total += float(moved.sum())
        if self.record:
            block = np.empty((len(moved), 7))
            block[:, 0] = times
            block[:, 1:4] = positions
            block[:, 4] = delta_d
            block[:, 5] = dist_l
            block[:, 6] = repulsing
            self.samples.append(block)

    def segment(self, path: SegmentPath, standoff: float) -> None:
        self.plan_rot, self.plan_pos = path_to_poses(path, standoff)
        self.label = path.label
        self._carry_targets(f"the plan at standoff {standoff:g} m")
        self.strips = np.asarray(path.strip_indices)
        n = len(self.plan_pos)
        # Legs within a strip are armed with the laser on; runs are numbered by first target.
        in_strip = np.concatenate([[False], self.strips[1:] == self.strips[:-1]])
        self.armed = in_strip & self.config.laser_enabled
        self.run_of = np.maximum.accumulate(np.where(in_strip, 0, np.arange(n)))
        self.carried = (-1, 0.0)
        self.leg_t0, self.leg_len0 = np.empty((2, n))
        self.leg_from = np.empty((n, 3, 3))
        first = 0
        if self.state is None:
            self.state = EffectorState(self.tgt_pos[0].copy(), self.plan_rot[0].copy())
            first = 1
        self._log(0, np.array([self.state.time]), self.state.position[None], np.zeros(1),
                  math.inf)
        if first < n:
            self._open(first)
            self._legs(first)

    def _carry_targets(self, cause: str) -> None:
        """The targets carried by the head; `cause` is what put them out of range."""
        if self.carry is None:
            self.tgt_pos, self.tgt_rot = self.plan_pos, self.plan_rot
        else:
            self.tgt_pos = self.carry.apply(self.plan_pos)
            self.tgt_rot = self.carry.rotation @ self.plan_rot
        tool = self.tgt_pos[0] if self.state is None else self.state.position
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(row_norms(self.tgt_pos - tool)).all():
                raise FacelaserError(f"{cause} puts the targets of '{self.label}' out of "
                                     f"float range of the tool")

    def _open(self, j: int) -> None:
        """Begin the leg toward target j from the current state."""
        self.leg_t0[j], self.leg_from[j] = self.state.time, self.state.rotation
        self.leg_len0[j] = np.linalg.norm(self.tgt_pos[j] - self.state.position)

    def _tick_leg(self, j: int) -> None:
        """One `step` per tick to the end of leg j, the guard fed on every
        tick: the rest of a leg once the guard engages, and the reference
        `_legs` is tested against. Only the motion and the guard feed back,
        so the ticks run in windows up to the leg's end, a timeout or the next
        dead-band event, and each is logged as a block before a re-anchor
        moves tgt_rot. The dead-band is scanned on the starts of the ticks
        the leg takes at max_speed, with the bits of `step`'s clock."""
        cfg, dt = self.config, 1.0 / self.config.control_rate
        skip = arrived = False              # skip: the window starts on a re-anchor
        while not arrived and (skip or np.linalg.norm(self.tgt_pos[j] - self.state.position)
                               > 1e-9):
            due, exits = math.inf, False    # ticks to the next dead-band event
            if self.motion is not None:
                ahead = float(np.linalg.norm(self.tgt_pos[j] - self.state.position)) - 1e-9
                starts = np.full(skip + math.ceil(min(ahead / (cfg.max_speed * dt),
                                                      self.max_ticks)), dt)
                starts[0] = self.state.time
                due = self._leaves(np.add.accumulate(starts), skip)
                exits = due < len(starts)
            rows, late = [], False          # time, position, moved, dist_l, repulsing
            while len(rows) < due and not (arrived or late):
                state, moved, arrived, dist_l, repulsing = step(
                    self.state, self.tgt_pos[j], cfg, self.rig, self.cloud, self.carry)
                self.state = state
                state.rotation = self._rotation(j, state.time)
                rows.append((state.time, state.position, moved, dist_l, repulsing))
                late = not arrived and state.time - self.leg_t0[j] > cfg.point_timeout
            if rows:
                self._log(j, *map(np.array, zip(*rows)))
            if late:
                self._abort(j)
            skip = exits and not arrived
            if skip:
                self._reanchor(self.motion.pose_at(self.state.time))
        self.state.position = self.tgt_pos[j].copy()
        self.state.rotation = self.tgt_rot[j].copy()

    def _leaves(self, starts: np.ndarray, skip: int) -> float:
        """Ticks to the first start from starts[skip] on where the head is out
        of the dead-band, checked up to the first one at or after the last
        keyframe, from which on the head stands still: len(starts) if none of
        them is, and inf if that one was checked too."""
        cfg = self.config
        end = int(np.searchsorted(starts, self.motion.times[-1])) + 1
        out = np.flatnonzero(self.motion.leaves_deadband(
            self.anchor, starts[skip:end], cfg.deadband_translation, cfg.deadband_rotation))
        if out.size:
            return skip + int(out[0])
        return len(starts) if end > len(starts) else math.inf

    def _legs(self, j: int) -> None:
        """The segment from the open leg j to its last target, in blocks that
        run all their ticks at once and end at the next event: the head
        leaving the dead-band, a point timeout, or the guard engaging.

        From position p toward a target at distance L, tick k (1-based) of a
        leg ends at p + min(k s, L) u, s being one tick of travel at
        max_speed; the leg takes the fewest ticks that end within 1e-9 of its
        target, and none if it starts that close. The clock adds one dt per
        tick over all legs, as the tick loop's does. The head leaves the
        dead-band on the first tick whose start is out of it (`_leaves`); a
        block that resumes on the re-anchoring tick skips that tick, as the
        tick loop does. A guarded block casts the rays of each
        leg's ticks in one batch, keeps the ticks before the first one where
        the guard engages, and hands the rest of that leg to the tick loop.
        """
        cfg = self.config
        dt = 1.0 / cfg.control_rate
        s = cfg.max_speed * dt
        resumed = False                     # the block starts on the re-anchoring tick
        while True:
            state = self.state
            starts = np.vstack([state.position, self.tgt_pos[j:-1]])
            to_target = self.tgt_pos[j:] - starts
            dist = row_norms(to_target)
            need = np.maximum(1, np.ceil((dist - 1e-9) / s))    # the ticks to arrive
            ticks = np.minimum(need, self.max_ticks).astype(np.intp)
            idle = dist <= 1e-9
            idle[0] &= not resumed
            ticks[idle] = 0
            first = np.concatenate([[0], np.cumsum(ticks)])    # each leg's first tick
            n = int(first[-1])
            times = np.full(n + 1, dt)
            times[0] = state.time
            times = np.add.accumulate(times)
            of = np.repeat(np.arange(len(ticks)), ticks)        # the leg of each tick
            k = np.arange(1, n + 1) - first[of]                 # its tick in the leg
            # The rows of the legs that begin in this block (not the open one).
            self.leg_t0[j + 1:] = times[first[1:-1]]
            self.leg_len0[j + 1:] = dist[1:]
            self.leg_from[j + 1:] = self.tgt_rot[j:-1]

            ran = n                         # ticks run before the next event
            exits = late = engages = False
            if self.motion is not None:
                ran = min(n, self._leaves(times[:n], int(resumed)))
                exits = ran < n
            # The tick that arrives is never late, and a capped leg's last
            # tick does not arrive.
            over = np.flatnonzero((times[1:ran + 1] - self.leg_t0[j + of[:ran]]
                                   > cfg.point_timeout) & (k[:ran] < need[of[:ran]]))
            if over.size:
                ran, exits, late = int(over[0]) + 1, False, True

            of, k = of[:ran], k[:ran]
            travel = np.minimum(k * s, dist[of])
            unit_dir = np.divide(to_target, dist[:, None], out=to_target.copy(),
                                 where=dist[:, None] > 0.0)
            positions = starts[of] + travel[:, None] * unit_dir[of]
            lands = (k == ticks[of]) & (travel == dist[of])
            positions[lands] = self.tgt_pos[j + of[lands]]
            dist_l = np.full(ran, math.inf)
            if self.rig is not None:
                for i in np.unique(of).tolist():    # one cast per leg
                    a, b = first[i], min(first[i + 1], ran)
                    dist_l[a:b], engaged = self._sense(
                        j + i, state.rotation if i == 0 else self.leg_from[j + i],
                        starts[i], times[a:b], positions[a:b])
                    if a + engaged < b:
                        ran, exits, late, engages = a + engaged, False, False, True
                        of, k, travel = of[:ran], k[:ran], travel[:ran]
                        positions, dist_l = positions[:ran], dist_l[:ran]
                        break

            moved = np.diff(travel, prepend=0.0)
            moved[k == 1] = travel[k == 1]
            self._log(j + of, times[1:ran + 1], positions, moved, dist_l)

            # The open leg after the block: the last one, or the one the event is in.
            i = int(of[-1]) if late else int(np.searchsorted(first, ran, side="right")) - 1
            i = min(i, len(ticks) - 1)
            state.time = float(times[ran])
            if not (exits or late or engages):
                state.position = self.tgt_pos[-1].copy()
                state.rotation = self.tgt_rot[-1].copy()
                return
            if ran > first[i]:              # the leg goes on from this pose
                state.position = positions[-1].copy()
                state.rotation = self._rotation(j + i, state.time)
            elif i > 0:                     # or from where it begins
                state.position = starts[i].copy()
                state.rotation = self.leg_from[j + i].copy()
            j += i
            if late:
                self._abort(j)
            if engages:
                self._tick_leg(j)
                if j + 1 == len(self.tgt_pos):
                    return
                j, resumed = j + 1, False
                self._open(j)
            else:
                self._reanchor(self.motion.pose_at(state.time))
                resumed = True

    def _sense(self, j: int, rotation: np.ndarray, tip: np.ndarray,
               times: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, int]:
        """Fused distances at the start of leg j's ticks, and the first tick
        where the guard engages (len(times) if none does).

        Tick i starts at times[i] from the end of the tick before it, ends[i - 1],
        in the pose `step` would sense from: `rotation` and `tip` on the
        first tick, and on every later one the rotation the tick loop sets at
        the end of the tick before. The guard engages on a distance below
        l_min and on a sensor hit at the tip, which `step` raises
        ContactError for. The ticks are cast in one batch, at a few kB per
        tick, and a leg's block is at most max_ticks long.
        """
        rotations = interpolate_rotations(self.leg_from[j], self.tgt_rot[j],
                                          self._fractions(j, times))
        rotations[0] = rotation
        fused, contact = sensor_fusion_many(self.rig, self.cloud, rotations,
                                            np.vstack([tip, ends[:-1]]), self.carry)
        dist = row_norms(fused)               # NaN where nothing is in range
        dist_l = np.where(np.isnan(dist), math.inf, dist)
        engaged = np.flatnonzero(contact | (dist_l < self.rig.l_min))
        return dist_l, int(engaged[0]) if engaged.size else len(times)

    def _rotation(self, j: int, t: float) -> np.ndarray:
        return interpolate_rotation(self.leg_from[j], self.tgt_rot[j],
                                    float(self._fractions(j, t)))

    def _fractions(self, j, t) -> np.ndarray:
        """How far the rotation of leg(s) j has slerped at time(s) t: in
        proportion to the travel at max_speed since the leg began, capped at
        1. Only a leg longer than 1e-9 takes a tick."""
        return np.minimum(1.0, (np.asarray(t) - self.leg_t0[j]) * self.config.max_speed
                          / self.leg_len0[j])

    def _reanchor(self, head: RigidTransform) -> None:
        self.anchor = head
        self.carry = head.compose(self.head0.invert())
        self._carry_targets(f"the head pose at t = {self.state.time:.6g} s")

    def _abort(self, j: int):
        raise AbortedOnSafety(
            f"target {j} of '{self.label}' not reached within "
            f"{self.config.point_timeout:g} s (remaining "
            f"{np.linalg.norm(self.tgt_pos[j] - self.state.position):.4g} m)",
            result=self.result())


@dataclass
class PlanarRegion:
    """An axis-aligned box in a plane: origin, two in-plane axes, and the
    (u, v) bounds `lo` < `hi` of the box. The region is origin + u u_axis +
    v v_axis over the box: a metric box when the axes are orthonormal, and
    coverage counts it right for any axes."""

    origin: Vec3
    u_axis: Vec3
    v_axis: Vec3
    lo: np.ndarray                          # (2,) lower (u, v) bounds
    hi: np.ndarray                          # (2,) upper (u, v) bounds

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.u_axis = np.asarray(self.u_axis, dtype=float).reshape(3)
        self.v_axis = np.asarray(self.v_axis, dtype=float).reshape(3)
        self.lo = np.asarray(self.lo, dtype=float).reshape(2)
        self.hi = np.asarray(self.hi, dtype=float).reshape(2)
        for name in ("origin", "u_axis", "v_axis"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidParam(f"region {name} must be finite, "
                                   f"not {getattr(self, name).tolist()}")
        with np.errstate(over="ignore", invalid="ignore"):
            width = self.hi - self.lo       # inf or nan unless both are finite
        if not (np.isfinite(width).all() and (width > 0).all()):
            raise InvalidParam(f"region bounds need finite lo < hi with a finite hi - lo "
                               f"on both axes, not lo={self.lo.tolist()} hi={self.hi.tolist()}")

    def to_world(self, uv: np.ndarray) -> np.ndarray:
        uv = np.asarray(uv, dtype=float).reshape(-1, 2)
        return np.column_stack(self.world_columns(uv[:, 0], uv[:, 1]))

    def world_columns(self, u: np.ndarray, v: np.ndarray):
        """The x, y and z columns of the world points origin + u u_axis +
        v v_axis, summed in that order."""
        return tuple((o + u * a) + v * b
                     for o, a, b in zip(self.origin, self.u_axis, self.v_axis))


def _canonical_axis(a: np.ndarray) -> np.ndarray:
    """Fix the sign so the largest-magnitude component is positive."""
    i = int(np.argmax(np.abs(a)))
    return -a if a[i] < 0 else a.copy()


def default_shot_region(shots: np.ndarray, pad: float) -> PlanarRegion:
    """Best-fit plane through the shots, bounding box padded by `pad`.

    This is the natural operable area of a run: one spot radius of margin
    around everything that was actually treated, flattened onto the
    least-squares plane of the shot pattern.
    """
    shots = np.asarray(shots, dtype=float).reshape(-1, 3)
    center = shots.mean(axis=0)
    rel = shots - center
    # The thin SVD skips the (n, n) U nobody reads. For one shot it has a
    # single row of vt, so a log of fewer than three takes the full one.
    _, _, vt = np.linalg.svd(rel, full_matrices=len(rel) < 3)
    u_axis = _canonical_axis(vt[0])
    v_axis = _canonical_axis(vt[1])
    u = rel @ u_axis
    v = rel @ v_axis
    return PlanarRegion(center, u_axis, v_axis,
                        [u.min() - pad, v.min() - pad], [u.max() + pad, v.max() + pad])


# Monte Carlo samples drawn at a time, so memory does not grow with `samples`.
MC_CHUNK = 1 << 16
# Cell states of the coverage grid.
EMPTY, COVERED, MIXED, CROWDED = range(4)
# A mixed cell with more candidate shots than this is crowded: its samples
# query the kd-tree instead of testing every candidate.
MAX_CANDIDATES = 8


def _classify_cells(tree, radius: float, region: PlanarRegion, samples: int):
    """Square uv cells over the box, each empty, covered, mixed or crowded.

    The cell side starts at radius / 16 and doubles until there are at most
    samples / 8 cells. Any sample lies within `half` of its cell's centre in
    the world, so by the triangle inequality every sample of a cell whose
    centre is nearer a shot than radius - half is covered, no sample of a
    cell with no shot within reach = radius + half is, and every shot within
    radius of a sample lies within reach of its cell's centre. `margin`
    outweighs the rounding of `to_world`, of the cell index and of the
    tree's distances by ~1e7. The other cells are mixed, with their shots
    within reach as candidates, or crowded when those are more than
    MAX_CANDIDATES.
    Returns the int8 states over the row-major cells, the candidates of cell
    c as `candidates[offsets[c]:offsets[c + 1]]` (none unless c is mixed),
    the side and the (n_u, n_v) cell counts.
    """
    width = region.hi - region.lo
    # The floor bounds the doublings and the int64 cell index; the cap, one
    # cell across the box, ends them without overflow.
    side = max(radius / 16.0, width.max() * 2.0 ** -60)
    while np.prod(np.ceil(width / side)) > max(samples / 8.0, 1.0):
        side = min(2.0 * side, width.max())
    shape = np.ceil(width / side).astype(np.int64)
    centres = region.to_world(region.lo + side * (np.indices(shape).reshape(2, -1).T + 0.5))
    u, v = region.u_axis, region.v_axis
    half = 0.5 * side * max(np.linalg.norm(u + v), np.linalg.norm(u - v))
    scale = max(np.abs(tree.data).max(), np.abs(region.origin).max()
                + np.abs([region.lo, region.hi]).max() * (np.abs(u).max() + np.abs(v).max()))
    margin = 1e-9 * (1.0 + scale)
    reach = radius + half + margin
    near, _ = tree.query(centres, distance_upper_bound=reach)
    state = np.where(np.isfinite(near), MIXED, EMPTY).astype(np.int8)
    state[near < radius - half - margin] = COVERED
    # One more neighbour than the cap tells a crowded cell; blocks of rows
    # keep the (rows, MAX_CANDIDATES + 1) answers small.
    mixed = np.flatnonzero(state == MIXED)
    offsets = np.zeros(len(state) + 1, dtype=np.intp)
    parts = [np.empty(0, dtype=np.intp)]
    for first in range(0, len(mixed), MC_CHUNK // 16):
        cells = mixed[first:first + MC_CHUNK // 16]
        _, shot = tree.query(centres[cells], k=MAX_CANDIDATES + 1,
                             distance_upper_bound=reach)
        found = shot < tree.n
        crowded = found[:, -1]
        state[cells[crowded]] = CROWDED
        found[crowded] = False
        offsets[cells + 1] = np.count_nonzero(found, axis=1)
        parts.append(shot[found])
    np.cumsum(offsets, out=offsets)
    return state, offsets, np.concatenate(parts), side, shape


def _distances(x, y, z, shot_columns: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances from the points (x, y, z) to the shots `j` of the (3, n)
    shot columns, in the kd-tree's own arithmetic (scipy's sqeuclidean over
    three coordinates, then sqrt), so each is the tree's to the last bit."""
    dx = x - shot_columns[0][j]
    dy = y - shot_columns[1][j]
    dz = z - shot_columns[2][j]
    with np.errstate(over="ignore"):        # beyond the spot either way
        return np.sqrt(dx * dx + dy * dy + dz * dz)


@dataclass
class CoverageReport:
    n_shots: int
    n_spacings: int
    mean_spacing: float | None              # consecutive same-strip shots [m]
    var_spacing: float | None               # population variance [m^2]
    coverage: float                         # fraction of the region treated
    path_length: float


def coverage_metrics(log: ShotLog, diameter: float,
                     region: PlanarRegion | None = None,
                     cloud: PointCloud | None = None,
                     samples: int = 1_000_000, seed: int = 0) -> CoverageReport:
    """Spacing statistics and treated-area fraction of a shot log.

    Spacing pairs are consecutive shots within one strip of one segment.
    Coverage counts a location treated when it lies within one spot radius
    of a shot center: against a cloud it is the fraction of cloud points
    treated; otherwise the fraction of `samples` points drawn uniformly, as
    one seeded stream, over the box `region` (by default the shot pattern's
    own best-fit box, padded by one spot radius). The count equals a kd-tree
    query of every point, bit for bit: `_classify_cells` settles whole cells,
    a mixed cell's points are tested against its few candidate shots, and
    only a crowded cell's points are queried.
    """
    if len(log) == 0:
        raise EmptyLog("no shots were fired")
    radius = 0.5 * diameter
    # Both counts compare squared distances: past a diameter of ~2.7e154 m
    # they overflow, and no location would read covered.
    if not (diameter > 0.0 and math.isfinite(radius * radius)):
        raise InvalidParam(f"diameter must be positive, with a finite (diameter / 2)**2, "
                           f"not {diameter}", "diameter")
    if samples < 1:
        raise InvalidParam(f"samples must be at least 1, not {samples}", "samples")
    if seed < 0:
        raise InvalidParam(f"seed must be non-negative, not {seed}", "seed")
    shots = log.positions

    same = (log.segment[1:] == log.segment[:-1]) & (log.strip[1:] == log.strip[:-1])
    hop = np.diff(shots, axis=0)[same]
    with np.errstate(over="ignore", invalid="ignore"):   # past float range: inf, NaN
        gaps = row_norms(hop)
        mean_sp = float(np.mean(gaps)) if len(gaps) else None
        var_sp = float(np.var(gaps)) if len(gaps) else None

    tree = PointCloud(shots).kdtree()
    # Only whether a shot lies within `radius` counts, so the queries stop
    # there: a location with no shot that close reads inf.
    bound = float(np.nextafter(radius, np.inf))
    if cloud is not None:
        dist, _ = tree.query(cloud.positions, distance_upper_bound=bound)
        coverage = float(np.mean(dist <= radius))
    else:
        if region is None:
            region = default_shot_region(shots, radius)
        state, offsets, candidates, side, shape = _classify_cells(tree, radius, region,
                                                                   samples)
        shot_columns = shots.T.copy()
        rng = np.random.default_rng(seed)
        covered = 0
        # Chunked draws take the same stream, bit for bit, as one (samples, 2)
        # draw. A mixed cell's samples test its candidates, a crowded cell's
        # query the tree.
        for start in range(0, samples, MC_CHUNK):
            uv = rng.uniform(region.lo, region.hi, (min(MC_CHUNK, samples - start), 2))
            u, v = uv[:, 0], uv[:, 1]
            cell = (np.minimum(((u - region.lo[0]) / side).astype(np.int64), shape[0] - 1)
                    * shape[1]
                    + np.minimum(((v - region.lo[1]) / side).astype(np.int64), shape[1] - 1))
            cell_state = state[cell]
            covered += int(np.count_nonzero(cell_state == COVERED))
            mixed = np.flatnonzero(cell_state == MIXED)
            x, y, z = region.world_columns(u[mixed], v[mixed])
            first = offsets[cell[mixed]]
            last = offsets[cell[mixed] + 1] - 1
            hit = np.zeros(len(mixed), dtype=bool)
            # Past its own, a sample takes its cell's last candidate again.
            for k in range(int((last - first).max(initial=-1)) + 1):
                j = candidates[np.minimum(first + k, last)]
                hit |= _distances(x, y, z, shot_columns, j) <= radius
            covered += int(np.count_nonzero(hit))
            dist, _ = tree.query(region.to_world(uv[cell_state == CROWDED]),
                                 distance_upper_bound=bound)
            covered += int(np.count_nonzero(dist <= radius))
        coverage = covered / samples
    return CoverageReport(len(log), len(gaps), mean_sp, var_sp, coverage,
                          log.path_length)
