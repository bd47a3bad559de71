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
  tracked head pose leaves a small dead-band around the last anchor, they
  are carried from the plan frame by the head's displacement since t = 0,
  across segment boundaries alike. Inside the dead-band nothing changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud, raycast
from .errors import (
    AbortedOnSafety,
    ContactError,
    EmptyLog,
    InvalidParam,
    NoSurfaceInRange,
    ParseError,
)
from .geometry import (
    PoseVector6,
    RigidTransform,
    Vec3,
    interpolate_rotation,
    rotation_to_axis_angle,
)
from .pathplan import SegmentPath, path_to_poses
from .segmentation import points_in_polygon


@dataclass
class SimConfig:
    laser_diameter: float                   # shot pitch on the path [m]
    pulse_rate: float                       # pulses per second [Hz]
    control_rate: float = 125.0             # control ticks per second [Hz]
    point_timeout: float | None = 30.0      # abort if one target takes longer [s]
    laser_enabled: bool = True
    deadband_translation: float = 3e-3      # ignore head motion below this [m]
    deadband_rotation: float = math.radians(4.0)    # and below this [rad]

    def __post_init__(self):
        if self.laser_diameter <= 0 or self.pulse_rate <= 0:
            raise InvalidParam("laser_diameter and pulse_rate must be positive")
        if self.control_rate <= 0:
            raise InvalidParam("control_rate must be positive")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise InvalidParam("point_timeout must be positive or None")
        if self.deadband_translation < 0 or self.deadband_rotation < 0:
            raise InvalidParam("dead-band bounds must be non-negative")

    @property
    def max_speed(self) -> float:
        """One pulse per diameter of travel caps the speed at diameter * rate."""
        return self.laser_diameter * self.pulse_rate


@dataclass
class SensorRig:
    """Distance sensors rigidly mounted on the effector, rays in tool frame.

    Measurements are reported relative to the tool tip (the frame origin),
    not the sensor mounts, so l_min guards the tip itself.
    """

    origins: np.ndarray                     # (m, 3) mount points, tool frame
    directions: np.ndarray                  # (m, 3) unit ray directions
    max_range: float = 0.3                  # hits farther than this are ignored [m]
    l_min: float = 0.04                     # protective radius around the tip [m]
    kappa: float = 5e-4                     # repulsion gain [m^3/s]
    beam_radius: float = 0.004              # ray-to-point acceptance radius [m]

    def __post_init__(self):
        self.origins = np.asarray(self.origins, dtype=float).reshape(-1, 3)
        self.directions = np.asarray(self.directions, dtype=float).reshape(-1, 3)
        if len(self.origins) != len(self.directions) or len(self.origins) == 0:
            raise InvalidParam("need matching, non-empty origin and direction sets")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise InvalidParam("ray directions must be unit vectors")
        if self.max_range <= 0 or self.l_min <= 0 or self.kappa <= 0:
            raise InvalidParam("max_range, l_min and kappa must be positive")
        if self.l_min >= self.max_range:
            raise InvalidParam("l_min must be smaller than max_range")
        if self.beam_radius <= 0:
            raise InvalidParam("beam_radius must be positive")

    @classmethod
    def default(cls, ring_radius: float = 0.025, offset: float = 0.06,
                max_range: float = 0.3, l_min: float = 0.04,
                kappa: float = 5e-4, beam_radius: float = 0.004) -> "SensorRig":
        """Three sensors at 120 degrees on a ring behind the tip, looking out
        along the beam axis (tool -z)."""
        angles = 2.0 * np.pi * np.arange(3) / 3.0
        origins = np.stack([ring_radius * np.cos(angles),
                            ring_radius * np.sin(angles),
                            np.full(3, offset)], axis=1)
        directions = np.tile([0.0, 0.0, -1.0], (3, 1))
        return cls(origins, directions, max_range, l_min, kappa, beam_radius)


def sensor_fusion(rig: SensorRig, cloud: PointCloud, pose: RigidTransform,
                  require: bool = False) -> np.ndarray | None:
    """Fused tip-to-surface offset vector in the world frame.

    Each sensor casts its ray into the cloud; a hit contributes the vector
    from the tool tip to the hit point, weighted by how squarely the ray
    meets the skin (the cosine against the inward surface normal). Grazing
    and back-side hits carry no weight. Returns None when nothing is in
    range, or raises NoSurfaceInRange with require=True.
    """
    if not cloud.has_normals:
        raise ValueError("sensor fusion needs a cloud with normals")
    tip = pose.translation
    acc = np.zeros(3)
    w_sum = 0.0
    for origin, direction in zip(rig.origins, rig.directions):
        hit = raycast(cloud, pose.apply(origin), pose.apply_direction(direction),
                      rig.beam_radius)
        if hit is None or hit.distance > rig.max_range:
            continue
        l_m = hit.point - tip
        d_m = np.linalg.norm(l_m)
        if d_m < 1e-12:
            raise ContactError("sensor hit coincides with the tool tip")
        weight = float(-(l_m / d_m) @ hit.normal)
        if weight <= 0.0:
            continue
        acc += weight * l_m
        w_sum += weight
    if w_sum <= 0.0:
        if require:
            raise NoSurfaceInRange("no sensor returned a usable surface hit")
        return None
    return acc / w_sum


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
                            translation_tol: float = 3e-3,
                            rotation_tol: float = math.radians(4.0)) -> bool:
    """True when the pose change is worth re-anchoring the plan for."""
    shift = float(np.linalg.norm(current.translation - previous.translation))
    rel = current.rotation @ previous.rotation.T
    angle = float(np.linalg.norm(rotation_to_axis_angle(rel)))
    return shift > translation_tol or angle > rotation_tol


def transform_path(path: SegmentPath, t: RigidTransform) -> SegmentPath:
    """Rigidly carry a planned path to a new pose (positions and normals)."""
    points = [replace(p, chi=t.apply(p.chi), eta=t.apply_direction(p.eta))
              for p in path.points]
    return SegmentPath(path.label, points, path.strip_indices.copy(),
                       path.orientation, list(path.d_s_used))


def update_paths_on_motion(paths, previous_pose: RigidTransform,
                           current_pose: RigidTransform,
                           translation_tol: float = 3e-3,
                           rotation_tol: float = math.radians(4.0)):
    """Re-anchor paths to a moved head pose, unless the motion is in-band.

    `paths` is one SegmentPath or a {label: SegmentPath} dict. Inside the
    dead-band the input object itself is returned with moved=False; outside,
    every path is transformed by current o inv(previous).
    Returns (paths, moved).
    """
    if not motion_exceeds_deadband(previous_pose, current_pose,
                                   translation_tol, rotation_tol):
        return paths, False
    anchor = current_pose.compose(previous_pose.invert())
    if isinstance(paths, SegmentPath):
        return transform_path(paths, anchor), True
    return {k: transform_path(v, anchor) for k, v in paths.items()}, True


class MotionScript:
    """Piecewise-linear head pose over time (geodesic in rotation)."""

    def __init__(self, times, poses):
        self.times = np.asarray(times, dtype=float).reshape(-1)
        self.poses = list(poses)
        if len(self.times) != len(self.poses) or len(self.poses) == 0:
            raise InvalidParam("need equally many times and poses, at least one")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParam("keyframe times must be strictly increasing")

    @classmethod
    def stationary(cls, pose: RigidTransform) -> "MotionScript":
        return cls([0.0], [pose])

    @classmethod
    def from_json(cls, path) -> "MotionScript":
        """Keyframes as [{"t_s": .., "translation": [..], "axis_angle": [..]}].

        Raises ParseError for text that is not JSON, a keyframe that lacks a
        field, and values that are not finite numbers.
        """
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            times = [float(row["t_s"]) for row in doc]
            psis = [PoseVector6(row["translation"], row["axis_angle"]) for row in doc]
        except KeyError as exc:
            raise ParseError(f"{path}: motion keyframe without {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        values = [[t, *p.position, *p.axis_angle] for t, p in zip(times, psis)]
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: non-finite motion keyframe value")
        return cls(times, [p.to_transform() for p in psis])

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


@dataclass
class EffectorState:
    position: Vec3
    rotation: np.ndarray
    time: float = 0.0
    delta_d: float = 0.0                    # travel since the last shot [m]

    def pose(self) -> RigidTransform:
        return RigidTransform(self.rotation, self.position)


@dataclass
class StepInfo:
    moved: float
    fired: bool
    arrived: bool
    dist_l: float                           # fused surface distance, inf if none
    repulsing: bool


@dataclass
class ShotEvent:
    psi: PoseVector6                        # effector pose at the firing instant
    time: float
    index: int
    strip: int
    segment: str


@dataclass
class ShotLog:
    events: list[ShotEvent] = field(default_factory=list)
    path_length: float = 0.0

    def __len__(self) -> int:
        return len(self.events)

    @property
    def positions(self) -> np.ndarray:
        return np.array([e.psi.position for e in self.events], dtype=float).reshape(-1, 3)


@dataclass
class TrajectorySample:
    time: float
    position: Vec3
    delta_d: float
    dist_l: float
    repulsing: bool


def step(state: EffectorState, target: Vec3, config: SimConfig, armed: bool,
         rig: SensorRig | None = None,
         cloud: PointCloud | None = None) -> tuple[EffectorState, StepInfo]:
    """One control tick toward `target`; returns the new state and what happened.

    Tracking velocity points at the target at max_speed (shortened on the
    final approach so the tick lands exactly). The repulsive term is added
    and the sum clamped back to max_speed. With `armed`, travel accumulates
    into delta_d and the laser fires when it reaches one diameter.
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
        fused = sensor_fusion(rig, cloud, state.pose())
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
    delta_d = state.delta_d + moved if armed else state.delta_d
    fired = False
    if armed and delta_d >= config.laser_diameter:
        fired = True
        delta_d = 0.0
    arrived = bool(np.linalg.norm(new_pos - target) <= 1e-9)
    new_state = EffectorState(new_pos, state.rotation, state.time + dt, delta_d)
    return new_state, StepInfo(moved, fired, arrived, dist_l, repulsing)


@dataclass
class RunResult:
    log: ShotLog
    trajectory: list[TrajectorySample]
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
    targets and the guarded cloud are carried from the plan frame by the
    head's displacement since t = 0. A leg that cannot be reached within
    point_timeout (typically because the safety field holds the tool off)
    aborts the run.
    """
    if standoff < 0:
        raise InvalidParam("standoff must be non-negative")
    segments = [paths] if isinstance(paths, SegmentPath) else list(paths.values())
    head0 = anchor = motion.pose_at(0.0) if motion is not None else None
    carry = None                            # head o inv(head0) once re-anchored
    live_cloud = cloud
    state = None if start is None else EffectorState(start.translation.copy(),
                                                     start.rotation.copy())
    shots: list[ShotEvent] = []
    samples: list[TrajectorySample] = []
    total = 0.0

    for path in segments:
        poses = path_to_poses(path, standoff)
        plan_pos = np.array([p.translation for p in poses])
        plan_rot = [p.rotation for p in poses]
        tgt_pos = plan_pos if carry is None else carry.apply(plan_pos)
        strip_ids = np.asarray(path.strip_indices)
        first = 0
        if state is None:
            state = EffectorState(tgt_pos[0].copy(), plan_rot[0].copy())
            first = 1
        state.delta_d = 0.0
        if record:
            samples.append(TrajectorySample(state.time, state.position.copy(),
                                            state.delta_d, math.inf, False))

        for j in range(first, len(poses)):
            in_strip = j > 0 and strip_ids[j] == strip_ids[j - 1]
            if not in_strip:
                state.delta_d = 0.0
            armed = in_strip and config.laser_enabled
            tgt_rot = plan_rot[j] if carry is None else carry.rotation @ plan_rot[j]
            leg_rot_from = state.rotation
            leg_t0 = state.time
            leg_len0 = float(np.linalg.norm(tgt_pos[j] - state.position))
            while float(np.linalg.norm(tgt_pos[j] - state.position)) > 1e-9:
                if motion is not None:
                    head = motion.pose_at(state.time)
                    if motion_exceeds_deadband(anchor, head, config.deadband_translation,
                                               config.deadband_rotation):
                        anchor = head
                        carry = head.compose(head0.invert())
                        tgt_pos = carry.apply(plan_pos)
                        tgt_rot = carry.rotation @ plan_rot[j]
                        if cloud is not None:
                            live_cloud = cloud.transformed(carry)
                state, info = step(state, tgt_pos[j], config, armed, rig, live_cloud)
                total += info.moved
                frac = 1.0 if leg_len0 < 1e-12 else min(
                    1.0, (state.time - leg_t0) * config.max_speed / leg_len0)
                state.rotation = interpolate_rotation(leg_rot_from, tgt_rot, frac)
                if info.fired:
                    shots.append(ShotEvent(PoseVector6.from_transform(state.pose()),
                                           state.time, len(shots),
                                           int(strip_ids[j]), path.label))
                if record:
                    samples.append(TrajectorySample(state.time, state.position.copy(),
                                                    state.delta_d, info.dist_l,
                                                    info.repulsing))
                if info.arrived:
                    break
                if config.point_timeout is not None and \
                        state.time - leg_t0 > config.point_timeout:
                    raise AbortedOnSafety(
                        f"target {j} of '{path.label}' not reached within "
                        f"{config.point_timeout:g} s (remaining "
                        f"{np.linalg.norm(tgt_pos[j] - state.position):.4g} m)",
                        result=RunResult(ShotLog(shots, total), samples, state))
            state.position = tgt_pos[j].copy()
            state.rotation = tgt_rot.copy()
    return RunResult(ShotLog(shots, total), samples, state)


@dataclass
class PlanarRegion:
    """A polygonal patch of a plane: origin plus two orthonormal in-plane axes."""

    origin: Vec3
    u_axis: Vec3
    v_axis: Vec3
    polygon: np.ndarray                     # (n, 2) in (u, v) coordinates

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.u_axis = np.asarray(self.u_axis, dtype=float).reshape(3)
        self.v_axis = np.asarray(self.v_axis, dtype=float).reshape(3)
        self.polygon = np.asarray(self.polygon, dtype=float).reshape(-1, 2)
        if len(self.polygon) < 3:
            raise InvalidParam("region polygon needs at least 3 vertices")

    def contains(self, uv: np.ndarray) -> np.ndarray:
        return points_in_polygon(uv, self.polygon)

    def to_world(self, uv: np.ndarray) -> np.ndarray:
        uv = np.asarray(uv, dtype=float).reshape(-1, 2)
        return (self.origin[None, :]
                + uv[:, :1] * self.u_axis[None, :]
                + uv[:, 1:] * self.v_axis[None, :])


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
    _, _, vt = np.linalg.svd(rel, full_matrices=True)
    u_axis = _canonical_axis(vt[0])
    v_axis = _canonical_axis(vt[1])
    u = rel @ u_axis
    v = rel @ v_axis
    lo_u, hi_u = float(u.min()) - pad, float(u.max()) + pad
    lo_v, hi_v = float(v.min()) - pad, float(v.max()) + pad
    polygon = np.array([[lo_u, lo_v], [hi_u, lo_v], [hi_u, hi_v], [lo_u, hi_v]])
    return PlanarRegion(center, u_axis, v_axis, polygon)


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
    treated; otherwise Monte Carlo over `region` (or, by default, over the
    shot pattern's own padded best-fit rectangle, seeded and deterministic).
    """
    if len(log) == 0:
        raise EmptyLog("no shots were fired")
    if diameter <= 0:
        raise InvalidParam("diameter must be positive")
    shots = log.positions

    gaps = []
    for a, b in zip(log.events, log.events[1:]):
        if a.segment == b.segment and a.strip == b.strip:
            gaps.append(float(np.linalg.norm(b.psi.position - a.psi.position)))
    mean_sp = float(np.mean(gaps)) if gaps else None
    var_sp = float(np.var(gaps)) if gaps else None

    radius = 0.5 * diameter
    tree = cKDTree(shots)
    if cloud is not None:
        dist, _ = tree.query(cloud.positions)
        coverage = float(np.mean(dist <= radius))
    else:
        if region is None:
            region = default_shot_region(shots, radius)
        rng = np.random.default_rng(seed)
        poly = region.polygon
        lo = poly.min(axis=0)
        hi = poly.max(axis=0)
        accepted = 0
        covered = 0
        while accepted < samples:
            uv = rng.uniform(lo, hi, size=(samples, 2))
            keep = region.contains(uv)
            uv = uv[keep]
            if len(uv) == 0:
                continue
            take = uv[:samples - accepted]
            dist, _ = tree.query(region.to_world(take))
            covered += int(np.count_nonzero(dist <= radius))
            accepted += len(take)
        coverage = covered / samples
    return CoverageReport(len(log), len(gaps), mean_sp, var_sp, coverage,
                          log.path_length)
