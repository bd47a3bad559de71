"""Command line front end for the scan / segment / plan / simulate pipeline.

All knobs live in one flat JSON config with unit-suffixed keys; every
subcommand reads and writes plain files (PLY clouds, JSON paths and poses,
CSV logs, SVG overviews) so runs are scriptable and byte-reproducible:
identical inputs and config give identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .cloud import PointCloud, estimate_normals, load_ply, save_ply
from .errors import (
    ConfigError,
    EmptyCloud,
    FacelaserError,
    InvalidParam,
    MissingField,
    NoCorrespondences,
    ParseError,
    TooFewPoints,
)
from .geometry import CameraIntrinsics, PoseVector6, RigidTransform, norms_by_column, parse_pose
from .pathplan import PlannerConfig, SegmentPath, plan_segment
from .registration import check_merge_leaf, estimate_viewpoints, merge_views
from .segmentation import REGION_LABELS, FaceLandmarks, segment_face
from .simulator import (
    MotionScript,
    SensorRig,
    ShotLog,
    SimConfig,
    coverage_metrics,
    run_path,
)


class _UsageError(Exception):
    """Bad invocation (missing inputs, mismatched counts): exit code 2."""


@dataclass
class RunConfig:
    """Flat pipeline configuration; key names carry their unit suffix."""

    laser_diameter_m: float = 0.004
    pulse_rate_hz: float = 5.0
    d_min_m: float = 0.25
    l_min_m: float = SensorRig.l_min
    kappa: float = SensorRig.kappa
    voxel_leaf_m: float = 0.002
    phi_step_rad: float = math.radians(10.0)
    n_per_side: int = 2
    seed: int = 0
    viewpoint_arc_model: str = "circular"
    control_rate_hz: float = SimConfig.control_rate
    obliquity_correction: bool = PlannerConfig.obliquity_correction
    orientation: str = PlannerConfig.orientation
    mc_samples: int = 1_000_000
    gate_multiplier: float = 10.0
    point_timeout_s: float = SimConfig.point_timeout
    sensor_ring_radius_m: float = SensorRig.ring_radius
    sensor_offset_m: float = SensorRig.offset
    sensor_max_range_m: float = SensorRig.max_range
    laser_enabled: bool = SimConfig.laser_enabled
    standoff_m: float = 0.0

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        values = {}
        for f in fields(cls):
            if f.name not in doc:
                continue
            v = doc[f.name]
            if f.type == "bool":
                if not isinstance(v, bool):
                    raise ConfigError(f"{path}: {f.name} must be true or false")
            elif f.type == "int":
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigError(f"{path}: {f.name} must be an integer")
            elif f.type == "float":
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"{path}: {f.name} must be a number")
                v = float(v)
                if not math.isfinite(v):
                    raise ConfigError(f"{path}: {f.name} must be finite")
            elif f.type == "str":
                if not isinstance(v, str):
                    raise ConfigError(f"{path}: {f.name} must be a string")
            values[f.name] = v
        return cls(**values)

    def _build(self, cls, *keys):
        """`cls` from these keys' values in field order; a value it rejects is
        reported with the keys that fed it."""
        try:
            return cls(*(getattr(self, k) for k in keys))
        except InvalidParam as exc:
            raise ConfigError(f"{exc} (config keys: {', '.join(keys)})") from exc

    def planner(self) -> PlannerConfig:
        return self._build(PlannerConfig, "laser_diameter_m", "orientation",
                           "obliquity_correction")

    def sim(self) -> SimConfig:
        return self._build(SimConfig, "laser_diameter_m", "pulse_rate_hz",
                           "control_rate_hz", "point_timeout_s", "laser_enabled")

    def rig(self) -> SensorRig:
        return self._build(SensorRig, "sensor_ring_radius_m", "sensor_offset_m",
                           "sensor_max_range_m", "l_min_m", "kappa")


def _require(path) -> str:
    if not os.path.exists(path):
        raise _UsageError(f"input file not found: {path}")
    return path


def _read_json(path):
    """The JSON document of an input file; ParseError for text that is not JSON."""
    try:
        with open(_require(path), "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _dump_pose(t: RigidTransform) -> dict:
    psi = PoseVector6.from_transform(t)
    return {"translation": [float(x) for x in psi.position],
            "axis_angle": [float(x) for x in psi.axis_angle]}


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------- viewpoints

def cmd_viewpoints(args, cfg: RunConfig) -> int:
    if args.face_pose is not None:
        pose = parse_pose(_read_json(args.face_pose), args.face_pose)
    else:
        pose = RigidTransform.identity()
    poses = estimate_viewpoints(pose, cfg.d_min_m, cfg.phi_step_rad,
                                cfg.n_per_side, cfg.viewpoint_arc_model)
    _write_json([_dump_pose(p) for p in poses], args.out)
    print(f"wrote {len(poses)} viewpoint poses -> {args.out}")
    return 0


# ------------------------------------------------------------------ register

def _grid_error(path, exc: ValueError) -> InvalidParam:
    """A view the voxel grid rejects: a coordinate too far from the origin
    for voxel_leaf_m."""
    return InvalidParam(f"{path}: {exc} (config key: voxel_leaf_m)")


def cmd_register(args, cfg: RunConfig) -> int:
    docs = _read_json(args.poses)
    if not isinstance(docs, list):
        raise ParseError(f"{args.poses}: expected a list of poses")
    poses = [parse_pose(d, args.poses) for d in docs]
    if len(poses) != len(args.views):
        raise _UsageError(f"{len(args.views)} views but {len(poses)} poses")
    leaf = cfg.voxel_leaf_m
    try:
        check_merge_leaf(leaf)
    except InvalidParam as exc:
        raise ConfigError(f"{exc} (config key: voxel_leaf_m)") from exc
    views = []
    for p in args.views:
        v = load_ply(_require(p))
        if len(v) == 0:
            raise EmptyCloud(f"{p}: the view has no points")
        if not v.has_normals:
            try:
                v = estimate_normals(v, leaf, np.zeros(3))
            except (EmptyCloud, TooFewPoints) as exc:
                raise type(exc)(f"{p}: {exc}") from exc
            except ValueError as exc:
                raise _grid_error(p, exc) from exc
        views.append(v)
    log = []
    try:
        merged = merge_views(views, poses, leaf, gate_multiplier=cfg.gate_multiplier,
                             icp_log=log)
    except InvalidParam as exc:
        # The leaf is checked above, so merge_views rejected the gate.
        raise ConfigError(f"{exc} (config key: gate_multiplier)") from exc
    except NoCorrespondences as exc:
        raise NoCorrespondences(f"{args.views[exc.view]}: {exc}") from exc
    except ValueError as exc:
        raise _grid_error(args.views[exc.view], exc) from exc
    save_ply(merged, args.out)
    if args.icp_log:
        _write_json([{"rmse": r.rmse, "iterations": r.iterations,
                      "converged": r.converged} for r in log], args.icp_log)
    print(f"merged {len(views)} views -> {args.out} ({len(merged)} points)")
    return 0


# ------------------------------------------------------------------- segment

def cmd_segment(args, cfg: RunConfig) -> int:
    cloud = load_ply(_require(args.cloud))
    landmarks = FaceLandmarks.from_json(_require(args.landmarks))
    cam = _read_json(args.camera)
    try:
        values = [cam[k] for k in ("fx", "fy", "cx", "cy", "width", "height")]
        if not np.isfinite(np.asarray(values, dtype=float)).all():
            raise ParseError(f"{args.camera}: non-finite camera value")
        intrinsics = CameraIntrinsics(*values)
    except KeyError as exc:
        raise ParseError(f"{args.camera}: camera without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{args.camera}: {exc}") from exc
    has_pose = "translation" in cam or "axis_angle" in cam
    pose = parse_pose(cam, args.camera) if has_pose else None
    seg = segment_face(cloud, landmarks, intrinsics, pose)
    os.makedirs(args.out_dir, exist_ok=True)
    for label in seg.labels():
        save_ply(seg[label], os.path.join(args.out_dir, f"{label}.ply"))
    save_ply(seg.residual, os.path.join(args.out_dir, "residual.ply"))
    counts = ", ".join(f"{label}: {len(seg[label])}" for label in seg.labels())
    print(f"segmented {len(cloud)} points -> {args.out_dir} ({counts}; "
          f"residual: {len(seg.residual)})")
    return 0


# ---------------------------------------------------------------------- plan

PATH_KEYS = ("x", "y", "z", "nx", "ny", "nz")

# One path record as json.dump(records, indent=2, sort_keys=True) lays it out:
# the normal, the label (as json.dumps writes it), the strip, the position.
# %r writes a finite float as json does.
_PATH_RECORD = ('  {\n    "nx": %r,\n    "ny": %r,\n    "nz": %r,\n'
                '    "segment_label": %s,\n    "strip_index": %d,\n'
                '    "x": %r,\n    "y": %r,\n    "z": %r\n  }')


def _write_paths(paths: list[SegmentPath], out) -> None:
    """The path records of every point, in visiting order, with the bytes
    json.dump writes for the list of record dicts, built with one `%`."""
    table = np.empty((sum(map(len, paths)), 8), dtype=object)
    row = 0
    for path in paths:
        rows = slice(row, row + len(path))
        table[rows, :3] = path.normals
        table[rows, 3] = json.dumps(path.label)
        table[rows, 4] = path.strip_indices
        table[rows, 5:] = path.positions
        row += len(path)
    body = ",\n".join([_PATH_RECORD] * len(table)) % tuple(table.ravel().tolist())
    with open(out, "w", encoding="utf-8") as f:
        f.write(f"[\n{body}\n]\n" if len(table) else "[]\n")


def load_paths(path) -> dict:
    """Rebuild {label: SegmentPath} from a flat path-record JSON file.

    Raises ParseError for text that is not JSON, a record that lacks a
    field, coordinates that are not finite numbers and a normal that is not
    a unit vector.
    """
    rows = _read_json(path)
    coordinates = operator.itemgetter(*PATH_KEYS)
    try:
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["segment_label"], []).append(r)
        out = {}
        for label, rs in grouped.items():
            xyz = np.array([coordinates(r) for r in rs], dtype=float)
            if not np.isfinite(xyz).all():
                raise ParseError(f"{path}: non-finite coordinate in '{label}'")
            if np.any(np.abs(norms_by_column(xyz[:, 3:]) - 1.0) > 1e-6):
                raise ParseError(f"{path}: normal in '{label}' is not a unit vector")
            strips = [int(r["strip_index"]) for r in rs]
            out[label] = SegmentPath(label, xyz[:, :3], xyz[:, 3:], strips, "unknown")
    except KeyError as exc:
        raise ParseError(f"{path}: path record without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return out


def _load_oriented(path) -> PointCloud:
    """A PLY that planning can bin into strips: one with per-point normals."""
    cloud = load_ply(path)
    if not cloud.has_normals:
        raise MissingField(f"{path}: vertex element lacks normals (nx, ny, nz), "
                           "which strip planning needs")
    return cloud


def cmd_plan(args, cfg: RunConfig) -> int:
    planner = cfg.planner()
    if args.segments:
        if not os.path.isdir(args.segments):
            raise _UsageError(f"segment directory not found: {args.segments}")
        paths = []
        for label in REGION_LABELS:
            ply = os.path.join(args.segments, f"{label}.ply")
            if os.path.exists(ply):
                paths.append(plan_segment(_load_oriented(ply), planner, label))
    else:
        paths = [plan_segment(_load_oriented(_require(args.cloud)), planner, args.label)]
    _write_paths(paths, args.out)
    planned = "; ".join(f"{path.label}: {len(path)}" for path in paths)
    print(f"planned {sum(map(len, paths))} path points -> {args.out} ({planned})")
    return 0


# ------------------------------------------------------------------ simulate

SHOT_VALUES = ("time_s", "x", "y", "z", "nu_x", "nu_y", "nu_z")


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of more than one field."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text, ""])
    return line.getvalue()[:-2]


def _write_shots_csv(log: ShotLog, path) -> None:
    """One row per shot, values as "%.9g", the header and the labels as
    csv.writer writes them."""
    n = len(log)
    table = np.empty((n, 10), dtype=object)
    table[:, 0] = range(n)
    table[:, 1:8] = np.column_stack([log.time, log.positions, log.axis_angle])
    table[:, 8] = log.strip
    quoted = {label: _csv_field(label) for label in set(log.segment.tolist())}
    table[:, 9] = [quoted[label] for label in log.segment.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow(["index", *SHOT_VALUES, "strip", "segment"])
        f.write(("%d" + ",%.9g" * 7 + ",%d,%s\n") * n % tuple(table.ravel().tolist()))


def _write_traj_csv(traj, path) -> None:
    """One row per trajectory sample, values as "%.9g"."""
    table = np.column_stack([traj.time, traj.position, traj.delta_d,
                             traj.dist_l, traj.repulsing])
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("time_s,x,y,z,delta_d,dist_l,repulsing_flag\n")
        f.write("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n" * len(table)
                % tuple(table.ravel().tolist()))


def read_shots_csv(path) -> ShotLog:
    """The shot log of a shots CSV, one row per shot in index order.

    Raises ParseError naming the file for text that is not UTF-8, a missing
    column, a value that is not a number and a non-finite value.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        values = np.array([[float(r[k]) for k in SHOT_VALUES] for r in rows],
                          dtype=float).reshape(-1, len(SHOT_VALUES))
        strips = [int(r["strip"]) for r in rows]
        segments = [r["segment"] for r in rows]
    except KeyError as exc:
        raise ParseError(f"{path}: shot log without column {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite shot value")
    return ShotLog(values[:, 0], values[:, 1:4], values[:, 4:], strips, segments)


def cmd_simulate(args, cfg: RunConfig) -> int:
    paths = load_paths(args.paths)
    if not paths:
        raise _UsageError(f"no path records in {args.paths}")
    surface = rig = None
    if args.surface:
        surface = load_ply(_require(args.surface))
        rig = cfg.rig()
    motion = MotionScript.from_json(_require(args.motion)) if args.motion else None
    res = run_path(paths, cfg.sim(), standoff=cfg.standoff_m, rig=rig,
                   cloud=surface, motion=motion, record=args.out_traj is not None)
    _write_shots_csv(res.log, args.out_shots)
    if args.out_traj:
        _write_traj_csv(res.trajectory, args.out_traj)
    print(f"simulated {len(paths)} segments: {len(res.log)} shots "
          f"-> {args.out_shots}")
    return 0


# -------------------------------------------------------------------- report

# Escapes XML text. xml.sax.saxutils.escape does the same but imports
# urllib.request, which costs every CLI call ~2 MB and ~9 ms.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _svg_overview(shots, paths, diameter: float, out) -> None:
    """Frontal-plane (x, y) overview: black path polylines, red shot circles.

    Coordinates are emitted in millimetres with fixed precision so the file
    is byte-stable.
    """
    pts = [shots[:, :2]]
    for p in (paths or {}).values():
        pts.append(p.positions[:, :2])
    allp = np.vstack(pts) * 1000.0
    r_mm = 500.0 * diameter
    lo = allp.min(axis=0) - 4.0 * r_mm
    hi = allp.max(axis=0) + 4.0 * r_mm
    size = hi - lo

    def sx(v):
        return f"{v - lo[0]:.3f}"

    def sy(v):
        # flip y so the face is upright in the image
        return f"{hi[1] - v:.3f}"

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {size[0]:.3f} {size[1]:.3f}">',
             f'<rect width="{size[0]:.3f}" height="{size[1]:.3f}" fill="white"/>']
    for label, p in sorted((paths or {}).items()):
        uv = p.positions[:, :2] * 1000.0
        coords = " ".join(f"{sx(u)},{sy(v)}" for u, v in uv)
        title = label.translate(_XML_TEXT)
        lines.append(f'<polyline points="{coords}" fill="none" stroke="black" '
                     f'stroke-width="0.4"><title>{title}</title></polyline>')
    for u, v in shots[:, :2] * 1000.0:
        lines.append(f'<circle cx="{sx(u)}" cy="{sy(v)}" r="{r_mm:.3f}" '
                     f'fill="none" stroke="red" stroke-width="0.25"/>')
    lines.append("</svg>")
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_report(args, cfg: RunConfig) -> int:
    log = read_shots_csv(_require(args.shots))
    cloud = load_ply(_require(args.cloud)) if args.cloud else None
    rep = coverage_metrics(log, cfg.laser_diameter_m, cloud=cloud,
                           samples=cfg.mc_samples, seed=cfg.seed)
    doc = {
        "n_shots": rep.n_shots,
        "n_spacings": rep.n_spacings,
        "mean_spacing_m": rep.mean_spacing,
        "var_spacing_m2": rep.var_spacing,
        "coverage_fraction": rep.coverage,
    }
    _write_json(doc, args.out)
    if args.out_svg:
        paths = load_paths(args.paths) if args.paths else None
        _svg_overview(log.positions, paths, cfg.laser_diameter_m, args.out_svg)
    mean = "n/a" if rep.mean_spacing is None else f"{rep.mean_spacing * 1000:.3f} mm"
    print(f"{rep.n_shots} shots, mean spacing {mean}, "
          f"coverage {rep.coverage:.3f} -> {args.out}")
    return 0


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="facelaser",
        description="Plan and simulate uniform laser coverage paths on "
                    "scanned faces.")
    ap.add_argument("--config", metavar="JSON",
                    help="pipeline configuration file (flat JSON)")
    ap.add_argument("--seed", type=int, help="override the configured RNG seed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("viewpoints", help="nominal scanner poses on two arcs")
    p.add_argument("--face-pose", metavar="JSON")
    p.add_argument("--out", required=True, metavar="JSON")
    p.set_defaults(func=cmd_viewpoints)

    p = sub.add_parser("register", help="merge captured views into one cloud")
    p.add_argument("--views", nargs="+", required=True, metavar="PLY")
    p.add_argument("--poses", required=True, metavar="JSON")
    p.add_argument("--out", required=True, metavar="PLY")
    p.add_argument("--icp-log", metavar="JSON")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("segment", help="split a face cloud into regions")
    p.add_argument("--cloud", required=True, metavar="PLY")
    p.add_argument("--landmarks", required=True, metavar="JSON")
    p.add_argument("--camera", required=True, metavar="JSON")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("plan", help="plan S-shaped coverage paths")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--segments", metavar="DIR")
    src.add_argument("--cloud", metavar="PLY")
    p.add_argument("--label", default="segment",
                   help="segment label when planning a bare cloud")
    p.add_argument("--out", required=True, metavar="JSON")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="execute paths with the laser trigger")
    p.add_argument("--paths", required=True, metavar="JSON")
    p.add_argument("--surface", metavar="PLY",
                   help="guarded surface; enables the proximity sensors")
    p.add_argument("--motion", metavar="JSON", help="head motion keyframes")
    p.add_argument("--out-shots", required=True, metavar="CSV")
    p.add_argument("--out-traj", metavar="CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="spacing and coverage statistics")
    p.add_argument("--shots", required=True, metavar="CSV")
    p.add_argument("--cloud", metavar="PLY",
                   help="score coverage against this cloud's points")
    p.add_argument("--paths", metavar="JSON", help="paths for the SVG overview")
    p.add_argument("--out", required=True, metavar="JSON")
    p.add_argument("--out-svg", metavar="SVG")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return args.func(args, cfg)
    except (_UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FacelaserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
