"""Command line front end for the scan / segment / plan / simulate pipeline.

All knobs live in one flat JSON config with unit-suffixed keys; every
subcommand reads and writes plain files (PLY clouds, JSON paths and poses,
CSV logs, SVG overviews) so runs are scriptable and byte-reproducible:
identical inputs and config give identical output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .cloud import estimate_normals, load_ply, save_ply
from .errors import ConfigError, FacelaserError, ParseError
from .geometry import CameraIntrinsics, PoseVector6, RigidTransform
from .pathplan import PathPoint, PlannerConfig, SegmentPath, plan_segment
from .registration import estimate_viewpoints, merge_views
from .segmentation import REGION_LABELS, FaceLandmarks, segment_face
from .simulator import (
    MotionScript,
    SensorRig,
    ShotEvent,
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
    l_min_m: float = 0.04
    kappa: float = 5e-4
    voxel_leaf_m: float = 0.002
    phi_step_rad: float = math.radians(10.0)
    n_per_side: int = 2
    seed: int = 0
    viewpoint_arc_model: str = "circular"
    control_rate_hz: float = 125.0
    obliquity_correction: bool = True
    orientation: str = "auto"
    mc_samples: int = 1_000_000
    gate_multiplier: float = 10.0
    point_timeout_s: float = 30.0
    sensor_ring_radius_m: float = 0.025
    sensor_offset_m: float = 0.06
    sensor_max_range_m: float = 0.3
    laser_enabled: bool = True
    standoff_m: float = 0.0

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
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
            elif f.type == "str":
                if not isinstance(v, str):
                    raise ConfigError(f"{path}: {f.name} must be a string")
            values[f.name] = v
        return cls(**values)

    def planner(self) -> PlannerConfig:
        return PlannerConfig(self.laser_diameter_m, self.pulse_rate_hz,
                             self.orientation, self.obliquity_correction)

    def sim(self) -> SimConfig:
        return SimConfig(self.laser_diameter_m, self.pulse_rate_hz,
                         self.control_rate_hz, self.point_timeout_s,
                         self.laser_enabled)

    def rig(self) -> SensorRig:
        return SensorRig.default(self.sensor_ring_radius_m, self.sensor_offset_m,
                                 self.sensor_max_range_m, self.l_min_m, self.kappa)


def _require(path) -> str:
    if not os.path.exists(path):
        raise _UsageError(f"input file not found: {path}")
    return path


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _load_pose(doc: dict) -> RigidTransform:
    return PoseVector6(doc["translation"], doc["axis_angle"]).to_transform()


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
        with open(_require(args.face_pose), "r", encoding="utf-8") as f:
            pose = _load_pose(json.load(f))
    else:
        pose = RigidTransform.identity()
    vs = estimate_viewpoints(pose, cfg.d_min_m, cfg.phi_step_rad,
                             cfg.n_per_side, cfg.viewpoint_arc_model)
    _write_json([_dump_pose(p) for p in vs.poses], args.out)
    print(f"wrote {len(vs)} viewpoint poses -> {args.out}")
    return 0


# ------------------------------------------------------------------ register

def cmd_register(args, cfg: RunConfig) -> int:
    with open(_require(args.poses), "r", encoding="utf-8") as f:
        poses = [_load_pose(d) for d in json.load(f)]
    if len(poses) != len(args.views):
        raise _UsageError(f"{len(args.views)} views but {len(poses)} poses")
    views = []
    for p in args.views:
        v = load_ply(_require(p))
        if not v.has_normals:
            k = min(12, max(3, len(v) - 1))
            v = estimate_normals(v, k, np.zeros(3))
        views.append(v)
    log = [] if args.icp_log else None
    merged = merge_views(views, poses, cfg.voxel_leaf_m,
                         gate_multiplier=cfg.gate_multiplier, icp_log=log)
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
    with open(_require(args.camera), "r", encoding="utf-8") as f:
        cam = json.load(f)
    intrinsics = CameraIntrinsics(cam["fx"], cam["fy"], cam["cx"], cam["cy"],
                                  cam["width"], cam["height"])
    pose = _load_pose(cam) if "translation" in cam else None
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

def _path_records(path: SegmentPath) -> list[dict]:
    rows = []
    for pt, strip in zip(path.points, path.strip_indices):
        rows.append({
            "x": float(pt.chi[0]), "y": float(pt.chi[1]), "z": float(pt.chi[2]),
            "nx": float(pt.eta[0]), "ny": float(pt.eta[1]), "nz": float(pt.eta[2]),
            "segment_label": path.label, "strip_index": int(strip),
        })
    return rows


def load_paths(path) -> dict:
    """Rebuild {label: SegmentPath} from a flat path-record JSON file.

    Raises ParseError for text that is not JSON, a record that lacks a
    field, and coordinates that are not finite numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            rows = json.load(f)
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["segment_label"], []).append(r)
        out = {}
        for label, rs in grouped.items():
            xyz = np.array([[r[k] for k in ("x", "y", "z", "nx", "ny", "nz")]
                            for r in rs], dtype=float)
            if not np.isfinite(xyz).all():
                raise ParseError(f"{path}: non-finite coordinate in '{label}'")
            points = [PathPoint(row[:3], row[3:]) for row in xyz]
            strips = np.array([int(r["strip_index"]) for r in rs], dtype=int)
            out[label] = SegmentPath(label, points, strips, "unknown")
    except KeyError as exc:
        raise ParseError(f"{path}: path record without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return out


def cmd_plan(args, cfg: RunConfig) -> int:
    planner = cfg.planner()
    records = []
    planned = []
    if args.segments:
        if not os.path.isdir(args.segments):
            raise _UsageError(f"segment directory not found: {args.segments}")
        for label in REGION_LABELS:
            ply = os.path.join(args.segments, f"{label}.ply")
            if not os.path.exists(ply):
                continue
            path = plan_segment(load_ply(ply), planner, label)
            records.extend(_path_records(path))
            planned.append(f"{label}: {len(path)}")
    else:
        path = plan_segment(load_ply(_require(args.cloud)), planner, args.label)
        records.extend(_path_records(path))
        planned.append(f"{args.label}: {len(path)}")
    _write_json(records, args.out)
    print(f"planned {len(records)} path points -> {args.out} "
          f"({'; '.join(planned)})")
    return 0


# ------------------------------------------------------------------ simulate

def _write_shots_csv(events, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["index", "time_s", "x", "y", "z",
                    "nu_x", "nu_y", "nu_z", "strip", "segment"])
        for e in events:
            w.writerow([e.index, _fmt(e.time),
                        _fmt(e.psi.position[0]), _fmt(e.psi.position[1]),
                        _fmt(e.psi.position[2]),
                        _fmt(e.psi.axis_angle[0]), _fmt(e.psi.axis_angle[1]),
                        _fmt(e.psi.axis_angle[2]), e.strip, e.segment])


def _write_traj_csv(samples, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["time_s", "x", "y", "z", "delta_d", "dist_l",
                    "repulsing_flag"])
        for s in samples:
            w.writerow([_fmt(s.time), _fmt(s.position[0]), _fmt(s.position[1]),
                        _fmt(s.position[2]), _fmt(s.delta_d),
                        "inf" if math.isinf(s.dist_l) else _fmt(s.dist_l),
                        int(s.repulsing)])


def read_shots_csv(path) -> ShotLog:
    events = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            psi = PoseVector6(
                [float(row["x"]), float(row["y"]), float(row["z"])],
                [float(row["nu_x"]), float(row["nu_y"]), float(row["nu_z"])])
            events.append(ShotEvent(psi, float(row["time_s"]),
                                    int(row["index"]), int(row["strip"]),
                                    row["segment"]))
    return ShotLog(events)


def cmd_simulate(args, cfg: RunConfig) -> int:
    paths = load_paths(_require(args.paths))
    if not paths:
        raise _UsageError(f"no path records in {args.paths}")
    surface = rig = None
    if args.surface:
        surface = load_ply(_require(args.surface))
        rig = cfg.rig()
    motion = MotionScript.from_json(_require(args.motion)) if args.motion else None
    res = run_path(paths, cfg.sim(), standoff=cfg.standoff_m, rig=rig,
                   cloud=surface, motion=motion, record=args.out_traj is not None)
    _write_shots_csv(res.log.events, args.out_shots)
    if args.out_traj:
        _write_traj_csv(res.trajectory, args.out_traj)
    print(f"simulated {len(paths)} segments: {len(res.log)} shots "
          f"-> {args.out_shots}")
    return 0


# -------------------------------------------------------------------- report

def _svg_overview(shots, paths, diameter: float, out) -> None:
    """Frontal-plane (x, y) overview: black path polylines, red shot circles.

    Coordinates are emitted in millimetres with fixed precision so the file
    is byte-stable.
    """
    pts = []
    if shots is not None and len(shots):
        pts.append(shots[:, :2])
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
        lines.append(f'<polyline points="{coords}" fill="none" stroke="black" '
                     f'stroke-width="0.4"><title>{label}</title></polyline>')
    if shots is not None:
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
        paths = load_paths(_require(args.paths)) if args.paths else None
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FacelaserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
