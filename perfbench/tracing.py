"""Span tracer for the benchmark's traced run, and the per-layer metrics.

`Tracer.install()` replaces each traced facelaser function with a wrapper in
every module namespace that binds it, because modules call their own imported
names (`cli` calls its `run_path`, not `simulator.run_path`). Methods are
wrapped on their class. Each call records one span: name, start, end and the
span that was open when it began. Spans stay in flat arrays in memory and are
written out once, at the end of the run.

Some wrappers also count what a call did (raycast hits, points copied, ICP
iterations), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Functions traced, by defining module; a dotted name is a method.
TRACED = {
    "cloud": ["load_ply", "save_ply", "estimate_normals", "voxel_downsample",
              "concatenate", "raycast", "PointCloud.kdtree",
              "PointCloud.transformed"],
    "geometry": ["interpolate_rotation"],
    "registration": ["merge_views", "icp_point_to_plane"],
    "segmentation": ["segment_face", "points_in_polygon"],
    "pathplan": ["plan_segment", "bin_strips", "sweep_patch", "path_to_poses"],
    "simulator": ["run_path", "step", "sensor_fusion", "repulsive_velocity",
                  "motion_exceeds_deadband", "transform_path",
                  "coverage_metrics", "MotionScript.pose_at"],
}
MODULES = ("cli", "cloud", "geometry", "registration", "segmentation",
           "pathplan", "simulator")
STAGES = ("viewpoints", "register", "segment", "plan", "simulate", "report")
TICK_BUDGET_S = 1.0 / 125.0


def _count(tr, key, value=1):
    tr.counts[key] += value


def _observe_load_ply(tr, args, kwargs, result):
    _count(tr, "cloud.load_ply.bytes", os.path.getsize(args[0]))


def _observe_save_ply(tr, args, kwargs, result):
    _count(tr, "cloud.save_ply.bytes", os.path.getsize(args[1]))


def _observe_voxel(tr, args, kwargs, result):
    _count(tr, "cloud.voxel_downsample.in_points", len(args[0]))
    _count(tr, "cloud.voxel_downsample.out_points", len(result))


def _observe_icp(tr, args, kwargs, result):
    _count(tr, "registration.icp_point_to_plane.iterations", result.iterations)
    _count(tr, "registration.icp_point_to_plane.converged", int(result.converged))
    key = "registration.icp_point_to_plane.final_rmse_max"
    tr.counts[key] = max(tr.counts[key], result.rmse)


def _observe_coverage(tr, args, kwargs, result):
    if kwargs.get("cloud") is None:
        _count(tr, "simulator.coverage_metrics.samples",
               kwargs.get("samples", 1_000_000))


def _observe_segment(tr, args, kwargs, result):
    _count(tr, "segmentation.segment_face.points", len(args[0]))
    _count(tr, "segmentation.segment_face.residual", len(result.residual))


OBSERVERS = {
    "cloud.load_ply": _observe_load_ply,
    "cloud.save_ply": _observe_save_ply,
    "cloud.estimate_normals": lambda tr, a, k, r: _count(
        tr, "cloud.estimate_normals.points", len(a[0])),
    "cloud.voxel_downsample": _observe_voxel,
    "cloud.raycast": lambda tr, a, k, r: _count(
        tr, "cloud.raycast.hits", r is not None),
    "cloud.PointCloud.transformed": lambda tr, a, k, r: _count(
        tr, "cloud.PointCloud.transformed.points", len(a[0])),
    "registration.icp_point_to_plane": _observe_icp,
    "segmentation.points_in_polygon": lambda tr, a, k, r: _count(
        tr, "segmentation.points_in_polygon.points", len(a[0])),
    "segmentation.segment_face": _observe_segment,
    "pathplan.plan_segment": lambda tr, a, k, r: _count(
        tr, "pathplan.plan_segment.path_points", len(r)),
    "simulator.repulsive_velocity": lambda tr, a, k, r: _count(
        tr, "simulator.repulsive_velocity.engaged", bool(r.any())),
    "simulator.motion_exceeds_deadband": lambda tr, a, k, r: _count(
        tr, "simulator.motion_exceeds_deadband.true", bool(r)),
    "simulator.coverage_metrics": _observe_coverage,
}


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict = defaultdict(float)
        self.passes: list[tuple[int, int, dict]] = []   # span range, counts
        self._pass_start = 0
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each place it is looked up."""
        mods = {m: sys.modules[f"facelaser.{m}"] for m in MODULES}
        mods["facelaser"] = sys.modules["facelaser"]
        wrappers = {}
        for layer, funcs in TRACED.items():
            for dotted in funcs:
                owner = mods[layer]
                *cls, attr = dotted.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                fn = getattr(owner, attr)
                w = self.wrap(f"{layer}.{dotted}", fn)
                if cls:
                    self._patch(owner, attr, w)
                else:
                    wrappers[id(fn)] = (fn, w)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def begin_pass(self) -> None:
        self._pass_start = len(self.name)
        self.counts = defaultdict(float)

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.name), dict(self.counts)))

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            pass_bounds=np.array([(a, b) for a, b, _ in self.passes], dtype=np.int64))

    def pass_stats(self, k: int) -> "PassStats":
        a, b, counts = self.passes[k]
        return PassStats(self.names, np.frombuffer(self.name, np.int32)[a:b],
                         np.frombuffer(self.parent, np.int32)[a:b] - a,
                         np.frombuffer(self.start)[a:b], np.frombuffer(self.end)[a:b],
                         counts)


class PassStats:
    """Durations, self times and counters of the spans of one traced pass."""

    def __init__(self, names, name, parent, start, end, counts):
        self.names = names
        self.name = name
        self.parent = parent
        self.dur = end - start
        child = parent >= 0
        children = np.bincount(parent[child], weights=self.dur[child],
                               minlength=len(name))
        self.self_time = self.dur - children
        self.counts = counts
        self._by_name = {}
        order = np.argsort(name, kind="stable")
        bounds = np.searchsorted(name[order], np.arange(len(names) + 1))
        for nid, label in enumerate(names):
            self._by_name[label] = order[bounds[nid]:bounds[nid + 1]]

    def idx(self, label):
        return self._by_name.get(label, np.zeros(0, dtype=int))

    def calls(self, label) -> int:
        return int(len(self.idx(label)))

    def seconds(self, label) -> float:
        return float(self.dur[self.idx(label)].sum())

    def self_seconds(self, label) -> float:
        return float(self.self_time[self.idx(label)].sum())

    def child_seconds(self, label) -> dict:
        """Seconds spent in the direct children of `label` spans, by name."""
        kids = np.flatnonzero(np.isin(self.parent, self.idx(label)))
        out: dict = {}
        for k in kids:
            out[self.names[self.name[k]]] = out.get(self.names[self.name[k]], 0.0) \
                + float(self.dur[k])
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def pct_us(self, label, q) -> float:
        d = self.dur[self.idx(label)]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def over_budget(self, label) -> float:
        d = self.dur[self.idx(label)]
        return float(np.mean(d > TICK_BUDGET_S)) if len(d) else 0.0

    def count(self, key) -> float:
        return float(self.counts.get(key, 0.0))

    def ratio(self, key, label) -> float:
        n = self.calls(label)
        return self.count(key) / n if n else 0.0


def _stats(layer_fn, *fields):
    """Metric entries for common per-function statistics."""
    out = []
    for f in fields:
        name = f"{layer_fn}.{f}"
        if f == "calls":
            out.append((name, "count", "lower", lambda s, l=layer_fn: s.calls(l)))
        elif f == "s":
            out.append((name, "s", "lower", lambda s, l=layer_fn: s.seconds(l)))
        elif f == "p50_us":
            out.append((name, "us", "lower", lambda s, l=layer_fn: s.pct_us(l, 50)))
        elif f == "p99_us":
            out.append((name, "us", "lower", lambda s, l=layer_fn: s.pct_us(l, 99)))
        else:
            raise ValueError(f)
    return out


def _count_metric(key, unit, better):
    return (key, unit, better, lambda s: s.count(key))


def _icp_s_per_iter(s):
    it = s.count("registration.icp_point_to_plane.iterations")
    return s.seconds("registration.icp_point_to_plane") / it if it else 0.0


# (name, unit, better, value(PassStats)); the traced run prints these.
LAYER_METRICS = (
    _stats("simulator.step", "calls", "p50_us", "p99_us")
    + [("simulator.step.over_budget_ratio", "ratio", "lower",
        lambda s: s.over_budget("simulator.step"))]
    + _stats("simulator.sensor_fusion", "calls", "p50_us", "p99_us")
    + _stats("simulator.repulsive_velocity", "calls")
    + [_count_metric("simulator.repulsive_velocity.engaged", "count", "lower")]
    + _stats("simulator.MotionScript.pose_at", "calls", "s")
    + _stats("simulator.motion_exceeds_deadband", "calls", "s")
    + [_count_metric("simulator.motion_exceeds_deadband.true", "count", "lower")]
    + _stats("simulator.transform_path", "calls")
    + _stats("simulator.coverage_metrics", "s")
    + [_count_metric("simulator.coverage_metrics.samples", "count", "lower")]
    + _stats("simulator.run_path", "calls", "s")
    + _stats("cloud.raycast", "calls", "p50_us", "p99_us", "s")
    + [("cloud.raycast.hit_ratio", "ratio", "higher",
        lambda s: s.ratio("cloud.raycast.hits", "cloud.raycast"))]
    + _stats("cloud.estimate_normals", "s")
    + [_count_metric("cloud.estimate_normals.points", "count", "lower")]
    + _stats("cloud.voxel_downsample", "s")
    + [_count_metric("cloud.voxel_downsample.in_points", "count", "lower"),
       _count_metric("cloud.voxel_downsample.out_points", "count", "lower")]
    + _stats("cloud.PointCloud.kdtree", "calls", "s")
    + _stats("cloud.concatenate", "s")
    + _stats("cloud.PointCloud.transformed", "calls")
    + [_count_metric("cloud.PointCloud.transformed.points", "count", "lower")]
    + _stats("cloud.load_ply", "s")
    + [_count_metric("cloud.load_ply.bytes", "B", "lower")]
    + _stats("cloud.save_ply", "s")
    + [_count_metric("cloud.save_ply.bytes", "B", "lower")]
    + _stats("geometry.interpolate_rotation", "calls", "s")
    + _stats("registration.merge_views", "s")
    + _stats("registration.icp_point_to_plane", "calls", "s")
    + [_count_metric("registration.icp_point_to_plane.iterations", "count", "lower"),
       ("registration.icp_point_to_plane.s_per_iter", "s", "lower", _icp_s_per_iter),
       ("registration.icp_point_to_plane.converged_ratio", "ratio", "higher",
        lambda s: s.ratio("registration.icp_point_to_plane.converged",
                          "registration.icp_point_to_plane")),
       _count_metric("registration.icp_point_to_plane.final_rmse_max", "m", "lower")]
    + _stats("segmentation.segment_face", "s")
    + _stats("segmentation.points_in_polygon", "calls", "s")
    + [_count_metric("segmentation.points_in_polygon.points", "count", "lower"),
       ("segmentation.residual_ratio", "ratio", "lower",
        lambda s: (s.count("segmentation.segment_face.residual")
                   / s.count("segmentation.segment_face.points"))
        if s.count("segmentation.segment_face.points") else 0.0)]
    + _stats("pathplan.plan_segment", "calls", "s")
    + [_count_metric("pathplan.plan_segment.path_points", "count", "lower")]
    + _stats("pathplan.bin_strips", "s")
    + _stats("pathplan.sweep_patch", "s")
    + _stats("pathplan.path_to_poses", "s")
    + [(f"cli.{st}.s", "s", "lower", lambda s, l=f"cli.{st}": s.seconds(l))
       for st in STAGES]
    + [(f"cli.{st}.self_s", "s", "lower", lambda s, l=f"cli.{st}": s.self_seconds(l))
       for st in STAGES]
)

# Counts that must repeat exactly between the traced passes of a run.
EXACT_COUNTS = ("simulator.step.calls", "cloud.raycast.calls",
                "registration.icp_point_to_plane.iterations")
