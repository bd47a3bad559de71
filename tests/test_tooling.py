"""The benchmark's traced run resolves its functions by name in facelaser,
and everything defined in src/facelaser is reached from a stage or a traced
name."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facelaser import cli
from facelaser.cloud import PointCloud, estimate_normals, save_ply, voxel_downsample
from facelaser.geometry import RigidTransform, axis_angle_to_rotation
from facelaser.registration import icp_point_to_plane

from support import ellipsoid_cloud, model_grid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "facelaser"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    return [(layer, name) for layer, names in _load_tracing().TRACED.items()
            for name in names]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"facelaser.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(scope) -> set:
    """The names a function, lambda or comprehension binds in its own scope:
    parameters, stored names, defs, imports and `except ... as` names, less
    its global and nonlocal ones. Nested scopes bind their own."""
    if isinstance(scope, _COMPREHENSIONS):
        return {sub.id for gen in scope.generators for sub in ast.walk(gen.target)
                if isinstance(sub, ast.Name)}
    a = scope.args
    names = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
             if arg is not None}
    shared = set()
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            shared |= set(node.names)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef, *_COMPREHENSIONS)):
            todo.extend(ast.iter_child_nodes(node))
    return names - shared


def _free_loads(node, bound=frozenset()):
    """The names `node` loads that no function, lambda or comprehension
    around the load binds: the names that resolve to module level."""
    if isinstance(node, ast.Name):
        return {node.id} if isinstance(node.ctx, ast.Load) and node.id not in bound else set()
    inner, outer = list(ast.iter_child_nodes(node)), []
    if isinstance(node, _FUNCTIONS):
        # Decorators, defaults and annotations belong to the enclosing scope.
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        outer = [*getattr(node, "decorator_list", ()), *a.defaults,
                 *(d for d in a.kw_defaults if d is not None),
                 *(p.annotation for p in params if p is not None and p.annotation),
                 *([node.returns] if getattr(node, "returns", None) else [])]
        inner = list(node.body) if isinstance(node.body, list) else [node.body]
    own = bound | _bound_names(node) if isinstance(node, (*_FUNCTIONS, *_COMPREHENSIONS)) \
        else bound
    return set().union(*(_free_loads(sub, own) for sub in inner),
                       *(_free_loads(sub, bound) for sub in outer))


def test_cli_imports_no_scipy():
    """A fresh interpreter that imports facelaser.cli loads no scipy module:
    the package runs on numpy alone, and every stage starts without
    scipy's import time."""
    code = ("import sys, facelaser.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def _unreached_defs():
    """The module-level defs and classes of src/facelaser, and the methods
    of its reached classes, that nothing reaches from the roots: `cli.main`,
    `cli.build_parser`, every `cli.cmd_*` and every traced name.

    A bare name reaches every module-level def or class of that name, since
    src/ imports functions by name, when it is loaded and no function around
    it binds it (`_free_loads`): a local, parameter or field of that name
    reaches nothing. An attribute reaches every method of that name. A
    reached class reaches its dunder methods and the names in its
    decorators, bases and non-method body. Module-level statements other
    than defs run on import, so the names in them are reached too."""
    nodes, by_name, reached, on_import = {}, {}, set(), []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                on_import.append(node)
                continue
            key = (module, node.name)
            nodes[key] = node
            by_name.setdefault(node.name, []).append(key)
            if isinstance(node, ast.ClassDef):
                nodes.update({(*key, sub.name): sub for sub in node.body
                              if isinstance(sub, ast.FunctionDef)})
            if module == "cli" and (node.name in ("main", "build_parser")
                                    or node.name.startswith("cmd_")):
                reached.add(key)
    for layer, name in _traced_names():
        parts = name.split(".")
        reached |= {(layer, parts[0]), (layer, *parts)}
    while True:
        names, attrs = set(), set()
        for node in on_import + [nodes[key] for key in reached]:
            parts = [node]
            if isinstance(node, ast.ClassDef):      # its methods are reached one by one
                parts = [*node.decorator_list, *node.bases,
                         *(s for s in node.body if not isinstance(s, ast.FunctionDef))]
            for part in parts:
                names |= _free_loads(part)
                attrs |= {sub.attr for sub in ast.walk(part) if isinstance(sub, ast.Attribute)}
        found = {key for name in names for key in by_name.get(name, ())}
        found |= {key for key in nodes if len(key) == 3 and key[:2] in reached
                  and (key[2] in attrs or key[2].startswith("__"))}
        if found <= reached:
            return sorted(".".join(key) for key in nodes.keys() - reached
                          if len(key) == 2 or key[:2] in reached)
        reached |= found


def test_src_holds_only_what_a_stage_runs():
    """Every def and class in src/facelaser runs in a stage or is traced by
    name: an oracle that only tests call belongs in tests/support.py."""
    assert _unreached_defs() == []


def _register_call(name):
    """The function traced as `name`, args for it, and the counts its
    observer must record from that call."""
    target = ellipsoid_cloud(800, radii=(0.09, 0.12, 0.07))
    bare = PointCloud(target.positions)
    source = target.transformed(RigidTransform(
        axis_angle_to_rotation(np.array([0.02, -0.01, 0.03])),
        np.array([0.002, 0.0, -0.001])))
    grid = model_grid(target, 0.002)
    res = icp_point_to_plane(source, grid)
    down = voxel_downsample(target, 0.02)
    return {
        "cloud.estimate_normals": (
            estimate_normals, (bare, 0.02, np.zeros(3)),
            {"cloud.estimate_normals.points": len(bare)}),
        "cloud.voxel_downsample": (
            voxel_downsample, (target, 0.02),
            {"cloud.voxel_downsample.in_points": len(target),
             "cloud.voxel_downsample.out_points": len(down)}),
        "registration.icp_point_to_plane": (
            icp_point_to_plane, (source, grid),
            {"registration.icp_point_to_plane.iterations": res.iterations,
             "registration.icp_point_to_plane.converged": int(res.converged),
             "registration.icp_point_to_plane.final_rmse_max": res.rmse}),
    }[name]


@pytest.mark.parametrize("name", ["cloud.estimate_normals", "cloud.voxel_downsample",
                                  "registration.icp_point_to_plane"])
def test_register_observers_read_a_real_call(name):
    """The traced wrapper runs the function and hands its args and result to
    the stage's observer, which must still understand the result type."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    assert name in tracing.OBSERVERS
    fn, args, want = _register_call(name)
    tracer.wrap(name, fn)(*args)
    assert dict(tracer.counts) == want


@pytest.mark.parametrize("with_cloud", [False, True], ids=["monte-carlo", "cloud"])
def test_coverage_observer_reads_report_call(tmp_path, with_cloud):
    """`report`'s call to coverage_metrics passes `samples` and `cloud` by
    keyword, as the coverage observer reads them: the configured mc_samples
    without a cloud, no samples with one."""
    config = tmp_path / "config.json"
    config.write_text('{"mc_samples": 4321}')
    shots = tmp_path / "shots.csv"
    shots.write_text("index,time_s,x,y,z,nu_x,nu_y,nu_z,strip,segment\n"
                     + "".join(f"{i},{0.1 * i},{0.004 * i},0,0,0,0,0,0,patch\n"
                               for i in range(5)))
    argv = ["--config", str(config), "report", "--shots", str(shots),
            "--out", str(tmp_path / "report.json")]
    if with_cloud:
        save_ply(ellipsoid_cloud(200, radii=(0.09, 0.12, 0.07)), tmp_path / "cloud.ply")
        argv += ["--cloud", str(tmp_path / "cloud.ply")]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["simulator.coverage_metrics.samples"] == (0 if with_cloud else 4321)
    assert "simulator.coverage_metrics" in tracer.names
