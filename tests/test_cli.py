import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from decimal import Decimal
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelaser import cli
from facelaser.cli import SHOT_VALUES, RunConfig, _write_shots_csv, main, read_shots_csv
from facelaser.cloud import PointCloud, load_ply, save_ply
from facelaser.errors import ParseError
from facelaser.geometry import RigidTransform
from facelaser.pathplan import SegmentPath
from facelaser.registration import estimate_viewpoints, merge_views
from facelaser.simulator import ShotLog, coverage_metrics, run_path

from support import (
    dumped_paths,
    ellipsoid_cloud,
    face_cloud,
    fibonacci_sphere,
    loop_load_paths,
    plane_grid,
)

CAMERA = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
          "width": 640, "height": 480}


@pytest.fixture
def workdir(tmp_path):
    cfg = {"mc_samples": 20000, "n_per_side": 1}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return tmp_path


def run(workdir, *argv):
    return main(["--config", str(workdir / "config.json"), *map(str, argv)])


class TestConfigHandling:
    def test_unknown_key_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"laser_diameter_mm": 4}')
        assert main(["--config", str(bad), "viewpoints",
                     "--out", str(tmp_path / "vp.json")]) == 1

    def test_wrong_type_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"laser_diameter_m": "big"}')
        assert main(["--config", str(bad), "viewpoints",
                     "--out", str(tmp_path / "vp.json")]) == 1

    def test_non_object_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["--config", str(bad), "viewpoints",
                     "--out", str(tmp_path / "vp.json")]) == 1

    def test_not_utf8_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes('{"orientation": "\u00e4"}'.encode("latin-1"))
        code = main(["--config", str(bad), "viewpoints",
                     "--out", str(tmp_path / "vp.json")])
        _assert_input_error(capsys, code, "bad.json")
        assert not (tmp_path / "vp.json").exists()

    @pytest.mark.parametrize("key, text, command", [
        ("laser_diameter_m", "NaN", "simulate"),
        ("standoff_m", "NaN", "simulate"),
        ("control_rate_hz", "Infinity", "simulate"),
        ("point_timeout_s", "NaN", "simulate"),
        ("mc_samples", "0", "report"),
        ("mc_samples", "-3", "report"),
        ("seed", "-1", "report"),
        ("control_rate_hz", "2", "simulate"),
        ("voxel_leaf_m", "0", "register"),
        ("voxel_leaf_m", "-1", "register"),
        ("voxel_leaf_m", "1e-30", "register"),
        ("voxel_leaf_m", "1e308", "register"),
        ("gate_multiplier", "0", "register"),
        ("gate_multiplier", "-1", "register"),
    ], ids=["nan-diameter", "nan-standoff", "inf-control-rate", "nan-timeout",
            "zero-samples", "negative-samples", "negative-seed",
            "control-rate-below-pulse-rate", "zero-leaf", "negative-leaf", "tiny-leaf",
            "huge-leaf", "zero-gate", "negative-gate"])
    def test_bad_value_exits_1(self, tmp_path, capsys, key, text, command):
        (tmp_path / "config.json").write_text(f'{{"{key}": {text}}}')
        (tmp_path / "paths.json").write_text(json.dumps([
            GOOD_RECORD, {**GOOD_RECORD, "x": 0.01}]))
        (tmp_path / "shots.csv").write_text(SHOTS_HEADER + SHOT_ROW)
        save_ply(plane_grid(0.01, 0.01), tmp_path / "view.ply")
        (tmp_path / "poses.json").write_text(json.dumps([
            {"translation": [0.0, 0.0, -0.25], "axis_angle": [0.0, 0.0, 0.0]}]))
        argv = {"simulate": ["--paths", tmp_path / "paths.json",
                             "--out-shots", tmp_path / "out.csv"],
                "report": ["--shots", tmp_path / "shots.csv",
                           "--out", tmp_path / "out.json"],
                "register": ["--views", tmp_path / "view.ply", "--poses",
                             tmp_path / "poses.json", "--out", tmp_path / "out.ply"]}[command]
        code = run(tmp_path, command, *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.removeprefix("mc_") in err
        assert not list(tmp_path.glob("out.*"))

    def test_missing_input_exits_2(self, workdir):
        assert run(workdir, "plan", "--cloud", workdir / "nope.ply",
                   "--out", workdir / "paths.json") == 2

    def test_register_count_mismatch_exits_2(self, workdir):
        poses = [{"translation": [0, 0, -0.25], "axis_angle": [0, 0, 0]}]
        (workdir / "poses.json").write_text(json.dumps(poses))
        assert run(workdir, "register",
                   "--views", workdir / "a.ply", workdir / "b.ply",
                   "--poses", workdir / "poses.json",
                   "--out", workdir / "merged.ply") == 2


README = Path(__file__).resolve().parents[1] / "README.md"

# Config keys whose default is a plain function default in the library.
FUNCTION_DEFAULTS = {
    "gate_multiplier": (merge_views, "gate_multiplier"),
    "viewpoint_arc_model": (estimate_viewpoints, "arc_model"),
    "mc_samples": (coverage_metrics, "samples"),
    "seed": (coverage_metrics, "seed"),
    "standoff_m": (run_path, "standoff"),
}


class TestDefaultsAgree:
    def test_readme_table_matches_run_config(self):
        section = README.read_text(encoding="utf-8").split("## Configuration")[1]
        rows = [line.split("|")[1:3] for line in section.split("\n## ")[0].splitlines()
                if line.startswith("| `")]
        table = {key.strip(" `"): text.strip(" `") for key, text in rows}
        assert sorted(table) == sorted(f.name for f in fields(RunConfig))
        cfg = RunConfig()
        for key, text in table.items():
            shown, value = json.loads(text), getattr(cfg, key)
            if isinstance(shown, float):
                value = round(value, -Decimal(text).as_tuple().exponent)
            assert (value, type(value)) == (shown, type(shown)), key

    def test_function_defaults_match_run_config(self):
        cfg = RunConfig()
        for key, (func, param) in FUNCTION_DEFAULTS.items():
            default = inspect.signature(func).parameters[param].default
            assert default == getattr(cfg, key), key


SHOTS_HEADER = "index,time_s,x,y,z,nu_x,nu_y,nu_z,strip,segment\n"
SHOT_ROW = "0,0.2,0.004,0,0,0,0,0,0,patch\n"
GOOD_RECORD = {"x": 0.0, "y": 0.0, "z": 0.0, "nx": 0.0, "ny": 0.0, "nz": 1.0,
               "segment_label": "patch", "strip_index": 0}
GOOD_KEY = {"t_s": 0.0, "translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


class TestMalformedSimulateInput:
    @pytest.mark.parametrize("paths, motion", [
        ([_without(GOOD_RECORD, "segment_label")], [GOOD_KEY]),
        ([GOOD_RECORD], [_without(GOOD_KEY, "translation")]),
        ("[{not json", [GOOD_KEY]),
        ([GOOD_RECORD], "t_s: 0"),
        ([{**GOOD_RECORD, "x": float("nan")}], [GOOD_KEY]),
        ([GOOD_RECORD], [{**GOOD_KEY, "t_s": float("inf")}]),
        ([{**GOOD_RECORD, "nz": 0.0}], [GOOD_KEY]),
    ], ids=["paths-missing-key", "motion-missing-key", "paths-not-json",
            "motion-not-json", "paths-nan", "motion-inf", "paths-zero-normal"])
    def test_exits_1_with_message(self, workdir, capsys, paths, motion):
        for name, doc in (("paths.json", paths), ("motion.json", motion)):
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (workdir / name).write_text(text)
        code = run(workdir, "simulate", "--paths", workdir / "paths.json",
                   "--motion", workdir / "motion.json",
                   "--out-shots", workdir / "shots.csv",
                   "--out-traj", workdir / "traj.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "traj.csv").exists()


GOOD_POSE = {"translation": [0.0, 0.0, 0.25], "axis_angle": [0.0, 0.0, 0.0]}
BAD_POSES = {
    "not-json": "{translation: [0, 0, 0.25]",
    "missing-key": _without(GOOD_POSE, "axis_angle"),
    "non-finite": {**GOOD_POSE, "translation": [float("nan"), 0.0, 0.25]},
}


def _write_doc(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _assert_input_error(capsys, code, name):
    """Exit 1 with one `error:` line that names the offending input."""
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


class TestMalformedJsonInput:
    @pytest.mark.parametrize("case", sorted(BAD_POSES))
    def test_viewpoints_face_pose(self, workdir, capsys, case):
        pose = _write_doc(workdir / "face_pose.json", BAD_POSES[case])
        code = run(workdir, "viewpoints", "--face-pose", pose,
                   "--out", workdir / "vp.json")
        _assert_input_error(capsys, code, "face_pose.json")
        assert not (workdir / "vp.json").exists()

    @pytest.mark.parametrize("case", sorted(BAD_POSES))
    def test_register_poses(self, workdir, capsys, case):
        doc = BAD_POSES[case]
        poses = _write_doc(workdir / "poses.json",
                           doc if isinstance(doc, str) else [doc])
        save_ply(plane_grid(0.01, 0.01), workdir / "view0.ply")
        code = run(workdir, "register", "--views", workdir / "view0.ply",
                   "--poses", poses, "--out", workdir / "merged.ply")
        _assert_input_error(capsys, code, "poses.json")
        assert not (workdir / "merged.ply").exists()

    @pytest.mark.parametrize("doc", [
        '{"fx": 500.0,',
        _without(CAMERA, "fy"),
        {**CAMERA, "fx": float("inf")},
        {**CAMERA, "cx": float("nan")},
        {**CAMERA, "translation": [0.0, 0.0, 0.0]},
        {**CAMERA, "axis_angle": [0.0, 0.0, 3.14159]},
    ], ids=["not-json", "missing-key", "inf", "nan", "pose-missing-key",
            "pose-missing-translation"])
    def test_segment_camera(self, workdir, capsys, face_scene, doc):
        cloud, landmarks, _ = face_scene
        save_ply(cloud, workdir / "face.ply")
        landmarks.to_json(workdir / "lm.json")
        camera = _write_doc(workdir / "cam.json", doc)
        code = run(workdir, "segment", "--cloud", workdir / "face.ply",
                   "--landmarks", workdir / "lm.json", "--camera", camera,
                   "--out-dir", workdir / "segs")
        _assert_input_error(capsys, code, "cam.json")
        assert not (workdir / "segs").exists()

    def test_segment_landmarks_not_json(self, workdir, capsys, face_scene):
        cloud, _, _ = face_scene
        save_ply(cloud, workdir / "face.ply")
        landmarks = _write_doc(workdir / "lm.json", '{"points": [[1, 2],')
        camera = _write_doc(workdir / "cam.json", CAMERA)
        code = run(workdir, "segment", "--cloud", workdir / "face.ply",
                   "--landmarks", landmarks, "--camera", camera,
                   "--out-dir", workdir / "segs")
        _assert_input_error(capsys, code, "lm.json")
        assert not (workdir / "segs").exists()


@pytest.mark.parametrize("header, row", [
    (SHOTS_HEADER.replace(",z,", ","), SHOT_ROW.replace(",0,0,0,0,0,", ",0,0,0,0,")),
    (SHOTS_HEADER, SHOT_ROW.replace("0.004", "abc")),
    (SHOTS_HEADER, SHOT_ROW.replace("0.004", "nan")),
    (SHOTS_HEADER, SHOT_ROW.replace("patch", "p\u00e4tch")),
], ids=["missing-column", "not-a-number", "nan", "not-utf8"])
def test_report_malformed_shots_exits_1(workdir, capsys, header, row):
    shots = workdir / "shots.csv"
    shots.write_bytes((header + row).encode("latin-1"))
    code = run(workdir, "report", "--shots", shots, "--out", workdir / "report.json")
    _assert_input_error(capsys, code, "shots.csv")
    assert not (workdir / "report.json").exists()


def test_simulate_surface_without_normals_exits_1(workdir, capsys):
    (workdir / "paths.json").write_text(json.dumps([
        GOOD_RECORD, {**GOOD_RECORD, "x": 0.01}]))
    save_ply(PointCloud(plane_grid().positions), workdir / "bare.ply")
    code = run(workdir, "simulate", "--paths", workdir / "paths.json",
               "--surface", workdir / "bare.ply",
               "--out-shots", workdir / "shots.csv")
    assert code == 1
    assert "normals" in capsys.readouterr().err
    assert not (workdir / "shots.csv").exists()


BARE_PLY = ("ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n0.01 0 0\n0 0.01 0\n0.01 0.01 0\n")


@pytest.mark.parametrize("flag", ["--cloud", "--segments"])
def test_plan_cloud_without_normals_exits_1(workdir, capsys, flag):
    """Strip binning needs normals; a PLY without them is an input error
    that names the file, not a traceback."""
    segdir = workdir / "segs"
    segdir.mkdir()
    ply = segdir / "forehead.ply"
    ply.write_text(BARE_PLY)
    source = ply if flag == "--cloud" else segdir
    code = run(workdir, "plan", flag, source, "--out", workdir / "paths.json")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ply) in err and "normals" in err
    assert not (workdir / "paths.json").exists()


LABELS = ["forehead", 'say "ah"', "back\\slash", "p\u00e4tch \u9854", "100%s %d", ""]


@st.composite
def segment_paths(draw):
    """Up to four paths of up to six points, any finite floats (-0.0,
    subnormal and near-overflow values too), labels with quotes,
    backslashes, non-ASCII text and % signs."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    paths = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 6))
        label = draw(st.one_of(st.sampled_from(LABELS), st.text(max_size=6)))
        values = np.array(draw(st.lists(finite, min_size=6 * n, max_size=6 * n)))
        strips = draw(st.lists(st.integers(0, 2 ** 40), min_size=n, max_size=n))
        paths.append(SegmentPath(label, values[:3 * n], values[3 * n:], strips,
                                 "horizontal"))
    return paths


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segment_paths())
def test_path_writer_matches_json_dump(tmp_path_factory, paths):
    """paths.json from the columns is byte for byte json.dump of the record
    dicts with indent=2 and sorted keys, an empty plan included."""
    out = tmp_path_factory.mktemp("plan") / "paths.json"
    cli._write_paths(paths, out)
    assert out.read_bytes() == dumped_paths(paths).encode("utf-8")


def test_plan_of_no_regions_writes_an_empty_list(workdir):
    (workdir / "segs").mkdir()
    assert run(workdir, "plan", "--segments", workdir / "segs",
               "--out", workdir / "paths.json") == 0
    assert (workdir / "paths.json").read_text() == "[]\n" == dumped_paths([])


def test_path_reader_matches_key_by_key_reader(tmp_path):
    """load_paths rebuilds the written columns, as the key-by-key reader does."""
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(9, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    written = [SegmentPath(label, rng.normal(size=(3, 3)), normals[3 * k:3 * k + 3],
                           [k, k, k + 1], "vertical")
               for k, label in enumerate(["nose", 'say "ah"', "p\u00e4tch"])]
    cli._write_paths(written, tmp_path / "paths.json")
    got = cli.load_paths(tmp_path / "paths.json")
    want = loop_load_paths(tmp_path / "paths.json")
    assert list(got) == list(want) == [p.label for p in written]
    for path, a, b in zip(written, got.values(), want.values()):
        for column in ("positions", "normals", "strip_indices"):
            assert np.array_equal(getattr(a, column), getattr(path, column))
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


BAD_RECORDS = {
    "missing-field": [_without(GOOD_RECORD, "ny")],
    "missing-strip": [_without(GOOD_RECORD, "strip_index")],
    "not-a-number": [GOOD_RECORD, {**GOOD_RECORD, "y": "north"}],
    "null": [{**GOOD_RECORD, "nz": None}],
    "nested": [{**GOOD_RECORD, "x": [0.0, 1.0]}],
    "non-finite": [{**GOOD_RECORD, "z": 1e400}],
    "non-unit-normal": [{**GOOD_RECORD, "nz": 0.5}],
    "list-record": [list(GOOD_RECORD.values())],
    "string-record": ["x"],
    "number-record": [GOOD_RECORD, 3],
}


@pytest.mark.parametrize("records", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_path_reader_errors_match_key_by_key_reader(tmp_path, records):
    paths = tmp_path / "paths.json"
    paths.write_text(json.dumps(records))
    with pytest.raises(ParseError) as want:
        loop_load_paths(paths)
    with pytest.raises(ParseError) as got:
        cli.load_paths(paths)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{paths}: ")


def _ascii_ply(rows) -> str:
    names = ("x", "y", "z", "nx", "ny", "nz")
    return (f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
            + "".join(f"property float {n}\n" for n in names) + "end_header\n"
            + "".join(" ".join(map(repr, row)) + "\n" for row in rows))


def test_plan_far_region_exits_1_quickly(workdir):
    """A region so far out that a strip's width does not move the cursor
    (float32 at 1e14 m, or x = 1.5e308) is an error, not an endless walk:
    `facelaser plan` exits 1 well inside the time limit."""
    grid = plane_grid()
    save_ply(PointCloud(grid.positions[:200] + 1e14, grid.normals[:200]),
             workdir / "far.ply")
    (workdir / "edge.ply").write_text(_ascii_ply(
        [(1.5e308, 0.001 * k, 0.0, 0.0, 0.0, 1.0) for k in range(4)]))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for name in ("far.ply", "edge.ply"):
        proc = subprocess.run(
            [sys.executable, "-m", "facelaser.cli", "plan", "--cloud", str(workdir / name),
             "--label", "cheek", "--out", str(workdir / "paths.json")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: region 'cheek': strips of 0.004 m "
                                      "cannot advance")
        assert not (workdir / "paths.json").exists()


def test_plan_overflowing_patch_exits_1(workdir, capsys):
    """Three points at z = 1.5e308 in one window overflow its mean: plan
    exits 1 naming the region and writes no paths.json with an Infinity."""
    (workdir / "big.ply").write_text(_ascii_ply(
        [(0.001 * k, 0.0, 1.5e308 if k < 3 else 0.0, 0.0, 0.0, 1.0) for k in range(4)]))
    code = run(workdir, "plan", "--cloud", workdir / "big.ply", "--label", "chin",
               "--out", workdir / "paths.json")
    assert code == 1
    assert "path point 0 of 'chin' overflows" in capsys.readouterr().err
    assert not (workdir / "paths.json").exists()


def test_plan_huge_normals_print_only_the_error(workdir):
    """Normals of length 1e200 overflow the strip and patch averages: in a
    fresh interpreter, with numpy's default warning filters, `plan` exits 1
    and its stderr is the one error line, with no numpy RuntimeWarning."""
    (workdir / "huge.ply").write_text(_ascii_ply(
        [(0.001 * k, 0.0, 0.0, 0.0, 0.0, 1e200) for k in range(4)]))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "facelaser.cli", "plan", "--cloud", str(workdir / "huge.ply"),
         "--label", "chin", "--out", str(workdir / "paths.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error: path point 0 of 'chin' overflows: the region's "
                           "coordinates or normals are too large to average\n")
    assert not (workdir / "paths.json").exists()


class TestViewpointsAndRegister:
    def test_viewpoints_writes_poses(self, workdir):
        out = workdir / "vp.json"
        assert run(workdir, "viewpoints", "--out", out) == 0
        poses = json.loads(out.read_text())
        assert len(poses) == 5          # n_per_side 1 from the config
        assert np.allclose(poses[0]["translation"], [0, 0, -0.25])

    def test_register_merges_views(self, workdir):
        out = workdir / "vp.json"
        assert run(workdir, "viewpoints", "--out", out) == 0
        world = ellipsoid_cloud(1500, radii=(0.09, 0.12, 0.07), front_only=True)
        poses = estimate_viewpoints(RigidTransform.identity(), 0.25,
                                    np.radians(10.0), 1)
        names = []
        for i, pose in enumerate(poses):
            view = world.transformed(pose.invert())
            name = workdir / f"view{i}.ply"
            save_ply(view, name)
            names.append(name)
        merged = workdir / "merged.ply"
        icp_log = workdir / "icp.json"
        assert run(workdir, "register", "--views", *names,
                   "--poses", out, "--out", merged, "--icp-log", icp_log) == 0
        cloud = load_ply(merged)
        assert 0 < len(cloud) <= 5 * len(world)
        log = json.loads(icp_log.read_text())
        assert len(log) == 4
        assert all(entry["rmse"] < 1e-4 for entry in log)


@pytest.mark.parametrize("column", [0, 5], ids=["x", "nz"])
def test_register_non_finite_view_exits_1(workdir, capsys, column):
    """A NaN in one view of the criterion-10 scan is an input error, not a
    traceback from the voxel grid."""
    poses = estimate_viewpoints(RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.25])),
                                0.25, np.radians(10.0), 1)
    names = []
    for i, pose in enumerate(poses):
        view = face_cloud().transformed(pose.invert())
        if i == 1:
            table = np.hstack([view.positions, view.normals])
            table[17, column] = np.nan
            view = PointCloud(table[:, :3], table[:, 3:])
        names.append(workdir / f"view{i}.ply")
        save_ply(view, names[-1])
    assert run(workdir, "viewpoints", "--face-pose", _write_doc(
        workdir / "face_pose.json", {"translation": [0.0, 0.0, 0.25],
                                     "axis_angle": [0.0, 0.0, 0.0]}),
               "--out", workdir / "vp.json") == 0
    code = run(workdir, "register", "--views", *names, "--poses", workdir / "vp.json",
               "--out", workdir / "merged.ply")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vertex row 18" in err
    assert f"{names[1]}: " in err and str(names[0]) not in err
    assert not (workdir / "merged.ply").exists()


RADII = (0.09, 0.12, 0.07)


def ellipsoid_views(n: int = 1500, min_cos: float = 0.0):
    """The ellipsoid as the five viewpoints of the default face pose see it:
    each view keeps the points whose exact normal is within acos(min_cos) of
    the line of sight, in the camera's frame. Returns the views and poses."""
    world = ellipsoid_cloud(n, radii=RADII, front_only=True)
    poses = estimate_viewpoints(RigidTransform.identity(), 0.25, np.radians(10.0), 1)
    views = []
    for pose in poses:
        view = world.transformed(pose.invert())
        sight = -view.positions / np.linalg.norm(view.positions, axis=1, keepdims=True)
        views.append(view.select(np.einsum("ij,ij->i", view.normals, sight) > min_cos))
    return views, poses


def save_views(workdir, views) -> list:
    names = [workdir / f"view{i}.ply" for i in range(len(views))]
    for view, name in zip(views, names):
        save_ply(view, name)
    return names


def register(workdir, names):
    """Run `register` on the views against the first default viewpoints."""
    assert run(workdir, "viewpoints", "--out", workdir / "vp.json") == 0
    poses = json.loads((workdir / "vp.json").read_text())[:len(names)]
    _write_doc(workdir / "vp.json", poses)
    return run(workdir, "register", "--views", *names, "--poses", workdir / "vp.json",
               "--out", workdir / "merged.ply", "--icp-log", workdir / "icp.json")


class TestRegisterBareViews:
    LEAF = 0.004

    def test_normals_on_the_leaf_grid(self, workdir, monkeypatch):
        """Views without normals get them from their own leaf-grid centroids:
        one unit normal per view voxel, facing the camera, close to the
        surface's, and good enough for ICP."""
        config = json.loads((workdir / "config.json").read_text())
        _write_doc(workdir / "config.json", {**config, "voxel_leaf_m": self.LEAF})
        views, poses = ellipsoid_views(12000, min_cos=0.2)
        names = save_views(workdir, [PointCloud(v.positions) for v in views])
        seen = []

        def spy(clouds, *args, **kwargs):
            seen.extend(clouds)
            return merge_views(clouds, *args, **kwargs)

        monkeypatch.setattr(cli, "merge_views", spy)
        assert register(workdir, names) == 0
        assert len(seen) == len(views)
        for got, want in zip(seen, views):
            keys = np.floor(got.positions / self.LEAF).astype(np.int64)
            _, first, voxel = np.unique(keys, axis=0, return_index=True,
                                        return_inverse=True)
            assert len(first) < 0.7 * len(got)        # many voxels of several points
            assert np.array_equal(got.normals, got.normals[first][voxel.reshape(-1)])
            assert np.allclose(np.linalg.norm(got.normals, axis=1), 1.0)
            assert (np.einsum("ij,ij->i", got.normals, -got.positions) > 0.0).all()
            cos = np.einsum("ij,ij->i", got.normals, want.normals)
            assert cos.min() > np.cos(np.radians(15.0))
        log = json.loads((workdir / "icp.json").read_text())
        assert len(log) == len(views) - 1
        assert all(entry["converged"] and entry["rmse"] < 0.1 * self.LEAF for entry in log)
        # The default face pose is the identity, so view 0's frame is pose 0's.
        model = poses[0].apply(load_ply(workdir / "merged.ply").positions)
        radius = np.linalg.norm(model / RADII, axis=1)
        assert np.abs(radius - 1.0).max() * min(RADII) < 0.1 * self.LEAF

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0, 0.2], [0.01, 0.0, 0.2], [0.0, 0.01, 0.2]],
        [0.0005, 0.0005, 0.2005] + 0.0004 * fibonacci_sphere(50),
    ], ids=["three-points", "one-voxel"])
    def test_too_small_for_normals_names_the_view(self, workdir, capsys, points):
        """Too few leaf-grid voxels for a k-NN normal is an input error that
        says which view it is."""
        views, _ = ellipsoid_views()
        views[1] = PointCloud(points)
        names = save_views(workdir, views[:3])
        _assert_input_error(capsys, register(workdir, names), f"{names[1]}: ")
        assert not (workdir / "merged.ply").exists()


def test_register_view_out_of_the_gate_names_it(workdir, capsys):
    """A view with no pair inside the ICP gate is named in the error."""
    views, _ = ellipsoid_views()
    views[2] = PointCloud(views[2].positions + [0.5, 0.0, 0.0], views[2].normals)
    names = save_views(workdir, views[:3])
    code = register(workdir, names)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rejected all pairs" in err
    assert f"{names[2]}: " in err and str(names[1]) not in err
    assert not (workdir / "merged.ply").exists()


@pytest.mark.parametrize("bare", [False, True], ids=["normals", "bare"])
@pytest.mark.parametrize("index", [0, 1])
def test_register_empty_view_names_it(workdir, capsys, bare, index):
    """A view PLY with no vertices, first or later, with or without nx/ny/nz
    properties, is an input error that names that view's file."""
    views, _ = ellipsoid_views()
    views = views[:2]
    views[index] = PointCloud(np.empty((0, 3)), None if bare else np.empty((0, 3)))
    names = save_views(workdir, views)
    assert (b"property float nx" in names[index].read_bytes()) != bare
    assert register(workdir, names) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{names[index]}: " in err
    assert str(names[1 - index]) not in err
    assert not (workdir / "merged.ply").exists()


@pytest.mark.parametrize("bare", [False, True], ids=["normals", "bare"])
@pytest.mark.parametrize("index", [0, 2])
def test_register_view_too_far_for_the_grid_names_it(workdir, capsys, bare, index):
    """A view with a coordinate whose voxel index does not fit in int64 is an
    input error that names the view and the leaf's config key."""
    views, _ = ellipsoid_views()
    far = views[index].positions.copy()
    far[5, 1] = 1e20
    views[index] = PointCloud(far, views[index].normals)
    if bare:
        views = [PointCloud(v.positions) for v in views]
    names = save_views(workdir, views[:3])
    code = register(workdir, names)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "voxel_leaf_m" in err
    assert f"{names[index]}: " in err
    assert all(str(n) not in err for n in names if n != names[index])
    assert not (workdir / "merged.ply").exists()


class TestSegmentCommand:
    def test_writes_region_files(self, workdir, face_scene):
        cloud, landmarks, _ = face_scene
        save_ply(cloud, workdir / "face.ply")
        landmarks.to_json(workdir / "lm.json")
        (workdir / "cam.json").write_text(json.dumps(CAMERA))
        segdir = workdir / "segs"
        assert run(workdir, "segment", "--cloud", workdir / "face.ply",
                   "--landmarks", workdir / "lm.json",
                   "--camera", workdir / "cam.json",
                   "--out-dir", segdir) == 0
        plys = sorted(p.name for p in segdir.glob("*.ply"))
        assert "forehead.ply" in plys and "residual.ply" in plys
        assert len(plys) == 8
        total = sum(len(load_ply(p)) for p in segdir.glob("*.ply"))
        assert total == len(cloud)


def plan_simulate_report(workdir, outdir, label="patch"):
    """Run the patch pipeline into `outdir` and return the produced files."""
    outdir.mkdir(exist_ok=True)
    patch = workdir / "patch.ply"
    if not patch.exists():
        save_ply(plane_grid(), patch)
    paths = outdir / "paths.json"
    shots = outdir / "shots.csv"
    traj = outdir / "traj.csv"
    report = outdir / "report.json"
    svg = outdir / "overview.svg"
    assert run(workdir, "plan", "--cloud", patch, "--label", label,
               "--out", paths) == 0
    assert run(workdir, "simulate", "--paths", paths,
               "--out-shots", shots, "--out-traj", traj) == 0
    assert run(workdir, "report", "--shots", shots, "--paths", paths,
               "--out", report, "--out-svg", svg) == 0
    return paths, shots, traj, report, svg


# sha256 of each output of plan -> simulate --motion -> report on the patch
# fixture below, recorded before paths and shot logs became columnar. The
# head turns 0.03 rad and moves 4.1 mm at 2-2.5 s, so the run re-anchors.
GOLDEN_SHA256 = {
    "paths.json": "367c66e5d3a4b7298a03c1b01cae654bfdf09db48d5db94c8a7457993552ac58",
    "shots.csv": "2ea42e0a6d27d9336a24b7f6ad562519121f9e1d83cafc4f37a803ad37d8f68c",
    "traj.csv": "ecf93cbce4f878f4448d85375aefa767a994a5d2cf61390a3be7aa991ec0b8d1",
    "report.json": "81bfd89d33a84442738a3364efd014bed7ceac1d511a2de040b24b90b27880d5",
    "overview.svg": "c02eb8a1e715a3fcdd8ae8aa89d7e41cd87c7e3201fdbfeb21d7c4d9a70e6093",
}

# The same for a guarded run over a dome, recorded while the guard still cast
# its rays into a re-anchored copy of the surface. At 2-2.05 s the head steps
# 9 mm toward the tool and turns 0.036 rad, so the run re-anchors, and the
# guard engages only after that.
GUARDED_GOLDEN_SHA256 = {
    "shots.csv": "6a6645917f5a94481bfadd1b99b5b818fb58210e06b6132d5fa10cfde23d7968",
    "traj.csv": "6197873b8ba1fd130419a731f5271a3abc19562daedb4d3dffcca518acdc58d7",
}


def test_shots_csv_rows_are_written_as_csv_writer_writes_them(tmp_path):
    """Every row in one format call, against one csv.writer row per shot,
    with labels that need quoting and values "%.9g" spells out."""
    labels = ["nose", "a,b", 'say "hi"', "", "two\nlines", "nose"]
    values = [0.0, -0.0, 1e-300, 123456789.5, math.pi, -2.5e-7, math.inf]
    log = ShotLog(values[:6], np.reshape(values * 3, (-1, 3))[:6], np.full((6, 3), -1 / 3),
                  [0, 1, 2, 3, 40, -1], labels)
    _write_shots_csv(log, tmp_path / "shots.csv")
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["index", *SHOT_VALUES, "strip", "segment"])
        table = np.column_stack([log.time, log.positions, log.axis_angle]).tolist()
        for i, (row, strip, label) in enumerate(zip(table, log.strip.tolist(), labels)):
            w.writerow([i, *(format(v, ".9g") for v in row), strip, label])
    assert (tmp_path / "shots.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _write_shots_csv(ShotLog([], [], [], [], []), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == ",".join(
        ["index", *SHOT_VALUES, "strip", "segment"]) + "\n"


def sphere_cap(min_z: float, radius: float = 0.15) -> PointCloud:
    """The samples of a sphere about the origin whose normals have z > min_z."""
    s = fibonacci_sphere(40000)
    top = s[s[:, 2] > min_z]
    return PointCloud(radius * top, top)


def test_output_files_match_golden_bytes(workdir):
    save_ply(plane_grid(), workdir / "patch.ply")
    still = {"translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]}
    moved = {"translation": [0.001, 0.004, 0.0], "axis_angle": [0.0, 0.0, 0.03]}
    _write_doc(workdir / "motion.json", [{"t_s": 0.0, **still}, {"t_s": 2.0, **still},
                                         {"t_s": 2.5, **moved}])
    paths, shots, traj = (workdir / n for n in ("paths.json", "shots.csv", "traj.csv"))
    assert run(workdir, "plan", "--cloud", workdir / "patch.ply", "--label", "patch",
               "--out", paths) == 0
    assert run(workdir, "simulate", "--paths", paths, "--motion", workdir / "motion.json",
               "--out-shots", shots, "--out-traj", traj) == 0
    assert run(workdir, "report", "--shots", shots, "--paths", paths,
               "--out", workdir / "report.json", "--out-svg", workdir / "overview.svg") == 0
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256

    guarded = workdir / "guarded"
    guarded.mkdir()
    _write_doc(guarded / "config.json", {"standoff_m": 0.045})
    save_ply(sphere_cap(0.99), guarded / "cap.ply")
    save_ply(sphere_cap(0.95), guarded / "dome.ply")
    step = {"translation": [0.001, 0.002, 0.009], "axis_angle": [0.02, 0.0, 0.03]}
    _write_doc(guarded / "motion.json", [{"t_s": 0.0, **still}, {"t_s": 2.0, **still},
                                         {"t_s": 2.05, **step}])
    assert run(guarded, "plan", "--cloud", guarded / "cap.ply", "--label", "cap",
               "--out", guarded / "paths.json") == 0
    assert run(guarded, "simulate", "--paths", guarded / "paths.json",
               "--surface", guarded / "dome.ply", "--motion", guarded / "motion.json",
               "--out-shots", guarded / "shots.csv", "--out-traj", guarded / "traj.csv") == 0
    rows = np.loadtxt(guarded / "traj.csv", delimiter=",", skiprows=1)
    engaged = rows[rows[:, 6] == 1.0, 0]
    assert len(engaged) and engaged.min() > 2.0
    digests = {name: hashlib.sha256((guarded / name).read_bytes()).hexdigest()
               for name in GUARDED_GOLDEN_SHA256}
    assert digests == GUARDED_GOLDEN_SHA256


class TestPatchPipeline:
    def test_end_to_end(self, workdir):
        paths, shots, traj, report, svg = plan_simulate_report(workdir,
                                                               workdir / "run")
        records = json.loads(paths.read_text())
        assert len(records) == 144
        assert {"x", "y", "z", "nx", "ny", "nz",
                "segment_label", "strip_index"} <= set(records[0])

        log = read_shots_csv(shots)
        assert len(log) > 100
        assert np.all(np.diff(log.time) >= 0.0)

        lines = traj.read_text().splitlines()
        assert lines[0] == "time_s,x,y,z,delta_d,dist_l,repulsing_flag"
        assert len(lines) > 1000
        # No surface was passed, so the guard never engages.
        assert all(line.endswith(",inf,0") for line in lines[1:])

        doc = json.loads(report.read_text())
        assert set(doc) == {"n_shots", "n_spacings", "mean_spacing_m",
                            "var_spacing_m2", "coverage_fraction"}
        assert doc["n_shots"] == len(log)
        assert 0.5 < doc["coverage_fraction"] <= 1.0
        assert doc["mean_spacing_m"] == pytest.approx(0.004, rel=0.05)

        head = svg.read_text()
        assert head.startswith("<svg ")
        assert "<polyline" in head and "<circle" in head

    def test_repeat_runs_byte_identical(self, workdir):
        first = plan_simulate_report(workdir, workdir / "a")
        second = plan_simulate_report(workdir, workdir / "b")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_svg_is_xml_whatever_the_label(self, workdir):
        *_, svg = plan_simulate_report(workdir, workdir / "run", label="a&b<c>")
        titles = minidom.parse(str(svg)).getElementsByTagName("title")
        assert [t.firstChild.data for t in titles] == ["a&b<c>"]

    def test_report_against_cloud(self, workdir):
        _, shots, _, _, _ = plan_simulate_report(workdir, workdir / "run")
        report = workdir / "cloud_report.json"
        assert run(workdir, "report", "--shots", shots,
                   "--cloud", workdir / "patch.ply", "--out", report) == 0
        doc = json.loads(report.read_text())
        assert 0.5 < doc["coverage_fraction"] <= 1.0

    def test_seed_override_is_deterministic(self, workdir):
        _, shots, _, _, _ = plan_simulate_report(workdir, workdir / "run")
        outs = []
        for name in ("r1.json", "r2.json"):
            out = workdir / name
            assert main(["--config", str(workdir / "config.json"),
                         "--seed", "123", "report", "--shots", str(shots),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
