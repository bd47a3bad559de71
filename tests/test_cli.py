import csv
import hashlib
import inspect
import json
import math
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from facelaser.cli import SHOT_VALUES, RunConfig, _write_shots_csv, main, read_shots_csv
from facelaser.cloud import PointCloud, load_ply, save_ply
from facelaser.geometry import RigidTransform
from facelaser.registration import estimate_viewpoints, merge_views
from facelaser.simulator import ShotLog, coverage_metrics, run_path

from support import ellipsoid_cloud, face_cloud, fibonacci_sphere, plane_grid

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
    ], ids=["nan-diameter", "nan-standoff", "inf-control-rate", "nan-timeout",
            "zero-samples", "negative-samples", "negative-seed",
            "control-rate-below-pulse-rate"])
    def test_bad_value_exits_1(self, tmp_path, capsys, key, text, command):
        (tmp_path / "config.json").write_text(f'{{"{key}": {text}}}')
        (tmp_path / "paths.json").write_text(json.dumps([
            GOOD_RECORD, {**GOOD_RECORD, "x": 0.01}]))
        (tmp_path / "shots.csv").write_text(SHOTS_HEADER + SHOT_ROW)
        argv = {"simulate": ["--paths", tmp_path / "paths.json",
                             "--out-shots", tmp_path / "out.csv"],
                "report": ["--shots", tmp_path / "shots.csv",
                           "--out", tmp_path / "out.json"]}[command]
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


def plan_simulate_report(workdir, outdir):
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
    assert run(workdir, "plan", "--cloud", patch, "--label", "patch",
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
