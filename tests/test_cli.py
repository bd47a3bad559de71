import json

import numpy as np
import pytest

from facelaser.cli import main, read_shots_csv
from facelaser.cloud import load_ply, save_ply
from facelaser.geometry import RigidTransform
from facelaser.registration import estimate_viewpoints

from support import ellipsoid_cloud, plane_grid

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
    ], ids=["paths-missing-key", "motion-missing-key", "paths-not-json",
            "motion-not-json", "paths-nan", "motion-inf"])
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
        vs = estimate_viewpoints(RigidTransform.identity(), 0.25,
                                 np.radians(10.0), 1)
        names = []
        for i, pose in enumerate(vs.poses):
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
        times = [e.time for e in log.events]
        assert times == sorted(times)

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
