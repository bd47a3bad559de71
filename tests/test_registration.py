import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelaser.cloud import (
    PointCloud,
    VoxelGrid,
    concatenate,
    estimate_normals,
    load_ply,
    voxel_downsample,
)
from facelaser.errors import EmptyCloud, InvalidParam, NoCorrespondences
from facelaser import registration
from facelaser.geometry import (
    RigidTransform,
    axis_angle_to_rotation,
    rotation_about_x,
    rotation_about_y,
)
from facelaser.registration import (
    IcpResult,
    estimate_viewpoints,
    icp_point_to_plane,
    merge_views,
)

from support import as_matrix, ellipsoid_cloud, fresh_lookup_icp, model_grid, plane_grid

D = 0.25
STEP = np.radians(10.0)


def face_pose():
    rot = rotation_about_y(0.3) @ rotation_about_x(-0.2)
    return RigidTransform(rot, np.array([0.05, -0.02, 0.6]))


def local_viewpoints(n_per_side, **kwargs):
    """The viewpoint poses expressed in the face frame."""
    face_inv = face_pose().invert()
    return [face_inv.compose(p) for p in
            estimate_viewpoints(face_pose(), D, STEP, n_per_side, **kwargs)]


class TestViewpoints:
    def test_count_and_frontal_pose(self):
        local = local_viewpoints(2)
        assert len(local) == 9
        assert np.allclose(local[0].rotation, np.eye(3))
        assert np.allclose(local[0].translation, [0, 0, -D])

    def test_single_pose_when_n_is_zero(self):
        assert len(estimate_viewpoints(face_pose(), D, STEP, n_per_side=0)) == 1

    def test_circular_arcs_stay_on_sphere_and_aim_at_origin(self):
        for t in local_viewpoints(3):
            assert np.linalg.norm(t.translation) == pytest.approx(D, abs=1e-12)
            # A point d ahead along the optical axis lands on the face origin.
            ahead = t.translation + t.rotation @ np.array([0.0, 0.0, D])
            assert np.allclose(ahead, 0.0, atol=1e-12)

    def test_as_printed_longitudinal_keeps_depth(self):
        local = local_viewpoints(2, arc_model="as_printed")
        # Poses 1..4 are the longitudinal arc, 5..8 the latitudinal one.
        for t in local[1:5]:
            assert t.translation[2] == pytest.approx(-D, abs=1e-12)
        for t in local[5:9]:
            assert np.linalg.norm(t.translation) == pytest.approx(D, abs=1e-12)

    def test_base_poses_compose_face_pose(self):
        # The frontal pose sits d_min behind the face origin, looking along +z.
        fp = face_pose()
        frontal = estimate_viewpoints(fp, D, STEP, n_per_side=1)[0]
        expect = fp.compose(RigidTransform(np.eye(3), np.array([0.0, 0.0, -D])))
        assert np.allclose(as_matrix(frontal), as_matrix(expect), atol=1e-12)

    def test_arc_ordering(self):
        t = [p.translation for p in local_viewpoints(2)]
        # Longitudinal pairs come first (+phi then -phi), offset along -x/+x.
        assert t[1][0] < 0 < t[2][0]
        assert abs(t[3][0]) > abs(t[1][0])
        # Latitudinal pairs follow, offset along +y/-y.
        assert t[5][1] > 0 > t[6][1]

    @pytest.mark.parametrize("kwargs", [
        dict(d_min=0.0),
        dict(d_min=-0.1),
        dict(phi_step=0.0),
        dict(phi_step=np.pi / 2),
        dict(n_per_side=-1),
        dict(arc_model="spline"),
    ])
    def test_invalid_parameters(self, kwargs):
        args = dict(d_min=D, phi_step=STEP, n_per_side=2, arc_model="circular")
        args.update(kwargs)
        with pytest.raises(InvalidParam):
            estimate_viewpoints(face_pose(), **args)


def perturbation(angles, offset):
    return RigidTransform(axis_angle_to_rotation(np.asarray(angles, dtype=float)),
                          np.asarray(offset, dtype=float))


class TestIcp:
    # At the default 2 mm leaf, 5000 points (~4 mm apart) keep one target
    # point per voxel, so each voxel mean is its point and an exact copy of
    # the target aligns with zero residual.
    LEAF = 0.002

    def make_target(self, n=5000):
        return ellipsoid_cloud(n, radii=(0.09, 0.12, 0.07))

    def test_identity_on_aligned_clouds(self):
        target = self.make_target()
        res = icp_point_to_plane(target, model_grid(target, self.LEAF))
        assert isinstance(res, IcpResult)
        assert res.converged
        assert res.rmse < 1e-9
        assert np.allclose(as_matrix(res.transform), np.eye(4), atol=1e-9)

    def test_recovers_known_perturbation(self):
        target = self.make_target()
        pert = perturbation([0.05, -0.03, 0.04], [0.004, -0.003, 0.006])
        source = target.transformed(pert)
        res = icp_point_to_plane(source, model_grid(target, self.LEAF))
        recovered = res.transform
        expect = pert.invert()
        assert res.converged
        assert np.allclose(recovered.rotation, expect.rotation, atol=1e-6)
        assert np.allclose(recovered.translation, expect.translation, atol=1e-6)

    def test_history_never_increases(self):
        target = self.make_target()
        pert = perturbation([0.0, 0.08, 0.0], [0.0, 0.0, 0.008])
        res = icp_point_to_plane(target.transformed(pert), model_grid(target, self.LEAF))
        hist = np.asarray(res.rmse_history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-15)
        assert res.iterations <= 50

    def test_warm_start(self):
        target = self.make_target()
        pert = perturbation([0.02, 0.0, 0.0], [0.002, 0.0, 0.0])
        res = icp_point_to_plane(target.transformed(pert), model_grid(target, self.LEAF),
                                 init=pert.invert())
        assert res.rmse < 1e-9

    def test_a_trial_step_that_pairs_nothing_is_halved(self, monkeypatch):
        """A trial step that leaves every source point outside the target's
        voxels does not lower the objective: the line search halves it, as
        it would a step that raised the rmse, instead of ending the pair."""
        target = self.make_target()
        source = target.transformed(perturbation([0.05, -0.03, 0.04], [0.004, -0.003, 0.006]))
        tried = []
        plane_rmse = registration._plane_rmse

        def first_trial_pairs_nothing(src, *args):
            tried.append(src)
            if len(tried) == 2:
                raise NoCorrespondences("no source point fell in a model voxel")
            return plane_rmse(src, *args)

        monkeypatch.setattr(registration, "_plane_rmse", first_trial_pairs_nothing)
        res = icp_point_to_plane(source, model_grid(target, self.LEAF))
        assert res.converged and res.rmse < 1e-9
        full, half = tried[1] - tried[0], tried[2] - tried[0]
        assert np.abs(half - 0.5 * full).max() < 1e-2 * np.abs(full).max()

    def test_a_source_in_no_voxel_pairs_nothing(self):
        target = self.make_target(400)
        far = target.transformed(RigidTransform(np.eye(3), np.array([1.0, 0, 0])))
        with pytest.raises(NoCorrespondences, match="no source point fell in a model voxel"):
            icp_point_to_plane(far, model_grid(target, self.LEAF))

    def test_converging_pair_requeries_few_rows(self, monkeypatch):
        """Near convergence a step moves few points into another voxel, so
        most rows keep the last evaluation's voxel and only the rest are
        searched again."""
        target = model_grid(self.make_target(8000), self.LEAF)
        source = self.make_target().transformed(
            perturbation([0.03, -0.02, 0.02], [0.003, 0.0, -0.002]))
        noise = np.random.default_rng(3).normal(0.0, 1e-4, (len(source), 3))
        source = PointCloud(source.positions + noise)
        searched = []
        lookup = VoxelGrid.lookup

        def counted_lookup(grid, points, last=None):
            found = lookup(grid, points, last)
            searched.append(len(points) if last is None else
                            int(np.count_nonzero(found[0] != last[0])))
            return found

        monkeypatch.setattr(VoxelGrid, "lookup", counted_lookup)
        res = icp_point_to_plane(source, target)
        assert res.converged and res.rmse < 2e-4
        assert len(searched) > 5
        assert sum(searched) < 0.5 * len(searched) * len(source)

    def test_empty_cloud_rejected(self):
        target = self.make_target(400)
        empty = PointCloud(np.zeros((0, 3)))
        with pytest.raises(EmptyCloud):
            icp_point_to_plane(empty, model_grid(target, self.LEAF))
        with pytest.raises(EmptyCloud):
            icp_point_to_plane(target, VoxelGrid(self.LEAF))

    def test_target_without_normals_rejected(self):
        target = self.make_target(400)
        bare = PointCloud(target.positions.copy())
        with pytest.raises(ValueError):
            icp_point_to_plane(target, model_grid(bare, self.LEAF))


# A power-of-two lattice pitch, also the leaf: lattice points sit on voxel
# corners, and their midpoints and offsets of whole quarter pitches are exact.
PITCH = 2.0**-8


def lattice(shape) -> np.ndarray:
    axes = [np.arange(k, dtype=float) for k in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * PITCH


@st.composite
def icp_cases(draw):
    """Source, target grid, start pose and iteration cap for ICP, of four
    kinds:
    - "face": lattice targets, one per voxel at its low corner, and sources
      on lattice points (voxel corners) and midpoints;
    - "drift": a moved copy of part of an ellipsoid that starts more than a
      leaf off, so that some evaluations pair no point;
    - "plane": a flat target, whose normal equations take the pinv branch;
    - "free": an ellipsoid and a noisy moved copy.
    """
    kind = draw(st.sampled_from(["face", "drift", "plane", "free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = RigidTransform.identity()
    leaf = PITCH
    if kind == "face":
        pos = lattice((6, 6, 3))
        normals = rng.normal(size=pos.shape)
        target = PointCloud(pos, normals / np.linalg.norm(normals, axis=1, keepdims=True))
        rows = rng.choice(len(pos), size=draw(st.integers(1, 60)))
        source = PointCloud(pos[rows] + 0.5 * PITCH * rng.integers(0, 3, size=(len(rows), 3)))
        if draw(st.booleans()):
            start = perturbation(rng.normal(0.0, 1e-3, 3), rng.normal(0.0, 1e-4, 3))
    elif kind == "plane":
        target = plane_grid(0.02, 0.02, 0.001, 0.001, tilt=draw(st.floats(-0.5, 0.5)))
        pert = perturbation(rng.normal(0.0, 0.02, 3), rng.normal(0.0, 0.002, 3))
        source = target.select(rng.random(len(target)) < 0.5).transformed(pert)
        leaf = draw(st.sampled_from([0.002, 0.004]))
    else:
        target = ellipsoid_cloud(draw(st.integers(50, 800)), radii=(0.09, 0.12, 0.07),
                                 front_only=True)
        leaf = draw(st.sampled_from([0.01, 0.02, 0.04]))
        offset = rng.normal(0.0, 0.01, 3)
        if kind == "drift":
            offset *= draw(st.floats(1.0, 3.0)) * leaf / float(np.linalg.norm(offset))
        pert = perturbation(rng.normal(0.0, 0.03, 3), offset)
        source = target.select(rng.random(len(target)) < 0.6).transformed(pert)
        source = PointCloud(source.positions + rng.normal(0.0, 1e-4, (len(source), 3)))
    return source, model_grid(target, leaf), start, draw(st.integers(1, 25))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(icp_cases())
def test_cached_rows_give_the_fresh_lookup_result(case):
    """ICP that searches again only the rows whose voxel code changed
    returns, bit for bit, what looking up every source point at every
    evaluation returns: the same transform, rmse history, iteration count
    and convergence, or the same error."""
    source, target, start, max_iter = case
    try:
        want = fresh_lookup_icp(source, target, init=start, max_iter=max_iter)
    except NoCorrespondences as exc:
        with pytest.raises(NoCorrespondences, match=re.escape(str(exc))):
            icp_point_to_plane(source, target, init=start, max_iter=max_iter)
        return
    got = icp_point_to_plane(source, target, init=start, max_iter=max_iter)
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation, want.transform.translation)
    assert got.rmse_history == want.rmse_history
    assert (got.rmse, got.iterations, got.converged) == (want.rmse, want.iterations,
                                                         want.converged)


def ellipsoid_distance(points, radii, center):
    """First-order distance of points to the ellipsoid surface."""
    r = np.asarray(radii)
    q = (points - np.asarray(center)) / r
    f = np.einsum("ij,ij->i", q, q) - 1.0
    return np.abs(f / np.linalg.norm(2.0 * q / r, axis=1))


class TestMergeViews:
    LEAF = 0.004
    RADII = (0.09, 0.12, 0.07)
    CENTER = (0.0, 0.03, 0.6)

    def make_scene(self, n=2500, noise=0.0):
        world = ellipsoid_cloud(n, radii=self.RADII, center=self.CENTER, front_only=True)
        poses = estimate_viewpoints(face_pose(), D, STEP, n_per_side=1)[:3]
        rng = np.random.default_rng(8)
        views = []
        for i, pose in enumerate(poses):
            # Small unreported pose error that the refinement must absorb.
            err = perturbation([0.0, 0.002 * i, -0.001 * i],
                               [0.001 * i, 0.0, -0.0005 * i])
            view = world.transformed(pose.compose(err).invert())
            # Depth noise along the surface normal, drawn anew for each view.
            depth = rng.normal(0.0, noise, size=(len(view), 1))
            views.append(PointCloud(view.positions + depth * view.normals, view.normals))
        return world, poses, views

    def test_merge_counts_and_frame(self):
        world, poses, views = self.make_scene()
        log = []
        merged = merge_views(views, poses, leaf=self.LEAF, icp_log=log)
        assert 0 < len(merged) <= sum(len(v) for v in views)
        # The model is in view 0's frame: that view's points lie on it.
        dist, _ = merged.kdtree().query(views[0].positions)
        assert dist.max() < self.LEAF
        assert len(log) == len(views) - 1
        assert all(r.rmse < 1e-4 for r in log)

    def test_merged_model_matches_reference(self):
        world, poses, views = self.make_scene()
        merged = merge_views(views, poses, leaf=self.LEAF)
        reference = world.transformed(poses[0].invert())
        dist, _ = reference.kdtree().query(merged.positions)
        # Every fused point sits on the reference surface, well under a leaf.
        assert dist.max() < self.LEAF

    def test_noisy_merge_fuses_the_full_resolution_views(self):
        """ICP matches downsampled clouds, but the model is the full-resolution
        views, moved by the ICP transforms: the voxel means one downsampling
        of them all gives, bit for bit."""
        noise = 2e-4
        _, poses, views = self.make_scene(n=8000, noise=noise)
        log = []
        merged = merge_views(views, poses, leaf=self.LEAF, icp_log=log)
        assert all(r.converged for r in log)
        base_inv = poses[0].invert()
        moved = [v.transformed(base_inv.compose(p)).transformed(r.transform)
                 for v, p, r in zip(views[1:], poses[1:], log)]
        expect = voxel_downsample(concatenate([views[0]] + moved), self.LEAF)
        assert np.array_equal(merged.positions, expect.positions)
        assert np.array_equal(merged.normals, expect.normals)
        # View 0 has no pose error, so poses[0] maps the model into the world.
        dist = ellipsoid_distance(poses[0].apply(merged.positions), self.RADII, self.CENTER)
        # The benchmark's registration bound: 0.1 mm plus three noise sigmas.
        assert np.percentile(dist, 95) <= 1e-4 + 3.0 * noise

    def test_line_search_tries_at_most_four_steps(self, monkeypatch):
        """One objective evaluation to start, then at most four trial steps
        (1 to 1/8) per iteration, at every level of every pair."""
        evaluations, calls = [], []
        plane_rmse, icp = registration._plane_rmse, registration.icp_point_to_plane

        def counted_rmse(*args, **kwargs):
            evaluations[-1] += 1
            return plane_rmse(*args, **kwargs)

        def counted_icp(*args, **kwargs):
            evaluations.append(0)
            res = icp(*args, **kwargs)
            calls.append((evaluations[-1], res))
            return res

        monkeypatch.setattr(registration, "_plane_rmse", counted_rmse)
        monkeypatch.setattr(registration, "icp_point_to_plane", counted_icp)
        _, poses, views = self.make_scene(n=8000, noise=2e-4)
        log = []
        merge_views(views, poses, leaf=self.LEAF, icp_log=log)
        # Three coarser levels (32, 16 and 8 mm), then the leaf.
        levels = registration.ICP_COARSE_LEVELS + 1
        assert len(calls) == levels * (len(views) - 1)
        assert all(got is res for (_, got), res in zip(calls[levels - 1::levels], log))
        for count, res in calls:
            assert count <= 1 + 4 * res.iterations
        assert all(res.converged for res in log)

    def test_pose_count_mismatch(self):
        _, poses, views = self.make_scene()
        with pytest.raises(ValueError):
            merge_views(views[:2], poses, leaf=self.LEAF)

    def test_views_from_an_iterator(self):
        """Any iterable of views merges as the list does, read once, and a
        view beyond the poses is rejected when it is reached."""
        _, poses, views = self.make_scene()
        want = merge_views(views, poses, leaf=self.LEAF)
        got = merge_views(iter(views), poses, leaf=self.LEAF)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.normals.tobytes() == want.normals.tobytes()
        with pytest.raises(ValueError, match="more than 2 clouds"):
            merge_views(iter(views), poses[:2], leaf=self.LEAF)

    def test_views_need_normals(self):
        _, poses, views = self.make_scene()
        bare = PointCloud(views[1].positions.copy())
        with pytest.raises(ValueError):
            merge_views([views[0], bare, views[2]], poses, leaf=self.LEAF)

    @pytest.mark.parametrize("leaf", [1e308, 5e307], ids=["icp-leaf", "coarse-grid-leaf"])
    def test_overflowing_scale_rejected_before_any_view(self, leaf):
        """A leaf whose coarsest ICP grid, at 8 leaves, overflows is rejected,
        even when the source's 2-leaf grid does not (5e307)."""
        _, poses, views = self.make_scene()
        with pytest.raises(InvalidParam, match="leaf must be") as exc:
            merge_views(views, poses, leaf=leaf)
        assert not hasattr(exc.value, "view")

    def test_no_views(self):
        with pytest.raises(EmptyCloud):
            merge_views([], [], leaf=self.LEAF)


GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

# Per-view bound on ICP's pose error on the benchmark's scan_60k inputs: the
# largest displacement of a view's points under inv(true pose) o estimate.
# Over seeds 1-10 the largest per-view error is 0.064-0.105 mm; nearest-point
# pairing left 0.134-0.178 mm.
SCAN_POSE_BOUND_M = 1.3e-4

# The bound with the injected pose error scaled up to the 10 mm edge of
# criterion 5's envelope. Over seeds 1-10 at 2x, 3x and 3.33x the largest
# per-view error is 0.062-0.118 mm, and 0.126-0.177 mm with nearest-point
# pairing; the leaf grid alone, without coarser grids, left the worst view
# 30-65 mm off, or paired no point at all, at every seed.
SCAN_CAPTURE_BOUND_M = 2.0e-4


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def scan_pose_errors(gen, seed: int, out: Path) -> list[float]:
    """merge_views on gen's scan_60k views at `seed`, written to `out`, from
    the nominal poses as `register` runs them (leaf-grid normals, 2 mm
    leaf). Asserts that every pair converged, and returns each later view's
    pose error, with view 0 at its true pose."""
    truth = gen.generate("scan_60k", seed, str(out))
    leaf = 0.002
    views = [estimate_normals(load_ply(out / f"view{i}.ply"), leaf, np.zeros(3))
             for i in range(truth["views"])]

    def pose(m):
        m = np.asarray(m)
        return RigidTransform(m[:3, :3], m[:3, 3])

    nominal = [pose(m) for m in truth["nominal_poses"]]
    true = [pose(m) for m in truth["true_poses"]]
    log = []
    merge_views(views, nominal, leaf, icp_log=log)
    assert len(log) == len(views) - 1 and all(r.converged for r in log)
    base_inv = nominal[0].invert()
    errors = []
    for view, nominal_i, true_i, res in zip(views[1:], nominal[1:], true[1:], log):
        estimate = true[0].compose(res.transform).compose(base_inv.compose(nominal_i))
        error = true_i.invert().compose(estimate)
        moved = error.apply(view.positions) - view.positions
        errors.append(float(np.linalg.norm(moved, axis=1).max()))
    return errors


@pytest.mark.parametrize("seed", [1, 7])
def test_scan_views_land_on_their_true_poses(tmp_path, seed):
    """Every scan_60k view lands within SCAN_POSE_BOUND_M of its true pose."""
    assert max(scan_pose_errors(load_gen(), seed, tmp_path)) <= SCAN_POSE_BOUND_M


@pytest.mark.parametrize("scale", [2.0, 3.0, 10.0 / 3.0], ids=["2x", "3x", "10mm"])
@pytest.mark.parametrize("seed", [1, 7])
def test_scan_views_are_captured_from_larger_pose_errors(tmp_path, seed, scale):
    """With the injected pose error scaled up (3 mm and 1 deg at 1x, so
    10 mm and 3.3 deg at 3.33x), every scan_60k view still lands within
    SCAN_CAPTURE_BOUND_M of its true pose: the coarser grids bring it
    within reach of the leaf grid."""
    gen = load_gen()
    gen.SCAN_POSE_ERR_M *= scale
    gen.SCAN_POSE_ERR_RAD *= scale
    assert max(scan_pose_errors(gen, seed, tmp_path)) <= SCAN_CAPTURE_BOUND_M
