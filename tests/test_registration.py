import numpy as np
import pytest
from scipy.spatial import cKDTree

from facelaser.cloud import PointCloud, concatenate, voxel_downsample
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
    _plane_rmse,
    estimate_viewpoints,
    icp_point_to_plane,
    merge_views,
)

from support import ellipsoid_cloud

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
        assert np.allclose(frontal.as_matrix(), expect.as_matrix(), atol=1e-12)

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
    def make_target(self, n=1500):
        return ellipsoid_cloud(n, radii=(0.09, 0.12, 0.07))

    def test_identity_on_aligned_clouds(self):
        target = self.make_target()
        res = icp_point_to_plane(target, target)
        assert isinstance(res, IcpResult)
        assert res.converged
        assert res.rmse < 1e-9
        assert np.allclose(res.transform.as_matrix(), np.eye(4), atol=1e-9)

    def test_recovers_known_perturbation(self):
        target = self.make_target()
        pert = perturbation([0.05, -0.03, 0.04], [0.004, -0.003, 0.006])
        source = target.transformed(pert)
        res = icp_point_to_plane(source, target)
        recovered = res.transform
        expect = pert.invert()
        assert res.converged
        assert np.allclose(recovered.rotation, expect.rotation, atol=1e-6)
        assert np.allclose(recovered.translation, expect.translation, atol=1e-6)

    def test_history_never_increases(self):
        target = self.make_target()
        pert = perturbation([0.0, 0.08, 0.0], [0.0, 0.0, 0.008])
        res = icp_point_to_plane(target.transformed(pert), target)
        hist = np.asarray(res.rmse_history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-15)
        assert res.iterations <= 50

    def test_warm_start(self):
        target = self.make_target()
        pert = perturbation([0.02, 0.0, 0.0], [0.002, 0.0, 0.0])
        res = icp_point_to_plane(target.transformed(pert), target,
                                 init=pert.invert())
        assert res.rmse < 1e-9

    def test_gate_can_reject_everything(self):
        target = self.make_target(400)
        far = target.transformed(RigidTransform(np.eye(3), np.array([1.0, 0, 0])))
        with pytest.raises(NoCorrespondences):
            icp_point_to_plane(far, target, gate=0.01)

    def test_gate_keeps_a_pair_at_exactly_the_gate(self):
        tgt = np.zeros((1, 3))
        src = np.array([[0.5, 0.0, 0.0], [0.0, np.nextafter(0.5, 1.0), 0.0]])
        rmse, p, q, _, _ = _plane_rmse(src, cKDTree(tgt), tgt, np.array([[1.0, 0.0, 0.0]]),
                                       gate=0.5)
        assert np.array_equal(p, src[:1]) and np.array_equal(q, tgt)
        assert rmse == 0.5

    def test_empty_cloud_rejected(self):
        target = self.make_target(400)
        empty = PointCloud(np.zeros((0, 3)))
        with pytest.raises(EmptyCloud):
            icp_point_to_plane(empty, target)
        with pytest.raises(EmptyCloud):
            icp_point_to_plane(target, empty)

    def test_target_without_normals_rejected(self):
        target = self.make_target(400)
        bare = PointCloud(target.positions.copy())
        with pytest.raises(ValueError):
            icp_point_to_plane(target, bare)


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
        (1 to 1/8) per iteration."""
        evaluations, pairs = [], []
        plane_rmse, icp = registration._plane_rmse, registration.icp_point_to_plane

        def counted_rmse(*args, **kwargs):
            evaluations[-1] += 1
            return plane_rmse(*args, **kwargs)

        def counted_icp(*args, **kwargs):
            evaluations.append(0)
            res = icp(*args, **kwargs)
            pairs.append((evaluations[-1], res))
            return res

        monkeypatch.setattr(registration, "_plane_rmse", counted_rmse)
        monkeypatch.setattr(registration, "icp_point_to_plane", counted_icp)
        _, poses, views = self.make_scene(n=8000, noise=2e-4)
        merge_views(views, poses, leaf=self.LEAF)
        assert len(pairs) == len(views) - 1
        for count, res in pairs:
            assert res.converged
            assert count <= 1 + 4 * res.iterations

    def test_pose_count_mismatch(self):
        _, poses, views = self.make_scene()
        with pytest.raises(ValueError):
            merge_views(views[:2], poses, leaf=self.LEAF)

    def test_views_need_normals(self):
        _, poses, views = self.make_scene()
        bare = PointCloud(views[1].positions.copy())
        with pytest.raises(ValueError):
            merge_views([views[0], bare, views[2]], poses, leaf=self.LEAF)

    def test_no_views(self):
        with pytest.raises(EmptyCloud):
            merge_views([], [], leaf=self.LEAF)
