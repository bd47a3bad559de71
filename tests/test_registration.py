import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    _Nearest,
    _plane_rmse,
    estimate_viewpoints,
    icp_point_to_plane,
    merge_views,
)

from support import ellipsoid_cloud, full_query_icp, plane_grid

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
        rmse, p, q, _, _ = _plane_rmse(src, _Nearest(cKDTree(tgt), 0.5, len(src)), tgt,
                                       np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(p, src[:1]) and np.array_equal(q, tgt)
        assert rmse == 0.5

    def test_converging_pair_requeries_few_rows(self, monkeypatch):
        """Near convergence a step moves the points far less than their
        margins, so most rows keep last evaluation's match and only the rest
        are queried again."""
        target = self.make_target(8000)
        source = self.make_target().transformed(
            perturbation([0.03, -0.02, 0.02], [0.003, 0.0, -0.002]))
        noise = np.random.default_rng(3).normal(0.0, 1e-4, (len(source), 3))
        source = PointCloud(source.positions + noise)
        tree = CountingTree(target.kdtree())
        monkeypatch.setattr(target, "kdtree", lambda: tree)
        evaluations = []
        plane_rmse = registration._plane_rmse

        def counted_rmse(*args, **kwargs):
            evaluations.append(1)
            return plane_rmse(*args, **kwargs)

        monkeypatch.setattr(registration, "_plane_rmse", counted_rmse)
        res = icp_point_to_plane(source, target, gate=0.02)
        assert res.converged and res.rmse < 2e-4
        assert len(evaluations) > 5
        assert tree.rows < 0.5 * len(evaluations) * len(source)

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


# A power-of-two lattice pitch: lattice points, their midpoints and offsets of
# whole quarter pitches are exact, so distances tie exactly.
PITCH = 2.0**-8


def lattice(shape) -> np.ndarray:
    axes = [np.arange(k, dtype=float) for k in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * PITCH


@st.composite
def icp_cases(draw):
    """Source, target, start pose and gate for ICP, of five kinds:
    - "tie": lattice targets and sources on their midpoints, where the two
      nearest targets are at exactly the same distance;
    - "edge": sources straight above the lattice's top layer at exactly the
      gate, or one ulp beyond it;
    - "drift": a moved copy of part of an ellipsoid, which starts partly
      beyond the gate and drifts into it;
    - "plane": a flat target, whose normal equations take the pinv branch;
    - "free": an ellipsoid, a noisy moved copy and any gate, None included.
    """
    kind = draw(st.sampled_from(["tie", "edge", "drift", "plane", "free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = RigidTransform.identity()
    if kind in ("tie", "edge"):
        pos = lattice((6, 6, 3))
        normals = rng.normal(size=pos.shape)
        target = PointCloud(pos, normals / np.linalg.norm(normals, axis=1, keepdims=True))
        rows = rng.choice(len(pos), size=draw(st.integers(1, 60)))
        if kind == "tie":
            src = pos[rows] + 0.5 * PITCH * rng.integers(0, 2, size=(len(rows), 3))
            gate = draw(st.sampled_from([None, 0.5 * PITCH, PITCH, 3.0 * PITCH]))
        else:
            gate = draw(st.sampled_from([0.25, 0.5, 0.75])) * PITCH
            src = pos[rows] * [1.0, 1.0, 0.0] + [0.0, 0.0, 2.0 * PITCH + gate]
            beyond = rng.random(len(src)) < 0.3
            src[beyond, 2] = np.nextafter(src[beyond, 2], np.inf)
        source = PointCloud(src)
        if draw(st.booleans()):
            start = perturbation(rng.normal(0.0, 1e-3, 3), rng.normal(0.0, 1e-4, 3))
    elif kind == "plane":
        target = plane_grid(0.02, 0.02, 0.001, 0.001, tilt=draw(st.floats(-0.5, 0.5)))
        pert = perturbation(rng.normal(0.0, 0.02, 3), rng.normal(0.0, 0.002, 3))
        source = target.select(rng.random(len(target)) < 0.5).transformed(pert)
        gate = draw(st.sampled_from([None, 0.005, 0.02]))
    else:
        target = ellipsoid_cloud(draw(st.integers(50, 800)), radii=(0.09, 0.12, 0.07),
                                 front_only=True)
        offset = rng.normal(0.0, 0.01, 3)
        pert = perturbation(rng.normal(0.0, 0.03, 3), offset)
        source = target.select(rng.random(len(target)) < 0.6).transformed(pert)
        source = PointCloud(source.positions + rng.normal(0.0, 1e-4, (len(source), 3)))
        if kind == "drift":
            gate = draw(st.floats(0.3, 1.5)) * float(np.linalg.norm(offset))
        else:
            gate = draw(st.one_of(st.none(), st.floats(0.002, 0.05)))
    return source, target, start, gate, draw(st.integers(1, 25))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(icp_cases())
def test_cached_matches_give_the_full_query_result(case):
    """ICP with cached nearest targets returns, bit for bit, what querying
    every source point at every evaluation returns: the same transform, rmse
    history, iteration count and convergence, or the same error."""
    source, target, start, gate, max_iter = case
    try:
        want = full_query_icp(source, target, init=start, max_iter=max_iter, gate=gate)
    except NoCorrespondences as exc:
        with pytest.raises(NoCorrespondences, match=re.escape(str(exc))):
            icp_point_to_plane(source, target, init=start, max_iter=max_iter, gate=gate)
        return
    got = icp_point_to_plane(source, target, init=start, max_iter=max_iter, gate=gate)
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation, want.transform.translation)
    assert got.rmse_history == want.rmse_history
    assert (got.rmse, got.iterations, got.converged) == (want.rmse, want.iterations,
                                                         want.converged)


@st.composite
def margin_walks(draw):
    """Sources just off the midpoint between two lattice targets, walked
    along that axis in steps of about their margin: the nearest target
    changes exactly where the cache's proof runs out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = lattice((4, 4, 2))
    rows = rng.choice(len(pos), size=20)
    axis = rng.integers(0, 3, size=20)
    along = np.eye(3)[axis]
    offset = draw(st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6])) * PITCH
    start = pos[rows] + (0.5 * PITCH - offset) * along
    steps = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
    walk = [start + step * offset * along for step in steps]
    gate = draw(st.sampled_from([None, 0.5 * PITCH, PITCH]))
    return PointCloud(pos), walk, gate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(margin_walks())
def test_nearest_agrees_with_a_full_query_at_every_call(case):
    """Each call's matches are the bounded k=1 query's: the kept rows and
    their targets."""
    target, walk, gate = case
    tree = target.kdtree()
    nearest = _Nearest(tree, gate, len(walk[0]))
    bound = np.inf if gate is None else np.nextafter(gate, np.inf)
    for src in walk:
        j, keep = nearest.match(src)
        dist, want = tree.query(src, distance_upper_bound=bound)
        want_keep = dist <= (np.inf if gate is None else gate)
        assert np.array_equal(keep, want_keep)
        assert np.array_equal(j[keep], want[keep])


class CountingTree:
    """A kd-tree that counts the source rows it is asked to match."""

    def __init__(self, tree):
        self.tree = tree
        self.rows = 0

    def query(self, x, *args, **kwargs):
        self.rows += len(x)
        return self.tree.query(x, *args, **kwargs)


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

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, np.nan])
    def test_gate_multiplier_must_be_positive(self, multiplier):
        _, poses, views = self.make_scene()
        with pytest.raises(InvalidParam, match="gate multiplier"):
            merge_views(views[:1], poses[:1], leaf=self.LEAF, gate_multiplier=multiplier)

    @pytest.mark.parametrize("leaf, multiplier, match", [
        (1e308, 10.0, "leaf must be"), (1e300, 1e10, "gate multiplier")],
        ids=["icp-leaf", "gate"])
    def test_overflowing_scale_rejected_before_any_view(self, leaf, multiplier, match):
        _, poses, views = self.make_scene()
        with pytest.raises(InvalidParam, match=match) as exc:
            merge_views(views, poses, leaf=leaf, gate_multiplier=multiplier)
        assert not hasattr(exc.value, "view")

    def test_no_views(self):
        with pytest.raises(EmptyCloud):
            merge_views([], [], leaf=self.LEAF)
