import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from facelaser.errors import DegenerateNormal
from facelaser.geometry import (
    CameraIntrinsics,
    RigidTransform,
    Y_AXIS,
    Z_AXIS,
    axis_angle_to_rotation,
    dump_pose,
    hat,
    interpolate_rotation,
    interpolate_rotations,
    norms_by_column,
    parse_pose,
    project_points,
    rotation_about_x,
    rotation_about_y,
    rotation_to_axis_angle,
    rotations_to_axis_angle,
)

from support import (
    BehindCamera,
    DegenerateInput,
    as_matrix,
    face_pose_from_eyes,
    project_point,
    rotation_from_normal,
    unit,
)


def random_rotation(rng):
    return Rotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()


class TestBasics:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_norms_by_column_match_linalg_norm(self):
        """Byte for byte np.linalg.norm(axis=1) on rows of subnormal, huge
        (squares that overflow), infinite, NaN and -0.0 entries, on a
        contiguous array and on a column slice of a wider one."""
        rng = np.random.default_rng(3)
        wide = rng.normal(size=(20000, 6)) * 10.0 ** rng.choice(
            [-320, -160, 0, 154, 200, 308], size=(20000, 1))
        wide[rng.random(wide.shape) < 0.05] = -0.0
        special = rng.random(wide.shape) < 0.01
        wide[special] = rng.choice([np.inf, -np.inf, np.nan], size=special.sum())
        for v in (np.ascontiguousarray(wide[:, :3]), wide[:, 3:]):
            want = np.linalg.norm(v, axis=1)
            assert np.isnan(want).any() and np.isinf(want).any()
            assert norms_by_column(v).tobytes() == want.tobytes()

    def test_unit_normalizes(self):
        v = unit(np.array([3.0, 0.0, 4.0]))
        assert np.allclose(v, [0.6, 0.0, 0.8])

    def test_unit_rejects_zero(self):
        with pytest.raises(DegenerateInput):
            unit(np.zeros(3))

    def test_hat_matches_cross_product(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(hat(a) @ b, np.cross(a, b))


class TestRigidTransform:
    def test_compose_matches_matrix_product(self, rng):
        a = RigidTransform(random_rotation(rng), rng.normal(size=3))
        b = RigidTransform(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(as_matrix(a.compose(b)),
                           as_matrix(a) @ as_matrix(b))

    def test_invert_roundtrip(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        back = t.compose(t.invert())
        assert np.allclose(as_matrix(back), np.eye(4), atol=1e-12)

    def test_apply_matches_matrix(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(7, 3))
        homo = np.c_[pts, np.ones(7)] @ as_matrix(t).T
        assert np.allclose(t.apply(pts), homo[:, :3])
        assert np.allclose(t.apply(pts[0]), homo[0, :3])

    def test_apply_direction_ignores_translation(self, rng):
        t = RigidTransform(random_rotation(rng), [10.0, -3.0, 2.0])
        d = unit(rng.normal(size=3))
        assert np.allclose(t.apply_direction(d), t.rotation @ d)


class TestAxisAngle:
    def test_known_quarter_turn(self):
        r = axis_angle_to_rotation(np.array([np.pi / 2, 0.0, 0.0]))
        assert np.allclose(r, rotation_about_x(np.pi / 2), atol=1e-12)
        assert np.allclose(r @ Y_AXIS, Z_AXIS, atol=1e-12)

    def test_matches_scipy_both_ways(self, rng):
        for _ in range(200):
            nu = rng.normal(size=3) * rng.uniform(0, np.pi)
            ours = axis_angle_to_rotation(nu)
            ref = Rotation.from_rotvec(nu).as_matrix()
            assert np.abs(ours - ref).max() < 1e-12
            back = rotation_to_axis_angle(ref)
            ref_back = Rotation.from_matrix(ref).as_rotvec()
            # Compare through the rotation to stay agnostic to the axis sign
            # ambiguity at theta == pi.
            assert np.abs(axis_angle_to_rotation(back) - ref).max() < 1e-9
            assert abs(np.linalg.norm(back) - np.linalg.norm(ref_back)) < 1e-9

    @pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-8, 1e-5, 0.1,
                                       np.pi - 1e-5, np.pi - 1e-8, np.pi])
    def test_roundtrip_at_extreme_angles(self, theta, rng):
        for _ in range(10):
            axis = unit(rng.normal(size=3))
            r = Rotation.from_rotvec(theta * axis).as_matrix()
            nu = rotation_to_axis_angle(r)
            assert np.abs(axis_angle_to_rotation(nu) - r).max() < 1e-9

    def test_stacked_matches_one_at_a_time(self, rng):
        """Bit for bit, at the identity, small angles, within 1e-6 of pi (the
        near-pi branch starts ~5e-7 from it) and at pi, whose antisymmetric
        part is exactly zero for the diagonal turns."""
        thetas = [0.0, 1e-12, 1e-9, 1e-6, 0.1, 3.07, np.pi - 1e-6, np.pi - 4e-7,
                  np.pi - 1e-9, np.pi]
        stack = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                 np.diag([-1.0, -1.0, 1.0])]
        for theta in thetas:
            for _ in range(4):
                stack.append(Rotation.from_rotvec(theta * unit(rng.normal(size=3))).as_matrix())
        stack.append(random_rotation(rng))
        one = [rotation_to_axis_angle(r) for r in stack]
        assert np.array_equal(rotations_to_axis_angle(np.array(stack)), one)
        assert rotations_to_axis_angle(np.empty((0, 3, 3))).shape == (0, 3)

    def test_identity_maps_to_zero(self):
        assert np.allclose(rotation_to_axis_angle(np.eye(3)), np.zeros(3))

    def test_angle_in_upper_half(self, rng):
        for _ in range(50):
            r = random_rotation(rng)
            theta = np.linalg.norm(rotation_to_axis_angle(r))
            assert 0.0 <= theta <= np.pi + 1e-12


class TestPoseVector:
    def test_roundtrip(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        back = parse_pose(dump_pose(t), "pose")
        assert np.allclose(as_matrix(back), as_matrix(t), atol=1e-9)


class TestFraming:
    def test_face_pose_from_eyes(self):
        left = np.array([-0.032, 0.0, 0.45])
        right = np.array([0.032, 0.0, 0.45])
        pose = face_pose_from_eyes(left, right)
        assert np.allclose(pose.translation, [0.0, 0.0, 0.45])
        alpha = pose.rotation[:, 0]
        assert np.allclose(alpha, unit(right - pose.translation), atol=1e-12)
        r = pose.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12

    def test_face_pose_rejects_coincident_eyes(self):
        eye = np.array([0.0, 0.0, 0.4])
        with pytest.raises(DegenerateInput):
            face_pose_from_eyes(eye, eye + 1e-9)

    def test_rotation_from_normal_last_column_is_normal(self, rng):
        for _ in range(200):
            eta = unit(rng.normal(size=3))
            r = rotation_from_normal(eta)
            assert np.abs(r @ Z_AXIS - eta).max() < 1e-9
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert np.linalg.det(r) > 0.0

    def test_rotation_from_normal_degenerate_reference(self):
        with pytest.raises(DegenerateNormal):
            rotation_from_normal(Y_AXIS, reference=Y_AXIS)
        # the z-axis reference rescues a normal parallel to y
        r = rotation_from_normal(Y_AXIS, reference=Z_AXIS)
        assert np.allclose(r[:, 2], Y_AXIS)

    def test_rotation_from_normal_rejects_non_unit(self):
        with pytest.raises(ValueError):
            rotation_from_normal(np.array([0.0, 0.0, 2.0]))

    def test_interpolation_endpoints_and_midpoint(self):
        a = np.eye(3)
        b = rotation_about_y(np.pi / 2)
        assert np.allclose(interpolate_rotation(a, b, 0.0), a)
        assert np.allclose(interpolate_rotation(a, b, 1.0), b)
        mid = interpolate_rotation(a, b, 0.5)
        assert np.allclose(mid, rotation_about_y(np.pi / 4), atol=1e-12)

    def test_stacked_interpolation_matches_one_at_a_time(self, rng):
        fractions = np.array([-0.5, 0.0, 1e-9, 0.25, 0.5, 0.999, 1.0, 2.0])
        for _ in range(20):
            a, b = random_rotation(rng), random_rotation(rng)
            stack = interpolate_rotations(a, b, fractions)
            one = [interpolate_rotation(a, b, f) for f in fractions]
            assert np.array_equal(stack, one)
            # At and past either end the stack holds the end rotation itself.
            for k in (0, 1, 6, 7):
                assert np.array_equal(stack[k], one[k])

    def test_one_pair_per_fraction(self, rng):
        """Stacked pairs, among them equal ones and ones a half turn apart."""
        a = np.array([random_rotation(rng) for _ in range(12)])
        b = np.array([random_rotation(rng) for _ in range(12)])
        b[0], b[1] = a[0], a[1] @ np.diag([1.0, -1.0, -1.0])
        fractions = rng.uniform(-0.2, 1.2, size=12)
        fractions[2:4] = 0.0, 1.0
        one = [interpolate_rotation(x, y, f) for x, y, f in zip(a, b, fractions)]
        assert np.array_equal(interpolate_rotations(a, b, fractions), one)


class TestProjection:
    def test_known_pixel(self, intrinsics):
        u, v = project_point(np.array([0.1, 0.05, 0.5]), intrinsics,
                             RigidTransform.identity())
        assert (u, v) == pytest.approx((420.0, 290.0))

    def test_behind_camera_raises(self, intrinsics):
        with pytest.raises(BehindCamera):
            project_point(np.array([0.0, 0.0, -0.1]), intrinsics,
                          RigidTransform.identity())

    def test_vectorized_matches_scalar(self, intrinsics, rng):
        pts = rng.uniform([-0.2, -0.2, 0.2], [0.2, 0.2, 1.0], size=(50, 3))
        pix, in_front = project_points(pts, intrinsics,
                                       RigidTransform.identity())
        assert in_front.all()
        for p, expected in zip(pts, pix):
            assert project_point(p, intrinsics, RigidTransform.identity()) \
                == pytest.approx(tuple(expected))

    def test_behind_camera_masked_in_vectorized(self, intrinsics):
        pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        _, in_front = project_points(pts, intrinsics, RigidTransform.identity())
        assert in_front.tolist() == [True, False]

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 500.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            CameraIntrinsics(500.0, 500.0, 700.0, 240.0, 640, 480)
