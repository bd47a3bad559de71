import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelaser.cloud import PointCloud
from facelaser.errors import MalformedLandmarks
from facelaser.geometry import CameraIntrinsics, RigidTransform
from facelaser.segmentation import (
    HAIRLINE_FACTOR,
    REGION_LABELS,
    FaceLandmarks,
    build_region_polygons,
    points_in_polygon,
    polygon_is_simple,
    segment_face,
)

from support import (
    canonical_landmarks,
    landmarks_to_json,
    point_in_polygon,
    unculled_assignment,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
BOWTIE = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
CONCAVE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0],
                    [0.0, 3.0], [3.0, 3.0], [3.0, 1.0], [0.0, 1.0]])


class TestLandmarks:
    def test_shape_is_validated(self, rng):
        with pytest.raises(MalformedLandmarks):
            FaceLandmarks(rng.uniform(size=(67, 2)), 640, 480)
        with pytest.raises(MalformedLandmarks):
            FaceLandmarks(rng.uniform(size=(68, 3)), 640, 480)

    def test_finite_and_size_validated(self, landmarks):
        pts = landmarks.points.copy()
        pts[10, 0] = np.nan
        with pytest.raises(MalformedLandmarks):
            FaceLandmarks(pts, 640, 480)
        with pytest.raises(MalformedLandmarks):
            FaceLandmarks(landmarks.points, 0, 480)

    def test_json_roundtrip(self, landmarks, tmp_path):
        path = tmp_path / "lm.json"
        landmarks_to_json(landmarks, path)
        back = FaceLandmarks.from_json(path)
        assert np.array_equal(back.points, landmarks.points)
        assert (back.width, back.height) == (landmarks.width, landmarks.height)

    def test_from_json_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0, 0]]}')
        with pytest.raises(MalformedLandmarks):
            FaceLandmarks.from_json(path)


class TestPolygonPredicates:
    def test_simple_cases(self):
        assert polygon_is_simple(SQUARE)
        assert polygon_is_simple(CONCAVE)
        assert not polygon_is_simple(BOWTIE)

    def test_degenerate_cases(self):
        assert not polygon_is_simple(SQUARE[:2])
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert not polygon_is_simple(collinear)

    def test_point_in_square(self):
        assert point_in_polygon([0.5, 0.5], SQUARE)
        assert not point_in_polygon([1.5, 0.5], SQUARE)
        assert not point_in_polygon([0.5, -0.1], SQUARE)

    def test_point_in_concave_notch(self):
        # The notch carved between v = 1 and v = 3 is outside.
        assert not point_in_polygon([1.5, 2.0], CONCAVE)
        assert point_in_polygon([3.5, 2.0], CONCAVE)
        assert point_in_polygon([1.5, 0.5], CONCAVE)

    def test_shared_edge_belongs_to_exactly_one(self):
        left = SQUARE
        right = SQUARE + [1.0, 0.0]
        for v in (0.25, 0.5, 0.75):
            hits = point_in_polygon([1.0, v], left) + point_in_polygon([1.0, v], right)
            assert hits == 1

    def test_vectorized_matches_scalar(self, rng):
        for poly in (SQUARE, CONCAVE):
            pts = rng.uniform(-1.0, 5.0, size=(500, 2))
            mask = points_in_polygon(pts, poly)
            assert all(mask[i] == point_in_polygon(pts[i], poly)
                       for i in range(len(pts)))


class TestRegionPolygons:
    def test_all_regions_in_order_and_simple(self, landmarks):
        polys = build_region_polygons(landmarks)
        assert [p.label for p in polys] == list(REGION_LABELS)
        for p in polys:
            assert polygon_is_simple(p.vertices), p.label

    def test_hairline_factor_raises_forehead(self, landmarks):
        pts = landmarks.points
        rise = HAIRLINE_FACTOR * (pts[8, 1] - pts[17:27, 1].mean())
        forehead = build_region_polygons(landmarks)[REGION_LABELS.index("forehead")]
        assert np.allclose(forehead.vertices[-2:],
                           [[pts[26, 0], pts[26, 1] - rise],
                            [pts[17, 0], pts[17, 1] - rise]])

    def test_self_intersecting_region_rejected(self, landmarks):
        # Swapping two jawline points folds the left jaw polygon onto itself.
        pts = landmarks.points.copy()
        pts[[3, 5]] = pts[[5, 3]]
        swapped = FaceLandmarks(pts, landmarks.width, landmarks.height)
        with pytest.raises(MalformedLandmarks, match="left_jaw polygon self-intersects"):
            build_region_polygons(swapped)

    def test_scrambled_landmarks_rejected(self, landmarks):
        flipped = FaceLandmarks(
            np.column_stack([landmarks.points[:, 0],
                             -landmarks.points[:, 1]]),
            landmarks.width, landmarks.height)
        with pytest.raises(MalformedLandmarks):
            build_region_polygons(flipped)


class TestSegmentFace:
    def test_all_regions_populated(self, face_scene):
        cloud, landmarks, intrinsics = face_scene
        seg = segment_face(cloud, landmarks, intrinsics)
        assert seg.labels() == list(REGION_LABELS)
        assert all(len(seg[label]) > 0 for label in REGION_LABELS)

    def test_exact_partition(self, face_scene):
        cloud, landmarks, intrinsics = face_scene
        seg = segment_face(cloud, landmarks, intrinsics)
        parts = [seg[label].positions for label in seg.labels()]
        parts.append(seg.residual.positions)
        stacked = np.vstack(parts)
        assert len(stacked) == len(cloud)
        # Same multiset of rows: sort both lexicographically and compare.
        order_a = np.lexsort(stacked.T)
        order_b = np.lexsort(cloud.positions.T)
        assert np.array_equal(stacked[order_a], cloud.positions[order_b])

    def test_first_match_assignment(self, face_scene):
        cloud, landmarks, intrinsics = face_scene
        seg = segment_face(cloud, landmarks, intrinsics)
        polys = {p.label: p.vertices for p in build_region_polygons(landmarks)}
        fx, fy = intrinsics.fx, intrinsics.fy
        cx, cy = intrinsics.cx, intrinsics.cy
        for k, label in enumerate(REGION_LABELS):
            pos = seg[label].positions
            pix = np.column_stack([fx * pos[:, 0] / pos[:, 2] + cx,
                                   fy * pos[:, 1] / pos[:, 2] + cy])
            assert points_in_polygon(pix, polys[label]).all()
            for earlier in REGION_LABELS[:k]:
                assert not points_in_polygon(pix, polys[earlier]).any()

    def test_default_pose_matches_identity(self, face_scene):
        cloud, landmarks, intrinsics = face_scene
        a = segment_face(cloud, landmarks, intrinsics)
        b = segment_face(cloud, landmarks, intrinsics,
                         camera_pose=RigidTransform.identity())
        for label in a.labels():
            assert np.array_equal(a[label].positions, b[label].positions)

    def test_far_camera_sees_nothing(self, face_scene):
        cloud, landmarks, intrinsics = face_scene
        behind = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
        seg = segment_face(cloud, landmarks, intrinsics, camera_pose=behind)
        # The whole face is behind this camera, so everything is residual.
        assert seg.labels() == []
        assert len(seg.residual) == len(cloud)


def between(lo, hi, f):
    """lo + f (hi - lo), without forming hi - lo, which can overflow; an f
    outside [0, 1] can still overflow, to a point the caller drops."""
    with np.errstate(over="ignore"):
        return lo * (1.0 - f) + hi * f


@st.composite
def box_edge_scenes(draw):
    """The canonical landmarks scaled about the image centre, u and v apart
    (u by up to 1.5e306, where the forehead's width overflows), shifted and
    maybe jittered, with points whose pixels sit on polygon vertices, on
    each polygon's box edges, one ulp inside and beyond them, at the edge of
    the cull's u padding, and anywhere around the face; some of them behind
    the camera. The camera is at the origin with unit focal lengths and the
    principal point at 0, so a point (u, v, 1) projects to the pixel (u, v)
    exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array([draw(st.sampled_from([1e-3, 0.37, 1.0, 3.0, 1e4, 1.5e306])),
                      draw(st.sampled_from([1e-290, 1e-3, 0.37, 1.0, 3.0, 1e4]))])
    offset = draw(st.sampled_from([0.0, 320.0, -1e3, 1e6]))
    pts = (canonical_landmarks().points - [320.0, 240.0]) * scale + offset
    if draw(st.booleans()):
        pts = pts + rng.normal(0.0, 1.5, size=pts.shape) * scale
    try:
        landmarks = FaceLandmarks(pts, 640, 480)
        with np.errstate(over="ignore", invalid="ignore"):   # 1e306-wide faces
            polys = build_region_polygons(landmarks)
    except MalformedLandmarks:
        assume(False)
    pixels = []
    for poly in polys:
        verts = poly.vertices
        (u_min, v_min), (u_max, v_max) = verts.min(axis=0), verts.max(axis=0)
        pad = 1e-9 * (1.0 + max(abs(u_min), abs(u_max)))
        us = [u_min, u_max, u_min - pad, u_max + pad]
        us += [np.nextafter(u, s) for u in us for s in (-np.inf, np.inf)]
        vs = [v_min, v_max] + [np.nextafter(v, s) for v in (v_min, v_max)
                               for s in (-np.inf, np.inf)]
        along_u = between(u_min, u_max, rng.uniform(size=len(vs)))
        along_v = between(v_min, v_max, rng.uniform(size=len(us)))
        pixels += [verts, np.column_stack([us, along_v]), np.column_stack([along_u, vs]),
                   np.array([(u, v) for u in us[:2] for v in vs[:2]])]
    everything = np.vstack([p.vertices for p in polys])
    lo, hi = everything.min(axis=0), everything.max(axis=0)
    pixels.append(between(lo, hi, rng.uniform(-0.1, 1.1, size=(200, 2))))
    pixels = np.vstack(pixels)
    pixels = pixels[np.isfinite(pixels).all(axis=1)]
    z = np.where(rng.uniform(size=len(pixels)) < 0.1, -1.0, 1.0)
    cloud = PointCloud(np.column_stack([pixels, z]))
    return cloud, landmarks, CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 640, 480)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box_edge_scenes())
def test_box_cull_keeps_the_partition(case):
    """segment_face's regions and residual are those of the polygon tests run
    on every point, first match winning."""
    cloud, landmarks, intrinsics = case
    with np.errstate(over="ignore", invalid="ignore"):
        assigned = unculled_assignment(cloud, landmarks, intrinsics)
        seg = segment_face(cloud, landmarks, intrinsics)
    assert seg.labels() == [label for idx, label in enumerate(REGION_LABELS)
                            if (assigned == idx).any()]
    for idx, label in enumerate(REGION_LABELS):
        if label in seg.regions:
            assert np.array_equal(seg[label].positions, cloud.positions[assigned == idx])
    assert np.array_equal(seg.residual.positions, cloud.positions[assigned == -1])
