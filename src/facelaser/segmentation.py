"""Facial region segmentation from 68-point 2D landmarks.

Seven treatment regions (forehead, cheeks, jaw halves, nose, upper lip) are
built as image-space polygons over the standard 68-point landmark layout and
surface points are assigned to the first region whose polygon contains their
pixel projection. Eyes and the mouth opening fall in none of the polygons and
stay untreated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import MalformedLandmarks
from .geometry import CameraIntrinsics, RigidTransform, project_points

# First-match assignment order. Nose and lips come before the large regions so
# their boundary pixels are not swallowed by a cheek polygon.
REGION_LABELS = (
    "nose",
    "upper_lips",
    "forehead",
    "left_cheek",
    "right_cheek",
    "left_jaw",
    "right_jaw",
)

# The forehead rises this fraction of the eyebrow-to-chin height above the
# eyebrows: the scan rarely reaches the true hairline, so this is its proxy.
HAIRLINE_FACTOR = 0.6


@dataclass
class FaceLandmarks:
    """68 image-space landmark points plus the image size they live in."""

    points: np.ndarray          # (68, 2) float, pixel coordinates (u, v)
    width: int
    height: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape != (68, 2):
            raise MalformedLandmarks(f"expected (68, 2) points, got {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise MalformedLandmarks("landmark coordinates must be finite")
        if self.width <= 0 or self.height <= 0:
            raise MalformedLandmarks("image size must be positive")

    @classmethod
    def from_json(cls, path) -> "FaceLandmarks":
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            return cls(np.asarray(doc["points"], dtype=float), int(doc["width"]),
                       int(doc["height"]))
        except (KeyError, TypeError, ValueError, OverflowError, MalformedLandmarks) as exc:
            raise MalformedLandmarks(f"bad landmark file {path}: {exc}") from exc


@dataclass
class RegionPolygon:
    label: str
    vertices: np.ndarray        # (n, 2) pixel coordinates, implicitly closed


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and \
        d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def polygon_is_simple(vertices: np.ndarray) -> bool:
    """True when no two non-adjacent edges properly cross and the area is nonzero."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        return False
    area2 = 0.0
    for i in range(n):
        j = (i + 1) % n
        area2 += v[i, 0] * v[j, 1] - v[j, 0] * v[i, 1]
    if abs(area2) < 1e-9:
        return False
    for i in range(n):
        a1, a2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(a1, a2, v[j], v[(j + 1) % n]):
                return False
    return True


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Vectorized even-odd test; returns a boolean mask over the rows of points."""
    pts = np.asarray(points, dtype=float)
    verts = np.asarray(vertices, dtype=float)
    u, v = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        u1, v1 = verts[i]
        u2, v2 = verts[(i + 1) % n]
        straddle = (v1 <= v) != (v2 <= v)
        if not straddle.any():
            continue
        cross_u = u1 + (v[straddle] - v1) / (v2 - v1) * (u2 - u1)
        hits = np.zeros(len(pts), dtype=bool)
        hits[straddle] = u[straddle] < cross_u
        inside ^= hits
    return inside


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain, counter-clockwise in (u, v) with v down."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def build_region_polygons(landmarks: FaceLandmarks) -> list[RegionPolygon]:
    """Region polygons from the 68-point layout.

    The forehead extends the eyebrow line upward by HAIRLINE_FACTOR times the
    eyebrow-to-chin height. The nose is the convex hull of landmarks 27-35;
    cheeks run jawline - mouth corner - nose wing - lower eye arc; jaw halves
    split at the chin.
    """
    pts = landmarks.points
    chin_v = pts[8, 1]
    brow = pts[17:27]
    brow_v = float(np.mean(brow[:, 1]))
    rise = HAIRLINE_FACTOR * (chin_v - brow_v)
    if rise <= 0:
        raise MalformedLandmarks("chin sits above the eyebrows; landmarks look scrambled")

    forehead = np.vstack([
        brow,                                           # 17..26 left to right
        [pts[26, 0], pts[26, 1] - rise],                # up the right temple
        [pts[17, 0], pts[17, 1] - rise],                # across the hairline
    ])
    nose = _convex_hull(pts[27:36])
    upper_lips = pts[[31, 32, 33, 34, 35, 54, 53, 52, 51, 50, 49, 48]]
    left_cheek = pts[[0, 1, 2, 48, 31, 39, 40, 41, 36]]
    right_cheek = pts[[16, 15, 14, 54, 35, 42, 47, 46, 45]]
    left_jaw = pts[[48, 59, 58, 57, 8, 7, 6, 5, 4, 3, 2]]
    right_jaw = pts[[54, 55, 56, 57, 8, 9, 10, 11, 12, 13, 14]]

    table = {
        "nose": nose,
        "upper_lips": upper_lips,
        "forehead": forehead,
        "left_cheek": left_cheek,
        "right_cheek": right_cheek,
        "left_jaw": left_jaw,
        "right_jaw": right_jaw,
    }
    polys = []
    for label in REGION_LABELS:
        verts = table[label]
        if not polygon_is_simple(verts):
            raise MalformedLandmarks(f"{label} polygon self-intersects or is degenerate")
        polys.append(RegionPolygon(label, verts))
    return polys


@dataclass
class SegmentedFace:
    """Per-region sub-clouds plus whatever did not land in any polygon."""

    regions: dict
    residual: PointCloud

    def __getitem__(self, label: str) -> PointCloud:
        return self.regions[label]

    def labels(self):
        return [k for k in REGION_LABELS if k in self.regions]


def segment_face(cloud: PointCloud, landmarks: FaceLandmarks,
                 intrinsics: CameraIntrinsics, camera_pose=None) -> SegmentedFace:
    """Assign each cloud point to the first region polygon containing its pixel.

    The cloud is projected with `intrinsics`; camera_pose (camera in the
    cloud's frame) defaults to identity. Points behind the camera or outside
    every polygon land in the residual.

    Each polygon's even-odd test runs only on the unassigned in-front points
    whose pixel lies in the polygon's (u, v) box, v exactly and u padded by
    1e-9 (1 + the box's largest |u|), or not at all when the box's width or
    height overflows. The cull drops no point the test would keep. Above or
    below the box no edge straddles the point's v. Right of it no straddling
    edge's crossing lies beyond the point: a crossing strays past its edge's
    ends by a few ulps at most. Left of it every straddling edge is crossed,
    and a closed polygon has an even number of them.
    """
    extrinsics = camera_pose.invert() if camera_pose is not None \
        else RigidTransform.identity()
    pixels, in_front = project_points(cloud.positions, intrinsics, extrinsics)
    u, v = pixels[:, 0], pixels[:, 1]

    polys = build_region_polygons(landmarks)
    assigned = np.full(len(cloud), -1, dtype=int)
    for idx, poly in enumerate(polys):
        (u_min, v_min), (u_max, v_max) = (poly.vertices.min(axis=0).tolist(),
                                          poly.vertices.max(axis=0).tolist())
        # A box too wide for float differences would overflow the crossings.
        pad = 1e-9 * (1.0 + max(abs(u_min), abs(u_max))) \
            if math.isfinite(u_max - u_min) and math.isfinite(v_max - v_min) else math.inf
        rows = np.flatnonzero(in_front & (assigned == -1) & (v >= v_min) & (v <= v_max)
                              & (u >= u_min - pad) & (u <= u_max + pad))
        assigned[rows[points_in_polygon(pixels[rows], poly.vertices)]] = idx

    regions = {}
    for idx, poly in enumerate(polys):
        mask = assigned == idx
        if mask.any():
            regions[poly.label] = cloud.select(mask)
    return SegmentedFace(regions, cloud.select(assigned == -1))
