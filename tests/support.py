"""Shared synthetic fixtures: analytic clouds, landmark layouts, path stubs,
and the reference implementations (brute-force raycast, np.unique voxel grid,
eigh normals, per-patch poses, the simulator's tick loop over a segment) that
the fast versions are tested against."""

import math

import numpy as np

from facelaser.cloud import PointCloud, RayHit
from facelaser.errors import DegenerateNormal
from facelaser.geometry import (
    Y_AXIS,
    Z_AXIS,
    CameraIntrinsics,
    RigidTransform,
    rotation_from_normal,
)
from facelaser.pathplan import SegmentPath
from facelaser.segmentation import FaceLandmarks

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors (deterministic, no RNG)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = GOLDEN_ANGLE * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def ellipsoid_cloud(n: int, radii, center=(0.0, 0.0, 0.0),
                    front_only: bool = False) -> PointCloud:
    """Ellipsoid surface samples with exact outward normals.

    With front_only, keeps the hemisphere whose normals face the -z camera
    direction (normal z-component below -0.05).
    """
    s = fibonacci_sphere(n)
    radii = np.asarray(radii, dtype=float)
    pos = np.asarray(center, dtype=float) + s * radii
    nrm = s / radii
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    if front_only:
        keep = nrm[:, 2] < -0.05
        pos, nrm = pos[keep], nrm[keep]
    return PointCloud(pos, nrm)


def plane_grid(extent_x: float = 0.047, extent_t: float = 0.047,
               pitch_x: float = 0.001, pitch_t: float = 0.001,
               tilt: float = 0.0) -> PointCloud:
    """Planar grid tilted by `tilt` about the x-axis, half-cell offset.

    In-plane axes are x and w = (0, cos t, sin t); the unit normal is
    (0, -sin t, cos t). Grid coordinates start half a pitch from zero.
    """
    xs = np.arange(0.0, extent_x, pitch_x) + 0.5 * pitch_x
    ts = np.arange(0.0, extent_t, pitch_t) + 0.5 * pitch_t
    xx, tt = np.meshgrid(xs, ts, indexing="ij")
    w = np.array([0.0, np.cos(tilt), np.sin(tilt)])
    pos = (xx.reshape(-1, 1) * np.array([1.0, 0.0, 0.0])
           + tt.reshape(-1, 1) * w)
    nrm = np.tile([0.0, -np.sin(tilt), np.cos(tilt)], (len(pos), 1))
    return PointCloud(pos, nrm)


def wall_cloud(size: float = 0.3, pitch: float = 0.002) -> PointCloud:
    """Square wall in the z = 0 plane centered on the origin, normals +z."""
    g = plane_grid(size, size, pitch, pitch, 0.0)
    return PointCloud(g.positions - np.array([size / 2, size / 2, 0.0]),
                      np.tile([0.0, 0.0, 1.0], (len(g), 1)))


def straight_path(length: float, label: str = "strip",
                  direction=(1.0, 0.0, 0.0),
                  normal=(0.0, 0.0, 1.0)) -> SegmentPath:
    """Two-point single-strip path of the given length from the origin."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return SegmentPath(label, [np.zeros(3), length * d], [normal, normal],
                       [0, 0], "horizontal", [])


def canonical_landmarks() -> FaceLandmarks:
    """A symmetric 68-point layout in a 640x480 image.

    Indices follow the usual convention: 0-16 jaw, 17-26 eyebrows, 27-35
    nose, 36-47 eyes, 48-67 mouth.
    """
    pts = np.zeros((68, 2))
    i = np.arange(17)
    pts[0:17, 0] = 320.0 - 105.0 * np.cos(np.pi * i / 16.0)
    pts[0:17, 1] = 200.0 + 180.0 * np.sin(np.pi * i / 16.0)
    pts[17:22] = [(235, 185), (251, 181), (267, 179), (284, 180), (300, 183)]
    pts[22:27] = [(340, 183), (356, 180), (373, 179), (389, 181), (405, 185)]
    pts[27:31] = [(320, 200), (320, 222), (320, 244), (320, 265)]
    pts[31:36] = [(300, 278), (310, 282), (320, 285), (330, 282), (340, 278)]
    pts[36:42] = [(245, 205), (258, 198), (272, 198), (285, 205),
                  (272, 212), (258, 212)]
    pts[42:48] = [(355, 205), (368, 198), (382, 198), (395, 205),
                  (382, 212), (368, 212)]
    pts[48:60] = [(280, 320), (295, 312), (308, 308), (320, 306), (332, 308),
                  (345, 312), (360, 320), (345, 332), (332, 338), (320, 340),
                  (308, 338), (295, 332)]
    pts[60:68] = [(288, 320), (305, 317), (320, 316), (335, 317), (352, 320),
                  (335, 325), (320, 327), (305, 325)]
    return FaceLandmarks(pts, 640, 480)


def scene_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def face_cloud(n: int = 6000) -> PointCloud:
    """Front half of a head-sized ellipsoid posed to project onto the
    canonical landmark layout (camera at the origin looking along +z)."""
    return ellipsoid_cloud(n, (0.105, 0.14, 0.065), (0.0, 0.03, 0.5),
                           front_only=True)


def scan_raycast(cloud: PointCloud, origin, direction, radius: float,
                 max_range: float = math.inf) -> RayHit | None:
    """The reference raycast: test every point of the cloud against the ray.

    Returns the point within `radius` of the ray with the smallest distance t
    along it in (0, max_range] (the lowest index on a tie), or None.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    origin = np.asarray(origin, dtype=float)
    rel = cloud.positions - origin
    t = rel @ d
    perp2 = np.einsum("ij,ij->i", rel, rel) - t * t
    # Clamp tiny negative values from cancellation before comparing.
    hit = (t > 0.0) & (t <= max_range) & (np.maximum(perp2, 0.0) <= radius * radius)
    if not hit.any():
        return None
    candidates = np.where(hit)[0]
    best = candidates[np.argmin(t[candidates])]
    return RayHit(
        cloud.positions[best].copy(),
        None if cloud.normals is None else cloud.normals[best].copy(),
        float(np.linalg.norm(rel[best])),
    )


def unique_voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """voxel_downsample grouped by np.unique(axis=0) and summed by np.add.at.

    One centroid per occupied floor(p / leaf) voxel, in lexicographic voxel
    order; normals averaged and renormalized (zero where they cancel), colors
    averaged and rounded.
    """
    idx = np.floor(cloud.positions / leaf).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_vox = len(uniq)
    counts = np.bincount(inverse, minlength=n_vox).astype(float)

    def mean_per_voxel(values: np.ndarray) -> np.ndarray:
        acc = np.zeros((n_vox, values.shape[1]))
        np.add.at(acc, inverse, values)
        return acc / counts[:, None]

    positions = mean_per_voxel(cloud.positions)
    normals = None
    if cloud.has_normals:
        normals = mean_per_voxel(cloud.normals)
        norms = np.linalg.norm(normals, axis=1)
        safe = norms > 1e-12
        normals[safe] /= norms[safe, None]
        normals[~safe] = 0.0
    colors = None
    if cloud.colors is not None:
        colors = np.rint(mean_per_voxel(cloud.colors.astype(float))).astype(np.uint8)
    return PointCloud(positions, normals, colors)


def eigh_normals(cloud: PointCloud, k: int, viewpoint):
    """estimate_normals by np.linalg.eigh of each k-NN covariance.

    Returns the normals, flipped toward the viewpoint, together with the
    (n, 3, 3) covariances and their ascending (n, 3) eigenvalues.
    """
    _, nbr = cloud.kdtree().query(cloud.positions, k=k + 1)
    neigh = cloud.positions[nbr]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nij,nik->njk", centered, centered)
    values, vectors = np.linalg.eigh(cov)
    normals = vectors[:, :, 0]
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - cloud.positions) < 0.0
    normals[flip] *= -1.0
    return normals, cov, values


def loop_path_to_poses(path: SegmentPath, standoff: float) -> list[RigidTransform]:
    """path_to_poses one patch at a time: rotation_from_normal about the y
    reference, or about z where the normal is parallel to y."""
    poses = []
    for i, (chi, eta) in enumerate(zip(path.positions, path.normals)):
        try:
            rot = rotation_from_normal(eta, Y_AXIS)
        except DegenerateNormal:
            try:
                rot = rotation_from_normal(eta, Z_AXIS)
            except DegenerateNormal as exc:
                raise DegenerateNormal(
                    f"path point {i} of '{path.label}': {exc}") from exc
        poses.append(RigidTransform(rot, chi + standoff * eta))
    return poses


def tick_legs(run, leg) -> None:
    """The simulator's tick loop from the open leg to the end of its
    segment, one leg after another: the reference of `_Run._legs`, which
    tests put in its place."""
    while True:
        run._tick_leg(leg)
        if leg.j + 1 == len(run.tgt_pos):
            return
        leg = run._open(leg.j + 1)
