"""Shared synthetic fixtures: analytic clouds, landmark layouts, path stubs,
and the reference implementations (brute-force raycast, np.unique voxel grid,
the re-stacked voxel grid sums, all-pairs voxel neighbours, per-voxel loop and
k-NN normals, eigh normals, the mask-per-step strip binning, the per-window
strip sweep, per-patch poses, the dict-per-record path file writer and reader,
the simulator's tick loop over a segment, the full-query ICP objective, the
full-draw Monte Carlo coverage, the scalar point-in-polygon test and pixel
projection, the unculled region assignment) that the fast versions are tested
against."""

import json
import math
from unittest import mock

import numpy as np
from scipy.spatial import cKDTree

from facelaser import registration
from facelaser.cli import PATH_KEYS
from facelaser.cloud import PointCloud, RayHit, VoxelGrid, _packing, _run_starts
from facelaser.errors import (
    DegenerateNormal,
    FacelaserError,
    InvalidParam,
    NoCorrespondences,
    ParseError,
)
from facelaser.geometry import (
    Y_AXIS,
    Z_AXIS,
    CameraIntrinsics,
    RigidTransform,
    project_points,
    rotation_from_normal,
)
from facelaser.pathplan import (
    MIN_STRIP_FRACTION,
    SegmentPath,
    Strip,
    _mean_normal,
    strip_obliquity,
)
from facelaser.segmentation import FaceLandmarks, build_region_polygons, points_in_polygon
from facelaser.simulator import PlanarRegion, ShotLog

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


def axis0_packing(keys: np.ndarray, pad: int, scale: int = 1):
    """_packing with the keys' box from numpy's axis-0 min and max."""
    if not len(keys):
        return None
    lo, hi = keys.min(axis=0).tolist(), keys.max(axis=0).tolist()
    sy, sz = hi[1] - lo[1] + 1 + pad, hi[2] - lo[2] + 1 + pad
    if (hi[0] - lo[0] + 2 + pad) * sy * sz * scale > 2**63:
        return None
    code = ((keys[:, 0] - lo[0]) * sy + (keys[:, 1] - lo[1])) * sz + (keys[:, 2] - lo[2])
    return code, lambda dx, dy, dz: (dx * sy + dy) * sz + dz


class RestackedVoxelGrid(VoxelGrid):
    """A VoxelGrid whose add stacks the stored sums above the new rows and
    bins them all again, one bincount per column, from 0.0."""

    def add(self, cloud: PointCloud) -> np.ndarray:
        idx = np.floor(cloud.positions / self.leaf)
        if not ((idx >= -2.0**63) & (idx < 2.0**63)).all():
            raise ValueError("voxel indices must fit in int64")
        keys = np.vstack([self.keys, idx.astype(np.int64)])
        n = len(keys)
        bits = max(n - 1, 0).bit_length()
        packed = _packing(keys, 0, 1 << bits)
        if packed is not None:
            code = np.sort((packed[0] << bits) | np.arange(n))
            order = code & ((1 << bits) - 1)
            first = _run_starts(code >> bits)
        else:
            order = np.lexsort(keys.T[::-1])
            first = np.ones(n, dtype=bool)
            first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
        self.keys = keys[order[first]]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        rows = {"count": np.ones((len(cloud), 1)), "positions": cloud.positions}
        if cloud.has_normals:
            rows["normals"] = cloud.normals
        if cloud.colors is not None:
            rows["colors"] = cloud.colors.astype(float)
        if self.sums:
            rows = {name: np.vstack([self.sums[name], block])
                    for name, block in rows.items() if name in self.sums}
        self.sums = {name: np.column_stack([
            np.bincount(inverse, weights=col, minlength=len(self.keys)) for col in block.T])
            for name, block in rows.items()}
        return inverse[len(inverse) - len(cloud):]


def eigh_normals(cloud: PointCloud, k: int, viewpoint):
    """k-NN normals by np.linalg.eigh of each k-NN covariance: the oracle of
    the closed-form `_smallest_eigenvectors`.

    Returns the normals, flipped toward the viewpoint, together with the
    (n, 3, 3) covariances and their ascending (n, 3) eigenvalues.
    """
    _, nbr = cKDTree(cloud.positions).query(cloud.positions, k=k + 1)
    neigh = cloud.positions[nbr]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nij,nik->njk", centered, centered)
    values, vectors = np.linalg.eigh(cov)
    normals = vectors[:, :, 0]
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - cloud.positions) < 0.0
    normals[flip] *= -1.0
    return normals, cov, values


def knn_normals(cloud: PointCloud, leaf: float, viewpoint, k: int = 12) -> PointCloud:
    """The cloud with normals from a k-NN covariance on its leaf-grid voxel
    means: each mean's k nearest other means and itself, the smallest
    eigenvector flipped toward the viewpoint, and every point its voxel's
    normal. The accuracy reference of the block-covariance normals; needs
    more than k voxels."""
    grid = VoxelGrid(leaf)
    voxel = grid.add(cloud)
    means = grid.cloud().positions
    _, nbr = cKDTree(means).query(means, k=k + 1)
    neigh = means[nbr]                                 # (n, k+1, 3), self included
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    _, vectors = np.linalg.eigh(np.einsum("nij,nik->njk", centered, centered))
    normals = vectors[:, :, 0]
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - means) < 0.0
    normals[flip] *= -1.0
    return PointCloud(cloud.positions, normals[voxel], cloud.colors)


def neighbour_pairs(keys: np.ndarray, reach: int = 1) -> set[tuple[int, int]]:
    """Every row pair (i, j) of `keys` whose entries differ by at most
    `reach` on each axis, self pairs included, from comparing all pairs in
    Python integers: the oracle of VoxelGrid.neighbours."""
    rows = [tuple(map(int, key)) for key in keys]
    return {(i, j) for i, a in enumerate(rows) for j, b in enumerate(rows)
            if all(abs(x - y) <= reach for x, y in zip(a, b))}


def loop_grid_normals(cloud: PointCloud, leaf: float, viewpoint):
    """estimate_normals one voxel at a time: the voxel means within one leaf
    on each axis, found by comparing each voxel with every other (within two
    leaves when fewer than 4, the unit vector toward the viewpoint when still
    fewer than 3), their centred covariance and eigh's vector of its
    smallest eigenvalue, flipped toward the viewpoint.

    Returns the per-point normals, and per voxel the covariance, its
    ascending eigenvalues and the count it was taken over.
    """
    keys, inverse = np.unique(np.floor(cloud.positions / leaf).astype(np.int64),
                              axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    means = np.array([cloud.positions[inverse == v].mean(axis=0) for v in range(len(keys))])
    viewpoint = np.asarray(viewpoint, dtype=float)
    normals = np.empty((len(keys), 3))
    covs = np.empty((len(keys), 3, 3))
    counts = np.empty(len(keys), dtype=np.intp)
    for v, key in enumerate(keys):
        near = np.abs(keys - key).max(axis=1) <= 1
        if near.sum() < 4:
            near = np.abs(keys - key).max(axis=1) <= 2
        d = means[near] - means[near].mean(axis=0)
        covs[v], counts[v] = d.T @ d, near.sum()
        toward = viewpoint - means[v]
        if counts[v] < 3:
            normals[v] = toward / np.linalg.norm(toward)
        else:
            normals[v] = np.linalg.eigh(covs[v])[1][:, 0]
        if normals[v] @ toward < 0.0:
            normals[v] *= -1.0
    return normals[inverse], covs, np.linalg.eigvalsh(covs), counts


def full_query_plane_rmse(src: np.ndarray, nearest, tgt_pos: np.ndarray,
                          tgt_nrm: np.ndarray):
    """registration._plane_rmse with a fresh kd-tree query of every source
    row, k=1 and bounded one ulp above the gate, at every evaluation: the
    oracle of the cached matches. `nearest` gives only its tree and gate."""
    tree, gate = nearest.tree, nearest.gate
    if gate is None:
        _, j = tree.query(src)
        keep = np.ones(len(src), dtype=bool)
    else:
        dist, j = tree.query(src, distance_upper_bound=np.nextafter(gate, np.inf))
        keep = dist <= gate
        if not keep.any():
            raise NoCorrespondences(f"gate {gate:.4g} m rejected all pairs")
    p = src[keep]
    q = tgt_pos[j[keep]]
    n = tgt_nrm[j[keep]]
    b = np.einsum("ij,ij->i", p - q, n)
    return float(np.sqrt(np.mean(b * b))), p, q, n, b


def full_query_icp(*args, **kwargs) -> registration.IcpResult:
    """icp_point_to_plane evaluating full_query_plane_rmse in place of the
    cached objective."""
    with mock.patch.object(registration, "_plane_rmse", full_query_plane_rmse):
        return registration.icp_point_to_plane(*args, **kwargs)


def loop_bin_strips(cloud: PointCloud, diameter: float, axis: int,
                    correction: bool = True) -> list[Strip]:
    """bin_strips building both masks over every point at each cursor step,
    empty windows included: the seed window's points, the narrowed width, and
    the member points as a strip when there are any. Raises InvalidParam for
    a cursor that adding the width leaves in place."""
    bin_axis = np.eye(3)[axis]
    coord = cloud.positions[:, axis]
    hi_all = float(coord.max())
    cursor = float(coord.min())
    strips = []
    while cursor <= hi_all + 1e-12:
        seed = (coord >= cursor) & (coord < cursor + diameter)
        width = diameter
        if seed.any():
            eta_seed = _mean_normal(cloud.normals[seed], Z_AXIS)
            if correction:
                o_x = strip_obliquity(eta_seed, bin_axis)
                width = max(diameter * np.cos(o_x), MIN_STRIP_FRACTION * diameter)
            member = (coord >= cursor) & (coord < cursor + width)
            if member.any():
                strips.append(Strip(len(strips), cursor, cursor + width,
                                    np.flatnonzero(member),
                                    _mean_normal(cloud.normals[member], Z_AXIS)))
        if cursor + width == cursor:
            raise InvalidParam(f"the cursor cannot advance past {cursor!r}")
        cursor += width
    return strips


def loop_sweep_patch(cloud: PointCloud, strip: Strip, sweep_axis: int,
                     step: float) -> tuple[np.ndarray, np.ndarray]:
    """sweep_patch one window at a time: the mean of each occupied window's
    points and the renormalized mean of their normals, k = 0 .. last."""
    pos = cloud.positions[strip.points]
    nrm = cloud.normals[strip.points]
    coords = pos[:, sweep_axis]
    x_min = float(coords.min())
    span = float(coords.max()) - x_min
    last = int(span / step)
    cells = np.clip(np.round((coords - x_min) / step).astype(int), 0, last)
    chi, eta = [], []
    for k in range(last + 1):
        sel = cells == k
        if sel.any():
            chi.append(pos[sel].mean(axis=0))
            eta.append(_mean_normal(nrm[sel], strip.eta_s))
    return np.reshape(chi, (-1, 3)), np.reshape(eta, (-1, 3))


def path_records(path: SegmentPath) -> list[dict]:
    """One paths.json record dict per path point."""
    table = np.hstack([path.positions, path.normals]).tolist()
    return [{**dict(zip(PATH_KEYS, row)), "segment_label": path.label,
             "strip_index": strip}
            for row, strip in zip(table, path.strip_indices.tolist())]


def dumped_paths(paths: list[SegmentPath]) -> str:
    """paths.json as json.dump writes the list of record dicts."""
    records = [r for path in paths for r in path_records(path)]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def loop_load_paths(path) -> dict:
    """load_paths reading each record's coordinates key by key."""
    with open(path, "r", encoding="utf-8") as f:
        rows = json.load(f)
    try:
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["segment_label"], []).append(r)
        out = {}
        for label, rs in grouped.items():
            xyz = np.array([[r[k] for k in PATH_KEYS] for r in rs], dtype=float)
            if not np.isfinite(xyz).all():
                raise ParseError(f"{path}: non-finite coordinate in '{label}'")
            if np.any(np.abs(np.linalg.norm(xyz[:, 3:], axis=1) - 1.0) > 1e-6):
                raise ParseError(f"{path}: normal in '{label}' is not a unit vector")
            strips = [int(r["strip_index"]) for r in rs]
            out[label] = SegmentPath(label, xyz[:, :3], xyz[:, 3:], strips, "unknown")
    except KeyError as exc:
        raise ParseError(f"{path}: path record without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return out


def loop_path_to_poses(path: SegmentPath, standoff: float) -> tuple[np.ndarray, np.ndarray]:
    """path_to_poses one patch at a time: rotation_from_normal about the y
    reference, or about z where the normal is parallel to y."""
    rotations, positions = [], []
    for i, (chi, eta) in enumerate(zip(path.positions, path.normals)):
        try:
            rot = rotation_from_normal(eta, Y_AXIS)
        except DegenerateNormal:
            try:
                rot = rotation_from_normal(eta, Z_AXIS)
            except DegenerateNormal as exc:
                raise DegenerateNormal(
                    f"path point {i} of '{path.label}': {exc}") from exc
        rotations.append(rot)
        positions.append(chi + standoff * eta)
    return np.reshape(rotations, (-1, 3, 3)), np.reshape(positions, (-1, 3))


def tick_legs(run, j) -> None:
    """The simulator's tick loop from the open leg j to the end of its
    segment, one leg after another: the reference of `_Run._legs`, which
    tests put in its place."""
    while True:
        run._tick_leg(j)
        if j + 1 == len(run.tgt_pos):
            return
        j += 1
        run._open(j)


def full_draw_coverage(log: ShotLog, diameter: float, region: PlanarRegion,
                       samples: int, seed: int) -> float:
    """coverage_metrics' Monte Carlo fraction from one (samples, 2) draw with
    a kd-tree query of every sample: the oracle of the cell-classified,
    chunked count."""
    radius = 0.5 * diameter
    uv = np.random.default_rng(seed).uniform(region.lo, region.hi, (samples, 2))
    dist, _ = cKDTree(log.positions).query(
        region.to_world(uv), distance_upper_bound=float(np.nextafter(radius, np.inf)))
    return int(np.count_nonzero(dist <= radius)) / samples


def point_in_polygon(point, vertices) -> bool:
    """Even-odd crossing test with half-open edges (top vertex in, bottom out):
    the scalar reference of `segmentation.points_in_polygon`."""
    u, v = float(point[0]), float(point[1])
    verts = np.asarray(vertices, dtype=float)
    inside = False
    n = len(verts)
    for i in range(n):
        u1, v1 = verts[i]
        u2, v2 = verts[(i + 1) % n]
        if (v1 <= v) != (v2 <= v):
            cross_u = u1 + (v - v1) / (v2 - v1) * (u2 - u1)
            if u < cross_u:
                inside = not inside
    return inside


def unculled_assignment(cloud: PointCloud, landmarks: FaceLandmarks,
                        intrinsics: CameraIntrinsics) -> np.ndarray:
    """Each point's region index in `build_region_polygons` order, -1 for the
    residual: the first polygon whose even-odd test, run on every point,
    holds the pixel of an in-front point, the camera at the cloud's origin.
    The oracle of `segment_face`'s box cull."""
    pixels, in_front = project_points(cloud.positions, intrinsics,
                                      RigidTransform.identity())
    assigned = np.full(len(cloud), -1)
    for idx, poly in enumerate(build_region_polygons(landmarks)):
        assigned[in_front & (assigned == -1) & points_in_polygon(pixels, poly.vertices)] = idx
    return assigned


class BehindCamera(FacelaserError):
    """Point has non-positive depth in the camera frame."""


def project_point(x, intrinsics: CameraIntrinsics,
                  extrinsics: RigidTransform) -> tuple[float, float]:
    """Pixel coordinates of a world point; extrinsics maps world into camera:
    the scalar reference of `geometry.project_points`.

    Raises BehindCamera when camera-frame depth <= 1e-6.
    """
    p = extrinsics.apply(np.asarray(x, dtype=float))
    if p[2] <= 1e-6:
        raise BehindCamera(f"depth {p[2]:.3g} is not in front of the camera")
    u = intrinsics.fx * p[0] / p[2] + intrinsics.cx
    v = intrinsics.fy * p[1] / p[2] + intrinsics.cy
    return float(u), float(v)
