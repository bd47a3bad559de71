"""Shared synthetic fixtures: analytic clouds, landmark layouts and their
JSON writer, path stubs, the face frame from the eyes, 4x4 pose matrices,
and the reference implementations (brute-force raycast, np.unique voxel grid,
the re-stacked voxel grid sums, all-pairs voxel neighbours, per-voxel loop and
k-NN normals, eigh normals, the mask-per-step strip binning, the per-window
strip sweep, one patch's tool frame and the per-patch poses, the
dict-per-record path file writer and reader, the full-row traj.csv and
per-row shots.csv writers, the DictReader shots
reader, the per-point SVG overview, the simulator's tick loop over a segment
and its per-tick trigger, the key-dict voxel lookup, the fresh-lookup ICP,
the full-draw Monte Carlo coverage and the
tree-queried chunked count, the stack-every-column PLY parser and the
record-array PLY writer, the scalar point-in-polygon test and pixel
projection, the unculled region assignment) that the fast versions are tested
against."""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
from scipy.spatial import cKDTree

from facelaser import registration, simulator
from facelaser.cli import PATH_KEYS, SHOT_VALUES
from facelaser.cloud import (
    _PLY_TYPES,
    PointCloud,
    RayHit,
    VoxelGrid,
    _parse_header,
    _run_starts,
)
from facelaser.errors import (
    DegenerateNormal,
    FacelaserError,
    InvalidParam,
    ParseError,
)
from facelaser.geometry import (
    Y_AXIS,
    Z_AXIS,
    CameraIntrinsics,
    RigidTransform,
    project_points,
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


def as_matrix(t: RigidTransform) -> np.ndarray:
    """The 4x4 homogeneous matrix of a rigid transform."""
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


class DegenerateInput(FacelaserError):
    """Input geometry collapses (coincident eyes, baseline parallel to the optical axis)."""


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize v; raises DegenerateInput on (near-)zero norm."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise DegenerateInput("cannot normalize a zero-length vector")
    return v / n


def face_pose_from_eyes(d_l, d_r) -> RigidTransform:
    """Face frame from the two detected eye positions in camera coordinates.

    Origin is the eye midpoint; x points from the origin through the right
    eye, y completes [0,0,1] x x, z = x cross y.
    """
    d_l = np.asarray(d_l, dtype=float)
    d_r = np.asarray(d_r, dtype=float)
    if np.linalg.norm(d_r - d_l) < 1e-6:
        raise DegenerateInput("eye positions coincide")
    origin = 0.5 * (d_l + d_r)
    alpha = unit(d_r - origin)
    c = np.cross(Z_AXIS, alpha)
    if np.linalg.norm(c) < 1e-9:
        raise DegenerateInput("eye baseline is parallel to the optical axis")
    beta = c / np.linalg.norm(c)
    gamma = unit(np.cross(alpha, beta))
    return RigidTransform(np.column_stack([alpha, beta, gamma]), origin)


def landmarks_to_json(landmarks: FaceLandmarks, path) -> None:
    """Write landmarks in the format FaceLandmarks.from_json reads."""
    doc = {
        "points": [[float(u), float(v)] for u, v in landmarks.points],
        "width": landmarks.width,
        "height": landmarks.height,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


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
        return keys[:, 0], lambda dx, dy, dz: 0
    lo, hi = keys.min(axis=0).tolist(), keys.max(axis=0).tolist()
    sy, sz = hi[1] - lo[1] + 1 + pad, hi[2] - lo[2] + 1 + pad
    if (hi[0] - lo[0] + 2 + pad) * sy * sz * scale > 2**63:
        return None
    code = ((keys[:, 0] - lo[0]) * sy + (keys[:, 1] - lo[1])) * sz + (keys[:, 2] - lo[2])
    return code, lambda dx, dy, dz: (dx * sy + dy) * sz + dz


class RestackedVoxelGrid(VoxelGrid):
    """A VoxelGrid whose add sorts the axis0_packing codes of all keys with a
    stable argsort, stacks the stored sums above the new rows and bins them
    all again, one bincount per column, from 0.0. Keys too wide for a code
    are a ValueError, as in VoxelGrid."""

    def add(self, cloud: PointCloud) -> np.ndarray:
        idx = np.floor(cloud.positions / self.leaf)
        if not ((idx >= -2.0**63) & (idx < 2.0**63)).all():
            raise ValueError("voxel indices must fit in int64")
        keys = np.vstack([self.keys, idx.astype(np.int64)])
        packed = axis0_packing(keys, 0)
        if packed is None:
            raise ValueError("voxel keys do not fit in an int64 code")
        order = np.argsort(packed[0], kind="stable")
        first = _run_starts(packed[0][order])
        self.keys = keys[order[first]]
        inverse = np.empty(len(keys), dtype=np.intp)
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


def dict_lookup(grid: VoxelGrid, points: np.ndarray) -> tuple[list, list]:
    """Each point's voxel row by a dict of the grid's keys, -1 where none,
    and whether its key lies in the keys' box, in Python integers."""
    rows = {tuple(key): row for row, key in enumerate(grid.keys.tolist())}
    lo, hi = grid.keys.min(axis=0).tolist(), grid.keys.max(axis=0).tolist()
    want_rows, inside = [], []
    for p in (points / grid.leaf).tolist():
        key = tuple(math.floor(c) if math.isfinite(c) else None for c in p)
        inside.append(None not in key and all(a <= k <= b for k, a, b in zip(key, lo, hi)))
        want_rows.append(rows.get(key, -1))
    return want_rows, inside


def model_grid(cloud: PointCloud, leaf: float) -> VoxelGrid:
    """The VoxelGrid at `leaf` of one cloud: an ICP target."""
    grid = VoxelGrid(leaf)
    grid.add(cloud)
    return grid


def fresh_lookup_icp(*args, **kwargs) -> registration.IcpResult:
    """icp_point_to_plane with every evaluation looking up every source
    point afresh (VoxelGrid.lookup without `last`): the oracle of the
    row cache."""
    lookup = VoxelGrid.lookup
    with mock.patch.object(VoxelGrid, "lookup", lambda grid, points, last=None:
                           lookup(grid, points)):
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return out


def row_traj_csv(traj, path) -> None:
    """traj.csv with every column of every row through one "%.9g" format:
    the writer before constant columns were formatted once."""
    table = np.column_stack([traj.time, traj.position, traj.delta_d,
                             traj.dist_l, traj.repulsing])
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("time_s,x,y,z,delta_d,dist_l,repulsing_flag\n")
        f.write("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n" * len(table)
                % tuple(table.ravel().tolist()))


def row_shots_csv(log: ShotLog, path) -> None:
    """shots.csv as csv.writer writes it, one row per shot, values "%.9g".
    Each row is written with a CR LF line end, which makes the writer quote a
    carriage return in a label, and ends with its LF alone."""
    def write(fields):
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(fields)
        f.write(line.getvalue()[:-2] + "\n")

    with open(path, "w", encoding="utf-8", newline="") as f:
        write(["index", *SHOT_VALUES, "strip", "segment"])
        table = np.column_stack([log.time, log.positions, log.axis_angle]).tolist()
        for i, (row, strip, label) in enumerate(zip(table, log.strip.tolist(),
                                                    log.segment.tolist())):
            write([i, *(format(v, ".9g") for v in row), strip, label])


def dict_read_shots_csv(path) -> ShotLog:
    """read_shots_csv through csv.DictReader, one float() per field."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        values = np.array([[float(r[k]) for k in SHOT_VALUES] for r in rows],
                          dtype=float).reshape(-1, len(SHOT_VALUES))
        strips = [int(r["strip"]) for r in rows]
        segments = [r["segment"] for r in rows]
    except KeyError as exc:
        raise ParseError(f"{path}: shot log without column {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite shot value")
    return ShotLog(values[:, 0], values[:, 1:4], values[:, 4:], strips, segments)


def point_svg_overview(shots, paths, diameter: float, out) -> None:
    """The SVG overview with two f-strings per point."""
    pts = [shots[:, :2]]
    for p in (paths or {}).values():
        pts.append(p.positions[:, :2])
    allp = np.vstack(pts) * 1000.0
    r_mm = 500.0 * diameter
    lo = allp.min(axis=0) - 4.0 * r_mm
    hi = allp.max(axis=0) + 4.0 * r_mm
    size = hi - lo

    def sx(v):
        return f"{v - lo[0]:.3f}"

    def sy(v):
        return f"{hi[1] - v:.3f}"

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {size[0]:.3f} {size[1]:.3f}">',
             f'<rect width="{size[0]:.3f}" height="{size[1]:.3f}" fill="white"/>']
    for label, p in sorted((paths or {}).items()):
        uv = p.positions[:, :2] * 1000.0
        coords = " ".join(f"{sx(u)},{sy(v)}" for u, v in uv)
        title = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(f'<polyline points="{coords}" fill="none" stroke="black" '
                     f'stroke-width="0.4"><title>{title}</title></polyline>')
    for u, v in shots[:, :2] * 1000.0:
        lines.append(f'<circle cx="{sx(u)}" cy="{sy(v)}" r="{r_mm:.3f}" '
                     f'fill="none" stroke="red" stroke-width="0.25"/>')
    lines.append("</svg>")
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def rotation_from_normal(eta, reference=Y_AXIS) -> np.ndarray:
    """Orientation whose z-axis is the unit surface normal eta.

    x = reference cross eta (normalized), y = eta cross x. Raises
    DegenerateNormal when eta is parallel to the reference axis; callers may
    retry with Z_AXIS as the fallback crossing vector.
    """
    eta = np.asarray(eta, dtype=float)
    n = np.linalg.norm(eta)
    if abs(n - 1.0) > 1e-6:
        raise ValueError("eta must be a unit vector")
    gamma = eta / n
    c = np.cross(np.asarray(reference, dtype=float), gamma)
    cn = np.linalg.norm(c)
    if cn < 1e-6:
        raise DegenerateNormal("normal is parallel to the crossing reference axis")
    alpha = c / cn
    beta = unit(np.cross(gamma, alpha))
    return np.column_stack([alpha, beta, gamma])


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


def tick_trigger(delta_d: float, moved: float, armed: bool,
                 diameter: float) -> tuple[float, bool]:
    """The distance trigger on one control tick, the reference of
    `simulator._trigger`: while armed, the tick's travel adds to delta_d, and
    the laser fires once the sum reaches diameter * FIRE_FRACTION, leaving
    delta_d at 0. Returns delta_d after the tick and whether it fired."""
    if armed:
        delta_d += moved
        if delta_d >= diameter * simulator.FIRE_FRACTION:
            return 0.0, True
    return delta_d, False


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


def tree_cells(tree: cKDTree, radius: float, region: PlanarRegion, samples: int):
    """`simulator._classify_cells`' grid, each cell classified by one kd-tree
    query of its centre: covered when a shot lies within radius - half of
    it, empty when none lies within radius + half, mixed otherwise (the
    rounding margin as there). Returns the int8 states over the row-major
    cells, the side and the (n_u, n_v) cell counts."""
    width = region.hi - region.lo
    side = max(radius / 16.0, width.max() * 2.0 ** -60)
    while np.prod(np.ceil(width / side)) > max(samples / 8.0, 1.0):
        side = min(2.0 * side, width.max())
    shape = np.ceil(width / side).astype(np.int64)
    centres = region.to_world(region.lo + side * (np.indices(shape).reshape(2, -1).T + 0.5))
    u, v = region.u_axis, region.v_axis
    half = 0.5 * side * max(np.linalg.norm(u + v), np.linalg.norm(u - v))
    scale = max(np.abs(tree.data).max(), np.abs(region.origin).max()
                + np.abs([region.lo, region.hi]).max() * (np.abs(u).max() + np.abs(v).max()))
    margin = 1e-9 * (1.0 + scale)
    near, _ = tree.query(centres, distance_upper_bound=radius + half + margin)
    state = np.where(np.isfinite(near), simulator.MIXED, simulator.EMPTY).astype(np.int8)
    state[near < radius - half - margin] = simulator.COVERED
    return state, side, shape


def tree_coverage(log: ShotLog, diameter: float, region: PlanarRegion,
                  samples: int, seed: int) -> float:
    """coverage_metrics' chunked count with the cells classified by a kd-tree
    of the shots (`tree_cells`), covered cells counted whole and every
    sample of a mixed cell queried in the tree, the cell index taken from
    the (n, 2) draw: the timing reference of the cell classification and
    the per-cell candidate tests."""
    radius = 0.5 * diameter
    tree = cKDTree(log.positions)
    state, side, shape = tree_cells(tree, radius, region, samples)
    rng = np.random.default_rng(seed)
    covered = 0
    for start in range(0, samples, simulator.MC_CHUNK):
        uv = rng.uniform(region.lo, region.hi, (min(simulator.MC_CHUNK, samples - start), 2))
        ij = np.minimum(((uv - region.lo) / side).astype(np.int64), shape - 1)
        cell_state = state[ij[:, 0] * shape[1] + ij[:, 1]]
        covered += int(np.count_nonzero(cell_state == simulator.COVERED))
        dist, _ = tree.query(region.to_world(uv[cell_state >= simulator.MIXED]),
                             distance_upper_bound=float(np.nextafter(radius, np.inf)))
        covered += int(np.count_nonzero(dist <= radius))
    return covered / samples


def stacked_parse_ply(data: bytes) -> PointCloud:
    """`cloud._parse_ply` with every binary property cast to float on its own
    and the blocks stacked from those columns: the reference of the casts
    straight into (n, 3) blocks."""
    fmt, count, props, body_start = _parse_header(data)
    if fmt == "ascii":
        text = data[body_start:].decode("ascii", errors="replace")
        table = np.array([[float(v) for v in r.split()] for r in text.splitlines()
                          if r.strip()]).reshape(count, len(props))
        cols = {name: table[:, k] for k, (name, _) in enumerate(props)}
    else:
        dt = np.dtype([(name, _PLY_TYPES[typ][0]) for name, typ in props])
        rec = np.frombuffer(data[body_start:body_start + dt.itemsize * count], dtype=dt)
        cols = {name: rec[name].astype(float) for name, _ in props}

    def stack(names):
        if not all(n in cols for n in names):
            return None
        return np.column_stack([cols[n] for n in names])

    colors = stack(("red", "green", "blue"))
    return PointCloud(stack(("x", "y", "z")), stack(("nx", "ny", "nz")),
                      None if colors is None else colors.astype(np.uint8))


def record_save_ply(cloud: PointCloud, path) -> None:
    """`cloud.save_ply` writing every cloud through a structured record array:
    the reference of its one-block write of clouds without colors."""
    names = ["x", "y", "z"] + (["nx", "ny", "nz"] if cloud.has_normals else [])
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {n}" for n in names]
    fields = [(n, "<f4") for n in names]
    if cloud.colors is not None:
        header += [f"property uchar {n}" for n in ("red", "green", "blue")]
        fields += [(n, "<u1") for n in ("red", "green", "blue")]
    header.append("end_header")
    rec = np.zeros(len(cloud), dtype=np.dtype(fields))
    blocks = [cloud.positions] + ([cloud.normals] if cloud.has_normals else [])
    flat = np.hstack([b.astype("<f4") for b in blocks])
    for k, n in enumerate(names):
        rec[n] = flat[:, k]
    if cloud.colors is not None:
        for k, n in enumerate(("red", "green", "blue")):
            rec[n] = cloud.colors[:, k]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(rec.tobytes())


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
