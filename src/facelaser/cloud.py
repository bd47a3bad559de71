"""Point-cloud container, PLY IO, voxel downsampling, normals, raycasting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud, MissingField, ParseError, TooFewPoints
from .geometry import RigidTransform

_PLY_TYPES = {
    "float": ("<f4", 4), "float32": ("<f4", 4),
    "double": ("<f8", 8), "float64": ("<f8", 8),
    "uchar": ("<u1", 1), "uint8": ("<u1", 1),
    "char": ("<i1", 1), "int8": ("<i1", 1),
    "short": ("<i2", 2), "ushort": ("<u2", 2),
    "int": ("<i4", 4), "int32": ("<i4", 4),
    "uint": ("<u4", 4), "uint32": ("<u4", 4),
}

# raycast covers a ray with at most this many search balls, so a radius that
# is tiny against the cloud's extent widens the balls instead of multiplying them.
MAX_RAY_BALLS = 1024


class PointCloud:
    """Columnar storage for surface samples: positions, optional normals and colors.

    Positions and normals are float64 (N, 3); colors are uint8 (N, 3).
    Instances are treated as immutable; all operations return new clouds.
    """

    def __init__(self, positions, normals=None, colors=None):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.normals = None if normals is None else np.asarray(normals, dtype=float).reshape(-1, 3)
        self.colors = None if colors is None else np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
        if self.normals is not None and len(self.normals) != len(self.positions):
            raise ValueError("normals length mismatch")
        if self.colors is not None and len(self.colors) != len(self.positions):
            raise ValueError("colors length mismatch")
        self._tree = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise EmptyCloud("empty cloud has no bounds")
        return self.positions.min(axis=0), self.positions.max(axis=0)

    def kdtree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.positions)
        return self._tree

    def select(self, mask_or_index) -> "PointCloud":
        return PointCloud(
            self.positions[mask_or_index],
            None if self.normals is None else self.normals[mask_or_index],
            None if self.colors is None else self.colors[mask_or_index],
        )

    def transformed(self, t: RigidTransform) -> "PointCloud":
        """Rigidly move the cloud; normals rotate, colors carry over."""
        return PointCloud(
            t.apply(self.positions),
            None if self.normals is None else t.apply_direction(self.normals),
            None if self.colors is None else self.colors.copy(),
        )


def concatenate(clouds: list[PointCloud]) -> PointCloud:
    if not clouds:
        raise EmptyCloud("nothing to concatenate")
    has_n = all(c.has_normals for c in clouds)
    has_c = all(c.colors is not None for c in clouds)
    return PointCloud(
        np.vstack([c.positions for c in clouds]),
        np.vstack([c.normals for c in clouds]) if has_n else None,
        np.vstack([c.colors for c in clouds]) if has_c else None,
    )


def _parse_header(data: bytes):
    end = data.find(b"end_header")
    if end < 0:
        raise ParseError("no end_header found")
    newline = data.find(b"\n", end)
    if newline < 0:
        raise ParseError("header not newline-terminated")
    body_start = newline + 1
    lines = data[:end].decode("ascii", errors="replace").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing ply magic on line 1")
    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.strip().split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported format on line {ln}")
            fmt = tok[1]
        elif tok[0] == "element":
            if tok[1] == "vertex":
                in_vertex = True
                count = int(tok[2])
            else:
                if in_vertex and int(tok[2]) != 0:
                    raise ParseError(f"unsupported non-empty element '{tok[1]}' on line {ln}")
                in_vertex = False
        elif tok[0] == "property" and in_vertex:
            if tok[1] == "list":
                raise ParseError(f"list properties are unsupported (line {ln})")
            if tok[1] not in _PLY_TYPES:
                raise ParseError(f"unknown property type '{tok[1]}' on line {ln}")
            props.append((tok[2], tok[1]))
    if fmt is None:
        raise ParseError("header has no format line")
    if count is None:
        raise ParseError("header has no vertex element")
    return fmt, count, props, body_start


def load_ply(path) -> PointCloud:
    """Read a PLY vertex cloud (ascii or binary_little_endian).

    Requires x/y/z properties (MissingField otherwise); nx/ny/nz and
    red/green/blue are picked up when present, other fixed-size properties
    are skipped. A NaN or infinite x/y/z or nx/ny/nz raises ParseError
    naming the (1-based) vertex row, a count or value that is not a number
    raises it too, and every ParseError names the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_ply(data)
    except ParseError as exc:               # MissingField too
        raise type(exc)(f"{path}: {exc}") from exc
    except ValueError as exc:               # from int() and float()
        raise ParseError(f"{path}: {exc}") from exc


def _parse_ply(data: bytes) -> PointCloud:
    fmt, count, props, body_start = _parse_header(data)
    names = [p for p, _ in props]
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise MissingField(f"vertex element lacks property '{coord}'")

    if fmt == "ascii":
        text = data[body_start:].decode("ascii", errors="replace")
        rows = [r.split() for r in text.splitlines() if r.strip()]
        if len(rows) != count:
            raise ParseError(f"header claims {count} vertices, file has {len(rows)} rows")
        table = np.zeros((count, len(props)))
        for i, row in enumerate(rows):
            if len(row) != len(props):
                raise ParseError(f"vertex row {i + 1} has {len(row)} values, expected {len(props)}")
            table[i] = [float(v) for v in row]
        cols = {name: table[:, k] for k, (name, _) in enumerate(props)}
    else:
        dt = np.dtype([(name, _PLY_TYPES[typ][0]) for name, typ in props])
        body = data[body_start:]
        need = dt.itemsize * count
        if len(body) < need:
            raise ParseError(f"binary body holds {len(body)} bytes, expected {need}")
        rec = np.frombuffer(body[:need], dtype=dt)
        cols = {name: rec[name].astype(float) for name, _ in props}

    positions = np.column_stack([cols["x"], cols["y"], cols["z"]])
    normals = None
    if all(k in cols for k in ("nx", "ny", "nz")):
        normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
    for label, block in (("x/y/z", positions), ("nx/ny/nz", normals)):
        if block is not None and not np.isfinite(block).all():
            row = np.flatnonzero(~np.isfinite(block).all(axis=1))[0] + 1
            raise ParseError(f"vertex row {row} has a non-finite {label}")
    colors = None
    if all(k in cols for k in ("red", "green", "blue")):
        colors = np.column_stack([cols["red"], cols["green"], cols["blue"]]).astype(np.uint8)
    return PointCloud(positions, normals, colors)


def save_ply(cloud: PointCloud, path) -> None:
    """Write the cloud as binary PLY. Coordinates and normals are stored as float32."""
    names = ["x", "y", "z"]
    arrays = [cloud.positions.astype("<f4")]
    if cloud.has_normals:
        names += ["nx", "ny", "nz"]
        arrays.append(cloud.normals.astype("<f4"))
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {n}" for n in names]
    if cloud.colors is not None:
        header += [f"property uchar {n}" for n in ("red", "green", "blue")]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fields = [(n, "<f4") for n in names]
        if cloud.colors is not None:
            fields += [(n, "<u1") for n in ("red", "green", "blue")]
        rec = np.zeros(len(cloud), dtype=np.dtype(fields))
        flat = np.hstack(arrays)
        for k, n in enumerate(names):
            rec[n] = flat[:, k]
        if cloud.colors is not None:
            for k, n in enumerate(("red", "green", "blue")):
                rec[n] = cloud.colors[:, k]
        fh.write(rec.tobytes())


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Collapse the cloud onto a leaf-sized grid, one centroid per occupied voxel.

    The grid is anchored at the world origin (index = floor(p / leaf)), which
    makes the operation exactly idempotent: each centroid stays inside its own
    voxel, so a second pass reproduces the same cloud. Normals are averaged
    and renormalized, colors averaged. Output is ordered by voxel index.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    if not 0 < leaf < np.inf:
        raise ValueError(f"leaf must be positive and finite, got {leaf}")
    idx = np.floor(cloud.positions / leaf)
    # NaN fails both comparisons, so this also rejects non-finite coordinates.
    if not ((idx >= -2.0**63) & (idx < 2.0**63)).all():
        raise ValueError("coordinates must be finite, and within 2**63 leaves of "
                         "the origin so that voxel indices fit in int64")
    idx = idx.astype(np.int64)
    # A stable sort in lexicographic (x, y, z) order: each voxel's rows are
    # contiguous and, within it, in input order.
    order = np.lexsort(idx.T[::-1])
    ordered = idx[order]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(idx), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    n_vox = int(first.sum())
    counts = np.bincount(inverse, minlength=n_vox).astype(float)

    def mean_per_voxel(values: np.ndarray) -> np.ndarray:
        # bincount adds each voxel's rows in input order, so the sums are the
        # ones a sequential loop over the points gives.
        acc = np.column_stack([np.bincount(inverse, weights=col, minlength=n_vox)
                               for col in values.T])
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


# A cross product of two rows of A - l0 I shorter than this (A scaled to a
# largest entry of 1) means l0 is repeated or nearly so. The closed-form
# vector's error grows as eps / gap**2: above 1e-2 it stays within ~1e-12 of
# eigh's on random matrices, and no row of a noisy 60k-point face view falls
# below it.
NORMAL_CROSS_FLOOR = 1e-2


def _smallest_eigenvectors(cov: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the smallest eigenvalue of (n, 3, 3) symmetric
    positive semi-definite matrices.

    l0 comes from the trigonometric form of the characteristic cubic (Smith,
    "Eigenvalues of a symmetric 3x3 matrix", CACM 4(4), 1961); the vector is
    the longest cross product of two rows of A - l0 I. Rows where l0 is
    (nearly) repeated, so that no cross product is long enough to trust,
    take np.linalg.eigh's vector instead.
    """
    scale = np.abs(cov).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    a = cov / scale[:, None, None]
    a00, a11, a22 = a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]
    a01, a02, a12 = a[:, 0, 1], a[:, 0, 2], a[:, 1, 2]
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
           + a02 * (a01 * a12 - b11 * a02))
    # A = qI (p = 0) leaves r NaN; its cross products are NaN and fall back.
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(0.5 * det / (p * p * p), -1.0, 1.0)
        l0 = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)
        m = a - l0[:, None, None] * np.eye(3)
        cross = np.stack([np.cross(m[:, 0], m[:, 1]), np.cross(m[:, 0], m[:, 2]),
                          np.cross(m[:, 1], m[:, 2])], axis=1)
        length2 = np.einsum("nij,nij->ni", cross, cross)
        best = np.argmax(length2, axis=1)
        rows = np.arange(len(a))
        longest = length2[rows, best]
        vecs = cross[rows, best] / np.sqrt(longest)[:, None]
    weak = ~(longest > NORMAL_CROSS_FLOOR ** 2)
    if weak.any():
        vecs[weak] = np.linalg.eigh(cov[weak])[1][:, :, 0]
    return vecs


def estimate_normals(cloud: PointCloud, k: int, viewpoint) -> PointCloud:
    """Per-point normals from the smallest eigenvector of the k-NN covariance.

    Each normal is flipped to point toward the viewpoint (the sensor side of
    the surface). Requires more than k points and k >= 3.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    n = len(cloud)
    if n <= k:
        raise TooFewPoints(f"{n} points is not enough for k={k} neighborhoods")
    viewpoint = np.asarray(viewpoint, dtype=float)
    _, nbr = cloud.kdtree().query(cloud.positions, k=k + 1)
    neigh = cloud.positions[nbr]                       # (n, k+1, 3), self included
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    normals = _smallest_eigenvectors(centered.transpose(0, 2, 1) @ centered)
    flip = np.einsum("ij,ij->i", normals, viewpoint - cloud.positions) < 0.0
    normals[flip] *= -1.0
    return PointCloud(cloud.positions.copy(), normals,
                      None if cloud.colors is None else cloud.colors.copy())


@dataclass
class RayHit:
    point: np.ndarray
    normal: np.ndarray | None
    distance: float


def raycast(cloud: PointCloud, origin, direction, radius: float,
            max_range: float = math.inf) -> RayHit | None:
    """First cloud point within `radius` of the ray, nearest along it.

    A point counts when its distance t along the ray lies in (0, max_range];
    the smallest t wins, the lowest index on a tie. Returns None on a miss.
    The reported distance is Euclidean from the ray origin to the hit point.
    This is raycast_many on a batch of one ray.
    """
    origin = np.asarray(origin, dtype=float).reshape(1, 3)
    direction = np.asarray(direction, dtype=float).reshape(1, 3)
    index, distance = raycast_many(cloud, origin, direction, radius, max_range)
    if index[0] < 0:
        return None
    best = index[0]
    return RayHit(
        cloud.positions[best].copy(),
        None if cloud.normals is None else cloud.normals[best].copy(),
        float(distance[0]),
    )


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values of a sorted array begins."""
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def raycast_many(cloud: PointCloud, origins, directions, radius: float,
                 max_range: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """raycast for a batch of rays: each ray's hit index and distance.

    Returns the (n,) cloud index of every ray's hit, -1 on a miss, and the
    (n,) Euclidean distance from its origin to the hit, inf on a miss. Each
    ray's hit is the one a scan of every point gives, bit for bit.

    The search runs on the cloud's kd-tree. Each ray is clipped to
    [0, max_range] and to the tree's bounding box grown by `radius`, and its
    clipped span is covered by balls every h >= 2 radius, each of radius
    hypot(radius, h / 2): every point within `radius` of the span lies in one
    of them. One query marks the balls of all rays that hold a point, one
    more gathers their points, and the exact cylinder test runs on those
    points alone.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    n = len(origins)
    if len(d) != n:
        raise ValueError(f"{n} ray origins but {len(d)} directions")
    if not (np.isfinite(origins).all() and np.isfinite(d).all()):
        raise ValueError("ray origin and direction must be finite")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if not max_range > 0.0:
        raise ValueError("max_range must be positive")
    # Row-wise dot products, rounded as np.linalg.norm rounds one vector.
    dn = np.sqrt((d[:, None, :] @ d[:, :, None]).reshape(n))
    if (np.abs(dn - 1.0) > 1e-6).any():
        raise ValueError("direction must be a unit vector")
    d = d / dn[:, None]
    index = np.full(n, -1, dtype=np.intp)
    distance = np.full(n, math.inf)
    if len(cloud) == 0 or n == 0:
        return index, distance

    tree = cloud.kdtree()
    # A hair of slack keeps rounding in the clip and the ball centres from
    # dropping a point that sits exactly on a boundary.
    extent = max(map(abs, tree.mins.tolist() + tree.maxes.tolist()))
    slack = 1e-9 * (1.0 + np.maximum(np.abs(origins).max(axis=1), extent))
    pad = (radius + slack)[:, None]
    lo, hi = tree.mins - pad - origins, tree.maxes + pad - origins
    flat = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = lo / d, hi / d
    # A ray parallel to a slab stays in it, or misses the box.
    a[flat], b[flat] = -math.inf, math.inf
    out = (flat & ((lo > 0.0) | (hi < 0.0))).any(axis=1)
    t0 = np.maximum(np.minimum(a, b).max(axis=1), 0.0)
    t1 = np.minimum(np.maximum(a, b).min(axis=1), max_range)
    live = np.flatnonzero(~out & (t0 <= t1))
    if not len(live):
        return index, distance

    t0, span = t0[live], t1[live] - t0[live]
    h = np.maximum(span / (MAX_RAY_BALLS - 1), 2.0 * radius)
    count = np.ceil(span / h).astype(np.intp) + 1
    ray = np.repeat(live, count)
    step = np.arange(len(ray)) - np.repeat(np.cumsum(count) - count, count)
    at = np.repeat(t0, count) + np.repeat(h, count) * step
    centres = origins[ray] + at[:, None] * d[ray]
    reach = np.repeat(np.hypot(radius, 0.5 * h) + slack[live], count)
    nearest, _ = tree.query(centres, distance_upper_bound=float(reach.max()))
    occupied = nearest <= reach
    if not occupied.any():
        return index, distance
    balls = tree.query_ball_point(centres[occupied], reach[occupied], return_sorted=False)
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    idx = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                      count=int(sizes.sum()))
    # One row per point of an occupied ball, grouped by ray; a point in two
    # balls of a ray has two rows.
    ray = np.repeat(ray[occupied], sizes)
    rel = np.zeros((len(idx) + 1, 3))
    np.subtract(cloud.positions[idx], origins[ray], out=rel[:-1])
    # t as the scan rounds it: one matrix-vector product per ray. numpy takes
    # a one-row matrix times a vector as a dot product, which rounds
    # differently, so a ray with one row gets a spare second one, unless the
    # cloud (and so the scan's matrix) has a single point.
    rows = 2 if len(cloud) > 1 else 1
    first = np.flatnonzero(_run_starts(ray)).tolist()
    t = np.empty(len(idx))
    for lo_row, hi_row in zip(first, first[1:] + [len(idx)]):
        t[lo_row:hi_row] = (rel[lo_row:max(hi_row, lo_row + rows)]
                            @ d[ray[lo_row]])[:hi_row - lo_row]
    rel = rel[:-1]
    perp2 = np.einsum("ij,ij->i", rel, rel) - t * t
    # Clamp tiny negative values from cancellation before comparing.
    candidates = np.flatnonzero((t > 0.0) & (t <= max_range)
                                & (np.maximum(perp2, 0.0) <= radius * radius))
    if not len(candidates):
        return index, distance
    # Nearest along each ray, the lowest index on a tie.
    order = candidates[np.lexsort((idx[candidates], t[candidates], ray[candidates]))]
    best = order[_run_starts(ray[order])]
    hit = rel[best]
    index[ray[best]] = idx[best]
    distance[ray[best]] = np.sqrt((hit[:, None, :] @ hit[:, :, None]).reshape(-1))
    return index, distance
