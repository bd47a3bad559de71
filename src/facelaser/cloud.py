"""Point-cloud container, PLY IO, voxel downsampling, normals, raycasting."""

from __future__ import annotations

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


class PointCloud:
    """Columnar storage for surface samples: positions, optional normals and colors.

    Positions and normals are float64 (N, 3); colors are uint8 (N, 3). The
    frame tag is free-form bookkeeping for which coordinate system the cloud
    lives in. Instances are treated as immutable; all operations return new
    clouds.
    """

    def __init__(self, positions, normals=None, colors=None, frame: str = "world"):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.normals = None if normals is None else np.asarray(normals, dtype=float).reshape(-1, 3)
        self.colors = None if colors is None else np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
        if self.normals is not None and len(self.normals) != len(self.positions):
            raise ValueError("normals length mismatch")
        if self.colors is not None and len(self.colors) != len(self.positions):
            raise ValueError("colors length mismatch")
        self.frame = frame
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
            frame=self.frame,
        )

    def transformed(self, t: RigidTransform, frame: str | None = None) -> "PointCloud":
        """Rigidly move the cloud; normals rotate, colors carry over."""
        return PointCloud(
            t.apply(self.positions),
            None if self.normals is None else t.apply_direction(self.normals),
            None if self.colors is None else self.colors.copy(),
            frame=self.frame if frame is None else frame,
        )


def concatenate(clouds: list[PointCloud], frame: str | None = None) -> PointCloud:
    if not clouds:
        raise EmptyCloud("nothing to concatenate")
    has_n = all(c.has_normals for c in clouds)
    has_c = all(c.colors is not None for c in clouds)
    return PointCloud(
        np.vstack([c.positions for c in clouds]),
        np.vstack([c.normals for c in clouds]) if has_n else None,
        np.vstack([c.colors for c in clouds]) if has_c else None,
        frame=frame if frame is not None else clouds[0].frame,
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
    are skipped.
    """
    with open(path, "rb") as fh:
        data = fh.read()
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
    colors = None
    if all(k in cols for k in ("red", "green", "blue")):
        colors = np.column_stack([cols["red"], cols["green"], cols["blue"]]).astype(np.uint8)
    return PointCloud(positions, normals, colors)


def save_ply(cloud: PointCloud, path, binary: bool = True) -> None:
    """Write the cloud as PLY. Coordinates and normals are stored as float32."""
    names = ["x", "y", "z"]
    arrays = [cloud.positions.astype("<f4")]
    if cloud.has_normals:
        names += ["nx", "ny", "nz"]
        arrays.append(cloud.normals.astype("<f4"))
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {len(cloud)}"]
    header += [f"property float {n}" for n in names]
    if cloud.colors is not None:
        header += [f"property uchar {n}" for n in ("red", "green", "blue")]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fields = [(n, "<f4") for n in names]
            if cloud.colors is not None:
                fields += [(n, "<u1") for n in ("red", "green", "blue")]
            rec = np.zeros(len(cloud), dtype=np.dtype(fields))
            flat = np.hstack(arrays) if arrays else np.zeros((len(cloud), 0))
            for k, n in enumerate(names):
                rec[n] = flat[:, k]
            if cloud.colors is not None:
                for k, n in enumerate(("red", "green", "blue")):
                    rec[n] = cloud.colors[:, k]
            fh.write(rec.tobytes())
        else:
            flat = np.hstack(arrays) if arrays else np.zeros((len(cloud), 0))
            for i in range(len(cloud)):
                vals = ["%.9g" % v for v in flat[i]]
                if cloud.colors is not None:
                    vals += [str(int(v)) for v in cloud.colors[i]]
                fh.write((" ".join(vals) + "\n").encode("ascii"))


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Collapse the cloud onto a leaf-sized grid, one centroid per occupied voxel.

    The grid is anchored at the world origin (index = floor(p / leaf)), which
    makes the operation exactly idempotent: each centroid stays inside its own
    voxel, so a second pass reproduces the same cloud. Normals are averaged
    and renormalized, colors averaged. Output is ordered by voxel index.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    if leaf <= 0:
        raise ValueError("leaf must be positive")
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
    return PointCloud(positions, normals, colors, frame=cloud.frame)


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
    cov = np.einsum("nij,nik->njk", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]
    flip = np.einsum("ij,ij->i", normals, viewpoint - cloud.positions) < 0.0
    normals[flip] *= -1.0
    return PointCloud(cloud.positions.copy(), normals,
                      None if cloud.colors is None else cloud.colors.copy(),
                      frame=cloud.frame)


@dataclass
class RayHit:
    point: np.ndarray
    normal: np.ndarray | None
    distance: float


def raycast(cloud: PointCloud, origin, direction, radius: float) -> RayHit | None:
    """First cloud point within `radius` of the ray, nearest along it.

    Returns None on a miss. The reported distance is Euclidean from the ray
    origin to the hit point.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = np.asarray(direction, dtype=float)
    dn = np.linalg.norm(d)
    if abs(dn - 1.0) > 1e-6:
        raise ValueError("direction must be a unit vector")
    d = d / dn
    origin = np.asarray(origin, dtype=float)
    rel = cloud.positions - origin
    t = rel @ d
    perp2 = np.einsum("ij,ij->i", rel, rel) - t * t
    # Clamp tiny negative values from cancellation before comparing.
    hit = (t > 0.0) & (np.maximum(perp2, 0.0) <= radius * radius)
    if not hit.any():
        return None
    candidates = np.where(hit)[0]
    best = candidates[np.argmin(t[candidates])]
    return RayHit(
        cloud.positions[best].copy(),
        None if cloud.normals is None else cloud.normals[best].copy(),
        float(np.linalg.norm(rel[best])),
    )
