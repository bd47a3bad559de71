"""Point-cloud container, PLY IO, voxel downsampling, normals, raycasting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud, MissingField, ParseError, TooFewPoints
from .geometry import RigidTransform, norms_by_column, row_norms

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
        """The cloud's kd-tree, built once, by sliding-midpoint splits.

        Unbalanced, uncompacted nodes (Maneewongvatana & Mount, "It's okay to
        be skinny, if your friends are fat", 1999) build about twice as fast
        as the default median splits on a face scan, and answer the guard's
        bounded nearest-point queries about three times as fast.
        Queries are exact either way: only the index returned on an exact
        distance tie can differ. Points clustered geometrically (x = 2^-k)
        or on a line can make a query several times slower.
        """
        if self._tree is None:
            self._tree = cKDTree(self.positions, balanced_tree=False,
                                 compact_nodes=False)
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


def _packing(keys: np.ndarray, pad: int, scale: int = 1):
    """One int64 code per row of (n, 3) int64 keys, or None.

    A key's code is ((x - x0) * sy + y - y0) * sz + z - z0, for the keys'
    lowest corner (x0, y0, z0) and radices sy and sz that leave `pad` unused
    values past each y and z. So codes sort as the keys do lexicographically,
    and a key moved by up to `pad` on each axis packs to no key's code but
    its own. Returns the codes and the function that packs such a move, or
    None when there are no keys, or their box is too wide for every code in
    it, moved or times `scale`, to fit in int64.
    """
    if not len(keys):
        return None
    # Python ints, so that the size check itself cannot overflow. One reduce
    # per column: numpy's axis-0 reduce of (n, 3) rows is ~15 times slower.
    lo, hi = [int(c.min()) for c in keys.T], [int(c.max()) for c in keys.T]
    sy, sz = hi[1] - lo[1] + 1 + pad, hi[2] - lo[2] + 1 + pad
    if (hi[0] - lo[0] + 2 + pad) * sy * sz * scale > 2**63:
        return None
    code = ((keys[:, 0] - lo[0]) * sy + (keys[:, 1] - lo[1])) * sz + (keys[:, 2] - lo[2])
    return code, lambda dx, dy, dz: (dx * sy + dy) * sz + dz


_KEY_RECORD = np.dtype([("x", np.int64), ("y", np.int64), ("z", np.int64)])


def _records(keys: np.ndarray) -> np.ndarray:
    """(n, 3) int64 keys as n (x, y, z) records, which numpy compares, sorts
    and searches lexicographically."""
    return np.ascontiguousarray(keys).view(_KEY_RECORD).reshape(-1)


class VoxelGrid:
    """Running per-voxel sums and counts of every cloud added so far.

    Voxels are leaf-sized and anchored at the world origin (index =
    floor(p / leaf)), and kept in lexicographic index order. Each holds the
    number of its points and the sums of their positions, normals and colors;
    normals and colors are kept while every cloud added has them. A voxel's
    sums are its points' values added in input order, so adding clouds one by
    one gives the sums, bit for bit, of one pass over their concatenation.

    Where the keys' box is small enough, each key is handled as one int64
    code (`_packing`); elsewhere, as three columns.
    """

    def __init__(self, leaf: float):
        if not 0 < leaf < np.inf:
            raise ValueError(f"leaf must be positive and finite, got {leaf}")
        self.leaf = leaf
        self.keys = np.empty((0, 3), dtype=np.int64)
        self.sums: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, cloud: PointCloud) -> np.ndarray:
        """Add the cloud's points; return the voxel of each, as a row of the
        grid's new `keys`."""
        idx = np.floor(cloud.positions / self.leaf)
        # NaN fails both comparisons, so this also rejects non-finite coordinates.
        if not ((idx >= -2.0**63) & (idx < 2.0**63)).all():
            raise ValueError("coordinates must be finite, and within 2**63 leaves of "
                             "the origin so that voxel indices fit in int64")
        keys = np.vstack([self.keys, idx.astype(np.int64)])
        n = len(keys)
        # Rows sorted in lexicographic (x, y, z) order and, within a voxel, in
        # input order, its stored sums first: by one int64 code whose low bits
        # are the row number, or else by a stable sort of the three columns.
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
        self.keys = np.take(keys, order[first], axis=0)
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1

        rows = {"count": np.ones((len(cloud), 1)), "positions": cloud.positions}
        if cloud.has_normals:
            rows["normals"] = cloud.normals
        if cloud.colors is not None:
            rows["colors"] = cloud.colors.astype(float)
        if self.sums:
            rows = {name: block for name, block in rows.items() if name in self.sums}
        # Column by column, each stored sum s moves to its voxel's new row, and
        # add.at adds the new rows onto it in input order, as one pass over
        # every row from 0.0 would: (0.0 + s) + p1 is s + p1, for a sum that
        # starts from 0.0 is never -0.0. A voxel first seen here starts from 0.0.
        stored, new = inverse[:n - len(cloud)], inverse[n - len(cloud):]
        sums = {}
        for name, block in rows.items():
            sums[name] = total = np.zeros((len(self.keys), block.shape[1]))
            for k, column in enumerate(block.T):
                if self.sums:
                    total[stored, k] = self.sums[name][:, k]
                np.add.at(total[:, k], new, column)
        self.sums = sums
        return new

    def neighbours(self, reach: int = 1, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Row pairs (i, j) of every two voxels whose keys differ by at most
        `reach` on each axis, each voxel with itself included; `rows` limits
        i to those rows (default: all).

        Each voxel's partners come in (dx, dy, dz) order of their key minus
        its own, which fixes the order in which sums over them add up.

        A partner is found by searching the sorted keys for the voxel's key
        moved by (dx, dy, dz): as one int64 code (`_packing`, padded by
        `reach`) where the keys' box allows, else as an (x, y, z) record.
        Codes are searched once per (dx, dy): the keys of one (x, y) column
        have consecutive codes, so the partner one z higher is at the next
        place, or at the same one when there was none. For all rows, only the
        moves after (0, 0, 0) are searched; a pair found by a move is also the
        pair of the opposite move, mirrored. Memory is O(len(self)) per move,
        besides the pairs returned.

        Keys are floors of doubles, so none lies in (2**63 - 1024, 2**63):
        a record moved by a `reach` below 1024 cannot overflow, and one that
        wraps (only from -2**63) lands where no key is.
        """
        keys, n = self.keys, len(self.keys)
        packed = _packing(keys, reach)
        if packed is None:
            table, x = _records(keys), np.ascontiguousarray(keys[:, 0])

            def column(src, dx, dy, dzs):
                # Only keys whose moved x is a key's x go on to the slower
                # record search.
                to = x[src] + dx
                src = src[x.take(np.searchsorted(x, to), mode="clip") == to]
                for dz in dzs:
                    want = _records(keys[src] + (dx, dy, dz))
                    at = np.searchsorted(table, want)
                    hit = np.flatnonzero(table.take(at, mode="clip") == want)
                    yield src[hit], at[hit]
        else:
            table, pack = packed

            def column(src, dx, dy, dzs):
                want = table[src] + pack(dx, dy, dzs[0])
                at = np.searchsorted(table, want)
                for _ in dzs:
                    hit = table.take(at, mode="clip") == want
                    index = np.flatnonzero(hit)
                    yield src[index], at[index]
                    at, want = at + hit, want + 1

        # Blocks of pairs in move order: each voxel's partners come in that
        # order, whatever the order between voxels.
        moves = list(itertools.product(range(-reach, reach + 1), repeat=3))
        src = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        searched = [m for m in moves if rows is not None or m > (0, 0, 0)]
        found = {}
        for (dx, dy), run in itertools.groupby(searched, key=lambda m: m[:2]):
            run = list(run)
            found.update(zip(run, column(src, dx, dy, [m[2] for m in run])))
        if rows is None:
            found[(0, 0, 0)] = src, src
        pairs = [found[m] if m in found else found[tuple(-d for d in m)][::-1] for m in moves]
        return tuple(np.concatenate(side) for side in zip(*pairs))

    def cloud(self) -> PointCloud:
        """The voxel means, one point per voxel in voxel order. Normals are
        renormalized (zero where they cancel), colors rounded."""
        if len(self) == 0:
            raise EmptyCloud("the voxel grid is empty")
        counts = self.sums["count"]
        positions = self.sums["positions"] / counts
        normals = None
        if "normals" in self.sums:
            normals = self.sums["normals"] / counts
            norms = norms_by_column(normals)
            safe = norms > 1e-12
            normals[safe] /= norms[safe, None]
            normals[~safe] = 0.0
        colors = None
        if "colors" in self.sums:
            colors = np.rint(self.sums["colors"] / counts).astype(np.uint8)
        return PointCloud(positions, normals, colors)


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Collapse the cloud onto a leaf-sized grid, one centroid per occupied voxel.

    The grid is anchored at the world origin (index = floor(p / leaf)), which
    makes the operation exactly idempotent: each centroid stays inside its own
    voxel, so a second pass reproduces the same cloud. Normals are averaged
    and renormalized, colors averaged. Output is ordered by voxel index.
    """
    grid = VoxelGrid(leaf)
    grid.add(cloud)
    return grid.cloud()


# A cross product of two rows of A - l0 I shorter than this (A scaled to a
# largest entry of 1) means l0 is repeated or nearly so. The closed-form
# vector's error grows as eps / gap**2: above 1e-2 it stays within ~1e-12 of
# eigh's on random matrices, and no row of a noisy 60k-point face view falls
# below it.
NORMAL_CROSS_FLOOR = 1e-2


def _abs_max(cov: np.ndarray) -> np.ndarray:
    """np.abs(cov).max(axis=(1, 2)) of (n, 3, 3) symmetric matrices, from
    their six distinct entries: numpy reduces a 3x3 block far more slowly.
    Equal bit for bit but for a NaN's payload bits."""
    return np.maximum.reduce([np.abs(cov[:, a, b]) for a, b in
                              ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))])


def _smallest_eigenvectors(cov: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the smallest eigenvalue of (n, 3, 3) symmetric
    positive semi-definite matrices.

    l0 comes from the trigonometric form of the characteristic cubic (Smith,
    "Eigenvalues of a symmetric 3x3 matrix", CACM 4(4), 1961); the vector is
    the longest cross product of two rows of A - l0 I. Rows where l0 is
    (nearly) repeated, so that no cross product is long enough to trust,
    take np.linalg.eigh's vector instead.
    """
    scale = _abs_max(cov)
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


def _block_covariances(means: np.ndarray, i: np.ndarray, j: np.ndarray):
    """For each row of `means`, the count of rows j paired with it and their
    centred scatter matrix. The mean is summed first and the differences
    from it second, so no coordinate is squared before centring."""
    n = len(means)
    count = np.bincount(i, minlength=n)
    size = np.maximum(count, 1)                # rows no pair names stay zero
    # One contiguous column per axis: numpy gathers 1-d arrays far faster
    # than rows of an (n, 3) one.
    axes = [np.take(col, j) for col in np.ascontiguousarray(means.T)]
    centre = [np.bincount(i, weights=p, minlength=n) / size for p in axes]
    d = [p - np.take(c, i) for p, c in zip(axes, centre)]
    cov = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            cov[:, a, b] = cov[:, b, a] = np.bincount(i, weights=d[a] * d[b], minlength=n)
    return count, cov


def estimate_normals(cloud: PointCloud, leaf: float, viewpoint) -> PointCloud:
    """The cloud with per-point normals from its leaf grid.

    Each voxel's normal is the smallest eigenvector of the centred covariance
    of the voxel means in its 3x3x3 block (the per-cell covariance of the
    normal distributions transform: Biber & Strasser, IROS 2003), flipped to
    point toward the viewpoint (the sensor side of the surface); every point
    takes its voxel's normal. A block of fewer than 4 voxels widens to 5x5x5,
    and a voxel with fewer than 3 there takes the unit vector toward the
    viewpoint. Needs more than 3 voxels.
    """
    grid = VoxelGrid(leaf)
    voxel = grid.add(PointCloud(cloud.positions))      # only the means are read
    means = grid.cloud().positions
    if len(means) <= 3:
        raise TooFewPoints(f"{len(means)} voxels is not enough for normals (need 4)")
    count, cov = _block_covariances(means, *grid.neighbours())
    sparse = np.flatnonzero(count < 4)
    if len(sparse):
        wide_count, wide_cov = _block_covariances(means, *grid.neighbours(2, sparse))
        count[sparse], cov[sparse] = wide_count[sparse], wide_cov[sparse]
    normals = _smallest_eigenvectors(cov)
    toward = np.asarray(viewpoint, dtype=float) - means
    lone = count < 3
    if lone.any():
        # A voxel mean at the viewpoint itself gets a zero normal.
        length = np.maximum(row_norms(toward[lone]), np.finfo(float).tiny)
        normals[lone] = toward[lone] / length[:, None]
    flip = np.einsum("ij,ij->i", normals, toward) < 0.0
    normals[flip] *= -1.0
    return PointCloud(cloud.positions, normals[voxel], cloud.colors)


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
    points alone. The pick is linear in the candidate rows, which come
    grouped by ray: a `minimum.reduceat` for each ray's smallest t, and one
    more for the lowest index among its rows at that t.
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
    dn = row_norms(d)
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
    # Nearest along each ray, the lowest index on a tie. The candidates are
    # grouped by ray: take each ray's smallest t, then the lowest index among
    # its rows at that t. A point in two balls gives two equal rows.
    ray, t, idx = ray[candidates], t[candidates], idx[candidates]
    starts = _run_starts(ray)
    heads = np.flatnonzero(starts)
    at_min = t == np.minimum.reduceat(t, heads)[np.cumsum(starts) - 1]
    best = np.minimum.reduceat(np.where(at_min, idx, len(cloud)), heads)
    hit = ray[heads]
    index[hit] = best
    distance[hit] = row_norms(cloud.positions[best] - origins[hit])
    return index, distance
