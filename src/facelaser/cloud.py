"""Point-cloud container, PLY IO, voxel downsampling, normals, raycasting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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

# raycast walks a ray in at most this many steps, so a radius that is tiny
# against the cloud's extent widens the cells instead of multiplying the steps.
MAX_RAY_STEPS = 1024
# A cell index's dense table holds at most this many cells per point (64 for
# fewer than 8 points): its side grows until it does, so memory is O(points).
CELLS_PER_POINT = 8
# Index queries take their rows in blocks of this many, and the candidate
# pairs of a block in chunks of about this many, so a query's memory stays
# bounded however many points crowd its cells.
QUERY_BLOCK = 1 << 14
PAIR_CHUNK = 1 << 16
# A cell index's searches take each cell's points in runs of at most this
# many near each other, and skip a run whose bounding box lies too far.
GROUP = 16


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
        self._bounds = None
        self._index: CellIndex | None = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The lowest and highest coordinate on each axis, computed once
        (read-only arrays)."""
        if len(self) == 0:
            raise EmptyCloud("empty cloud has no bounds")
        if self._bounds is None:
            self._bounds = self.positions.min(axis=0), self.positions.max(axis=0)
            for end in self._bounds:
                end.setflags(write=False)
        return self._bounds

    def kdtree(self, side: float) -> CellIndex:
        """The cloud's cell index for cells of side `side` or more: the one
        built last while its side is at least `side` (wider cells answer
        every search narrower ones do), else a new one in its place. It is a
        `CellIndex`, not a tree; the name stays because the benchmark's
        tracer times this method by it."""
        if self._index is None or self._index.side < side:
            self._index = CellIndex(self.positions, side, self.bounds())
        return self._index

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
    are skipped. A NaN or infinite x/y/z or nx/ny/nz, or a red/green/blue
    that uint8 cannot hold (non-finite, below 0 or from 256 up), raises
    ParseError naming the (1-based) vertex row, a count or value that is not
    a number raises it too, and every ParseError names the file.
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
        cols = {name: rec[name] for name, _ in props}

    def float_block(names):
        """The three columns, cast to float64 straight into one (n, 3) block."""
        out = np.empty((count, 3))
        for k, name in enumerate(names):
            out[:, k] = cols[name]
        return out

    positions = float_block(("x", "y", "z"))
    normals = None
    if all(k in cols for k in ("nx", "ny", "nz")):
        normals = float_block(("nx", "ny", "nz"))
    for label, block in (("x/y/z", positions), ("nx/ny/nz", normals)):
        if block is not None and not np.isfinite(block).all():
            row = np.flatnonzero(~np.isfinite(block).all(axis=1))[0] + 1
            raise ParseError(f"vertex row {row} has a non-finite {label}")
    colors = None
    if all(k in cols for k in ("red", "green", "blue")):
        colors = float_block(("red", "green", "blue"))
        # uint8 holds what truncates into [0, 255]; NaN fails both tests.
        outside = ~((colors >= 0.0) & (colors < 256.0)).all(axis=1)
        if outside.any():
            raise ParseError(f"vertex row {np.flatnonzero(outside)[0] + 1} has a "
                             "red/green/blue outside [0, 256)")
        colors = colors.astype(np.uint8)
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
        flat = np.hstack(arrays)
        if cloud.colors is None:
            # All-float32 records have no padding: the rows are the records.
            fh.write(flat.tobytes())
            return
        fields = [(n, "<f4") for n in names] + [(n, "<u1") for n in ("red", "green", "blue")]
        rec = np.zeros(len(cloud), dtype=np.dtype(fields))
        for k, n in enumerate(names):
            rec[n] = flat[:, k]
        for k, n in enumerate(("red", "green", "blue")):
            rec[n] = cloud.colors[:, k]
        fh.write(rec.tobytes())


def _packing(keys: np.ndarray, pad: int, scale: int = 1):
    """One int64 code per row of (n, 3) int64 keys, or None.

    A key's code is ((x - x0) * sy + y - y0) * sz + z - z0, for the keys'
    lowest corner (x0, y0, z0) and radices sy and sz that leave `pad` unused
    values past each y and z. So codes sort as the keys do lexicographically,
    and a key moved by up to `pad` on each axis packs to no key's code but
    its own. Returns the codes and the function that packs such a move (no
    codes for no keys), or None when the keys' box is too wide for every code
    in it, moved or times `scale`, to fit in int64.
    """
    if not len(keys):
        return keys[:, 0], lambda dx, dy, dz: 0
    # Python ints, so that the size check itself cannot overflow. One reduce
    # per column: numpy's axis-0 reduce of (n, 3) rows is ~15 times slower.
    lo, hi = [int(c.min()) for c in keys.T], [int(c.max()) for c in keys.T]
    sy, sz = hi[1] - lo[1] + 1 + pad, hi[2] - lo[2] + 1 + pad
    if (hi[0] - lo[0] + 2 + pad) * sy * sz * scale > 2**63:
        return None
    code = ((keys[:, 0] - lo[0]) * sy + (keys[:, 1] - lo[1])) * sz + (keys[:, 2] - lo[2])
    return code, lambda dx, dy, dz: (dx * sy + dy) * sz + dz


_TOO_WIDE = "voxel keys span too many leaves for an int64 code"


class VoxelGrid:
    """Running per-voxel sums and counts of every cloud added so far.

    Voxels are leaf-sized and anchored at the world origin (index =
    floor(p / leaf)), and kept in lexicographic index order. Each holds the
    number of its points and the sums of their positions, normals and colors;
    normals and colors are kept while every cloud added has them. A voxel's
    sums are its points' values added in input order, so adding clouds one by
    one gives the sums, bit for bit, of one pass over their concatenation.

    Each key is handled as one int64 code (`_packing`). Keys whose box holds
    too many voxels for such a code (about 2**21 leaves a side, ~4 km at a
    2 mm leaf) are a ValueError from `add` and `neighbours`.
    """

    def __init__(self, leaf: float):
        if not 0 < leaf < np.inf:
            raise ValueError(f"leaf must be positive and finite, got {leaf}")
        self.leaf = leaf
        self.keys = np.empty((0, 3), dtype=np.int64)
        self.sums: dict[str, np.ndarray] = {}
        self._packed = None          # `lookup`'s packing and box of `keys`, made on first use

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
        # are the row number, or else, where the row bits do not fit, by a
        # stable sort of the code.
        bits = max(n - 1, 0).bit_length()
        packed = _packing(keys, 0, 1 << bits)
        if packed is not None:
            code = np.sort((packed[0] << bits) | np.arange(n))
            order = code & ((1 << bits) - 1)
            first = _run_starts(code >> bits)
        else:
            packed = _packing(keys, 0)
            if packed is None:
                raise ValueError(_TOO_WIDE)
            order = np.argsort(packed[0], kind="stable")
            first = _run_starts(packed[0][order])
        self.keys = np.take(keys, order[first], axis=0)
        self._packed = None
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

        A partner is found by searching the sorted codes (`_packing`, padded
        by `reach`) for the voxel's code moved by (dx, dy, dz), once per
        (dx, dy): the keys of one (x, y) column have consecutive codes, so the
        partner one z higher is at the next place, or at the same one when
        there was none. For all rows, only the moves after (0, 0, 0) are
        searched; a pair found by a move is also the pair of the opposite
        move, mirrored. Memory is O(len(self)) per move, besides the pairs
        returned.
        """
        packed = _packing(self.keys, reach)
        if packed is None:
            raise ValueError(_TOO_WIDE)
        table, pack = packed
        # Blocks of pairs in move order: each voxel's partners come in that
        # order, whatever the order between voxels.
        moves = list(itertools.product(range(-reach, reach + 1), repeat=3))
        src = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.intp)
        searched = [m for m in moves if rows is not None or m > (0, 0, 0)]
        found = {}
        for (dx, dy), run in itertools.groupby(searched, key=lambda m: m[:2]):
            run = list(run)
            want = table[src] + pack(dx, dy, run[0][2])
            at = np.searchsorted(table, want)
            for move in run:
                hit = table.take(at, mode="clip") == want
                index = np.flatnonzero(hit)
                found[move] = src[index], at[index]
                at, want = at + hit, want + 1
        if rows is None:
            found[(0, 0, 0)] = src, src
        pairs = [found[m] if m in found else found[tuple(-d for d in m)][::-1] for m in moves]
        return tuple(np.concatenate(side) for side in zip(*pairs))

    def lookup(self, points: np.ndarray, last=None) -> tuple[np.ndarray, np.ndarray]:
        """The voxel each of the (n, 3) points falls in (floor(p / leaf)), as
        its int64 code (`_packing`) and its row of `keys`; -1 for both where
        the key lies outside the keys' box, which is never packed, and a row
        of -1 where no voxel has the code.

        `last` is the (codes, rows) of an earlier lookup of as many points on
        the grid as it is now: only the points whose code differs from it are
        searched again, and the rows are the ones a fresh lookup gives.
        """
        n = len(points)
        if not len(self):
            return np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.intp)
        if self._packed is None:
            # add made sure the keys fit. One reduce per column, as in _packing.
            self._packed = (*_packing(self.keys, 0), [int(c.min()) for c in self.keys.T],
                            [int(c.max()) for c in self.keys.T])
        table, pack, lo, hi = self._packed
        idx = np.floor(points / self.leaf)
        # Every key is a floor cast to int64, so lo and hi are exact as floats;
        # NaN fails the comparisons and lies outside.
        inside = np.logical_and.reduce([(c >= a) & (c <= b) for c, a, b in zip(idx.T, lo, hi)])
        code = np.full(n, -1, dtype=np.int64)
        key = np.compress(inside, idx, axis=0).astype(np.int64)
        code[inside] = pack(key[:, 0] - lo[0], key[:, 1] - lo[1], key[:, 2] - lo[2])
        if last is None:
            rows, todo = np.empty(n, dtype=np.intp), slice(None)
        else:
            rows, todo = last[1].copy(), np.flatnonzero(code != last[0])
        want = code[todo]
        at = np.searchsorted(table, want)
        rows[todo] = np.where(table.take(at, mode="clip") == want, at, -1)
        return code, rows

    def cloud(self, colors: bool = True) -> PointCloud:
        """The voxel means, one point per voxel in voxel order. Normals are
        renormalized (zero where they cancel), colors rounded, or left out
        with colors=False."""
        if len(self) == 0:
            raise EmptyCloud("the voxel grid is empty")
        counts = self.sums["count"]
        positions = self.sums["positions"] / counts
        normals = None
        if "normals" in self.sums:
            mean = self.sums["normals"] / counts
            norms = norms_by_column(mean)
            # One masked divide: a boolean row selection of the (n, 3) means
            # and its write-back take several times longer.
            normals = np.divide(mean, norms[:, None], out=np.zeros_like(mean),
                                where=(norms > 1e-12)[:, None])
        rgb = None
        if colors and "colors" in self.sums:
            rgb = np.rint(self.sums["colors"] / counts).astype(np.uint8)
        return PointCloud(positions, normals, rgb)


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


def _distances(x, y, z, columns: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances from the points (x, y, z) to the points `j` of the (3, n)
    columns: the x, y and z differences squared and summed in that order,
    then sqrt. Every distance the package compares with a search radius is
    rounded this way."""
    return np.sqrt(_squared(x, y, z, columns, j))


def _squared(x, y, z, columns: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The squares of `_distances`."""
    with np.errstate(over="ignore"):        # beyond any bound either way
        dx = x - columns[0][j]
        dy = y - columns[1][j]
        dz = z - columns[2][j]
        return dx * dx + dy * dy + dz * dz


# The moves from a cell to its 3x3x3 block, and for each of the 64 ways a
# query can lie near the faces of its cell (per axis, two bits: near the low
# face, near the high one) the moves to search, as a run of _NEAR_MOVES.
MOVES = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
_NEAR = [[k for k, move in enumerate(MOVES.tolist())
          if all(d == 0 or (bits >> (4 - 2 * a)) & (1 if d < 0 else 2)
                 for a, d in enumerate(move))] for bits in range(64)]
_NEAR_COUNT = np.array([len(moves) for moves in _NEAR])
_NEAR_FIRST = np.cumsum(_NEAR_COUNT) - _NEAR_COUNT
_NEAR_MOVES = np.concatenate(_NEAR)
# Each 10-bit integer with its bits spread to every third place: a point's
# Morton code is _SPREAD[x] << 2 | _SPREAD[y] << 1 | _SPREAD[z].
_SPREAD = np.array([sum((i >> b & 1) << 3 * b for b in range(10)) for i in range(1024)])


def expand_ranges(rows: np.ndarray, first: np.ndarray, count: np.ndarray):
    """Each row once per place of its range first .. first + count - 1:
    blocks of (rows, places) in the rows' order, a new block starting at the
    first range past each multiple of PAIR_CHUNK places."""
    offset = np.cumsum(count) - count
    heads = np.flatnonzero(_run_starts(offset // PAIR_CHUNK)).tolist()
    for lo, hi in zip(heads, heads[1:] + [len(rows)]):
        c = count[lo:hi]
        yield (np.repeat(rows[lo:hi], c),
               np.arange(int(c.sum())) + np.repeat(first[lo:hi] - (offset[lo:hi] - offset[lo]), c))


class CellIndex:
    """Points binned in cubic cells, for searches within a fixed distance.

    A point's cell is floor((p - mins) / side) on each axis, as one int64
    code (`_packing`, padded by two cells, so the 26 neighbours of every
    cell in the box have codes too). A dense table over the codes, `starts`,
    holds where each cell's points begin in `order`, the point indices
    sorted by cell and, within a cell, by index. So every point within
    `side` of a query lies in the 3x3x3 cells around the query's, and each
    cell is one lookup.

    `side` is at least the side asked for: it doubles until the table holds
    at most CELLS_PER_POINT cells per point (64 for fewer than 8 points), so
    the index takes O(len(positions)) memory whatever the side.

    The searches (`runs_near`, `nearest`) take each cell's points in runs
    of at most GROUP near each other (`_runs`), so a search can skip a run
    whose bounding box lies too far from the query (`gaps`), and a crowd of
    points in one cell costs a query few of them.
    """

    def __init__(self, positions: np.ndarray, side: float, bounds):
        self.mins, self.maxes = bounds                  # the points' lowest and highest
        extent = self.maxes - self.mins
        if not (np.isfinite(extent).all() and 0.0 < side < math.inf):
            raise ValueError("a cell index needs a finite extent and a positive, finite side")
        limit = CELLS_PER_POINT * max(len(positions), 8)
        while np.prod(np.floor(extent / side) + 3.0) > limit:
            side *= 2.0
        self.side = side
        self.top = np.floor(extent / side)              # the highest key on each axis
        self.positions = positions
        self._columns = None                            # the (3, n) coordinates, made on first use
        self._grouped = None                            # the runs, made on first use
        keys = np.floor((positions - self.mins) / side).astype(np.int64)
        code, self._pack = _packing(keys, 2)
        base = -self._pack(-1, -1, -1)
        code += base
        size = int(np.prod(self.top + 3.0))
        self.order = np.argsort(code, kind="stable")
        self.starts = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(np.bincount(code, minlength=size), out=self.starts[1:])
        self._move_codes = self._pack(*MOVES.T) + base

    def keys(self, points: np.ndarray) -> np.ndarray:
        """Each point's cell key, clipped into the box."""
        return np.clip(np.floor((points - self.mins) / self.side), 0.0, self.top).astype(np.int64)

    def around(self, keys: np.ndarray) -> np.ndarray:
        """The table rows of the 3x3x3 cells around each (n, 3) key, in
        MOVES order: (n, 27)."""
        return self._pack(keys[:, 0], keys[:, 1], keys[:, 2])[:, None] + self._move_codes

    def expand(self, rows: np.ndarray, cells: np.ndarray):
        """Each (row, cell) pair once per point of the cell: blocks of (rows,
        point indices) in the pairs' order (`expand_ranges`)."""
        first = self.starts[cells]
        for row, at in expand_ranges(rows, first, self.starts[cells + 1] - first):
            yield row, self.order[at]

    def _runs(self):
        """Each cell's points in runs of at most GROUP near each other, made
        on first use: the cell's points in the Morton order of their place
        in the cell's own bounding box (10 bits an axis), cut every GROUP
        points. Returns the point indices in that order, where each run
        begins in it (and the end), each run's lowest and highest
        coordinates, (3, runs), and each table row's first run (and the
        end)."""
        if self._grouped is None:
            count = np.diff(self.starts)
            full = np.flatnonzero(count)
            cell = np.repeat(np.arange(len(full)), count[full])
            pos = self.positions[self.order]
            lo = np.minimum.reduceat(pos, self.starts[full])
            width = np.maximum.reduceat(pos, self.starts[full]) - lo
            with np.errstate(divide="ignore", invalid="ignore"):      # 0 / 0 on a flat axis
                place = np.floor((pos - lo[cell]) / width[cell] * 1024.0)
            place = np.clip(np.nan_to_num(place), 0, 1023).astype(np.intp)
            morton = (_SPREAD[place[:, 0]] << 2) | (_SPREAD[place[:, 1]] << 1) | _SPREAD[place[:, 2]]
            order = self.order[np.lexsort((morton, cell))]
            runs = -(-count // GROUP)
            first_run = np.zeros(len(self.starts), dtype=np.intp)
            np.cumsum(runs, out=first_run[1:])
            of = np.repeat(np.arange(len(runs)), runs)
            first = self.starts[of] + GROUP * (np.arange(len(of)) - first_run[of])
            pos = self.positions[order]
            self._grouped = (order, np.append(first, len(order)),
                             np.minimum.reduceat(pos, first).T.copy(),
                             np.maximum.reduceat(pos, first).T.copy(), first_run)
        return self._grouped

    def runs_near(self, points: np.ndarray, bound):
        """Blocks of (query rows, runs), grouped by ascending row: each query
        with every run of the cells around its own, which hold every point
        within `bound` (at most `side`; a scalar or one per query) of it."""
        bound = np.broadcast_to(np.asarray(bound, dtype=float), (len(points),))
        if not (bound <= self.side).all():
            raise ValueError(f"bound {bound.max()} exceeds the cell side {self.side}")
        first_run = self._runs()[4]
        for first in range(0, len(points), QUERY_BLOCK):
            block = points[first:first + QUERY_BLOCK]
            # The neighbour cell on a side is searched when the query is within
            # the bound of that face; the hair covers the rounding of the keys.
            reach = bound[first:first + QUERY_BLOCK].max() / self.side + 1e-6
            at = (block - self.mins) / self.side
            key = np.clip(np.floor(at), 0.0, self.top)
            place = at - key
            near = (place < reach) + 2 * (place > 1.0 - reach)
            near = (near[:, 0] * 4 + near[:, 1]) * 4 + near[:, 2]
            key = key.astype(np.int64)
            base = self._pack(key[:, 0], key[:, 1], key[:, 2])
            for rows, at in expand_ranges(np.arange(first, first + len(block)),
                                          _NEAR_FIRST[near], _NEAR_COUNT[near]):
                cells = base[rows - first] + self._move_codes[_NEAR_MOVES[at]]
                count = first_run[cells + 1] - first_run[cells]
                for rows, run in expand_ranges(rows, first_run[cells], count):
                    if len(run):
                        yield rows, run

    def gaps(self, points: np.ndarray, rows: np.ndarray, runs: np.ndarray) -> np.ndarray:
        """The squared least distance from each query row of `points` to its
        run's box, rounded as `_squared` rounds. That rounding is monotone
        in each difference, so no point of the run lies nearer in its
        arithmetic."""
        _, _, lo, hi, _ = self._runs()
        total = 0.0
        with np.errstate(over="ignore"):
            for q, low, high in zip(points.T, lo, hi):
                q = np.take(q, rows)
                gap = np.maximum(np.take(low, runs) - q, q - np.take(high, runs))
                np.maximum(gap, 0.0, out=gap)
                total = total + gap * gap
        return total

    def run_points(self, rows: np.ndarray, runs: np.ndarray):
        """Each (row, run) pair once per point of the run: blocks of (rows,
        point indices) in the pairs' order (`expand_ranges`)."""
        order, first = self._runs()[:2]
        for row, at in expand_ranges(rows, first[runs], first[runs + 1] - first[runs]):
            yield row, order[at]

    def nearest(self, points: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """For each point, the distance to its nearest indexed point and the
        index of one point at that distance; inf and len(positions) where
        none is nearer than `bound` (at most `side`). A point counts when its
        squared distance is below bound**2, as in scipy's kd-tree, and its
        distance is `_distances`'.

        Each query measures first the run whose box lies nearest, then only
        the runs whose box lies nearer than the best point met."""
        best2 = np.full(len(points), float(bound) * float(bound))  # Python floats overflow to inf quietly
        nearest = np.full(len(points), len(self.positions), dtype=np.intp)
        for rows, run in self.runs_near(points, bound):
            least = self.gaps(points, rows, run)
            starts = _run_starts(rows)
            heads = np.flatnonzero(starts)
            tight = np.where(least == np.minimum.reduceat(least, heads)[np.cumsum(starts) - 1],
                             np.arange(len(run)), len(run))
            first = np.minimum.reduceat(tight, heads)
            self._meet(points, rows[first], run[first], best2, nearest)
            rest = least < best2[rows]
            rest[first] = False
            self._meet(points, rows[rest], run[rest], best2, nearest)
        found = nearest < len(self.positions)
        return np.where(found, np.sqrt(best2), math.inf), nearest

    def _meet(self, points, rows, runs, best2, nearest) -> None:
        """Measure the points of each (row, run) pair, rows ascending; where
        one is nearer its query than best2 holds, keep its squared distance
        there and its index in `nearest`."""
        if self._columns is None:
            self._columns = np.ascontiguousarray(self.positions.T)
        for row, idx in self.run_points(rows, runs):
            s2 = _squared(*(np.take(c, row) for c in points.T), self._columns, idx)
            starts = _run_starts(row)
            heads = np.flatnonzero(starts)
            least = np.minimum.reduceat(s2, heads)
            at = np.minimum.reduceat(np.where(s2 == least[np.cumsum(starts) - 1],
                                              np.arange(len(s2)), len(s2)), heads)
            better = least < best2[row[heads]]
            best2[row[heads[better]]] = least[better]
            nearest[row[heads[better]]] = idx[at[better]]


def ray_side(cloud: PointCloud, radius: float, need: float = 0.0) -> float:
    """The cell side raycast_many walks `cloud` with at `radius`: the 3x3x3
    cells around each step every `side` along a ray hold every point within
    `need` of it, when 2 need / sqrt(3) <= side, and no ray clipped to the
    box grown by `need` takes more than MAX_RAY_STEPS steps. `need` is the
    radius plus the rounding slack, at least that of points as far out as
    the cloud's. The side is the least of side0 * 2**k (k >= 0) that serves
    `need`, where side0 serves radius * (1 + 2**-10): so rays from near the
    cloud share one side, and the index is built once."""
    lo, hi = cloud.bounds()
    extent = max(map(abs, lo.tolist() + hi.tolist()))

    def serves(need):
        diagonal = float(np.linalg.norm(hi - lo + 2.0 * need))
        return max(2.0 / math.sqrt(3.0) * need, diagonal / (MAX_RAY_STEPS - 2))

    side = serves(radius * (1.0 + 2.0 ** -10))
    want = serves(max(need, radius + 1e-9 * (1.0 + extent)))
    return side * 2.0 ** np.ceil(np.log2(max(want / side, 1.0)))


def raycast_many(cloud: PointCloud, origins, directions, radius: float,
                 max_range: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """raycast for a batch of rays: each ray's hit index and distance.

    Returns the (n,) cloud index of every ray's hit, -1 on a miss, and the
    (n,) Euclidean distance from its origin to the hit, inf on a miss. Each
    ray's hit is the one a scan of every point gives, bit for bit.

    The search runs on the cloud's cell index (`ray_side`). Each ray is
    clipped to [0, max_range] and to the cloud's bounding box grown by
    `radius`, and walked in steps of the cell side s. Every point within
    `radius` of the clipped span lies in the 3x3x3 cells around some step,
    in a cell whose centre is within radius + s sqrt(3) / 2 of the ray. The
    occupied cells of all steps are looked up first, those with their
    centre farther from the ray are dropped, each (ray, cell) pair is kept
    once, and the exact cylinder test runs on the points of those cells
    alone. The pick is linear in the candidate rows, which come grouped by
    ray: a `minimum.reduceat` for each ray's smallest t, and one more for
    the lowest index among its rows at that t.
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

    mins, maxes = cloud.bounds()
    # A hair of slack keeps rounding in the clip, the steps and the cell keys
    # from dropping a point that sits exactly on a boundary.
    extent = max(map(abs, mins.tolist() + maxes.tolist()))
    slack = 1e-9 * (1.0 + np.maximum(np.abs(origins).max(axis=1), extent))
    need = radius + slack
    lo, hi = mins - need[:, None] - origins, maxes + need[:, None] - origins
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

    cells = cloud.kdtree(ray_side(cloud, radius, float(need.max())))
    s = cells.side
    t0, span = t0[live], t1[live] - t0[live]
    count = np.ceil(span / s).astype(np.intp) + 1
    ray = np.repeat(live, count)
    step = np.arange(len(ray)) - np.repeat(np.cumsum(count) - count, count)
    at = np.repeat(t0, count) + s * step
    key = cells.keys(origins[ray] + at[:, None] * d[ray])
    block = cells.around(key)
    step, move = np.nonzero(cells.starts[block + 1] > cells.starts[block])
    ray = ray[step]
    centre = cells.mins + (key[step] + MOVES[move] + 0.5) * s
    rel = centre - origins[ray]
    off = rel - (rel * d[ray]).sum(axis=1)[:, None] * d[ray]
    close = (off * off).sum(axis=1) <= (need[ray] + 0.5 * math.sqrt(3.0) * s) ** 2
    pair = np.unique(ray[close] * len(cells.starts) + block[step[close], move[close]])
    ray, block = np.divmod(pair, len(cells.starts))
    if not len(ray):
        return index, distance
    # Pairs are few per ray: one chunk unless a ray crosses a crowd of points.
    ray, idx = map(np.concatenate, zip(*cells.expand(ray, block)))
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
    # its rows at that t.
    ray, t, idx = ray[candidates], t[candidates], idx[candidates]
    starts = _run_starts(ray)
    heads = np.flatnonzero(starts)
    at_min = t == np.minimum.reduceat(t, heads)[np.cumsum(starts) - 1]
    best = np.minimum.reduceat(np.where(at_min, idx, len(cloud)), heads)
    hit = ray[heads]
    index[hit] = best
    distance[hit] = row_norms(cloud.positions[best] - origins[hit])
    return index, distance
