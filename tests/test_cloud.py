import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from facelaser import cloud as cloud_module
from facelaser.cloud import (
    CELLS_PER_POINT,
    PointCloud,
    RayHit,
    VoxelGrid,
    _abs_max,
    _block_covariances,
    _packing,
    _parse_ply,
    _smallest_eigenvectors,
    concatenate,
    estimate_normals,
    load_ply,
    ray_side,
    raycast,
    raycast_many,
    save_ply,
    voxel_downsample,
)
from facelaser.errors import EmptyCloud, MissingField, ParseError, TooFewPoints
from facelaser.geometry import RigidTransform, rotation_about_x

from support import (
    RestackedVoxelGrid,
    axis0_packing,
    dict_lookup,
    eigh_normals,
    face_cloud,
    fibonacci_sphere,
    knn_normals,
    loop_grid_normals,
    neighbour_pairs,
    record_save_ply,
    scan_raycast,
    stacked_parse_ply,
    unique_voxel_downsample,
)


def small_cloud(rng, n=40, normals=True, colors=True):
    pos = rng.normal(size=(n, 3))
    nrm = None
    if normals:
        nrm = rng.normal(size=(n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    col = rng.integers(0, 256, size=(n, 3), dtype=np.uint8) if colors else None
    return PointCloud(pos, nrm, col)


class TestContainer:
    def test_length_mismatch_rejected(self, rng):
        pos = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            PointCloud(pos, normals=rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            PointCloud(pos, colors=np.zeros((6, 3), dtype=np.uint8))

    def test_bounds(self):
        c = PointCloud([[0, 0, 0], [1, -2, 3], [0.5, 4, -1]])
        lo, hi = c.bounds()
        assert np.allclose(lo, [0, -2, -1])
        assert np.allclose(hi, [1, 4, 3])

    def test_empty_bounds_raise(self):
        with pytest.raises(EmptyCloud):
            PointCloud(np.zeros((0, 3))).bounds()

    def test_select_by_mask_keeps_attributes(self, rng):
        c = small_cloud(rng)
        mask = c.positions[:, 0] > 0
        sub = c.select(mask)
        assert len(sub) == mask.sum()
        assert np.array_equal(sub.positions, c.positions[mask])
        assert np.array_equal(sub.normals, c.normals[mask])
        assert np.array_equal(sub.colors, c.colors[mask])

    def test_transformed_rotates_normals_not_colors(self, rng):
        c = small_cloud(rng)
        t = RigidTransform(rotation_about_x(0.3), np.array([1.0, 2.0, 3.0]))
        moved = c.transformed(t)
        assert np.allclose(moved.positions, c.positions @ t.rotation.T + t.translation)
        assert np.allclose(moved.normals, c.normals @ t.rotation.T)
        assert np.array_equal(moved.colors, c.colors)
        # Translation must not touch the normals.
        assert np.allclose(np.linalg.norm(moved.normals, axis=1), 1.0)

    def test_concatenate(self, rng):
        a = small_cloud(rng, n=7)
        b = small_cloud(rng, n=5)
        both = concatenate([a, b])
        assert len(both) == 12
        assert np.array_equal(both.positions[:7], a.positions)
        assert np.array_equal(both.positions[7:], b.positions)

    def test_concatenate_drops_partial_normals(self, rng):
        a = small_cloud(rng, n=4, normals=True)
        b = small_cloud(rng, n=4, normals=False)
        assert concatenate([a, b]).normals is None

    def test_concatenate_empty_list(self):
        with pytest.raises(EmptyCloud):
            concatenate([])


PLY_DTYPES = {"float": "<f4", "double": "<f8", "int": "<i4", "short": "<i2", "uchar": "<u1"}

# Vertex properties of hand-made PLY files: extra properties of every width,
# properties out of the usual order, integer coordinates and float colors.
PLY_LAYOUTS = {
    "positions": [("x", "float"), ("y", "float"), ("z", "float")],
    "extras": [("x", "float"), ("confidence", "double"), ("y", "float"), ("index", "int"),
               ("z", "float"), ("flag", "uchar"), ("nx", "float"), ("ny", "float"),
               ("nz", "float")],
    "reordered": [("nz", "float"), ("blue", "uchar"), ("y", "double"), ("nx", "float"),
                  ("x", "double"), ("red", "uchar"), ("z", "double"), ("ny", "float"),
                  ("green", "uchar")],
    "int-coordinates": [("x", "int"), ("y", "short"), ("z", "uchar"), ("red", "float"),
                        ("green", "double"), ("blue", "uchar")],
}

# -0.0, float32 and float64 subnormals, and values near float32's largest.
SPECIAL_FLOATS = np.array([-0.0, 0.0, 1e-45, -1e-40, 5e-324, 1e38, -3.4e38, 3.3e38])


def _ply_column(rng, name, typ, n):
    """n values of one property: colors in [0, 256), other floats over many
    scales with SPECIAL_FLOATS mixed in, integers over the type's range."""
    dtype = np.dtype(PLY_DTYPES[typ])
    if name in ("red", "green", "blue"):
        return rng.uniform(0.0, 256.0, n).astype(dtype)
    if dtype.kind == "f":
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        pick = rng.random(n) < 0.3
        values[pick] = rng.choice(SPECIAL_FLOATS, pick.sum())
        return values.astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, endpoint=True).astype(dtype)


class TestPlyRoundTrip:
    def test_roundtrip(self, rng, tmp_path):
        c = small_cloud(rng)
        path = tmp_path / ("c.ply")
        save_ply(c, path)
        back = load_ply(path)
        # Coordinates are stored as float32, so compare at that precision.
        assert np.allclose(back.positions, c.positions, atol=1e-6)
        assert np.allclose(back.normals, c.normals, atol=1e-6)
        assert np.array_equal(back.colors, c.colors)

    def test_roundtrip_positions_only(self, rng, tmp_path):
        c = small_cloud(rng, normals=False, colors=False)
        save_ply(c, tmp_path / "bare.ply")
        back = load_ply(tmp_path / "bare.ply")
        assert back.normals is None and back.colors is None
        assert np.allclose(back.positions, c.positions, atol=1e-6)

    def test_ascii_normals_and_colors(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            "0 0 0 0 0 1 255 0 7\n1 2 3 0.6 0 -0.8 10 20 30\n"
        )
        path = tmp_path / "ascii.ply"
        path.write_text(text)
        c = load_ply(path)
        assert np.array_equal(c.positions, [[0, 0, 0], [1, 2, 3]])
        assert np.array_equal(c.normals, [[0, 0, 1], [0.6, 0, -0.8]])
        assert c.colors.dtype == np.uint8
        assert np.array_equal(c.colors, [[255, 0, 7], [10, 20, 30]])

    @pytest.mark.parametrize("row, label", [
        ("nan 2 3 0.6 0 -0.8 10 20 30", "x/y/z"),
        ("1 2 -inf 0.6 0 -0.8 10 20 30", "x/y/z"),
        ("1 2 3 0.6 nan -0.8 10 20 30", "nx/ny/nz"),
    ])
    def test_non_finite_value_names_the_row(self, tmp_path, row, label):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            f"0 0 0 0 0 1 255 0 7\n{row}\n1 2 3 0 1 0 0 0 0\n"
        )
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"vertex row 2 has a non-finite {label}"):
            load_ply(path)

    @pytest.mark.parametrize("colour", ["300 20 30", "10 256 30", "10 20 -1", "nan 20 30",
                                        "10 inf 30"])
    def test_colour_uint8_cannot_hold_names_the_row(self, tmp_path, colour):
        """A colour that would wrap or saturate in the uint8 cast (300 loaded
        as 44, 256 as 0, -1 as 255) is an error naming its row."""
        text = (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            f"0 0 0 255 0 7\n1 2 3 {colour}\n1 2 3 255.9 0 0\n"
        )
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match=r"bad.ply: vertex row 2 has a red/green/blue "
                                             r"outside \[0, 256\)"):
            load_ply(path)

    @pytest.mark.parametrize("value", [-0.5, 256.0, np.nan])
    def test_binary_float_colour_uint8_cannot_hold_names_the_row(self, tmp_path, value):
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                  + "".join(f"property float {n}\n"
                            for n in ("x", "y", "z", "red", "green", "blue"))
                  + "end_header\n")
        table = np.zeros((3, 6), dtype="<f4")
        table[:, 3:] = 255.5
        table[2, 4] = value
        path = tmp_path / "bad.ply"
        path.write_bytes(header.encode() + table.tobytes())
        with pytest.raises(ParseError, match="vertex row 3 has a red/green/blue outside"):
            load_ply(path)

    def test_non_finite_binary_value_names_the_row(self, rng, tmp_path):
        c = small_cloud(rng, n=5)
        c.normals[3, 1] = np.inf
        save_ply(c, tmp_path / "bad.ply")
        with pytest.raises(ParseError, match="vertex row 4 has a non-finite nx/ny/nz"):
            load_ply(tmp_path / "bad.ply")

    def test_extra_property_is_skipped(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\ncomment made by hand\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\n"
            "end_header\n"
            "0 0 0 0.9\n1 2 3 0.1\n"
        )
        path = tmp_path / "extra.ply"
        path.write_text(text)
        c = load_ply(path)
        assert len(c) == 2
        assert np.allclose(c.positions[1], [1, 2, 3])
        assert c.normals is None

    def test_double_precision_properties(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n"
        )
        body = np.array([(0.125, -2.5, 7.0)], dtype="<f8,<f8,<f8").tobytes()
        path = tmp_path / "dbl.ply"
        path.write_bytes(header.encode() + body)
        c = load_ply(path)
        assert np.array_equal(c.positions[0], [0.125, -2.5, 7.0])

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("layout", sorted(PLY_LAYOUTS))
    def test_parse_matches_stacked_parse(self, rng, fmt, layout):
        """Casting the record fields straight into (n, 3) float64 blocks
        reads the bits that casting each property and stacking them read."""
        props, n = PLY_LAYOUTS[layout], 64
        cols = [_ply_column(rng, name, typ, n) for name, typ in props]
        header = (f"ply\nformat {fmt} 1.0\nelement vertex {n}\n"
                  + "".join(f"property {typ} {name}\n" for name, typ in props)
                  + "end_header\n").encode()
        if fmt == "ascii":
            body = "".join(" ".join(repr(v.item()) for v in row) + "\n"
                           for row in zip(*cols)).encode()
        else:
            rec = np.zeros(n, dtype=[(name, PLY_DTYPES[typ]) for name, typ in props])
            for (name, _), col in zip(props, cols):
                rec[name] = col
            body = rec.tobytes()
        got, want = _parse_ply(header + body), stacked_parse_ply(header + body)
        for attr in ("positions", "normals", "colors"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("normals, colors", [(False, False), (True, False), (True, True)],
                             ids=["positions", "normals", "colors"])
    def test_save_matches_record_writer(self, rng, tmp_path, normals, colors):
        """The one-block write of a cloud without colors has the bytes of
        the record-array writer, on -0.0, subnormal and ~1e38 values."""
        c = small_cloud(rng, n=64, normals=normals, colors=colors)
        for block in (c.positions, c.normals):
            if block is not None:
                flat = block.reshape(-1)
                pick = rng.choice(flat.size, flat.size // 2, replace=False)
                flat[pick] = rng.choice(SPECIAL_FLOATS, pick.size)
        save_ply(c, tmp_path / "blocks.ply")
        record_save_ply(c, tmp_path / "records.ply")
        assert (tmp_path / "blocks.ply").read_bytes() == (tmp_path / "records.ply").read_bytes()

    def test_list_property_rejected(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property list uchar int vertex_indices\n"
            "end_header\n0\n"
        )
        path = tmp_path / "list.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_ply(path)

    def test_missing_coordinate_rejected(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float z\n"
            "end_header\n0 0\n"
        )
        path = tmp_path / "noy.ply"
        path.write_text(text)
        with pytest.raises(MissingField):
            load_ply(path)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        path = tmp_path / "short.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_ply(path)

    def test_truncated_binary_body_rejected(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        path = tmp_path / "trunc.ply"
        path.write_bytes(header.encode() + b"\x00" * 12)  # one vertex, not two
        with pytest.raises(ParseError):
            load_ply(path)

    @pytest.mark.parametrize("text, error", [
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n", ParseError),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float z\n"
         "end_header\n0 0\n", MissingField),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         "property float z\nend_header\n0 nan 0\n", ParseError),
        ("ply\nformat ascii 1.0\nelement vertex abc\nproperty float x\nproperty float y\n"
         "property float z\nend_header\n0 0 0\n", ParseError),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         "property float z\nend_header\n0 zz 0\n", ParseError),
    ], ids=["header", "missing-field", "non-finite", "count-not-a-number",
            "value-not-a-number"])
    def test_errors_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            load_ply(path)

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "notply.ply"
        path.write_text("plyx\nformat ascii 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(ParseError):
            load_ply(path)


class TestVoxelDownsample:
    def test_two_cell_hand_case(self):
        c = PointCloud(
            [[0.1, 0.1, 0.1], [0.3, 0.3, 0.3], [1.5, 0.0, 0.0]],
            normals=[[0, 0, 1], [0, 0, 1], [1, 0, 0]],
        )
        down = voxel_downsample(c, leaf=1.0)
        assert len(down) == 2
        # Output is ordered by voxel index, so cell (0,0,0) comes first.
        assert np.allclose(down.positions[0], [0.2, 0.2, 0.2])
        assert np.allclose(down.positions[1], [1.5, 0.0, 0.0])
        assert np.allclose(down.normals[0], [0, 0, 1])

    def test_idempotent(self, rng):
        c = PointCloud(rng.uniform(-1, 1, size=(500, 3)))
        once = voxel_downsample(c, leaf=0.25)
        twice = voxel_downsample(once, leaf=0.25)
        assert np.array_equal(once.positions, twice.positions)

    def test_averaged_normals_are_unit(self, rng):
        nrm = rng.normal(size=(200, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm[:, 2] = np.abs(nrm[:, 2])  # same hemisphere so means cannot cancel
        c = PointCloud(rng.uniform(0, 1, size=(200, 3)), normals=nrm)
        down = voxel_downsample(c, leaf=0.5)
        assert np.allclose(np.linalg.norm(down.normals, axis=1), 1.0)

    def test_colors_rounded(self):
        c = PointCloud(
            [[0.1, 0, 0], [0.2, 0, 0]],
            colors=np.array([[10, 0, 255], [11, 0, 254]], dtype=np.uint8),
        )
        down = voxel_downsample(c, leaf=1.0)
        assert down.colors.dtype == np.uint8
        assert np.array_equal(down.colors[0], [10, 0, 254])  # 10.5 rounds to even

    def test_rejects_empty_and_bad_leaf(self):
        with pytest.raises(EmptyCloud):
            voxel_downsample(PointCloud(np.zeros((0, 3))), 0.1)
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)

    @pytest.mark.parametrize("leaf", [math.nan, math.inf])
    def test_rejects_non_finite_leaf(self, rng, leaf):
        with pytest.raises(ValueError):
            voxel_downsample(small_cloud(rng, n=50), leaf)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, x):
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud([[0.0, 0.0, 0.0], [x, 0.0, 1.0]]), 0.1)

    def test_rejects_voxel_indices_beyond_int64(self):
        """At a 1e-9 m leaf, 1e10 m is 1e19 voxels from the origin, past int64;
        the cast used to wrap these three points into one voxel. At +-9e9 m
        the indices fit, but no int64 code spans the 1.8e19 voxels between
        them; two points 10 um apart out there have codes."""
        far = PointCloud([[-1e10, 0.0, 0.0], [1e10, 0.0, 0.0], [2e10, 0.0, 0.0]])
        with pytest.raises(ValueError, match="indices fit in int64"):
            voxel_downsample(far, 1e-9)
        near = PointCloud([[-9e9, 0.0, 0.0], [9e9, 0.0, 0.0]])
        with pytest.raises(ValueError, match="int64 code"):
            voxel_downsample(near, 1e-9)
        close = PointCloud([[9e9, 0.0, 0.0], [9e9 + 1e-5, 0.0, 0.0]])
        assert len(voxel_downsample(close, 1e-9)) == 2

    def test_empty_grid_has_no_pairs(self):
        """No keys are not keys too wide for a code: an empty grid adds an
        empty cloud and has no neighbour pairs."""
        grid = VoxelGrid(0.1)
        assert len(grid.add(PointCloud(np.zeros((0, 3))))) == 0
        for rows in (None, []):
            assert all(len(side) == 0 for side in grid.neighbours(1, rows))


def packs(positions: np.ndarray, leaf: float) -> bool:
    """Whether the voxel keys of these positions fit an int64 code, by the
    axis0_packing oracle: VoxelGrid rejects the keys that do not."""
    return axis0_packing(np.floor(positions / leaf).astype(np.int64), 0) is not None


def assert_same_cloud(got: PointCloud, want: PointCloud) -> None:
    """The same arrays, dtypes and bits, or both None."""
    for name in ("positions", "normals", "colors"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def voxel_cases(draw):
    """A cloud and a leaf: coordinates on voxel faces or free, both signs,
    repeated points whose normals may cancel, optional normals and colours."""
    leaf = draw(st.one_of(st.sampled_from([1e-9, 1e-4, 0.003, 0.25]),
                          st.floats(1e-6, 10.0)))
    # A 1e-9 leaf over a 1e3 extent spans 1e12 voxels per axis.
    extent = draw(st.sampled_from([1.0, 1e3]))
    coord = st.one_of(st.integers(-50, 50).map(lambda k: k * leaf),
                      st.floats(-1.0, 1.0).map(lambda v: v * extent))
    pos = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=1,
                                 max_size=60)), dtype=float)
    nrm = fibonacci_sphere(len(pos))
    repeats = draw(st.lists(st.integers(0, len(pos) - 1), max_size=10))
    # A repeat may carry the negated normal, so its voxel's normals can sum to zero.
    sign = np.array([draw(st.sampled_from([1.0, -1.0])) for _ in repeats])
    pos = np.vstack([pos, pos[repeats]])
    nrm = np.vstack([nrm, sign.reshape(-1, 1) * nrm[repeats]])
    col = (np.arange(3 * len(pos)).reshape(-1, 3) * 37 % 256).astype(np.uint8)
    cloud = PointCloud(pos, nrm if draw(st.booleans()) else None,
                       col if draw(st.booleans()) else None)
    return cloud, leaf


@settings(max_examples=300, deadline=None, derandomize=True)
@given(voxel_cases())
def test_voxel_downsample_matches_unique(case):
    """The sorted grid gives the np.unique grid's output, array for array, or
    rejects keys too wide for an int64 code."""
    cloud, leaf = case
    if not packs(cloud.positions, leaf):
        with pytest.raises(ValueError, match="int64 code"):
            voxel_downsample(cloud, leaf)
        return
    assert_same_cloud(voxel_downsample(cloud, leaf), unique_voxel_downsample(cloud, leaf))


@st.composite
def grid_parts(draw):
    """A leaf and the clouds a VoxelGrid takes one after another, each with a
    kind: cuts of a voxel_cases cloud, then maybe some of its rows again
    ("repeat", no new voxel) and a copy moved past all of it ("moved", only
    new voxels). Any part may lack normals or colours."""
    cloud, leaf = draw(voxel_cases())
    n = len(cloud)
    cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3, unique=True)))
    cuts = [c for c in cuts if c < n]
    parts = [cloud.select(slice(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    kinds = ["cut"] * len(parts)
    if draw(st.booleans()):
        parts.append(cloud.select(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                max_size=20))))
        kinds.append("repeat")
    if draw(st.booleans()):
        shift = np.ptp(cloud.positions[:, 0]) + 2.0 * leaf
        parts.append(PointCloud(cloud.positions + [shift, 0.0, 0.0], cloud.normals,
                                cloud.colors))
        kinds.append("moved")
    for i, part in enumerate(parts):
        drop_normals, drop_colors = draw(st.sampled_from(
            [(False, False)] * 6 + [(True, False), (False, True)]))
        parts[i] = PointCloud(part.positions, None if drop_normals else part.normals,
                              None if drop_colors else part.colors)
    return parts, kinds, leaf


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_parts())
def test_voxel_grid_adds_up_like_one_pass(case):
    """A grid fed the parts one by one holds, after each, the voxel means of
    their concatenation, array for array: voxel_downsample is the oracle. A
    part that makes the keys too wide for an int64 code is rejected, and the
    grid is left as it was."""
    parts, kinds, leaf = case
    grid = VoxelGrid(leaf)
    for i, (part, kind) in enumerate(zip(parts, kinds)):
        before = len(grid)
        if not packs(np.vstack([p.positions for p in parts[:i + 1]]), leaf):
            with pytest.raises(ValueError, match="int64 code"):
                grid.add(part)
            assert len(grid) == before
            return
        voxel = grid.add(part)
        keys = np.floor(part.positions / leaf).astype(np.int64)
        assert np.array_equal(grid.keys[voxel], keys)
        if kind == "repeat":
            assert len(grid) == before
        elif kind == "moved":
            assert len(grid) == before + len(np.unique(keys, axis=0))
        assert_same_cloud(grid.cloud(), voxel_downsample(concatenate(parts[:i + 1]), leaf))


@st.composite
def restack_parts(draw):
    """grid_parts with about a third of the coordinates and normal entries
    set to -0.0, and at times one part added a second time."""
    parts, _, leaf = draw(grid_parts())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for i, part in enumerate(parts):
        pos = part.positions.copy()
        pos[rng.random(pos.shape) < 0.3] = -0.0
        nrm = None if part.normals is None else part.normals.copy()
        if nrm is not None:
            nrm[rng.random(nrm.shape) < 0.3] = -0.0
        parts[i] = PointCloud(pos, nrm, part.colors)
    if draw(st.booleans()):
        parts.append(parts[draw(st.integers(0, len(parts) - 1))])
    return parts, leaf


@settings(max_examples=300, deadline=None, derandomize=True)
@given(restack_parts())
def test_voxel_grid_sums_match_restacked_add(case):
    """Binning only the new rows onto the stored sums gives, after every add,
    the keys, voxel rows and sums of re-binning all of them, byte for byte;
    both reject a part that makes the keys too wide for an int64 code."""
    parts, leaf = case
    grid, want = VoxelGrid(leaf), RestackedVoxelGrid(leaf)
    for i, part in enumerate(parts):
        if not packs(np.vstack([p.positions for p in parts[:i + 1]]), leaf):
            for g in (grid, want):
                with pytest.raises(ValueError, match="int64 code"):
                    g.add(part)
            return
        assert grid.add(part).tobytes() == want.add(part).tobytes()
        assert grid.keys.tobytes() == want.keys.tobytes()
        assert grid.sums.keys() == want.sums.keys()
        for name, sums in want.sums.items():
            assert grid.sums[name].shape == sums.shape
            assert grid.sums[name].tobytes() == sums.tobytes()


class TestEstimateNormals:
    def test_plane_normals_face_viewpoint(self, rng):
        xy = rng.uniform(-1, 1, size=(300, 2))
        pos = np.column_stack([xy, np.zeros(300)])
        c = estimate_normals(PointCloud(pos), 0.2, viewpoint=[0, 0, 5.0])
        assert np.allclose(c.normals, [0, 0, 1], atol=1e-6)
        below = estimate_normals(PointCloud(pos), 0.2, viewpoint=[0, 0, -5.0])
        assert np.allclose(below.normals, [0, 0, -1], atol=1e-6)

    def test_sphere_normals_radial(self):
        pos = fibonacci_sphere(800)
        c = estimate_normals(PointCloud(pos), 0.1, viewpoint=[0, 0, 0])
        # Interior viewpoint flips everything inward: compare against -p.
        dots = np.einsum("ij,ij->i", c.normals, -pos)
        assert dots.min() > 0.99

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            estimate_normals(PointCloud(np.eye(3)), 0.1, viewpoint=[0, 0, 1])

    def test_leaf_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.eye(3)), 0.0, viewpoint=[0, 0, 1])

    def test_sparse_blocks_fall_back(self):
        """A voxel alone in its 3x3x3 block takes the covariance of its 5x5x5
        block; one with fewer than 3 voxels there points at the viewpoint."""
        xy = np.stack(np.meshgrid(np.arange(10), np.arange(10)), axis=-1).reshape(-1, 2)
        plane = np.column_stack([xy + 0.5, np.full(len(xy), 0.5)])
        near = [-1.5, 4.5, 0.5]                # two leaves from the plane's edge
        lone = [[40.5, 40.5, 0.5], [41.5, 40.5, 0.5]]     # a pair, 30 leaves out
        viewpoint = np.array([4.0, 5.0, 20.0])
        got = estimate_normals(PointCloud(np.vstack([plane, near, lone])), 1.0, viewpoint)
        assert np.array_equal(got.normals[:len(plane) + 1], np.tile([0.0, 0.0, 1.0],
                                                                      (len(plane) + 1, 1)))
        toward = viewpoint - lone
        assert np.allclose(got.normals[-2:], toward / np.linalg.norm(toward, axis=1)[:, None],
                           rtol=0.0, atol=1e-15)


@st.composite
def normal_clouds(draw):
    """A cloud, k and a viewpoint: a noisy plane or curved patch, collinear or
    coincident points, or an isotropic blob, moved by a random rigid motion
    and scaled by 1e-6 to 1e3."""
    kind = draw(st.sampled_from(["plane", "curved", "collinear", "coincident",
                                 "isotropic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 60))
    k = draw(st.integers(3, n - 1))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 3e-2]))
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    if kind == "plane":
        pos = np.column_stack([uv, noise * rng.normal(size=n)])
    elif kind == "curved":
        a, b = rng.uniform(-2.0, 2.0, size=2)
        pos = np.column_stack([uv, a * uv[:, 0] ** 2 + b * uv[:, 1] ** 2
                               + noise * rng.normal(size=n)])
    elif kind == "collinear":
        pos = np.outer(uv[:, 0], [1.0, 0.0, 0.0])
    elif kind == "coincident":
        pos = np.zeros((n, 3))
    else:
        # Octahedra centred on the origin; with k = n - 1 every neighbourhood
        # is the whole blob, whose covariance is a multiple of I.
        shells = np.repeat(rng.uniform(0.1, 1.0, size=n // 6), 6)
        pos = np.tile(np.vstack([np.eye(3), -np.eye(3)]), (n // 6, 1)) * shells[:, None]
        k = len(pos) - 1
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    offset = rng.normal(size=3)
    cloud = PointCloud((pos @ rot.T + offset) * scale)
    viewpoint = (offset + 5.0 * rng.normal(size=3)) * scale
    return cloud, k, viewpoint


@settings(max_examples=300, deadline=None, derandomize=True)
@given(normal_clouds())
def test_closed_form_normals_match_eigh(case):
    """Where the eigen-gap is clear the normals are eigh's, flipped the same
    way; where the smallest eigenvalue is repeated they are still finite unit
    eigenvectors of it."""
    cloud, k, viewpoint = case
    want, cov, values = eigh_normals(cloud, k, viewpoint)
    got = _smallest_eigenvectors(cov)
    got[np.einsum("ij,ij->i", got, viewpoint - cloud.positions) < 0.0] *= -1.0
    assert np.isfinite(got).all()
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert (np.einsum("ij,ij->i", got, viewpoint - cloud.positions) >= 0.0).all()
    # Eigenvectors of l0 (for a repeated l0, any vector of its eigenspace).
    residual = np.linalg.norm((cov @ got[:, :, None])[:, :, 0]
                              - values[:, :1] * got, axis=1)
    assert (residual <= 1e-9 * values[:, 2]).all()
    clear = values[:, 1] - values[:, 0] > 1e-4 * values[:, 2]
    # Up to sign, since a normal square to the line of sight may flip either way.
    gap = np.minimum(np.abs(got - want).max(axis=1), np.abs(got + want).max(axis=1))
    assert (gap[clear] <= 1e-9).all()


def test_abs_max_matches_block_reduce():
    """The largest absolute entry of each symmetric 3x3 matrix from its six
    distinct entries is numpy's max over the block, byte for byte, on
    subnormal, huge, infinite and -0.0 entries; a NaN entry gives a NaN
    (numpy's block reduce drops the NaN's payload bits, the elementwise
    maximum keeps them)."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6000, 3, 3)) * 10.0 ** rng.choice([-320, -160, 0, 154, 300],
                                                            size=(6000, 1, 1))
    a[rng.random(a.shape) < 0.05] = -0.0
    special = rng.random(a.shape) < 0.01
    a[special] = rng.choice([np.inf, -np.inf, np.nan], size=special.sum())
    a[::97] = 0.0
    cov = np.triu(a) + np.triu(a, 1).transpose(0, 2, 1)
    want = np.abs(cov).max(axis=(1, 2))
    got = _abs_max(cov)
    nan = np.isnan(want)
    assert nan.any() and np.isinf(want).any() and (want == 0.0).any()
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@st.composite
def grid_normal_clouds(draw):
    """A normal_clouds cloud and viewpoint, with a leaf of 1/30 to 1 of its
    extent: from a voxel per point, most of them with sparse blocks, to a
    few voxels."""
    cloud, _, viewpoint = draw(normal_clouds())
    # A cloud of coincident points takes its distance from the origin instead.
    scale = np.ptp(cloud.positions, axis=0).max() or np.abs(cloud.positions).max()
    leaf = scale * 10.0 ** draw(st.floats(-1.5, 0.0))
    return cloud, leaf, viewpoint


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_normal_clouds())
def test_grid_normals_match_voxel_loop(case):
    """estimate_normals gives the per-voxel loop's normals, fallbacks
    included, within 1e-9 where the eigen-gap is clear; elsewhere finite unit
    vectors facing the viewpoint from their voxel's mean."""
    cloud, leaf, viewpoint = case
    want, cov, values, counts = loop_grid_normals(cloud, leaf, viewpoint)
    if len(counts) <= 3:
        with pytest.raises(TooFewPoints):
            estimate_normals(cloud, leaf, viewpoint)
        return
    got = estimate_normals(cloud, leaf, viewpoint).normals
    assert np.isfinite(got).all()
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0.0, atol=1e-12)
    grid = VoxelGrid(leaf)
    voxel = grid.add(cloud)
    assert (np.einsum("ij,ij->i", got, viewpoint - grid.cloud().positions[voxel]) >= 0.0).all()
    clear = ((values[:, 1] - values[:, 0] > 1e-4 * values[:, 2]) | (counts < 3))[voxel]
    gap = np.minimum(np.abs(got - want).max(axis=1), np.abs(got + want).max(axis=1))
    assert (gap[clear] <= 1e-9).all()


@st.composite
def neighbour_grids(draw):
    """Leaf-1 clouds of clustered voxels around bases that mix negative keys,
    keys near +-2**62 and the int64 limits, with columns that skip z keys,
    split over one to three `add` calls; a reach of 1 or 2 and, at times, a
    subset of rows. Most extra clusters lie within 2**19 leaves of the
    first, so their keys share an int64 code; one in four takes bases of
    its own, which mostly have none."""
    bases = [0.0, -6.0, 2.0**52, -2.0**52, 2.0**62, -2.0**62, -2.0**63, 2.0**63 - 1024]
    first = np.array([draw(st.sampled_from(bases)) for _ in range(3)])
    points = []
    for cluster in range(draw(st.integers(1, 3))):
        if cluster == 0:
            base = first
        elif draw(st.integers(0, 3)):
            shift = [draw(st.integers(-2**19, 2**19)) for _ in range(3)]
            base = np.clip(first + shift, bases[-2], bases[-1])
        else:
            base = np.array([draw(st.sampled_from(bases)) for _ in range(3)])
        if draw(st.booleans()):
            offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                                    min_size=1, max_size=25))
        else:                                  # one column with gaps in z
            x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            offsets = [(x, y, z) for z in draw(st.lists(st.integers(-6, 6), min_size=1,
                                                          max_size=8, unique=True))]
        points.append(base + np.asarray(offsets, dtype=float) + 0.5)
    points = np.vstack(points)
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=2)))
    parts = np.split(points, cuts)
    reach = draw(st.sampled_from([1, 2]))
    return parts, reach, draw(st.booleans())


def neighbour_grid(parts, reach: int, subset: bool):
    """The leaf-1 VoxelGrid of the parts, added one by one, and the rows
    whose pairs to find (every other row, or None for all). None where
    `add` or `neighbours(reach)` rejects keys too wide for an int64 code,
    as axis0_packing says they must."""
    grid = VoxelGrid(1.0)
    for i, part in enumerate(parts):
        if not packs(np.vstack(parts[:i + 1]), 1.0):
            with pytest.raises(ValueError, match="int64 code"):
                grid.add(PointCloud(part))
            return None
        grid.add(PointCloud(part))
    rows = np.arange(len(grid))[::2] if subset else None
    if axis0_packing(grid.keys, reach) is None:
        with pytest.raises(ValueError, match="int64 code"):
            grid.neighbours(reach, rows)
        return None
    return grid, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(neighbour_grids())
def test_neighbour_pairs_match_all_pairs(case):
    """VoxelGrid.neighbours lists each pair the all-pairs comparison finds,
    once, and no other, for the whole grid or the rows asked for."""
    parts, reach, subset = case
    if (built := neighbour_grid(parts, reach, subset)) is None:
        return
    grid, rows = built
    i, j = grid.neighbours(reach, rows)
    got = list(zip(i.tolist(), j.tolist()))
    want = neighbour_pairs(grid.keys, reach)
    if subset:
        want = {(a, b) for a, b in want if a % 2 == 0}
    assert len(got) == len(set(got))
    assert set(got) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(neighbour_grids())
def test_neighbour_order_sums_like_sorted_pairs(case):
    """Block covariances over VoxelGrid.neighbours equal, bit for bit, those
    over the all-pairs oracle's pairs sorted by (i, dx, dy, dz): each voxel's
    partners come in (dx, dy, dz) order, so its sums add up in that order."""
    parts, reach, subset = case
    if (built := neighbour_grid(parts, reach, subset)) is None:
        return
    grid, rows = built
    keys = [tuple(map(int, key)) for key in grid.keys]
    want = sorted((i, *(b - a for a, b in zip(keys[i], keys[j])), j)
                  for i, j in neighbour_pairs(grid.keys, reach) if not subset or i % 2 == 0)
    # Values whose sums round differently in another order.
    means = np.random.default_rng(len(grid)).normal(size=(len(grid), 3))
    got = _block_covariances(means, *grid.neighbours(reach, rows))
    expected = _block_covariances(means, np.array([w[0] for w in want], dtype=np.intp),
                                  np.array([w[-1] for w in want], dtype=np.intp))
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(neighbour_grids())
def test_packing_box_matches_axis0_reduce(case):
    """The keys' box taken column by column packs every key, and every move,
    to the codes the axis-0 min and max give, at bases up to +-2**62 and
    -2**63, or is too wide on both."""
    parts, reach, _ = case
    keys = np.floor(np.vstack(parts)).astype(np.int64)
    for pad, scale in ((0, 1 << len(keys).bit_length()), (reach, 1)):
        got, want = _packing(keys, pad, scale), axis0_packing(keys, pad, scale)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes()
            for move in ((1, 0, 0), (0, -1, 0), (0, 0, 1), (-reach, reach, -reach)):
                assert got[1](*move) == want[1](*move)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(neighbour_grids(), st.integers(0, 2**32 - 1))
def test_lookup_matches_a_key_dict(case, seed):
    """VoxelGrid.lookup finds each point's voxel row as a dict of the keys
    does, -1 where no voxel holds it, at keys up to +-2**62 and -2**63; a
    point outside the keys' box, or not finite, has code -1. Given an
    earlier lookup of other points as `last`, it returns the fresh codes
    and rows."""
    parts, _, _ = case
    if (built := neighbour_grid(parts, 1, False)) is None:
        return
    grid, _ = built
    rng = np.random.default_rng(seed)
    near = grid.keys[rng.integers(0, len(grid), 60)].astype(float)
    # Voxel corners (on faces), inner points, and neighbours up to two out.
    near += rng.integers(-2, 3, near.shape) + rng.choice([0.0, 0.25, 0.5], near.shape)
    odd = np.array([[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf],
                    [1e300, 0.0, 0.0], [-1e300, -1e300, -1e300], [2.0**63, 0.0, 0.0]])
    points = np.vstack([near, odd])
    codes, rows = grid.lookup(points)
    want_rows, inside = dict_lookup(grid, points)
    assert rows.tolist() == want_rows
    assert ((codes >= 0) == np.array(inside)).all()
    earlier = grid.lookup(points[rng.permutation(len(points))])
    again = grid.lookup(points, earlier)
    assert again[0].tobytes() == codes.tobytes() and again[1].tobytes() == rows.tobytes()


def test_lookup_follows_the_grid():
    """A lookup after another add finds the voxels that add made and the
    rows it moved; an empty grid holds no point."""
    grid = VoxelGrid(1.0)
    points = np.array([[0.5, 0.5, 0.5], [3.5, 0.5, 0.5], [-1.5, 0.5, 0.5]])
    assert grid.lookup(points)[1].tolist() == [-1, -1, -1]
    grid.add(PointCloud(points[:2]))
    assert grid.lookup(points)[1].tolist() == [0, 1, -1]
    grid.add(PointCloud(points[2:]))
    assert grid.lookup(points)[1].tolist() == [1, 2, 0]


def grid_paths(cloud: PointCloud, leaf: float) -> tuple[bool, bool]:
    """Whether VoxelGrid(leaf).add(cloud) sorts the keys as int64 codes, and
    whether its neighbours (reach 1 and 2) search them as codes."""
    keys = np.floor(cloud.positions / leaf).astype(np.int64)
    bits = (len(keys) - 1).bit_length()
    distinct = np.unique(keys, axis=0)
    return (_packing(keys, 0, 1 << bits) is not None,
            _packing(distinct, 1) is not None and _packing(distinct, 2) is not None)


@st.composite
def grid_clouds_on_each_path(draw, paths):
    """A grid_normal_clouds case whose keys take the given grid paths: as
    drawn (codes), with two lone voxels 2**19 leaves out on each axis (the
    sort key's row bits overflow, the neighbour codes fit), or 2**22 leaves
    out, at times with the leaf cut to 1e-12 of it first (no code fits)."""
    cloud, leaf, viewpoint = draw(grid_normal_clouds())
    if paths == "wide" and draw(st.booleans()):
        leaf *= 1e-12
    if paths != "codes":
        far = 2.0 ** (19 if paths == "sort-wide" else 22) * leaf
        centre = cloud.positions.mean(axis=0)
        cloud = PointCloud(np.vstack([cloud.positions, centre - far, centre + far]))
    return cloud, leaf, viewpoint


@pytest.mark.parametrize("paths, expected", [
    ("codes", (True, True)), ("sort-wide", (False, True)), ("wide", (False, False))])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_paths_match_oracles(paths, expected, data):
    """Where the keys have int64 codes, with or without room for the row
    bits, voxel_downsample gives the np.unique grid's output and
    estimate_normals the per-voxel loop's; where they have none, both
    raise the grid's ValueError."""
    cloud, leaf, viewpoint = data.draw(grid_clouds_on_each_path(paths))
    assert grid_paths(cloud, leaf) == expected
    if paths == "wide":
        with pytest.raises(ValueError, match="int64 code"):
            voxel_downsample(cloud, leaf)
        with pytest.raises(ValueError, match="int64 code"):
            estimate_normals(cloud, leaf, viewpoint)
        return
    assert_same_cloud(voxel_downsample(cloud, leaf), unique_voxel_downsample(cloud, leaf))
    # The assertions of the loop-oracle test, on this case.
    test_grid_normals_match_voxel_loop.hypothesis.inner_test((cloud, leaf, viewpoint))


def test_grid_normals_near_knn_accuracy():
    """On a noisy view of the face (the points that face the camera at the
    origin, 0.2 mm of noise along the line of sight, 2 mm leaf) the
    95th-percentile angle to the analytic normal is within 1 degree of the
    k-NN normals' on the same voxel means."""
    rng = np.random.default_rng(7)
    face = face_cloud(60000)
    face = face.select(np.einsum("ij,ij->i", face.normals, -face.positions) > 0.0)
    ray = face.positions / np.linalg.norm(face.positions, axis=1, keepdims=True)
    noisy = PointCloud(face.positions + rng.normal(0.0, 2e-4, (len(face), 1)) * ray)
    p95 = []
    for normals in (estimate_normals(noisy, 0.002, np.zeros(3)).normals,
                    knn_normals(noisy, 0.002, np.zeros(3)).normals):
        # The face's analytic normals, like the estimates, face the camera.
        cos = np.clip(np.einsum("ij,ij->i", normals, face.normals), -1.0, 1.0)
        p95.append(np.percentile(np.degrees(np.arccos(cos)), 95))
    assert p95[1] < 5.0
    assert p95[0] <= p95[1] + 1.0


class TestRaycast:
    def setup_method(self):
        xy = np.stack(np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)),
                      axis=-1).reshape(-1, 2)
        pos = np.column_stack([xy, np.zeros(len(xy))])
        nrm = np.tile([0.0, 0.0, 1.0], (len(xy), 1))
        self.wall = PointCloud(pos, nrm)

    def test_hit_straight_down(self):
        hit = raycast(self.wall, [0.05, 0.0, 2.0], [0, 0, -1], radius=0.06)
        assert hit is not None
        assert np.allclose(hit.point, [0.0, 0.0, 0.0]) or np.allclose(hit.point, [0.1, 0.0, 0.0])
        assert hit.distance == pytest.approx(np.linalg.norm(hit.point - [0.05, 0.0, 2.0]))
        assert np.allclose(hit.normal, [0, 0, 1])

    def test_nearest_along_ray_wins(self):
        c = PointCloud([[0, 0, 1.0], [0, 0, 3.0]])
        hit = raycast(c, [0, 0, 0], [0, 0, 1], radius=0.01)
        assert hit.point[2] == 1.0

    def test_miss_outside_radius(self):
        assert raycast(self.wall, [5.0, 5.0, 1.0], [0, 0, -1], radius=0.02) is None

    def test_points_behind_origin_ignored(self):
        hit = raycast(self.wall, [0, 0, -1.0], [0, 0, -1], radius=0.5)
        assert hit is None

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            raycast(self.wall, [0, 0, 1], [0, 0, -2], radius=0.1)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            raycast(self.wall, [0, 0, 1], [0, 0, -1], radius=0.0)

    @pytest.mark.parametrize("origin, direction, radius, max_range", [
        pytest.param([np.nan, 0, 1], [0, 0, -1], 0.1, math.inf, id="nan-origin"),
        pytest.param([0, np.inf, 1], [0, 0, -1], 0.1, math.inf, id="inf-origin"),
        pytest.param([0, 0, 1], [0, np.nan, -1], 0.1, math.inf, id="nan-direction"),
        pytest.param([0, 0, 1], [0, 0, -1], np.nan, math.inf, id="nan-radius"),
        pytest.param([0, 0, 1], [0, 0, -1], np.inf, math.inf, id="inf-radius"),
        pytest.param([0, 0, 1], [0, 0, -1], 0.1, np.nan, id="nan-max-range"),
        pytest.param([0, 0, 1], [0, 0, -1], 0.1, 0.0, id="zero-max-range"),
        pytest.param([0, 0, 1], [0, 0, -1], 0.1, -1.0, id="negative-max-range"),
    ])
    def test_invalid_ray_rejected(self, origin, direction, radius, max_range):
        """A ray that is not a ray raises, rather than reading as no surface."""
        with pytest.raises(ValueError):
            raycast(self.wall, origin, direction, radius, max_range)

    def test_tiny_radius_on_a_wide_cloud(self):
        """A radius far below the cloud's extent widens the search balls
        instead of multiplying them, and still finds the scan's hit."""
        c = PointCloud([[0, 0, 1.0], [0, 0, 3.0], [1e-13, 0, 2.0]])
        hit = raycast(c, [0, 0, 0], [0, 0, 1], radius=1e-12)
        assert hit.point[2] == 1.0
        hit = raycast(c, [0, 0, 1.5], [0, 0, 1], radius=1e-12)
        assert hit.point[0] == 1e-13

    def test_max_range_bounds_the_distance_along_the_ray(self):
        c = PointCloud([[0, 0, 1.0], [0, 0, 3.0]])
        assert raycast(c, [0, 0, 0], [0, 0, 1], 0.01, max_range=0.5) is None
        assert raycast(c, [0, 0, 0], [0, 0, 1], 0.01, max_range=1.0).point[2] == 1.0
        assert raycast(c, [0, 0, 2.0], [0, 0, 1], 0.01, max_range=1.0).point[2] == 3.0


def assert_same_hit(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.point, want.point)
    assert np.array_equal(got.normal, want.normal)
    assert got.distance == want.distance


# Grid coordinates put many points at exactly the same distance along an
# axis-parallel ray; free coordinates do not.
COORD = st.one_of(st.integers(-5, 5).map(lambda k: 0.01 * k), st.floats(-0.05, 0.05))


@st.composite
def ray_cases(draw):
    """A small cloud, with repeated points, and a ray aimed near one of them."""
    pos = np.array(draw(st.lists(st.tuples(COORD, COORD, COORD), min_size=1,
                                 max_size=40)), dtype=float)
    repeats = draw(st.lists(st.integers(0, len(pos) - 1), max_size=6))
    pos = np.vstack([pos, pos[repeats]])
    # Distinct normals tell apart hits on repeated points.
    cloud = PointCloud(pos, fibonacci_sphere(len(pos)))
    radius = draw(st.floats(1e-4, 0.1))
    jitter = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)]) * radius
    target = pos[draw(st.integers(0, len(pos) - 1))] + jitter
    if draw(st.booleans()):
        direction = np.zeros(3)
        direction[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        origin = target - draw(st.floats(-0.05, 0.5)) * direction
    else:
        far = st.floats(0.1, 0.5).flatmap(lambda v: st.sampled_from([-v, v]))
        origin = np.array([draw(st.one_of(COORD, far)) for _ in range(3)])
        direction = target - origin
        length = np.linalg.norm(direction)
        direction = direction / length if length > 1e-9 else np.array([0.0, 0.0, 1.0])
    max_range = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 0.5)))
    return cloud, origin, direction, radius, max_range


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ray_cases())
def test_raycast_matches_scan(case):
    """The kd-tree raycast returns the scan's hit, bit for bit, or None with it."""
    cloud, origin, direction, radius, max_range = case
    assert_same_hit(raycast(cloud, origin, direction, radius, max_range),
                    scan_raycast(cloud, origin, direction, radius, max_range))


@pytest.mark.parametrize("max_range", [0.3, math.inf])
def test_raycast_matches_scan_on_the_face(max_range):
    """Rays from around the face toward its points, at the sensor beam radius."""
    face = face_cloud()
    rng = np.random.default_rng(6)
    lo, hi = face.bounds()
    hits = 0
    for _ in range(150):
        origin = rng.uniform(lo - 0.1, hi + 0.1)
        direction = face.positions[rng.integers(len(face))] - origin
        direction /= np.linalg.norm(direction)
        want = scan_raycast(face, origin, direction, 0.004, max_range)
        assert_same_hit(raycast(face, origin, direction, 0.004, max_range), want)
        hits += want is not None
    assert hits > 50


def test_far_face_keeps_the_index_built_up_front():
    """10 km out, where the rounding slack outgrows radius * 2**-10, batches
    of rays from around the face, each from origins of its own, hit as the
    scan does and search the index built up front, as run_path builds it:
    none builds another."""
    face = face_cloud(60_000).transformed(RigidTransform(np.eye(3), [1e4, -1e4, 1e4]))
    rng = np.random.default_rng(8)
    lo, hi = face.bounds()
    built = []

    class Counted(cloud_module.CellIndex):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cloud_module, "CellIndex", Counted)
        side = ray_side(face, 0.004)
        assert face.kdtree(side).side == side       # dense enough to keep the side asked for
        for _ in range(5):
            origins = rng.uniform(lo - 0.1, hi + 0.1, (20, 3))
            directions = face.positions[rng.integers(len(face), size=20)] - origins
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            index, distance = raycast_many(face, origins, directions, 0.004)
            for i in range(20):
                want = scan_raycast(face, origins[i], directions[i], 0.004, math.inf)
                assert want is not None
                assert_same_hit(RayHit(face.positions[index[i]], face.normals[index[i]],
                                       float(distance[i])), want)
    assert len(built) == 1


@st.composite
def ray_batches(draw):
    """A small cloud, possibly empty, with repeated points, and 1-50 rays: from
    inside and outside its bounding box, along axes and coordinate planes (zero
    direction components) or aimed near a point, and a max_range that ends
    before, inside or past the cloud."""
    pos = np.array(draw(st.lists(st.tuples(COORD, COORD, COORD), max_size=40)),
                   dtype=float).reshape(-1, 3)
    if len(pos):
        pos = np.vstack([pos, pos[draw(st.lists(st.integers(0, len(pos) - 1),
                                                max_size=6))]])
    # Distinct normals tell apart hits on repeated points.
    cloud = PointCloud(pos, fibonacci_sphere(len(pos)))
    radius = draw(st.floats(1e-4, 0.1))
    far = st.floats(0.1, 0.5).flatmap(lambda v: st.sampled_from([-v, v]))
    origins, directions = [], []
    for _ in range(draw(st.integers(1, 50))):
        origin = np.array([draw(st.one_of(COORD, far)) for _ in range(3)])
        kind = draw(st.sampled_from(["axis", "plane", "aimed"]))
        direction = np.zeros(3)
        if kind == "axis":
            direction[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        elif kind == "plane":
            a, b = draw(st.permutations([0, 1, 2]))[:2]
            direction[a], direction[b] = draw(st.floats(-1.0, 1.0)), 1.0
        else:
            target = pos[draw(st.integers(0, len(pos) - 1))] if len(pos) else np.zeros(3)
            direction = target + draw(st.floats(-2.0, 2.0)) * radius - origin
        length = np.linalg.norm(direction)
        origins.append(origin)
        directions.append(direction / length if length > 1e-9 else np.array([0.0, 0.0, 1.0]))
    origins, directions = np.array(origins), np.array(directions)
    max_range = draw(st.one_of(st.sampled_from([1e-3, 0.03, 0.1, 1.0, math.inf]),
                               st.floats(1e-3, 0.5)))
    # Or aim the first ray at a point and end it there, at the point's t as
    # the scan rounds it: t rounded any other way moves the point across.
    if len(pos) and draw(st.booleans()):
        k = draw(st.integers(0, len(pos) - 1))
        aim = pos[k] - origins[0]
        if np.linalg.norm(aim) > 1e-9:
            directions[0] = aim / np.linalg.norm(aim)
            max_range = float(((pos - origins[0]) @ directions[0])[k])
    return cloud, origins, directions, radius, max_range


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ray_batches())
def test_raycast_many_matches_scan(case):
    """Each ray of a batch gets the scan's hit, bit for bit, or a miss with it."""
    cloud, origins, directions, radius, max_range = case
    index, distance = raycast_many(cloud, origins, directions, radius, max_range)
    assert index.shape == distance.shape == (len(origins),)
    for i, (origin, direction) in enumerate(zip(origins, directions)):
        want = scan_raycast(cloud, origin, direction, radius, max_range)
        if want is None:
            assert index[i] == -1 and distance[i] == math.inf
        else:
            assert_same_hit(RayHit(cloud.positions[index[i]], cloud.normals[index[i]],
                                   float(distance[i])), want)


def test_ray_ending_exactly_at_its_only_point():
    """Rays aimed at a point, each ending at that point's t as the scan rounds
    it over the whole cloud. The beam is so narrow that the point is the only
    candidate, and a t rounded any other way misses it half the time it differs."""
    rng = np.random.default_rng(7)
    pos = rng.uniform(-0.05, 0.05, size=(40, 3))
    cloud = PointCloud(pos, fibonacci_sphere(len(pos)))
    for origin, k in zip(rng.uniform(-0.3, 0.3, size=(300, 3)), rng.integers(40, size=300)):
        direction = (pos[k] - origin) / np.linalg.norm(pos[k] - origin)
        max_range = float(((pos - origin) @ direction)[k])
        index, distance = raycast_many(cloud, origin, direction, 1e-4, max_range)
        want = scan_raycast(cloud, origin, direction, 1e-4, max_range)
        assert index[0] == (-1 if want is None else k)
        assert distance[0] == (math.inf if want is None else want.distance)


def test_tied_hit_takes_the_lower_index_whatever_the_ball_order():
    """Two points mirrored about a ray share its t bit for bit. Placed either
    way round among off-ray points, a sliding-midpoint kd-tree lists the
    higher index first in a ball at least once, and the hit is still the
    lower index, the scan's."""
    rng = np.random.default_rng(3)
    filler = rng.uniform(-0.05, 0.05, size=(60, 3)) + [0.2, 0.0, 0.0]
    pair = np.array([[-0.001, 0.0, 0.03], [0.001, 0.0, 0.03]])
    higher_first = []
    for a, b in ((0, 1), (1, 0)):
        pos = np.vstack([filler[:30], pair[a], filler[30:], pair[b]])
        cloud = PointCloud(pos, fibonacci_sphere(len(pos)))
        ball = cKDTree(pos, balanced_tree=False, compact_nodes=False).query_ball_point(
            [0.0, 0.0, 0.03], 0.002, return_sorted=False)
        assert sorted(ball) == [30, 61]
        higher_first.append(ball[0] == 61)
        index, distance = raycast_many(cloud, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.0015)
        want = scan_raycast(cloud, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.0015)
        assert index[0] == 30
        assert_same_hit(RayHit(pos[30], cloud.normals[30], float(distance[0])), want)
    assert any(higher_first)


def test_point_in_two_balls_of_a_ray():
    """Two points tie in t midway between the first two of the balls every
    2 r, of radius r sqrt(2), that cover a short ray, and lie in both. The
    tie still goes to the lower index, the scan's."""
    r = 0.001
    rng = np.random.default_rng(5)
    filler = rng.uniform(-0.05, 0.05, size=(40, 3)) + [0.2, 0.0, 0.0]
    pos = np.vstack([filler, [[0.0, -0.02, -0.02]], [[0.5 * r, 0.0, r], [-0.5 * r, 0.0, r]]])
    cloud = PointCloud(pos, fibonacci_sphere(len(pos)))
    for centre in ([0.0, 0.0, 0.0], [0.0, 0.0, 2.0 * r]):
        ball = cKDTree(pos).query_ball_point(centre, math.hypot(r, r))
        assert {41, 42} <= set(ball)
    index, distance = raycast_many(cloud, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], r, 3.0 * r)
    want = scan_raycast(cloud, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], r, 3.0 * r)
    assert index[0] == 41
    assert_same_hit(RayHit(pos[41], cloud.normals[41], float(distance[0])), want)


@st.composite
def tree_clouds(draw):
    """A cloud, a cell side, queries, a distance bound up to the side and a
    ball radius up to the bound. The cloud is 1-200 points on a lattice of
    pitch `side` (so distances tie often and points lie on cell boundaries)
    or anywhere, with repeated points; or a single point; or one point many
    times; or a few points across 1 km at a 1e-6 m side. Queries lie on the
    half-pitch lattice or anywhere, and ten at exactly `bound` from a point
    along an axis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "anywhere", "single", "coincident", "km"]))
    side = draw(st.sampled_from([0.25, 0.1, 1e-3, 3.0]))
    n = draw(st.integers(1, 200))
    if kind == "km":
        side = 1e-6
        pos = rng.uniform(-500.0, 500.0, size=(draw(st.integers(2, 20)), 3))
    elif kind == "lattice":
        pos = rng.integers(-4, 5, size=(n, 3)) * side
    elif kind == "anywhere":
        pos = rng.uniform(-4.0, 4.0, size=(n, 3)) * side
    else:
        pos = np.tile(rng.uniform(-4.0, 4.0, size=(1, 3)) * side,
                      (1 if kind == "single" else n, 1))
    pos = np.vstack([pos, pos[rng.integers(0, len(pos), size=draw(st.integers(0, 30)))]])
    bound = draw(st.sampled_from([0.25, 0.5, 1.0])) * side
    if kind == "km":
        queries = pos[rng.integers(0, len(pos), 40)] + rng.uniform(-2.0, 2.0, (40, 3)) * bound
    elif draw(st.booleans()):
        queries = rng.integers(-9, 10, size=(40, 3)) * (0.5 * side)
    else:
        queries = rng.uniform(-5.0, 5.0, size=(40, 3)) * side
    axis = np.eye(3)[rng.integers(0, 3, 10)] * rng.choice([-1.0, 1.0], (10, 1))
    queries[:10] = pos[rng.integers(0, len(pos), 10)] + bound * axis
    radius = draw(st.sampled_from([0.0, 0.5, 1.0])) * bound
    return pos, side, queries, bound, radius


def squared_distances(pos: np.ndarray, index: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """|p - q|^2 summed over x, y, z in turn, as the kd-tree sums it."""
    d = pos[index] - queries
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree_clouds())
def test_kdtree_answers_as_a_default_tree(case):
    """The cloud's cell index gives a default cKDTree's bounded k=1
    distances bit for bit, with a point at the bound reading inf, and an
    index that differs only where its point ties in distance with the
    tree's; the runs near a query whose box lies within a radius of it
    hold every member of the tree's ball. Its table holds at most
    CELLS_PER_POINT cells per point (64 for fewer than 8), however small
    the side asked for is against the cloud's extent."""
    pos, side, queries, bound, radius = case
    index, default = PointCloud(pos).kdtree(side), cKDTree(pos)
    assert index.side >= side
    assert len(index.starts) - 1 <= CELLS_PER_POINT * max(len(pos), 8)
    got, got_index = index.nearest(queries, bound)
    want, want_index = default.query(queries, k=1, distance_upper_bound=bound)
    assert got.tobytes() == want.tobytes()
    # An index found is a point at that distance: the tree's, or one tied with it.
    found = np.isfinite(got)
    assert (got_index[~found] == len(pos)).all()
    assert np.array_equal(squared_distances(pos, got_index[found], queries[found]),
                          squared_distances(pos, want_index[found], queries[found]))
    # No point lies nearer than the bound to a query exactly there along an
    # axis from its nearest point: the query reads inf.
    nearest, _ = default.query(queries[:10])
    alone = default.query(queries[:10], k=1, distance_upper_bound=np.nextafter(bound, 0.0))[0]
    at_bound = (nearest == bound) & np.isinf(alone)
    assert np.isinf(got[:10][at_bound]).all()
    found = [set() for _ in queries]
    for rows, runs in index.runs_near(queries, radius):
        near = index.gaps(queries, rows, runs) <= radius * radius
        for rows, idx in index.run_points(rows[near], runs[near]):
            for row, i in zip(rows.tolist(), idx.tolist()):
                found[row].add(i)
    for row, ball in enumerate(default.query_ball_point(queries, radius)):
        assert set(ball) <= found[row]
