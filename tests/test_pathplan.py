import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelaser.cloud import PointCloud
from facelaser.errors import EmptySegment, InvalidParam
from facelaser.geometry import Y_AXIS, Z_AXIS
from facelaser.pathplan import (
    MIN_STRIP_FRACTION,
    PlannerConfig,
    SegmentPath,
    Strip,
    bin_strips,
    path_to_poses,
    plan_segment,
    strip_obliquity,
    sweep_patch,
)

from support import loop_bin_strips, loop_path_to_poses, loop_sweep_patch, plane_grid

DIAM = 0.004


def config(**kwargs):
    args = dict(laser_diameter=DIAM)
    args.update(kwargs)
    return PlannerConfig(**args)


def runs_by_strip(path: SegmentPath):
    """Split the path into its per-strip rows, in emission order."""
    rows = []
    start = 0
    for i in range(1, len(path) + 1):
        if i == len(path) or path.strip_indices[i] != path.strip_indices[start]:
            rows.append(path.positions[start:i])
            start = i
    return rows


class TestPlannerConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(laser_diameter=0.0),
        dict(laser_diameter=-0.004),
        dict(orientation="diagonal"),
        dict(laser_diameter=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            config(**kwargs)


class TestObliquity:
    def test_frontal_normal_is_zero(self):
        assert strip_obliquity(Z_AXIS, Y_AXIS) == 0.0

    def test_known_tilt(self):
        t = np.radians(30.0)
        eta = np.array([0.0, np.sin(t), np.cos(t)])
        assert strip_obliquity(eta, Y_AXIS) == pytest.approx(t, abs=1e-12)

    def test_tilt_about_sweep_axis_ignored(self):
        t = np.radians(40.0)
        eta = np.array([np.sin(t), 0.0, np.cos(t)])
        assert strip_obliquity(eta, Y_AXIS) == 0.0

    def test_grazing_is_clamped_below_right_angle(self):
        o = strip_obliquity(Y_AXIS, Y_AXIS)
        assert o < np.pi / 2
        assert o == pytest.approx(np.pi / 2, abs=1e-8)


class TestBinStrips:
    def test_flat_plane_full_widths_and_partition(self):
        cloud = plane_grid()
        strips = bin_strips(cloud, DIAM, axis=1)
        assert len(strips) == 12
        for s in strips:
            assert s.width == pytest.approx(DIAM, abs=1e-15)
            assert np.allclose(s.eta_s, Z_AXIS)
        # Partition: each point lands in exactly one strip.
        seen = np.concatenate([s.points for s in strips])
        assert len(seen) == len(cloud)
        assert len(np.unique(seen)) == len(cloud)

    @pytest.mark.parametrize("deg", [20.0, 45.0, 65.0])
    def test_tilted_plane_narrows_strips(self, deg):
        t = np.radians(deg)
        cloud = plane_grid(tilt=t)
        strips = bin_strips(cloud, DIAM, axis=1)
        for s in strips:
            assert s.width == pytest.approx(DIAM * np.cos(t), rel=1e-12)

    def test_correction_off_keeps_full_width(self):
        cloud = plane_grid(tilt=np.radians(50.0))
        strips = bin_strips(cloud, DIAM, axis=1, correction=False)
        for s in strips:
            assert s.width == pytest.approx(DIAM, abs=1e-15)

    def test_grazing_strip_hits_width_floor(self):
        pos = plane_grid().positions
        nearly_y = np.tile([0.0, 0.9999999, 0.0004], (len(pos), 1))
        nearly_y /= np.linalg.norm(nearly_y, axis=1, keepdims=True)
        cloud = PointCloud(pos, nearly_y)
        strips = bin_strips(cloud, DIAM, axis=1)
        assert strips[0].width == pytest.approx(MIN_STRIP_FRACTION * DIAM, rel=1e-3)

    def test_gap_in_cloud_advances_without_emitting(self):
        a = plane_grid(extent_x=0.01, extent_t=0.008)
        shifted = PointCloud(a.positions + [0.0, 0.05, 0.0], a.normals)
        cloud = PointCloud(np.vstack([a.positions, shifted.positions]),
                           np.vstack([a.normals, shifted.normals]))
        strips = bin_strips(cloud, DIAM, axis=1)
        # Two strips for the near cluster, three for the far one (the cursor
        # crosses the gap in whole diameters, so the far cluster starts
        # mid-window); indices stay consecutive with nothing emitted between.
        assert [s.index for s in strips] == list(range(len(strips)))
        assert len(strips) == 5
        lo_gap = strips[2].lo - strips[1].hi
        assert lo_gap > 0.03

    def test_validation(self):
        cloud = plane_grid()
        with pytest.raises(EmptySegment):
            bin_strips(PointCloud(np.zeros((0, 3)), np.zeros((0, 3))), DIAM, 1)
        with pytest.raises(ValueError):
            bin_strips(PointCloud(cloud.positions), DIAM, 1)
        with pytest.raises(InvalidParam):
            bin_strips(cloud, 0.0, 1)
        with pytest.raises(InvalidParam):
            bin_strips(cloud, DIAM, 2)


def assert_same_strips(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.index, a.lo, a.hi) == (b.index, b.lo, b.hi)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.eta_s.tobytes() == b.eta_s.tobytes()


def test_far_point_is_binned_without_walking_the_gap():
    """One point 100 m out along the bin axis: the 25,000 empty windows
    before it build no masks, so the plan takes well under 0.1 s, and the
    strips are the mask walk's."""
    grid = plane_grid()
    cloud = PointCloud(np.vstack([grid.positions, [0.01, 100.0, 0.0]]),
                       np.vstack([grid.normals, Z_AXIS]))
    start = time.perf_counter()
    path = plan_segment(cloud, config(orientation="horizontal"))
    assert time.perf_counter() - start < 0.1
    assert path.strip_indices[-1] == 12
    assert_same_strips(bin_strips(cloud, DIAM, axis=1), loop_bin_strips(cloud, DIAM, 1))


@st.composite
def gapped_clouds(draw):
    """(cloud, axis, correction) for bin_strips: clusters along the bin axis
    with gaps of whole, half and quarter diameters (so the next coordinate
    often lies on or next to a window edge) or of any length up to 60
    diameters, normals from UNITS, at bases near the origin or 1e3 m out."""
    axis = draw(st.integers(0, 1))
    base = draw(st.sampled_from([0.0, -0.05, 0.37, 1e3]))
    gap = st.one_of(st.integers(0, 240).map(lambda k: k * DIAM / 4),
                    st.floats(0.0, 60 * DIAM))
    along = base + np.cumsum(draw(st.lists(gap, min_size=1, max_size=25)))
    across = draw(st.lists(st.floats(-0.01, 0.01), min_size=len(along),
                           max_size=len(along)))
    pos = np.column_stack([along, across, np.zeros(len(along))])
    pos[:, [0, axis]] = pos[:, [axis, 0]]
    nrm = np.array([draw(st.sampled_from(UNITS)) for _ in range(len(pos))])
    order = np.array(draw(st.permutations(range(len(pos)))))
    return PointCloud(pos[order], nrm[order]), axis, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gapped_clouds())
def test_bin_strips_matches_mask_walk(case):
    """Skipping the empty windows by a search of the sorted coordinates
    gives the mask walk's strips, bit for bit."""
    cloud, axis, correction = case
    assert_same_strips(bin_strips(cloud, DIAM, axis, correction),
                       loop_bin_strips(cloud, DIAM, axis, correction))


class TestSweepPatch:
    def test_cell_means(self):
        pos = np.array([[0.0, 0, 0], [0.001, 0, 0], [0.004, 0, 0]])
        nrm = np.tile(Z_AXIS, (3, 1))
        cloud = PointCloud(pos, nrm)
        strip = Strip(0, -1.0, 1.0, np.arange(3), Z_AXIS)
        chi, eta = sweep_patch(cloud, strip, sweep_axis=0, step=DIAM)
        assert chi.shape == eta.shape == (2, 3)
        assert chi[0, 0] == pytest.approx(0.0005)
        assert chi[1, 0] == pytest.approx(0.004)

    def test_single_point(self):
        cloud = PointCloud([[0.1, 0.2, 0.3]], [Z_AXIS])
        strip = Strip(0, 0.0, 1.0, np.array([0]), Z_AXIS)
        chi, eta = sweep_patch(cloud, strip, 0, DIAM)
        assert chi.shape == eta.shape == (1, 3)
        assert np.allclose(chi[0], [0.1, 0.2, 0.3])
        assert np.allclose(eta[0], Z_AXIS)


class TestPlanSegment:
    def test_flat_patch_counts(self):
        path = plan_segment(plane_grid(), config())
        assert path.orientation == "horizontal"
        assert len(path) == 144
        assert len(path.strip_indices) == len(path)
        rows = runs_by_strip(path)
        assert len(rows) == 12
        assert len(path.d_s_used) == 12

    def test_rows_alternate_direction(self):
        path = plan_segment(plane_grid(), config())
        for k, row in enumerate(runs_by_strip(path)):
            dx = np.diff(row[:, 0])
            assert np.all(dx > 0) if k % 2 == 0 else np.all(dx < 0)

    def test_auto_orientation_tracks_extent(self):
        wide = plane_grid(extent_x=0.047, extent_t=0.02)
        tall = plane_grid(extent_x=0.02, extent_t=0.047)
        assert plan_segment(wide, config()).orientation == "horizontal"
        assert plan_segment(tall, config()).orientation == "vertical"

    def test_forced_orientation(self):
        wide = plane_grid(extent_x=0.047, extent_t=0.02)
        path = plan_segment(wide, config(orientation="vertical"))
        assert path.orientation == "vertical"
        # Vertical sweep: rows advance along y instead of x.
        rows = runs_by_strip(path)
        assert np.all(np.abs(np.diff(rows[0][:, 1])) > 0)

    def test_empty_region_rejected(self):
        with pytest.raises(EmptySegment):
            plan_segment(PointCloud(np.zeros((0, 3)), np.zeros((0, 3))), config())


class TestPathToPoses:
    def test_pose_geometry(self):
        path = plan_segment(plane_grid(tilt=np.radians(25.0)), config())
        rotations, positions = path_to_poses(path, standoff=0.01)
        assert rotations.shape == (len(path), 3, 3) and positions.shape == (len(path), 3)
        for rot, pos, chi, eta in zip(rotations, positions, path.positions, path.normals):
            assert np.allclose(rot[:, 2], eta, atol=1e-12)
            assert np.allclose(pos, chi + 0.01 * eta)
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_normal_parallel_to_reference_falls_back(self):
        path = SegmentPath("row", [np.zeros(3)], [Y_AXIS], [0], "horizontal")
        rotations, _ = path_to_poses(path, standoff=0.0)
        assert np.allclose(rotations[0, :, 2], Y_AXIS)

    def test_negative_standoff_rejected(self):
        path = SegmentPath("row", [np.zeros(3)], [Z_AXIS], [0], "horizontal")
        with pytest.raises(InvalidParam):
            path_to_poses(path, standoff=-0.001)


@st.composite
def patch_normals(draw):
    """A unit normal, or one within the unit check's 1e-6: drawn at random,
    along an axis, or tilted off +-y by about the 1e-6 at which the y
    reference gives way to z."""
    kind = draw(st.sampled_from(["random", "axis", "near-y"]))
    if kind == "random":
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if np.linalg.norm(v) < 1e-3:
            v = np.array([0.3, -0.4, 0.5])
    elif kind == "axis":
        v = draw(st.sampled_from([-1.0, 1.0])) * np.eye(3)[draw(st.integers(0, 2))]
    else:
        tilt = st.sampled_from([0.0, 1e-7, 7.07e-7, 9.99e-7, 1e-6, 1.01e-6, 1e-5])
        v = np.array([draw(tilt), draw(st.sampled_from([-1.0, 1.0])), draw(tilt)])
    v = v / np.linalg.norm(v)
    return v * (1.0 + draw(st.sampled_from([0.0, 3e-7, -9e-7])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(patch_normals(), min_size=1, max_size=40),
       st.sampled_from([0.0, 0.01, 0.045, 0.3]), st.integers(0, 2**32 - 1))
def test_path_to_poses_matches_per_patch_loop(normals, standoff, seed):
    """The array build gives rotation_from_normal's pose for every patch,
    bit for bit."""
    positions = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(len(normals), 3))
    path = SegmentPath("cheek", positions, normals, np.zeros(len(normals)), "horizontal")
    (rot, pos), (want_rot, want_pos) = (path_to_poses(path, standoff),
                                        loop_path_to_poses(path, standoff))
    assert np.array_equal(rot, want_rot) and np.array_equal(pos, want_pos)


def test_path_to_poses_rejects_a_non_unit_normal():
    path = SegmentPath("row", np.zeros((2, 3)), [Z_AXIS, 1.01 * Z_AXIS], [0, 0],
                       "horizontal")
    for build in (path_to_poses, loop_path_to_poses):
        with pytest.raises(ValueError, match="unit vector"):
            build(path, standoff=0.0)


# Pairs that cancel exactly, and (0.6, 0, 0.8) against one that leaves a
# sum of 2^-50, under the 1e-12 at which a patch takes the strip's normal.
UNITS = [(0.0, 0.0, 1.0), (-0.0, -0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, 1.0, -0.0),
         (0.0, -1.0, 0.0), (0.6, -0.0, 0.8), (-0.6, 0.0, -0.8),
         (-0.6, 0.0, -0.8 + 2.0 ** -50), (-0.0, 0.28, 0.96)]


@st.composite
def sweep_strips(draw):
    """(cloud, strip, sweep axis, step) for sweep_patch: sweep coordinates at
    whole and half steps from the lowest (rounding ties) or anywhere in a
    dozen steps (so the last window is often clipped), other coordinates
    often -0.0, axis and opposing normals that cancel in a window or nearly
    do, and the strip's points a shuffled subset of the cloud, down to one
    point."""
    step = draw(st.sampled_from([2.0 ** -8, 0.004, 0.003]))
    base = draw(st.sampled_from([0.0, -0.05, 0.37]))
    n = draw(st.integers(1, 30))
    along = st.one_of(st.integers(0, 24).map(lambda k: base + k * step / 2),
                      st.floats(base, base + 12 * step))
    across = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.1, 0.1))
    axis = draw(st.integers(0, 1))
    pos = np.array([draw(st.tuples(along, across, across)) for _ in range(n)])
    pos[:, [0, axis]] = pos[:, [axis, 0]]
    nrm = np.array([draw(st.sampled_from(UNITS)) for _ in range(n)])
    points = np.array(draw(st.permutations(range(n))))[:draw(st.integers(1, n))]
    strip = Strip(0, -1.0, 1.0, points, np.array(draw(st.sampled_from(UNITS))))
    return PointCloud(pos, nrm), strip, axis, step


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep_strips())
def test_sweep_patch_matches_window_loop(case):
    """One sort and two bincounts give the per-window means, bit for bit:
    each window adds its points in index order, a window of -0.0 sums to
    0.0, and a cancelled normal takes the strip's."""
    cloud, strip, axis, step = case
    got = sweep_patch(cloud, strip, axis, step)
    want = loop_sweep_patch(cloud, strip, axis, step)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sweep_patch_spans_billions_of_windows():
    """Two clusters 10 km apart along the sweep: 2.5e9 windows, two patches,
    without visiting the empty windows in between."""
    near = plane_grid(extent_x=0.003, extent_t=0.003)
    far = PointCloud(near.positions + [1e4, 0.0, 0.0], near.normals)
    cloud = PointCloud(np.vstack([near.positions, far.positions]),
                       np.vstack([near.normals, far.normals]))
    path = plan_segment(cloud, config())
    assert path.orientation == "horizontal"
    assert len(path) == 2 and list(path.strip_indices) == [0, 0]
    assert np.allclose(path.positions[:, 0] - [0.0, 1e4], 0.0015, atol=1e-9)


@pytest.mark.parametrize("offset", [1e14, 1.5e308])
def test_far_region_is_rejected_not_walked(offset):
    """A cursor that adding a strip's width leaves in place stops binning
    with an error naming the region and the diameter."""
    pos = plane_grid(extent_x=0.01, extent_t=0.01).positions
    pos[:, 1] += offset
    cloud = PointCloud(pos, np.tile(Z_AXIS, (len(pos), 1)))
    with pytest.raises(InvalidParam, match=r"region 'nose': strips of 0\.004 m "
                                           r"cannot advance past y = "):
        plan_segment(cloud, config(orientation="horizontal"), "nose")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["positions", "normals"])
def test_overflowing_patch_is_rejected(field):
    """A patch mean that overflows (or a normal that then loses its length)
    is an error naming the region, never an inf, NaN or zero path point,
    and numpy warns of nothing on the way."""
    cloud = plane_grid(extent_x=0.003, extent_t=0.003)
    values = getattr(cloud, field).copy()
    values[:, 2] = 1.5e308 if field == "positions" else 1e200
    cloud = PointCloud(values, cloud.normals) if field == "positions" else \
        PointCloud(cloud.positions, values)
    with pytest.raises(InvalidParam, match="path point 0 of 'chin' overflows"):
        plan_segment(cloud, config(), "chin")
