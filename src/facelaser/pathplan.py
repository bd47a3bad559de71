"""Coverage path planning over segmented facial point clouds.

A region cloud (expressed in the face frame, z toward the scanner) is cut
into strips across one axis and swept along the other in alternating
directions, producing an S-shaped tool path. Strip widths adapt to surface
obliquity: a strip whose mean normal tilts away from the frontal axis by o_x
is narrowed to diameter * cos(o_x), so the path spacing measured on the
slanted skin stays close to the laser spot diameter instead of stretching by
1 / cos(o_x). Within a strip, points are grouped into diameter-wide windows
along the sweep axis and each window is condensed to a patch: mean position
chi, renormalized mean normal eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateNormal, EmptySegment, InvalidParam
from .geometry import Vec3, Y_AXIS, Z_AXIS, row_norms

ORIENTATIONS = ("auto", "horizontal", "vertical")

# Obliquity can push cos(o_x) arbitrarily close to zero on grazing strips;
# never let a strip get thinner than this fraction of the spot diameter.
MIN_STRIP_FRACTION = 0.1


@dataclass
class PlannerConfig:
    laser_diameter: float               # spot diameter on skin [m]
    orientation: str = "auto"
    obliquity_correction: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.laser_diameter) and self.laser_diameter > 0):
            raise InvalidParam("laser_diameter must be positive and finite")
        if self.orientation not in ORIENTATIONS:
            raise InvalidParam(f"orientation must be one of {ORIENTATIONS}")


@dataclass
class Strip:
    """One bin across the segment: half-open interval [lo, hi) on the bin axis."""

    index: int
    lo: float
    hi: float
    points: np.ndarray                  # indices into the segment cloud
    eta_s: Vec3                         # unit mean normal of the member points

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass
class SegmentPath:
    """Path points as columns, one row per patch in visiting order."""

    label: str
    positions: np.ndarray               # (n, 3) patch centroids chi [m]
    normals: np.ndarray                 # (n, 3) unit patch normals eta
    strip_indices: np.ndarray           # (n,) the emitting strip
    orientation: str                    # resolved: "horizontal" or "vertical"
    d_s_used: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.strip_indices = np.asarray(self.strip_indices, dtype=int).reshape(-1)

    def __len__(self) -> int:
        return len(self.positions)


def strip_obliquity(eta_s: Vec3, bin_axis: Vec3) -> float:
    """Tilt of a strip normal away from the frontal axis, in [0, pi/2).

    Measured in the plane spanned by the bin axis and the frontal axis z:
    atan2(|eta . bin_axis|, |eta . z|). Tilt about the sweep axis itself
    does not change the strip footprint, so it is ignored.
    """
    away = abs(float(np.dot(eta_s, bin_axis)))
    toward = abs(float(np.dot(eta_s, Z_AXIS)))
    return min(float(np.arctan2(away, toward)), np.pi / 2 - 1e-9)


def _mean_normal(normals: np.ndarray, fallback: Vec3) -> Vec3:
    m = normals.mean(axis=0)
    n = np.linalg.norm(m)
    if n < 1e-12:       # opposing normals cancelled out
        return np.asarray(fallback, dtype=float)
    return m / n


def bin_strips(cloud: PointCloud, diameter: float, axis: int,
               correction: bool = True, label: str = "segment") -> list[Strip]:
    """Cut the cloud into adaptive strips along coordinate `axis` (0=x, 1=y).

    The cursor walks from the lowest to the highest coordinate. Each step
    seeds a diameter-wide window, reads the mean normal of the seeded points,
    narrows the window to diameter * cos(obliquity) when correction is on,
    then commits the points inside the narrowed window as one strip and
    advances by its width. Empty seed windows advance by a full diameter
    without emitting, found by a search of the sorted coordinates rather
    than a mask each. A cursor so far from the origin that adding the width
    leaves it where it was is an InvalidParam naming the region `label`.
    """
    if len(cloud) == 0:
        raise EmptySegment("cannot bin an empty segment")
    if not cloud.has_normals:
        raise ValueError("strip binning needs per-point normals")
    if diameter <= 0:
        raise InvalidParam("diameter must be positive")
    if axis not in (0, 1):
        raise InvalidParam("bin axis must be 0 (x) or 1 (y)")

    bin_axis = np.eye(3)[axis]
    coord = cloud.positions[:, axis]
    ordered = np.sort(coord)
    hi_all = float(ordered[-1])
    cursor = float(ordered[0])
    strips: list[Strip] = []
    index = 0
    while cursor <= hi_all + 1e-12:
        # Step over the empty seed windows before the next coordinate without
        # building their masks: the same cursor values, one addition each. A
        # cursor that the diameter cannot move stops here and fails below.
        at = int(np.searchsorted(ordered, cursor))
        if at < len(ordered):
            upcoming = float(ordered[at])
            while cursor < cursor + diameter <= upcoming:
                cursor += diameter
        seed = (coord >= cursor) & (coord < cursor + diameter)
        width = diameter
        if seed.any():
            eta_seed = _mean_normal(cloud.normals[seed], Z_AXIS)
            if correction:
                o_x = strip_obliquity(eta_seed, bin_axis)
                width = max(diameter * np.cos(o_x), MIN_STRIP_FRACTION * diameter)
            member = (coord >= cursor) & (coord < cursor + width)
            if member.any():
                eta_s = _mean_normal(cloud.normals[member], Z_AXIS)
                strips.append(Strip(index, cursor, cursor + width,
                                    np.flatnonzero(member), eta_s))
                index += 1
        if cursor + width == cursor:
            raise InvalidParam(f"region '{label}': strips of {diameter} m cannot "
                               f"advance past {'xy'[axis]} = {cursor!r} m, too far "
                               "from the origin")
        cursor += width
    if not strips:
        raise EmptySegment("binning produced no strips")
    return strips


def sweep_patch(cloud: PointCloud, strip: Strip, sweep_axis: int,
                step: float) -> tuple[np.ndarray, np.ndarray]:
    """Condense one strip into patches along the sweep axis, low to high.

    The strip's footprint is divided into L + 1 contiguous windows of width
    `step` centered on x_min + k * step; every member point joins the window
    with the nearest center. Occupied windows yield one patch each; returns
    their (centroids, normals), both (k, 3).

    One sort (`np.unique`) numbers the occupied windows, and one `bincount`
    for the positions and one for the normals add each window's rows in
    index order from 0.0, as `mean` does, so every patch is the window's
    mean bit for bit and a strip spanning billions of windows costs one
    sort. (`np.add.reduceat` would not do: it adds a window's rows after
    the first as a sum of their own, which rounds differently from three
    rows up, and keeps a window of -0.0 at -0.0.) Normals are renormalized
    as `_mean_normal` does; a sum that cancels out takes the strip's normal.
    """
    pos = cloud.positions[strip.points]
    nrm = cloud.normals[strip.points]
    coords = pos[:, sweep_axis]
    x_min = coords.min()
    last = np.floor((coords.max() - x_min) / step)
    cells = np.minimum(np.round((coords - x_min) / step), last)
    window = np.unique(cells, return_inverse=True)[1]
    count = np.bincount(window)[:, None]
    slots = (3 * window[:, None] + np.arange(3)).ravel()
    chi = np.bincount(slots, pos.ravel()).reshape(-1, 3) / count
    m = np.bincount(slots, nrm.ravel()).reshape(-1, 3) / count
    n = row_norms(m)
    flat = n < 1e-12
    eta = m / np.where(flat, 1.0, n)[:, None]
    eta[flat] = strip.eta_s
    return chi, eta


def plan_segment(cloud: PointCloud, config: PlannerConfig,
                 label: str = "segment") -> SegmentPath:
    """Plan an S-shaped coverage path over one region cloud.

    Orientation "horizontal" bins along y and sweeps along x; "vertical" is
    the transpose; "auto" sweeps along the larger planar extent so rows are
    long and turns are few. Consecutive emitted rows alternate direction.
    A patch whose mean overflows, or whose normal is then not a unit vector,
    is an InvalidParam: a path point that `load_paths` would reject is never
    returned.
    """
    if len(cloud) == 0:
        raise EmptySegment(f"region '{label}' has no points")
    orientation = config.orientation
    if orientation == "auto":
        lo, hi = cloud.bounds()
        ext = hi - lo
        orientation = "horizontal" if ext[0] >= ext[1] else "vertical"
    bin_axis, sweep_axis = (1, 0) if orientation == "horizontal" else (0, 1)

    chi, eta, strip_of, widths = [], [], [], []
    # An average that overflows fails the check below; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        strips = bin_strips(cloud, config.laser_diameter, bin_axis,
                            config.obliquity_correction, label)
        for strip in strips:
            centroids, normals = sweep_patch(cloud, strip, sweep_axis,
                                             config.laser_diameter)
            if not len(centroids):
                continue
            if len(chi) % 2 == 1:
                centroids, normals = centroids[::-1], normals[::-1]
            chi.append(centroids)
            eta.append(normals)
            strip_of.append(np.full(len(centroids), strip.index))
            widths.append(strip.width)
    if not chi:
        raise EmptySegment(f"region '{label}' produced no path points")
    chi, eta = np.concatenate(chi), np.concatenate(eta)
    bad = ~(np.isfinite(chi).all(axis=1) & (np.abs(row_norms(eta) - 1.0) <= 1e-6))
    if bad.any():
        raise InvalidParam(f"path point {np.flatnonzero(bad)[0]} of '{label}' "
                           "overflows: the region's coordinates or normals are "
                           "too large to average")
    return SegmentPath(label, chi, eta, np.concatenate(strip_of), orientation,
                       widths)


def path_to_poses(path: SegmentPath, standoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Effector poses hovering `standoff` above each patch along its normal,
    as columns: (n, 3, 3) rotations and (n, 3) positions.

    The tool frame's z-axis is the outward patch normal (the beam leaves
    along -z). The in-plane reference defaults to the face y-axis and falls
    back to z for patches whose normal is parallel to y. Its oracle is
    `loop_path_to_poses` in tests/support.py, which builds each patch's
    rotation alone with `rotation_from_normal`; every rotation equals that
    one bit for bit.
    """
    if standoff < 0:
        raise InvalidParam("standoff must be non-negative", "standoff")
    eta = path.normals
    norm = row_norms(eta)
    if (np.abs(norm - 1.0) > 1e-6).any():
        raise ValueError("eta must be a unit vector")
    gamma = eta / norm[:, None]
    cross = np.cross(Y_AXIS, gamma)
    length = row_norms(cross)
    parallel = np.flatnonzero(length < 1e-6)
    if len(parallel):
        cross[parallel] = np.cross(Z_AXIS, gamma[parallel])
        length[parallel] = row_norms(cross[parallel])
        stuck = parallel[length[parallel] < 1e-6]
        if len(stuck):
            raise DegenerateNormal(f"path point {stuck[0]} of '{path.label}': "
                                   "normal is parallel to the crossing reference axis")
    alpha = cross / length[:, None]
    beta = np.cross(gamma, alpha)
    beta /= row_norms(beta)[:, None]
    rotations = np.stack([alpha, beta, gamma], axis=2)
    positions = path.positions + standoff * eta
    return rotations, positions
