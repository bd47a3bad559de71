"""Viewpoint generation around the face and multi-view alignment.

The scanner orbits the face frame on two arcs at the standoff distance d_min
(a longitudinal sweep about y and a latitudinal sweep about x), then the views
are fused: pre-align by the known relative poses, refine each against the
running voxel model with point-to-plane ICP, and add it to the model.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud, VoxelGrid, voxel_downsample
from .errors import EmptyCloud, InvalidParam, NoCorrespondences
from .geometry import (
    RigidTransform,
    axis_angle_to_rotation,
    rotation_about_x,
    rotation_about_y,
)

ARC_MODELS = ("circular", "as_printed")

# merge_views matches each view, downsampled at this multiple of the leaf,
# against the model downsampled at the leaf (Rusinkiewicz & Levoy, "Efficient
# Variants of the ICP Algorithm", 3DIM 2001). Measured on nine noisy
# 60k-point face views with a 2 mm leaf: at 1x the ICP steps backtracked more
# and the merge took 4.8 s against 2.0 s at 2x, for the same merged surface
# error (p95 0.243 vs 0.242 mm); 3x took 1.7 s but raised the p95 to 0.247 mm.
ICP_SOURCE_LEAF_FACTOR = 2.0

# icp_point_to_plane tries the steps 1, 1/2, ... down to 2**-(n-1) of each
# update and stops when none of them lowers the objective. On nine noisy
# 60k-point face views, iterations that accept no step above 1/32 change the
# rmse by 1e-7 relative or less, and twelve trials took 245 kd-tree queries
# for 61 iterations against 72 with four, for the same merged surface error.
ICP_LINE_SEARCH_STEPS = 4


def estimate_viewpoints(face_pose: RigidTransform, d_min: float, phi_step: float,
                        n_per_side: int, arc_model: str = "circular") -> list[RigidTransform]:
    """Scanner poses in the base frame on two arcs through the frontal pose,
    frontal pose first, 4*n_per_side + 1 total.

    Longitudinal poses rotate about the face y-axis, latitudinal about x, at
    angles {+-phi_step .. +-n*phi_step}. With the circular model every
    translation sits on the sphere of radius d_min and the optical axis passes
    through the face origin; the as_printed longitudinal variant keeps a
    constant z = -d_min instead.
    """
    if d_min <= 0:
        raise InvalidParam("d_min must be positive")
    if not (0 < phi_step < np.pi / 2):
        raise InvalidParam("phi_step must lie in (0, pi/2)")
    if n_per_side < 0:
        raise InvalidParam("n_per_side must be non-negative")
    if arc_model not in ARC_MODELS:
        raise InvalidParam(f"arc_model must be one of {ARC_MODELS}")

    local = [RigidTransform(np.eye(3), np.array([0.0, 0.0, -d_min]))]
    for arc in ("longitudinal", "latitudinal"):
        for i in range(1, n_per_side + 1):
            for sign in (1.0, -1.0):
                phi = sign * i * phi_step
                if arc == "longitudinal":
                    rot = rotation_about_y(phi)
                    z = -d_min if arc_model == "as_printed" else -d_min * np.cos(phi)
                    tr = np.array([-d_min * np.sin(phi), 0.0, z])
                else:
                    rot = rotation_about_x(phi)
                    tr = np.array([0.0, d_min * np.sin(phi), -d_min * np.cos(phi)])
                local.append(RigidTransform(rot, tr))
    return [face_pose.compose(t) for t in local]


@dataclass
class IcpResult:
    transform: RigidTransform
    rmse: float
    iterations: int
    converged: bool
    rmse_history: list = field(default_factory=list)


# _Nearest shrinks each margin by this fraction of its bound b, so that
# rounding in the computed distances (a few ulps of them) cannot break the proof.
NEAREST_SAFETY = 1e-9


class _Nearest:
    """Each source row's nearest target, re-queried only where the motion
    since its last kd-tree query could have changed it (Greenspan & Godin,
    "A Nearest Neighbor Method for Efficient ICP", 3DIM 2001).

    A k=2 query at r finds the nearest target j at d1 and the next at d2, so
    every other target lies at least b = min(d2, gate) from r. While p stays
    within (b - d1) / 2 of r, j is, by the triangle inequality, still strictly
    the nearest and inside the gate. A row whose two nearest tie, or with no
    target inside the gate, has no margin and is queried at every call; a tie
    takes the k=1 query's index, so every match is the full query's.
    """

    def __init__(self, tree: cKDTree, gate: float | None, n: int):
        self.tree = tree
        self.gate = gate
        # The bound is strict; one ulp above the gate keeps a pair at exactly it.
        self.bound = np.inf if gate is None else np.nextafter(gate, np.inf)
        self.ref = np.zeros((n, 3))
        self.index = np.zeros(n, dtype=np.intp)
        self.margin2 = np.full(n, -1.0)      # squared margin; -1: query again

    def match(self, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nearest target of each row, and whether it lies within the gate."""
        d = src - self.ref
        rows = np.flatnonzero(~(np.einsum("ij,ij->i", d, d) < self.margin2))
        keep = np.ones(len(src), dtype=bool)
        if len(rows):
            at = src[rows]
            dist, idx = self.tree.query(at, k=2, distance_upper_bound=self.bound)
            d1, d2 = dist.T
            tie = np.flatnonzero((d1 == d2) & (d1 < np.inf))
            if len(tie):
                idx[tie, 0] = self.tree.query(at[tie], distance_upper_bound=self.bound)[1]
            b = d2 if self.gate is None else np.minimum(d2, self.gate)
            m = (0.5 - NEAREST_SAFETY) * b - 0.5 * d1
            self.ref[rows] = at
            self.index[rows] = idx[:, 0]
            self.margin2[rows] = np.where(m > 0.0, m * m, -1.0)
            if self.gate is not None:
                keep[rows] = d1 <= self.gate
        return self.index, keep


def _plane_rmse(src: np.ndarray, nearest: _Nearest, tgt_pos: np.ndarray,
                tgt_nrm: np.ndarray):
    j, keep = nearest.match(src)
    if not keep.any():
        raise NoCorrespondences(f"gate {nearest.gate:.4g} m rejected all pairs")
    p = src[keep]
    q = tgt_pos[j[keep]]
    n = tgt_nrm[j[keep]]
    b = np.einsum("ij,ij->i", p - q, n)
    return float(np.sqrt(np.mean(b * b))), p, q, n, b


def icp_point_to_plane(source: PointCloud, target: PointCloud,
                       init: RigidTransform | None = None, max_iter: int = 50,
                       tol: float = 1e-10, gate: float | None = None) -> IcpResult:
    """Point-to-plane ICP aligning source onto target (target must carry normals).

    Each iteration pairs transformed source points with their nearest target
    point (optionally distance-gated), linearizes the rotation around the
    current estimate and solves the 6x6 normal equations for the twist
    [omega, t]. The update is backtracked (halved, at most
    ICP_LINE_SEARCH_STEPS trials) until the freshly re-evaluated objective
    does not increase, so the recorded rmse history is non-increasing; when
    no trial step helps, the pair has converged. Rank-deficient systems fall
    back to the pseudo-inverse.

    Evaluations re-use each source point's nearest target from its last
    kd-tree query while the point has moved too little for it to change
    (_Nearest), and query only the others again. The pairs, and so the
    result, are the ones a fresh query of every point would give.

    Returns an IcpResult whose transform maps source coordinates into the
    target frame.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("ICP needs non-empty clouds")
    if not target.has_normals:
        raise ValueError("target cloud must have normals for point-to-plane ICP")
    t = init if init is not None else RigidTransform.identity()
    tgt_pos, tgt_nrm = target.positions, target.normals
    src0 = source.positions
    nearest = _Nearest(target.kdtree(), gate, len(src0))

    rmse, p, q, n, b = _plane_rmse(t.apply(src0), nearest, tgt_pos, tgt_nrm)
    history = [rmse]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a = np.hstack([np.cross(p, n), n])
        ata = a.T @ a
        atb = a.T @ b
        if np.linalg.cond(ata) > 1e12:
            x = -np.linalg.pinv(ata) @ atb
        else:
            x = -np.linalg.solve(ata, atb)

        accepted = None
        step = 1.0
        for _ in range(ICP_LINE_SEARCH_STEPS):
            rot = axis_angle_to_rotation(step * x[:3])
            cand = RigidTransform(rot @ t.rotation, rot @ t.translation + step * x[3:])
            cand_eval = _plane_rmse(cand.apply(src0), nearest, tgt_pos, tgt_nrm)
            if cand_eval[0] <= rmse + 1e-15:
                accepted = (cand, cand_eval)
                break
            step *= 0.5
        if accepted is None:
            converged = True       # no step improves the objective
            break
        t, (new_rmse, p, q, n, b) = accepted
        history.append(new_rmse)
        if new_rmse <= 1e-12 or abs(rmse - new_rmse) <= tol * max(rmse, 1e-12):
            rmse = new_rmse
            converged = True
            break
        rmse = new_rmse
    return IcpResult(t, rmse, iterations, converged, history)


def check_merge_leaf(leaf: float) -> None:
    """Raise InvalidParam unless merge_views can run at `leaf`: positive,
    with ICP_SOURCE_LEAF_FACTOR * leaf finite."""
    if not (0 < leaf and ICP_SOURCE_LEAF_FACTOR * leaf < np.inf):
        raise InvalidParam(f"leaf must be positive, and {ICP_SOURCE_LEAF_FACTOR:g} times "
                           f"it finite, not {leaf}")


def merge_views(clouds: Iterable[PointCloud], poses: list[RigidTransform], leaf: float,
                max_iter: int = 30, gate_multiplier: float = 10.0,
                icp_log: list | None = None) -> PointCloud:
    """Fuse per-view clouds into one model in the first view's frame.

    `clouds` is any iterable of views, read one at a time, so a view can be
    loaded while the one before it is aligned; each is checked for normals,
    and counted against `poses`, when it is reached. `poses` holds the
    base-frame view poses, one per cloud. Every cloud after the first is
    pre-aligned by its known pose relative to view 0, ICP-refined against
    the model so far (pairs farther apart than gate_multiplier * leaf are
    ignored), and added to it. Pass a list as icp_log to collect the
    per-pair IcpResults. An error raised for one view (NoCorrespondences, or
    the voxel grid's ValueError) carries that view's index as `view`; a bad
    gate is an InvalidParam named "gate_multiplier".

    The model is a VoxelGrid at `leaf`: per-voxel sums of the aligned
    full-resolution views, which each view joins once. It equals
    voxel_downsample(concatenate(aligned views), leaf) bit for bit. ICP
    matches the view downsampled at ICP_SOURCE_LEAF_FACTOR * leaf against
    the model's voxel means. Both that leaf and the gate must be finite.
    """
    check_merge_leaf(leaf)
    if not 0 < gate_multiplier * leaf < np.inf:
        raise InvalidParam(f"gate multiplier must be positive, and times the leaf "
                           f"finite, not {gate_multiplier}", name="gate_multiplier")

    model = VoxelGrid(leaf)
    base_inv = poses[0].invert() if poses else None
    count = 0
    for i, view in enumerate(clouds):
        count = i + 1
        if count > len(poses):
            raise ValueError(f"more than {len(poses)} clouds for {len(poses)} poses")
        if not view.has_normals:
            raise ValueError("every view needs normals before merging")
        try:
            if i > 0:
                pre = view.transformed(base_inv.compose(poses[i]))
                # ICP reads only the source's positions.
                source = voxel_downsample(PointCloud(pre.positions),
                                          ICP_SOURCE_LEAF_FACTOR * leaf)
                res = icp_point_to_plane(source, model.cloud(), max_iter=max_iter,
                                         gate=gate_multiplier * leaf)
                if icp_log is not None:
                    icp_log.append(res)
                view = pre.transformed(res.transform)
            model.add(view)
        except (NoCorrespondences, ValueError) as exc:
            exc.view = i
            raise
    if count != len(poses):
        raise ValueError(f"{count} clouds but {len(poses)} poses")
    if not count:
        raise EmptyCloud("no views to merge")
    return model.cloud()
