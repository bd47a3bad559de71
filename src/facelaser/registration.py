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
# 60k-point face views (paired by nearest model point at the time),
# iterations that accept no step above 1/32 change the rmse by 1e-7 relative
# or less, and twelve trials took 245 evaluations for 61 iterations against
# 72 with four, for the same merged surface error.
ICP_LINE_SEARCH_STEPS = 4

# ICP pairs a point only with the model voxel it falls in, so one level
# captures a view only within about a leaf of its place. merge_views first
# aligns each view against coarser grids of the model, at leaf * 2**k for k
# from ICP_COARSE_LEVELS down to 1, stopping each once an iteration changes
# its rmse by less than ICP_COARSE_TOL relative. On the benchmark's scan_60k
# views (seeds 1-10, 2 mm leaf) with the injected pose error scaled from 1x
# (3 mm, 1 deg) to 3.33x (10 mm, 3.3 deg), the leaf alone left a view
# 30-65 mm off, or paired no point, at every seed from 2x on, and one 16 mm
# level before it lost a view at 3.33x; these levels placed every view
# within 0.12 mm of its true pose, and a 1e-3 tolerance only took more steps.
ICP_COARSE_LEVELS = 3
ICP_COARSE_TOL = 1e-2

# The iteration cap of every ICP level in merge_views.
ICP_MAX_ITER = 30


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


def _plane_rmse(src: np.ndarray, target: VoxelGrid, model: PointCloud, last):
    """The point-to-plane rmse of `src` against the target voxels its points
    fall in, with the paired points, their voxels' normals (from `model`, the
    target's cloud), the residuals, and the lookup to pass as `last` next
    time."""
    found = target.lookup(src, last)
    # take, not fancy indexing: several times faster on (n, 3) rows.
    keep = np.flatnonzero(found[1] >= 0)
    if not len(keep):
        raise NoCorrespondences("no source point fell in a model voxel")
    p, j = src.take(keep, axis=0), found[1].take(keep)
    d = p - model.positions.take(j, axis=0)
    n = model.normals.take(j, axis=0)
    b = np.einsum("ij,ij->i", d, n)
    return float(np.sqrt(np.mean(b * b))), p, n, b, found


def icp_point_to_plane(source: PointCloud, target: VoxelGrid,
                       init: RigidTransform | None = None, max_iter: int = 50,
                       tol: float = 1e-10) -> IcpResult:
    """Point-to-plane ICP aligning source onto a voxel grid's model (the grid
    must hold normals).

    Each iteration pairs every transformed source point with the mean and
    normal of the target voxel it falls in, if any: a lookup, not a
    nearest-point search (Koide et al., "Voxelized GICP for Fast and
    Accurate 3D Point Cloud Registration", ICRA 2021). It linearizes the
    rotation around the current estimate and solves the 6x6 normal
    equations for the twist [omega, t]. The update is backtracked
    (halved, at most ICP_LINE_SEARCH_STEPS trials) until the freshly
    re-evaluated objective does not increase, so the recorded rmse history is
    non-increasing; a trial step that pairs no point does not help either.
    When no trial step helps, the pair has converged. Rank-deficient systems
    fall back to the pseudo-inverse. A point pairs only with the voxel it
    falls in, so a source much more than a leaf from its place may settle
    on too few pairs; merge_views aligns coarse to fine.

    Each evaluation searches the grid again only for the source points whose
    voxel changed since the last one (VoxelGrid.lookup's `last`), so the
    pairs, and the result, are the ones a fresh lookup of every point gives.

    Returns an IcpResult whose transform maps source coordinates into the
    target frame.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("ICP needs a non-empty source and target")
    model = target.cloud(colors=False)
    if not model.has_normals:
        raise ValueError("target grid must have normals for point-to-plane ICP")
    t = init if init is not None else RigidTransform.identity()
    src0 = source.positions

    rmse, p, n, b, found = _plane_rmse(t.apply(src0), target, model, None)
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
            try:
                cand_eval = _plane_rmse(cand.apply(src0), target, model, found)
            except NoCorrespondences:
                cand_eval = None        # a step that pairs nothing does not help
            if cand_eval is not None:
                found = cand_eval[-1]
                if cand_eval[0] <= rmse + 1e-15:
                    accepted = (cand, cand_eval)
                    break
            step *= 0.5
        if accepted is None:
            converged = True       # no step improves the objective
            break
        t, (new_rmse, p, n, b, _) = accepted
        history.append(new_rmse)
        if new_rmse <= 1e-12 or abs(rmse - new_rmse) <= tol * max(rmse, 1e-12):
            rmse = new_rmse
            converged = True
            break
        rmse = new_rmse
    return IcpResult(t, rmse, iterations, converged, history)


def check_merge_leaf(leaf: float) -> None:
    """Raise InvalidParam unless merge_views can run at `leaf`: positive,
    with its coarsest ICP grid's leaf, 2**ICP_COARSE_LEVELS * leaf, finite
    (which bounds the ICP source's leaf too)."""
    if not (0 < leaf and 2.0**ICP_COARSE_LEVELS * leaf < np.inf):
        raise InvalidParam(f"leaf must be positive, and {2**ICP_COARSE_LEVELS} times "
                           f"it finite, not {leaf}")


def merge_views(clouds: Iterable[PointCloud], poses: list[RigidTransform], leaf: float,
                icp_log: list | None = None) -> PointCloud:
    """Fuse per-view clouds into one model in the first view's frame.

    `clouds` is any iterable of views, read one at a time, so a view can be
    loaded while the one before it is aligned; each is checked for normals,
    and counted against `poses`, when it is reached. `poses` holds the
    base-frame view poses, one per cloud. Every cloud after the first is
    pre-aligned by its known pose relative to view 0, ICP-refined against
    the model so far, and added to it. Pass a list as icp_log to collect the
    per-pair IcpResults at the leaf. An error raised for one view
    (NoCorrespondences, or the voxel grid's ValueError) carries that view's
    index as `view`.

    The model is a VoxelGrid at `leaf`: per-voxel sums of the aligned
    full-resolution views, which each view joins once. It equals
    voxel_downsample(concatenate(aligned views), leaf) bit for bit. ICP
    pairs the view downsampled at ICP_SOURCE_LEAF_FACTOR * leaf with the
    voxels of coarser grids first, coarsest first, then with the model's
    (ICP_COARSE_LEVELS); the coarser grids hold the aligned views at that
    same downsampling. Each level runs at most ICP_MAX_ITER iterations.
    """
    check_merge_leaf(leaf)
    model = VoxelGrid(leaf)
    coarse = [VoxelGrid(leaf * 2.0**k) for k in range(ICP_COARSE_LEVELS, 0, -1)]
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
                view = view.transformed(base_inv.compose(poses[i]))
            # ICP reads the positions and the coarser grids the normals, not colors.
            small = voxel_downsample(PointCloud(view.positions, view.normals),
                                     ICP_SOURCE_LEAF_FACTOR * leaf)
            if i > 0:
                t = None
                for grid in coarse:
                    t = icp_point_to_plane(small, grid, init=t, max_iter=ICP_MAX_ITER,
                                           tol=ICP_COARSE_TOL).transform
                res = icp_point_to_plane(small, model, init=t, max_iter=ICP_MAX_ITER)
                if icp_log is not None:
                    icp_log.append(res)
                view, small = view.transformed(res.transform), small.transformed(res.transform)
            model.add(view)
            if count < len(poses):
                for grid in coarse:
                    grid.add(small)
        except (NoCorrespondences, ValueError) as exc:
            exc.view = i
            raise
    if count != len(poses):
        raise ValueError(f"{count} clouds but {len(poses)} poses")
    if not count:
        raise EmptyCloud("no views to merge")
    return model.cloud()
