"""Rigid-body geometry: frames, axis-angle conversions, pinhole projection.

Conventions: rotation matrices act on column vectors, transforms map local
coordinates into the parent frame (x_parent = R @ x + t), angles are radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateNormal, ParseError

# A Vec3 is a plain float64 ndarray of shape (3,).
Vec3 = np.ndarray

Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize v; raises DegenerateInput on (near-)zero norm."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise DegenerateInput("cannot normalize a zero-length vector")
    return v / n


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) array, each rounded as
    np.linalg.norm rounds that row alone."""
    return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(len(v)))


def norms_by_column(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) of an (n, 3) array, bit for bit, from its
    three columns: sqrt((x*x + y*y) + z*z). numpy reduces along the short
    axis several times more slowly."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt((x * x + y * y) + z * z)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix of v."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass
class RigidTransform:
    """SO(3) rotation plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self applied after other's frame embedding: (self o other)(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def invert(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (3,) or (N, 3) into the parent frame."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def apply_direction(self, dirs: np.ndarray) -> np.ndarray:
        """Rotate direction vectors without translating."""
        d = np.asarray(dirs, dtype=float)
        if d.ndim == 1:
            return self.rotation @ d
        return d @ self.rotation.T


@dataclass
class PoseVector6:
    """Position stacked with an axis-angle orientation (the robot pose format)."""

    position: np.ndarray
    axis_angle: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.axis_angle = np.asarray(self.axis_angle, dtype=float).reshape(3)

    @classmethod
    def from_transform(cls, t: RigidTransform) -> "PoseVector6":
        return cls(t.translation.copy(), rotation_to_axis_angle(t.rotation))

    def to_transform(self) -> RigidTransform:
        return RigidTransform(axis_angle_to_rotation(self.axis_angle), self.position.copy())


def parse_pose(doc, source) -> RigidTransform:
    """The pose of a {"translation", "axis_angle"} document; ParseError names
    `source` when a field is missing, a value is not a finite number, or the
    axis_angle is too long for its norm to be finite (past ~1.3e154)."""
    try:
        psi = PoseVector6(doc["translation"], doc["axis_angle"])
    except KeyError as exc:
        raise ParseError(f"{source}: pose without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{source}: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        pose = psi.to_transform()           # NaN once the axis_angle norm overflows
    if not (np.isfinite(psi.position).all() and np.isfinite(pose.rotation).all()):
        raise ParseError(f"{source}: non-finite pose value or rotation")
    return pose


@dataclass
class CameraIntrinsics:
    """Pinhole camera parameters, pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def rotation_from_normal(eta: Vec3, reference: Vec3 = Y_AXIS) -> np.ndarray:
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


def rotation_to_axis_angle(rotation: np.ndarray) -> np.ndarray:
    """Axis-angle vector nu = theta * u_hat of a rotation matrix, theta in [0, pi].

    The axis comes from the antisymmetric part u = vee(R - R^T), whose norm is
    2 sin(theta). Near theta = pi that part vanishes, so the axis is recovered
    from the dominant column of (R + I)/2 = u u^T instead.
    """
    r = np.asarray(rotation, dtype=float)
    u = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    n = np.linalg.norm(u)
    cos_theta = 0.5 * (np.trace(r) - 1.0)
    if n < 1e-6 and cos_theta < 0.0:
        # theta within ~5e-7 of pi: the symmetric part of (R + I)/2 is
        # u u^T + O((pi - theta)^2); symmetrizing first drops the residual
        # (pi - theta)/2 * hat(u) term that would otherwise tilt the axis.
        m = 0.25 * (r + r.T) + 0.5 * np.eye(3)
        j = int(np.argmax(np.diag(m)))
        axis = m[:, j]
        axis = axis / np.linalg.norm(axis)
        if n > 1e-12:
            if np.dot(axis, u) < 0.0:
                axis = -axis
        elif axis[np.argmax(np.abs(axis))] < 0.0:
            axis = -axis
        theta = np.pi - np.arcsin(min(0.5 * n, 1.0))
        return theta * axis
    if n < 1e-12:
        return np.zeros(3)
    theta = np.arctan2(0.5 * n, cos_theta)
    return theta * (u / n)


def rotations_to_axis_angle(rotations) -> np.ndarray:
    """rotation_to_axis_angle of each rotation of an (n, 3, 3) stack, as (n, 3).

    Rounded as the one-matrix form rounds; a rotation within ~5e-7 of pi
    takes that form's branch for it.
    """
    r = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    u = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                  r[:, 1, 0] - r[:, 0, 1]], axis=1)
    n = row_norms(u)
    cos_theta = 0.5 * (r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2] - 1.0)
    out = np.zeros_like(u)
    turned = n >= 1e-12
    theta = np.arctan2(0.5 * n[turned], cos_theta[turned])
    out[turned] = theta[:, None] * (u[turned] / n[turned, None])
    for i in np.flatnonzero((n < 1e-6) & (cos_theta < 0.0)):
        out[i] = rotation_to_axis_angle(r[i])
    return out


def axis_angle_to_rotation(nu: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; identity for ||nu|| < 1e-12."""
    nu = np.asarray(nu, dtype=float)
    theta = np.linalg.norm(nu)
    if theta < 1e-12:
        return np.eye(3)
    k = hat(nu / theta)
    return np.eye(3) + np.sin(theta) * k + 2.0 * np.sin(0.5 * theta) ** 2 * (k @ k)


def rotation_about_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def interpolate_rotation(r_from: np.ndarray, r_to: np.ndarray, fraction: float) -> np.ndarray:
    """Spherical interpolation between two rotations along the geodesic."""
    if fraction >= 1.0:
        return np.asarray(r_to, dtype=float).copy()
    if fraction <= 0.0:
        return np.asarray(r_from, dtype=float).copy()
    rel = rotation_to_axis_angle(np.asarray(r_from).T @ np.asarray(r_to))
    return np.asarray(r_from) @ axis_angle_to_rotation(fraction * rel)


def interpolate_rotations(r_from: np.ndarray, r_to: np.ndarray, fractions) -> np.ndarray:
    """interpolate_rotation at each of `fractions`, as an (n, 3, 3) stack.

    `r_from` and `r_to` are one pair, (3, 3) each, or one pair per fraction,
    (n, 3, 3) each. Each rotation is rounded as interpolate_rotation rounds
    it: the relative rotation's axis-angle, scaled, through Rodrigues'
    formula.
    """
    r_from = np.asarray(r_from, dtype=float)
    r_to = np.asarray(r_to, dtype=float)
    f = np.asarray(fractions, dtype=float).reshape(-1)
    nu = f[:, None] * rotations_to_axis_angle(np.swapaxes(r_from, -1, -2) @ r_to)
    theta = row_norms(nu)
    k = np.zeros((len(nu), 3, 3))
    turned = theta >= 1e-12
    u = nu[turned] / theta[turned, None]
    k[turned, 0, 1], k[turned, 0, 2], k[turned, 1, 2] = -u[:, 2], u[:, 1], -u[:, 0]
    k[turned, 1, 0], k[turned, 2, 0], k[turned, 2, 1] = u[:, 2], -u[:, 1], u[:, 0]
    theta = theta[:, None, None]
    # float_power squares as a scalar's ** 2 does, by C pow; an array's ** 2
    # is x * x, which rounds differently.
    step = (np.eye(3) + np.sin(theta) * k
            + 2.0 * np.float_power(np.sin(0.5 * theta), 2.0) * (k @ k))
    step[~turned] = np.eye(3)
    out = r_from @ step
    out[f >= 1.0] = np.broadcast_to(r_to, out.shape)[f >= 1.0]
    out[f <= 0.0] = np.broadcast_to(r_from, out.shape)[f <= 0.0]
    return out


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics,
                   extrinsics: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection. Returns (pixels (N,2), in_front mask (N,)).

    Points behind the camera get a False mask entry instead of an exception.
    """
    p = extrinsics.apply(np.asarray(points, dtype=float))
    in_front = p[:, 2] > 1e-6
    z = np.where(in_front, p[:, 2], 1.0)
    pix = np.empty((len(p), 2))
    pix[:, 0] = intrinsics.fx * p[:, 0] / z + intrinsics.cx
    pix[:, 1] = intrinsics.fy * p[:, 1] / z + intrinsics.cy
    return pix, in_front
