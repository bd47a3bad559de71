"""Seeded input generator for the facelaser benchmark workloads.

Every input file a workload feeds to the `facelaser` CLI is written here from
the workload name and a seed, together with `truth.json`, the ground truth the
output checks compare against (the analytic surface, the true view poses with
their injected errors, and the head motion). The same seed gives byte-identical
files.

The generator needs numpy only. It carries its own copy of the analytic face
(a head-sized ellipsoid, the same one the test suite uses) so that editing the
tests or the package cannot change the benchmark inputs.

Run as a script it is one benchmark set-up step: a fresh interpreter that
imports `facelaser` from `<root>/src` and then generates the inputs, so its
wall time is what `setup_s` measures:

    python3 perfbench/gen.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

WORKLOADS = ("c10_motion", "scan_60k", "guarded_240k")

FACE_RADII = (0.105, 0.14, 0.065)
FACE_CENTER = (0.0, 0.03, 0.5)
FACE_POSE_T = (0.0, 0.0, 0.25)          # nominal face frame; view 0 sits at the origin
CAMERA = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
          "width": 640, "height": 480}
D_MIN_M = 0.25                          # RunConfig defaults the viewpoints use
PHI_STEP_RAD = math.radians(10.0)
L_MIN_M = 0.04
DIAMETER_M = 0.004
PULSE_RATE_HZ = 5.0
CONTROL_RATE_HZ = 125.0

# Criterion-10 head motion: 8 mm step at 40 s, then a slow roll.
C10_MOTION = [
    {"t_s": 0.0, "translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 40.0, "translation": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 41.0, "translation": [0.0, 0.008, 0.0], "axis_angle": [0.0, 0.0, 0.0]},
    {"t_s": 300.0, "translation": [0.0, 0.008, 0.0],
     "axis_angle": [0.0, 0.0, 0.05]},
]

SCAN_NOISE_M = 2e-4                     # radial depth noise, 1 sigma
SCAN_POSE_ERR_M = 3e-3                  # injected view translation error
SCAN_POSE_ERR_RAD = math.radians(1.0)   # injected view rotation error
SCAN_POSE_ERR_SEED = 60

GUARD_SWAY_M = 7.5e-4                   # sway amplitude: 1.5 mm peak to peak
GUARD_STEP_M = 4.5e-3                   # one out-of-band head step
GUARD_STEP_T_S = 2.0
GUARD_STEP_RAMP_S = 0.04
GUARD_MOTION_END_S = 20.0
# The guarded run simulates this many leading path points of the nose plan;
# every guarded tick costs three brute-force raycasts over the full surface.
GUARD_PATH_POINTS = 16


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors (deterministic, no RNG)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def ellipsoid(n: int, front_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Face ellipsoid samples with exact outward normals (world frame).

    With front_only, keeps the half facing the camera at the origin
    (normal z below -0.05).
    """
    s = fibonacci_sphere(n)
    radii = np.asarray(FACE_RADII)
    pos = np.asarray(FACE_CENTER) + s * radii
    nrm = s / radii
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    if front_only:
        keep = nrm[:, 2] < -0.05
        pos, nrm = pos[keep], nrm[keep]
    return pos, nrm


def canonical_landmarks() -> np.ndarray:
    """Symmetric 68-point layout (640x480) matching the face's projection."""
    pts = np.zeros((68, 2))
    i = np.arange(17)
    pts[0:17, 0] = 320.0 - 105.0 * np.cos(np.pi * i / 16.0)
    pts[0:17, 1] = 200.0 + 180.0 * np.sin(np.pi * i / 16.0)
    pts[17:22] = [(235, 185), (251, 181), (267, 179), (284, 180), (300, 183)]
    pts[22:27] = [(340, 183), (356, 180), (373, 179), (389, 181), (405, 185)]
    pts[27:31] = [(320, 200), (320, 222), (320, 244), (320, 265)]
    pts[31:36] = [(300, 278), (310, 282), (320, 285), (330, 282), (340, 278)]
    pts[36:42] = [(245, 205), (258, 198), (272, 198), (285, 205),
                  (272, 212), (258, 212)]
    pts[42:48] = [(355, 205), (368, 198), (382, 198), (395, 205),
                  (382, 212), (368, 212)]
    pts[48:60] = [(280, 320), (295, 312), (308, 308), (320, 306), (332, 308),
                  (345, 312), (360, 320), (345, 332), (332, 338), (320, 340),
                  (308, 338), (295, 332)]
    pts[60:68] = [(288, 320), (305, 317), (320, 316), (335, 317), (352, 320),
                  (335, 325), (320, 327), (305, 325)]
    return pts


def rodrigues(nu) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    theta = float(np.linalg.norm(nu))
    if theta < 1e-12:
        return np.eye(3)
    k = nu / theta
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def nominal_viewpoints(n_per_side: int) -> list[np.ndarray]:
    """4x4 scanner poses on the two circular arcs, frontal first.

    Same layout as `facelaser viewpoints`: longitudinal (about y) then
    latitudinal (about x), +phi before -phi at each step.
    """
    def pose(rot, t):
        m = np.eye(4)
        m[:3, :3] = rot
        m[:3, 3] = np.asarray(FACE_POSE_T) + np.asarray(t)
        return m

    out = [pose(np.eye(3), [0.0, 0.0, -D_MIN_M])]
    for arc in ("longitudinal", "latitudinal"):
        for i in range(1, n_per_side + 1):
            for sign in (1.0, -1.0):
                phi = sign * i * PHI_STEP_RAD
                c, s = math.cos(phi), math.sin(phi)
                if arc == "longitudinal":
                    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
                    t = [-D_MIN_M * s, 0.0, -D_MIN_M * c]
                else:
                    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
                    t = [0.0, D_MIN_M * s, -D_MIN_M * c]
                out.append(pose(rot, t))
    return out


def to_frame(pose: np.ndarray, pos: np.ndarray, nrm=None):
    """World points (and normals) expressed in the frame of `pose`."""
    r, t = pose[:3, :3], pose[:3, 3]
    local = (pos - t) @ r
    return local, (None if nrm is None else nrm @ r)


def write_ply(path, pos, nrm=None, rgb=None) -> None:
    """Binary little-endian PLY: float32 xyz [nxyz], uchar rgb."""
    fields = [(n, "<f4") for n in ("x", "y", "z")]
    if nrm is not None:
        fields += [(n, "<f4") for n in ("nx", "ny", "nz")]
    if rgb is not None:
        fields += [(n, "<u1") for n in ("red", "green", "blue")]
    rec = np.zeros(len(pos), dtype=np.dtype(fields))
    for k, n in enumerate(("x", "y", "z")):
        rec[n] = pos[:, k]
    if nrm is not None:
        for k, n in enumerate(("nx", "ny", "nz")):
            rec[n] = nrm[:, k]
    if rgb is not None:
        for k, n in enumerate(("red", "green", "blue")):
            rec[n] = rgb[:, k]
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(pos)}"]
    header += [f"property {'uchar' if t == '<u1' else 'float'} {n}"
               for n, t in fields]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(rec.tobytes())


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _common(out: str, config: dict) -> None:
    write_json(os.path.join(out, "config.json"), config)
    write_json(os.path.join(out, "cam.json"), CAMERA)
    lm = canonical_landmarks()
    write_json(os.path.join(out, "lm.json"),
               {"points": [[float(u), float(v)] for u, v in lm],
                "width": CAMERA["width"], "height": CAMERA["height"]})
    write_json(os.path.join(out, "face_pose.json"),
               {"translation": list(FACE_POSE_T), "axis_angle": [0.0, 0.0, 0.0]})


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def gen_c10_motion(out: str, seed: int) -> dict:
    """The criterion-10 fixture: 5 exact views of the 6k face, head motion."""
    _common(out, {"mc_samples": 100_000, "n_per_side": 1, "seed": seed})
    write_json(os.path.join(out, "motion.json"), C10_MOTION)
    pos, nrm = ellipsoid(6000, front_only=True)
    poses = nominal_viewpoints(1)
    for i, p in enumerate(poses):
        write_ply(os.path.join(out, f"view{i}.ply"), *to_frame(p, pos, nrm))
    poses = [p.tolist() for p in poses]
    return {"views": len(poses), "nominal_poses": poses, "true_poses": poses,
            "noise_m": 0.0, "motion": C10_MOTION}


def gen_scan_60k(out: str, seed: int) -> dict:
    """Nine noisy depth-camera views of the 60k face at perturbed poses."""
    rng = np.random.default_rng([seed, 60])
    # The injected pose errors are the same for every seed; the seed draws the
    # noise and colours. ICP's iteration count follows the pose errors, so
    # seeded errors made register time differ between seeds by a third; the
    # seeded noise alone still moves it (68 to 87 iterations over 9 seeds).
    err_rng = np.random.default_rng(SCAN_POSE_ERR_SEED)
    _common(out, {"seed": seed})
    pos, nrm = ellipsoid(60000, front_only=True)
    nominal_poses = nominal_viewpoints(2)
    true_poses = []
    for i, nominal in enumerate(nominal_poses):
        err = np.eye(4)
        err[:3, :3] = rodrigues(_unit(err_rng) * SCAN_POSE_ERR_RAD)
        err[:3, 3] = _unit(err_rng) * SCAN_POSE_ERR_M
        pose = nominal @ err
        center = pose[:3, 3]
        facing = np.einsum("ij,ij->i", nrm, center - pos) > 0.0
        p = pos[facing]
        ray = p - center
        ray /= np.linalg.norm(ray, axis=1, keepdims=True)
        p = p + rng.normal(0.0, SCAN_NOISE_M, size=(len(p), 1)) * ray
        rgb = np.clip(rng.normal([200, 160, 140], 12, size=(len(p), 3)),
                      0, 255).astype(np.uint8)
        write_ply(os.path.join(out, f"view{i}.ply"), to_frame(pose, p)[0], rgb=rgb)
        true_poses.append(pose.tolist())
    return {"views": len(true_poses), "true_poses": true_poses,
            "nominal_poses": [p.tolist() for p in nominal_poses],
            "noise_m": SCAN_NOISE_M}


def gen_guarded_240k(out: str, seed: int) -> dict:
    """Dense face with exact normals, head sway plus one out-of-band step."""
    rng = np.random.default_rng([seed, 240])
    _common(out, {"standoff_m": 0.045, "seed": seed})
    pos, nrm = ellipsoid(240000, front_only=True)
    write_ply(os.path.join(out, "face.ply"), pos, nrm)
    sway_dir = _unit(rng)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    period = rng.uniform(2.5, 3.5)
    step_dir = _unit(rng)
    keys = []
    for t in np.arange(0.0, GUARD_MOTION_END_S, 0.25):
        tr = GUARD_SWAY_M * math.sin(2.0 * math.pi * t / period + phase) * sway_dir
        if t >= GUARD_STEP_T_S + GUARD_STEP_RAMP_S:
            tr = tr + GUARD_STEP_M * step_dir
        keys.append((float(t), tr))
        if t == GUARD_STEP_T_S:
            keys.append((t + GUARD_STEP_RAMP_S, tr + GUARD_STEP_M * step_dir))
    motion = [{"t_s": t, "translation": [float(x) for x in tr],
               "axis_angle": [0.0, 0.0, 0.0]} for t, tr in keys]
    write_json(os.path.join(out, "motion.json"), motion)
    return {"surface_points": len(pos), "noise_m": 0.0, "motion": motion,
            "path_points": GUARD_PATH_POINTS}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs and truth.json into `out`; return the truth."""
    gens = {"c10_motion": gen_c10_motion, "scan_60k": gen_scan_60k,
            "guarded_240k": gen_guarded_240k}
    if workload not in gens:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(out, exist_ok=True)
    truth = gens[workload](out, seed)
    truth.update({"workload": workload, "seed": seed,
                  "face_radii_m": list(FACE_RADII),
                  "face_center_m": list(FACE_CENTER),
                  "l_min_m": L_MIN_M, "laser_diameter_m": DIAMETER_M,
                  "pulse_rate_hz": PULSE_RATE_HZ,
                  "control_rate_hz": CONTROL_RATE_HZ})
    write_json(os.path.join(out, "truth.json"), truth)
    return truth


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: gen.py WORKLOAD SEED OUT_DIR", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import facelaser  # noqa: F401  (part of the measured set-up)
    generate(argv[0], int(argv[1]), argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
