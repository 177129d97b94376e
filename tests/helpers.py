"""Pose and trajectory helpers the tests share, a fresh interpreter, and the oracles of replaced forms.

The oracles: the pose inverse, drift screen and relative pose, the
rotation angle, and lift-splat.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bevkit
from bevkit.evaluation import Trajectory
from bevkit.geometry import (
    ORTHONORMALITY_TOL,
    Pose3,
    _check_rigid_matrix,
    proper_rotation,
    repair_rotations,
    rotation_error,
)
from bevkit.lss import assign_cells


def run_fresh_python(*args, timeout=120):
    """Run a new interpreter that imports bevkit from the same place as this one, killed after ``timeout`` s.

    A call that may hang runs here, so that it fails by ``TimeoutExpired``
    instead of stalling the suite.
    """
    env = dict(os.environ)
    src = str(Path(bevkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def rot_z(theta: float) -> np.ndarray:
    """3x3 rotation about the vehicle z (up) axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pose3(rotation, translation) -> Pose3:
    """The pose with a 3x3 ``rotation`` and a length-3 ``translation``."""
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return Pose3(m)


def compose(a: Pose3, b: Pose3) -> Pose3:
    """The product a * b, re-orthonormalized by ``repair_rotations`` as ``relative_pose`` is."""
    m = a.matrix @ b.matrix
    repair_rotations(m[None])
    return Pose3(m)


def reference_invert_rigid(poses: np.ndarray) -> np.ndarray:
    """The inverses [R^T | -R^T t] with one allocating ``-R^T @ t`` per frame: the oracle of ``invert_rigid``."""
    poses = np.ascontiguousarray(poses, dtype=float)
    r_t = np.swapaxes(poses[:, :3, :3], 1, 2)
    out = np.zeros_like(poses)
    out[:, :3, :3] = r_t
    out[:, 3, 3] = 1.0
    for k in range(len(poses)):
        out[k, :3, 3] = -r_t[k] @ poses[k, :3, 3]
    return out


def reference_drifted(r: np.ndarray) -> np.ndarray:
    """The drift screen from one stacked ``R^T R - I``: the oracle of ``geometry._drifted``."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(np.swapaxes(r, 1, 2), r) - np.eye(3)
        return ~(np.sqrt((gram * gram).sum(axis=(1, 2))) <= 0.5 * ORTHONORMALITY_TOL)


def reference_relative_pose(a: Pose3, b: Pose3) -> np.ndarray:
    """inverse(a) * b with every check run, as ``relative_pose`` did before its scalar screen.

    The per-frame inverse, then the stacked drift screen with the scalar
    rule's repair, then the full rigid check; returns the matrix.
    """
    m = reference_invert_rigid(a.matrix[None])[0] @ b.matrix
    if reference_drifted(m[None, :3, :3])[0] and rotation_error(m[:3, :3])[0] > ORTHONORMALITY_TOL:
        m[:3, :3] = proper_rotation(m[:3, :3])[0]
    _check_rigid_matrix(m)
    return m


def rotation_angle(rot: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians in [0, pi]: the scalar oracle of ``_rotation_angles``."""
    trace = float(rot[0, 0] + rot[1, 1] + rot[2, 2])
    return math.acos(min(1.0, max(-1.0, 0.5 * (trace - 1.0))))


def transform_trajectory(traj: Trajectory, rotation, translation, scale: float = 1.0) -> Trajectory:
    """Apply a global similarity to every pose (left action).

    Positions map to scale * rotation @ p + translation; orientations are
    rotated by ``rotation``.
    """
    rotation = np.asarray(rotation, dtype=float)
    poses = np.array(traj.poses)
    poses[:, :3, :3] = np.einsum("ij,njk->nik", rotation, traj.poses[:, :3, :3])
    poses[:, :3, 3] = scale * traj.positions @ rotation.T + np.asarray(translation, dtype=float)
    return Trajectory(traj.timestamps, poses)


def lift(context, depth) -> np.ndarray:
    """Reference lift: the (C, D, H, W) outer product ``context[c, h, w] * depth[d, h, w]``."""
    return context.data[:, None] * depth.data[None]


def add_at_splat(lifted, frustum, grid):
    """Reference splat: one ``np.add.at`` of the in-grid points over an (H*W, C) buffer.

    Returns (bev, dropped) as ``project_volume`` does, for a (C, D, H, W)
    ``lifted`` tensor and the (D, H, W, 3) frustum it sits on.
    """
    c = lifted.shape[0]
    asg = assign_cells(frustum, grid)
    keep = asg.in_grid.ravel()
    cells = asg.rows.ravel()[keep] * grid.width_px + asg.cols.ravel()[keep]
    vals = lifted.reshape(c, -1)[:, keep]
    bev_flat = np.zeros((grid.height_px * grid.width_px, c))
    np.add.at(bev_flat, cells, vals.T)
    dropped = int(keep.size - np.count_nonzero(keep))
    return bev_flat.T.reshape(c, grid.height_px, grid.width_px), dropped
