"""Pose and trajectory helpers the tests share, a fresh interpreter, a hang watchdog, and the oracles of replaced forms.

The oracles: the pose inverse, the rotation rule and relative pose, the
rotation angle, the similarity fit over the unscaled covariance, and
lift-splat.
"""

import contextlib
import faulthandler
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
    proper_rotation,
    repair_rotations,
    vehicle_to_pixel,
)


# A 3-frame TUM drive at 0, 1.7e308 and -1.7e308 m along x: the relative pose of its two far
# frames leaves the float range, those of the far frames and the origin do not.
FAR_DRIVE_TUM = "0 0 0 0 0 0 0 1\n1 1.7e308 0 0 0 0 0 1\n2 -1.7e308 0 0 0 0 0 1\n"


def run_fresh_python(*args, timeout=120, env=None):
    """Run a new interpreter that imports bevkit from the same place as this one, killed after ``timeout`` s.

    A call that may hang runs here, so that it fails by ``TimeoutExpired``
    instead of stalling the suite.  ``env`` holds variables the new
    interpreter gets on top of this one's environment.
    """
    env = {**os.environ, **(env or {})}
    src = str(Path(bevkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


@contextlib.contextmanager
def hang_watchdog(seconds: float, file=None):
    """Unless the block ends within ``seconds``, write every thread's traceback to ``file`` and end the process.

    ``file`` defaults to ``sys.stderr``.  faulthandler's watchdog is a C
    thread, so it fires even inside a call that never returns to Python,
    such as a LAPACK routine; the process exits with status 1.
    """
    faulthandler.dump_traceback_later(seconds, exit=True, file=file or sys.stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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


def rigid_inverse(m: np.ndarray) -> np.ndarray:
    """[R^T | -R^T t] of one 4x4 rigid pose, R^T negated before its product with t: the segment oracles' inverse."""
    r_t = m[:3, :3].T
    out = np.eye(4)
    out[:3, :3] = r_t
    out[:3, 3] = np.negative(r_t) @ m[:3, 3]
    return out


def reference_rotation_error(r: np.ndarray) -> tuple[float, float]:
    """The rotation rule of one 3x3 block in Python floats, Gram entry by Gram entry: the oracle of ``rotation_error``.

    Entry (j, k) of ``R^T R - I`` sums the column products over the rows
    in order; the squares of the diagonal, then twice those of the upper
    triangle, make the drift's square; det R is the cofactor expansion
    along the first row.
    """
    rows = r.tolist()
    cols = list(zip(*rows))
    gram = [[cols[j][0] * cols[k][0] + cols[j][1] * cols[k][1] + cols[j][2] * cols[k][2] - (j == k) * 1.0
             for k in range(3)] for j in range(3)]
    diagonal = gram[0][0] * gram[0][0] + gram[1][1] * gram[1][1] + gram[2][2] * gram[2][2]
    upper = gram[0][1] * gram[0][1] + gram[0][2] * gram[0][2] + gram[1][2] * gram[1][2]
    (a, b, c), (d, e, f), (g, h, i) = rows
    return math.sqrt(diagonal + 2.0 * upper), a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def reference_relative_pose(a: Pose3, b: Pose3) -> np.ndarray:
    """inverse(a) * b with every check run, as ``relative_pose`` did before it judged the product once.

    The per-frame inverse, then the repair where the float rule's drift
    passes the tolerance, then the full rigid check; returns the matrix.
    """
    m = reference_invert_rigid(a.matrix[None])[0] @ b.matrix
    if reference_rotation_error(m[:3, :3])[0] > ORTHONORMALITY_TOL:
        m[:3, :3] = proper_rotation(m[:3, :3])[0]
    return Pose3(m).matrix


def unscaled_similarity_fit(src, dst, weights=None, with_scale=False):
    """Umeyama's fit over the covariance of the centred sets as they are: the oracle of ``fit_similarity``'s bits.

    This is how ``fit_similarity`` formed an ordinary fit before it scaled
    each centred set below 1 by a power of two.  Returns (R, t, scale,
    sigma, e): ``e`` is the sum of the two exponents just above the centred
    sets' largest magnitudes, so ``fit_similarity``'s sigma is this
    ``sigma * 2^-e``.
    """
    w = (np.ones(len(src)) if weights is None else np.asarray(weights, dtype=float))[:, None]
    src_c, dst_c = (w * src).sum(axis=0) / w.sum(), (w * dst).sum(axis=0) / w.sum()
    p, q = src - src_c, dst - dst_c
    cov = (w * q).T @ p
    rot, sigma = proper_rotation(cov)
    scale = float(np.sum(rot * cov) / (w * p * p).sum()) if with_scale else 1.0
    e = sum(math.frexp(float(np.abs(x).max()))[1] for x in (p, q))
    return rot, dst_c - scale * rot @ src_c, scale, sigma, e


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


def floored_cells(frustum, grid):
    """Reference binning: the flat cell ``floor(v) * W + floor(u)`` of every frustum point, and the in-grid mask.

    The mask tests the floored row and column against the grid, as the
    former ``assign_cells`` did; a cell id is meaningful only where it is
    True.  Both are (D, H, W) arrays.
    """
    u, v = vehicle_to_pixel(frustum[..., 0], frustum[..., 1], grid)
    cols = np.floor(u).astype(np.int64)
    rows = np.floor(v).astype(np.int64)
    in_grid = (rows >= 0) & (rows < grid.height_px) & (cols >= 0) & (cols < grid.width_px)
    return rows * grid.width_px + cols, in_grid


def add_at_splat(lifted, frustum, grid):
    """Reference splat: one ``np.add.at`` of the in-grid points over an (H*W, C) buffer.

    Returns (bev, dropped) as ``project_volume`` does, for a (C, D, H, W)
    ``lifted`` tensor and the (D, H, W, 3) frustum it sits on.  The points
    are binned by :func:`floored_cells`, not by the plan ``project_volume``
    uses.
    """
    c = lifted.shape[0]
    cells, in_grid = floored_cells(frustum, grid)
    keep = in_grid.ravel()
    cells = cells.ravel()[keep]
    vals = lifted.reshape(c, -1)[:, keep]
    bev_flat = np.zeros((grid.height_px * grid.width_px, c))
    np.add.at(bev_flat, cells, vals.T)
    dropped = int(keep.size - np.count_nonzero(keep))
    return bev_flat.T.reshape(c, grid.height_px, grid.width_px), dropped
