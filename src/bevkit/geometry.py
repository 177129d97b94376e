"""Pose algebra for SE(3)/SE(2), timed pose sequences, and the metric bird's-eye-view pixel grid.

Conventions used throughout the package:

* Vehicle frame: x forward, y left, z up, meters.
* BEV grid: pixel (u, v) with u along image columns and v along rows.
  Forward (vehicle +x) points toward decreasing v, left (vehicle +y)
  toward increasing u.  The grid origin ``(o_x, o_y)`` is the pixel
  location of the vehicle origin and defaults to the grid center.
* Angles are radians and always wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidCameraError, ShapeError
from .text import FINITE, FINITE_POSITIVE, FLAG, _float_array, check_arg, check_array, integer_in

TWO_PI = 2.0 * math.pi

# A rotation block is accepted as orthonormal when ||R^T R - I||_F and
# |det R - 1| stay below this; beyond it we refuse, in between we repair.
ORTHONORMALITY_TOL = 1e-9

MAX_GRID_CELLS = 2**22  # most pixels along a BEV grid side, and most cells of any BEV grid

# below this a nonzero square is subnormal or zero, so a norm loses bits or reads 0
_TINY = math.sqrt(sys.float_info.min)


def wrap_angle(theta):
    """Wrap an angle or an array of angles to the interval (-pi, pi]."""
    if isinstance(theta, float) and math.isfinite(theta):
        # a float's % has np.mod's rule: fmod, then the divisor's sign
        wrapped = float(theta) % TWO_PI
        return wrapped - TWO_PI if wrapped > math.pi else wrapped
    wrapped = np.mod(theta, TWO_PI)
    wrapped = np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def proper_rotation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest proper rotation U S V^T to m = U diag(sigma) V^T, and sigma (descending).

    S = I, or diag(1, ..., 1, -1) when U V^T is a reflection.  ``m`` takes
    the array rule first: LAPACK's SVD may never return on an inf.
    """
    u, sigma, vt = np.linalg.svd(check_array("m", m, ("N", "N")))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r, sigma


def _scale_safe(f, x: np.ndarray):
    """``f(x)`` for a nonnegative ``f`` with f(c x) = c f(x), c > 0: a norm, an RMS or a mean of magnitudes.

    A result past the float range, or below ``_TINY`` where squares turn
    subnormal, is recomputed as ``m * f(x / m)``, ``m`` the largest magnitude
    of ``x`` (Blue's scaled norm, ACM TOMS 1978).  An ``x`` that is all zero
    or not all finite keeps its result, so inf stays the caller's to judge.
    An ``OverflowError`` from ``f``, as from a Python float's ``**``, is inf.
    An ``f`` that gives one value per row of a 2-D ``x`` is rescaled row by
    row, each by its own ``m``.  Every other result keeps its bits.
    """
    with np.errstate(over="ignore", under="ignore"):
        try:
            out = f(x)
        except OverflowError:
            out = math.inf
        redo = (out < _TINY) | ~np.isfinite(out)
        if not redo.any():
            return out
        if np.ndim(out) == 0:
            m = float(np.abs(x).max())  # inf or NaN unless every entry is finite
            return m * f(x / m) if 0.0 < m < math.inf else out
        rows = np.flatnonzero(redo)
        m = np.abs(x[rows]).max(axis=1)
        keep = (m > 0.0) & (m < math.inf)
        rows, m = rows[keep], m[keep]
        out[rows] = m * f(x[rows] / m[:, None])
        return out


def fit_similarity(src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None,
                   with_scale: bool = False) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Weighted least-squares fit dst_i ~ scale * R @ src_i + t over (N, d) point sets.

    Umeyama's closed form (TPAMI 1991): R is a proper rotation, scale is 1
    unless ``with_scale`` (0 when ``src`` has no spread), omitted weights
    are uniform.  Returns (R, t, scale, sigma); callers judge uniqueness by
    ``sigma``, the singular values of sum_i w_i (dst_i - dst_c)(src_i - src_c)^T.
    A covariance, or with ``with_scale`` a variance, with no entry of normal magnitude or one past
    the float range is formed again from each centred set over its own largest magnitude, as
    ``_scale_safe`` rescales; ``sigma`` is then in those units.  Weights without a finite sum > 0,
    or a centred set, scale or translation past the float range, raise DegenerateInputError.
    """
    src = check_array("src", src, ("N", "d"))
    dst = check_array("dst", dst, src.shape)
    # finiteness is the sum's verdict below, which names the weights' fault
    w = (np.ones(len(src)) if weights is None else _float_array("weights", weights, src.shape[:1]))[:, None]
    with_scale = check_arg("with_scale", with_scale, FLAG)
    m_p = m_q = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # each is judged below
        total = w.sum()
        if not 0.0 < total < math.inf:
            raise DegenerateInputError(f"weights must sum to a finite number > 0, got {float(total)!r}")
        src_c = (w * src).sum(axis=0) / total
        dst_c = (w * dst).sum(axis=0) / total
        p = src - src_c
        wq = w * (dst - dst_c)
        cov, var = wq.T @ p, (w * p * p).sum() if with_scale else 1.0  # 1.0: no variance to judge
        # out of range, both are formed again from each centred set over its own largest magnitude
        if not (sys.float_info.min <= np.abs(cov).max() < math.inf and sys.float_info.min <= var < math.inf):
            q = dst - dst_c
            m_p, m_q = (float(np.abs(x).max()) or 1.0 for x in (p, q))  # 1.0 for a set without spread
            if not (math.isfinite(m_p) and math.isfinite(m_q)):
                raise DegenerateInputError("a centred point set leaves the float range")
            p, wq = p / m_p, w * (q / m_q)
            cov, var = wq.T @ p, (w * p * p).sum() if with_scale else 1.0
        rot, sigma = proper_rotation(cov)
        scale = 1.0
        if with_scale:
            # trace(R^T cov): the singular values summed, the last one negated if proper_rotation fixed a reflection
            scale = float(np.sum(rot * cov) / var) * (m_q / m_p) if var > 0.0 else 0.0
        t = dst_c - scale * rot @ src_c
    if not math.isfinite(scale):
        raise DegenerateInputError("the scale of the similarity fit leaves the float range")
    if not np.isfinite(t).all():
        raise DegenerateInputError("the translation of the similarity fit leaves the float range")
    return rot, t, scale, sigma


def _rule(a, b, c, d, e, f, g, h, i, sqrt):
    """The rotation rule's drift ||R^T R - I||_F and det R of R = [[a, b, c], [d, e, f], [g, h, i]].

    Each step is one IEEE operation in a fixed order, so nine floats with
    ``math.sqrt`` and nine float64 arrays with ``np.sqrt`` give the same bits.
    """
    # the six distinct entries of R^T R - I, from the columns (a, d, g), (b, e, h), (c, f, i)
    xx, yy, zz = a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0
    xy, xz, yz = a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i
    drift = sqrt(xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz))
    return drift, a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def rotation_error(r: np.ndarray):
    """The rotation rule: drift ||R^T R - I||_F and det R, floats for one 3x3 block, arrays for an (N, 3, 3) stack.

    A block is a rotation when :func:`is_rotation` passes its drift and
    det; a NaN, as from entries whose products overflow, never does.
    """
    if r.ndim == 2:
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        return _rule(a, b, c, d, e, f, g, h, i, math.sqrt)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are the rule's verdicts
        return _rule(*(r[:, j, k] for j in range(3) for k in range(3)), np.sqrt)


def is_rotation(drift, det, tol: float = ORTHONORMALITY_TOL):
    """Whether the drift and ``|det - 1|`` are both within ``tol``: a bool for floats, a mask for arrays."""
    return (drift <= tol) & (abs(det - 1.0) <= tol)


def repair_rotations(mats: np.ndarray):
    """Re-orthonormalize, in place, each rotation block of an (N, 4, 4) stack that drifts past the tolerance.

    Drift alone decides: each block whose drift passes ``ORTHONORMALITY_TOL``
    becomes its closest rotation, and one whose drift is NaN stays as it is.
    """
    r = mats[:, :3, :3]
    for k in np.flatnonzero(rotation_error(r)[0] > ORTHONORMALITY_TOL).tolist():
        r[k] = proper_rotation(r[k])[0]


@dataclass(frozen=True)
class Pose3:
    """Rigid transform in SE(3), stored as a 4x4 homogeneous matrix.

    The rotation block must be orthonormal with determinant +1 within
    1e-9 and the bottom row must be exactly (0, 0, 0, 1).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = check_array("pose matrix", self.matrix, (4, 4))
        (a, b, c, _), (d, e, f, _), (g, h, i, _), bottom = m.tolist()
        if bottom != [0.0, 0.0, 0.0, 1.0]:
            raise ValueError("pose bottom row must be exactly (0, 0, 0, 1)")
        drift, det = _rule(a, b, c, d, e, f, g, h, i, math.sqrt)
        if not drift <= ORTHONORMALITY_TOL:
            raise ValueError("rotation block is not orthonormal within 1e-9")
        if not abs(det - 1.0) <= ORTHONORMALITY_TOL:
            raise ValueError("rotation block must have determinant +1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "Pose3":
        """Wrap a read-only float (4, 4) array that the rigid rule passed, uncopied."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "matrix", matrix)
        return pose

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]


def invert_rigid(poses: np.ndarray) -> np.ndarray:
    """Analytic inverse [R^T | -R^T t] of one 4x4 rigid transform, or of each in an (N, 4, 4) stack.

    No validation: the rotation blocks are taken to be orthonormal.
    """
    poses = np.ascontiguousarray(poses, dtype=float)
    r_t = poses[..., :3, :3].swapaxes(-1, -2)
    out = np.zeros(poses.shape)
    out[..., :3, :3] = r_t
    out[..., 3, 3] = 1.0
    # negated before the product, as a per-frame -R^T @ t would be: -(R^T t)
    # has the same values but may flip the sign of a zero.  The stacked
    # product gives the per-frame products' bits, signs of zeros included
    np.matmul(np.negative(r_t), poses[..., :3, 3:], out=out[..., :3, 3:])
    return out


def check_rigid(poses: np.ndarray):
    """Refuse an (N, 4, 4) stack unless :class:`Pose3` would accept every matrix in it.

    Raises the error the first bad matrix's ``Pose3`` would raise, its
    message prefixed with ``pose <index>: ``.  The stacked rule gives the
    bits of the one ``Pose3`` runs, so one mask finds that matrix.
    """
    if np.shape(poses) == (0, 4, 4):
        return  # no frame to judge
    # the dtype and shape half of the array rule: finiteness is judged per frame, in order, below
    poses = _float_array("poses", poses, ("N", 4, 4))
    bad = (
        ~np.all(np.isfinite(poses), axis=(1, 2))
        | np.any(poses[:, 3] != (0.0, 0.0, 0.0, 1.0), axis=1)
        | ~is_rotation(*rotation_error(poses[:, :3, :3]))
    )
    for i in np.flatnonzero(bad).tolist():
        try:
            Pose3(poses[i])
        except ValueError as exc:
            raise ValueError(f"pose {i}: {exc}") from None


def relative_pose(a: Pose3, b: Pose3) -> Pose3:
    """Transform taking frame a to frame b: inverse(a) * b, repaired as :func:`repair_rotations` repairs.

    A product the rotation rule passes with a finite translation (its bottom
    row is exactly (0, 0, 0, 1)) is wrapped without a copy; a repaired one,
    or one that fails, goes through ``Pose3``'s checks, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = invert_rigid(a.matrix) @ b.matrix
    drift, det = rotation_error(m[:3, :3])
    if drift > ORTHONORMALITY_TOL:
        m[:3, :3] = proper_rotation(m[:3, :3])[0]
    elif is_rotation(drift, det) and all(map(math.isfinite, m[:3, 3].tolist())):
        m.flags.writeable = False
        return Pose3._trusted(m)
    return Pose3(m)


@dataclass(frozen=True)
class Pose2:
    """Planar rigid motion: yaw ``theta`` plus translation (tx, ty) in meters.

    ``theta`` is wrapped to (-pi, pi] on construction.
    """

    theta: float
    tx: float
    ty: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(check_arg("theta", self.theta, FINITE)))
        object.__setattr__(self, "tx", check_arg("tx", self.tx, FINITE))
        object.__setattr__(self, "ty", check_arg("ty", self.ty, FINITE))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)


def sin_cos(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.sin`` and ``math.cos`` of every element.

    numpy's SIMD sine and cosine may differ from the C library's in the
    last bits, depending on the numpy build and the CPU.
    """
    values = theta.tolist()
    return np.array(list(map(math.sin, values))), np.array(list(map(math.cos, values)))


def planar_stack(theta: np.ndarray, tx, ty) -> np.ndarray:
    """(N, 4, 4) stack of the SE(3) embeddings of planar poses, z translation zero."""
    sin, cos = sin_cos(theta)
    mats = np.zeros((theta.size, 4, 4))
    mats[:, 0, 0] = cos
    mats[:, 0, 1] = -sin
    mats[:, 1, 0] = sin
    mats[:, 1, 1] = cos
    mats[:, 0, 3] = tx
    mats[:, 1, 3] = ty
    mats[:, 2, 2] = 1.0
    mats[:, 3, 3] = 1.0
    return mats


def pose2_to_pose3(pose: Pose2) -> Pose3:
    """Embed a planar motion into SE(3), z translation zero."""
    return Pose3(planar_stack(np.array([pose.theta]), pose.tx, pose.ty)[0])


def pose3_to_pose2(pose: Pose3) -> Pose2:
    """Project onto the ground plane: yaw from the x-axis heading, (tx, ty).

    The z translation and any roll/pitch are discarded.
    """
    m = pose.matrix
    return Pose2(math.atan2(m[1, 0], m[0, 0]), m[0, 3], m[1, 3])


@dataclass(frozen=True)
class Trajectory:
    """A timed sequence of world poses: (N,) timestamps, (N, 4, 4) matrices.

    Timestamps must be strictly increasing.  Pose validity (orthonormal
    rotations, exact homogeneous row) is the responsibility of whoever
    built the matrices; the parsers in :mod:`bevkit.formats` enforce it.
    """

    timestamps: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        ts = check_array("timestamps", self.timestamps, ("N",))
        poses = check_array("poses", self.poses, (ts.size, 4, 4))
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", poses)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :3, 3]


@dataclass(frozen=True)
class BevGridSpec:
    """Geometry of the metric BEV grid.

    ``resolution_m`` is the side length of one pixel in meters.
    ``origin_px`` is the (o_x, o_y) pixel position of the vehicle origin;
    when omitted it defaults to the grid center ((W-1)/2, (H-1)/2).
    """

    height_px: int
    width_px: int
    resolution_m: float
    origin_px: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("height_px", "width_px"):
            object.__setattr__(self, name, check_arg(name, getattr(self, name), integer_in(1, MAX_GRID_CELLS)))
        if self.height_px * self.width_px > MAX_GRID_CELLS:
            raise ValueError(f"height_px * width_px must be at most {MAX_GRID_CELLS} cells, "
                             f"got {self.height_px} * {self.width_px}")
        object.__setattr__(self, "resolution_m", check_arg("resolution_m", self.resolution_m, FINITE_POSITIVE))
        origin = ((self.width_px - 1) / 2.0, (self.height_px - 1) / 2.0) if self.origin_px is None else self.origin_px
        if np.shape(origin) != (2,):
            raise ShapeError(f"origin_px must hold 2 entries, got shape {np.shape(origin)}")
        # each entry by the scalar rule: numpy turns (True, 0) into an int array
        object.__setattr__(self, "origin_px", tuple(check_arg(f"origin_px[{i}]", origin[i], FINITE) for i in (0, 1)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height_px, self.width_px)


def pixel_to_vehicle(u, v, grid: BevGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Map BEV pixel coordinates (u, v) to vehicle-frame (x, y).

    Accepts scalars or broadcastable arrays; returns two arrays of the
    broadcast shape.  The map is x = (o_y - v) * r, y = (u - o_x) * r.

    Raises:
        ValueError: a coordinate leaves the float range.
    """
    u = check_array("u", u, None)
    v = check_array("v", v, None)
    o_x, o_y = grid.origin_px
    with np.errstate(over="ignore"):
        x, y = (o_y - v) * grid.resolution_m, (u - o_x) * grid.resolution_m
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("pixel_to_vehicle: a vehicle coordinate leaves the float range")
    return tuple(np.broadcast_arrays(x, y))


def vehicle_to_pixel(x, y, grid: BevGridSpec):
    """Map vehicle-frame (x, y) to BEV pixels (u, v): u = o_x + y / r, v = o_y - x / r.

    The inverse of :func:`pixel_to_vehicle`, up to rounding.  Accepts
    scalars or broadcastable arrays; a pixel coordinate past the float
    range is +-inf.
    """
    return _vehicle_to_pixel(check_array("x", x, None), check_array("y", y, None), grid)


def _vehicle_to_pixel(x: np.ndarray, y: np.ndarray, grid: BevGridSpec):
    """:func:`vehicle_to_pixel` of coordinates already checked."""
    o_x, o_y = grid.origin_px
    with np.errstate(over="ignore"):  # a pixel coordinate past the float range is +-inf
        return o_x + y / grid.resolution_m, o_y - x / grid.resolution_m


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: 3x3 intrinsics K and 3x4 camera-to-vehicle extrinsics.

    K must be upper triangular with strictly positive diagonal (zero skew
    is the usual case but skew is permitted).  The extrinsic rotation block
    must be orthonormal within 1e-9.
    """

    intrinsics: np.ndarray
    extrinsics: np.ndarray

    def __post_init__(self):
        try:
            k = check_array("intrinsics", self.intrinsics, (3, 3))
            e = check_array("extrinsics", self.extrinsics, (3, 4))
        except ValueError as exc:
            raise InvalidCameraError(str(exc)) from None
        if k[1, 0] != 0.0 or k[2, 0] != 0.0 or k[2, 1] != 0.0:
            raise InvalidCameraError("intrinsics must be upper triangular")
        if np.any(np.diag(k) <= 0.0):
            raise InvalidCameraError("intrinsic diagonal entries must be positive")
        if not is_rotation(*rotation_error(e[:, :3])):
            raise InvalidCameraError("extrinsic rotation is not a proper rotation within 1e-9")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics", e)

    @property
    def rotation(self) -> np.ndarray:
        return self.extrinsics[:, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.extrinsics[:, 3]
