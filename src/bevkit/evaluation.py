"""Trajectory-level odometry metrics: relative errors, aligned ATE, scale.

Relative translation/rotation errors follow the segment-based protocol:
for every start frame and every nominal segment length L, the end frame is
the first one whose accumulated ground-truth path length reaches L, and
the pose discrepancy over the segment is charged against the nominal L.
Absolute trajectory error aligns the estimate to the ground truth with a
closed-form rigid (SE3) or similarity (Sim3) fit before the RMSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    InsufficientLengthError,
    ShapeError,
)
from .geometry import fit_similarity

DEFAULT_SEGMENT_LENGTHS_M = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)

# Segments solved per stacked np.linalg.solve call; bounds the (block, 4, 4)
# stacks whatever the trajectory length.
_BLOCK = 1024

# Second singular value of the position cross-covariance below this times
# the first means the point sets are collinear and rotation is ambiguous.
_COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """A timed sequence of world poses: (N,) timestamps, (N, 4, 4) matrices.

    Timestamps must be strictly increasing.  Pose validity (orthonormal
    rotations, exact homogeneous row) is the responsibility of whoever
    built the matrices; the parsers in :mod:`bevkit.io` enforce it.
    """

    timestamps: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=float)
        poses = np.array(self.poses, dtype=float)
        if ts.ndim != 1 or ts.size < 1:
            raise ShapeError(f"timestamps must be a nonempty 1-d array, got {ts.shape}")
        if poses.shape != (ts.size, 4, 4):
            raise ShapeError(
                f"poses must have shape ({ts.size}, 4, 4), got {poses.shape}"
            )
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(poses))):
            raise ValueError("trajectory contains non-finite values")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        ts.flags.writeable = False
        poses.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", poses)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :3, 3]


@dataclass(frozen=True)
class AlignmentResult:
    """A similarity transform est -> gt: p_gt ~ scale * rotation @ p_est + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float


@dataclass(frozen=True)
class MetricsReport:
    """Headline trajectory metrics plus the per-length breakdown.

    ``per_length`` maps segment length L (m) to (rte_percent,
    rre_deg_per_100m, segment_count) over segments of that nominal length.
    """

    rte_percent: float
    rre_deg_per_100m: float
    ate_se3_m: float
    ate_sim3_m: float
    per_length: dict[float, tuple[float, float, int]]
    scale_init: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready view of the report."""
        return {
            "rte_percent": self.rte_percent,
            "rre_deg_per_100m": self.rre_deg_per_100m,
            "ate_se3_m": self.ate_se3_m,
            "ate_sim3_m": self.ate_sim3_m,
            "scale_init": self.scale_init,
            "per_length": {
                f"{length:g}": {
                    "rte_percent": rte,
                    "rre_deg_per_100m": rre,
                    "segments": count,
                }
                for length, (rte, rre, count) in sorted(self.per_length.items())
            },
        }


def path_lengths(traj: Trajectory) -> np.ndarray:
    """Accumulated path length at every frame, starting at 0."""
    diffs = np.diff(traj.positions, axis=0)
    # plain elementwise square/sum/sqrt; keeps the arithmetic identical to
    # a scalar accumulation loop, which BLAS-backed norms need not be
    steps = np.sqrt((diffs * diffs).sum(axis=1))
    return np.concatenate([[0.0], np.cumsum(steps)])


def rotation_angle(rot: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians in [0, pi]."""
    trace = float(rot[0, 0] + rot[1, 1] + rot[2, 2])
    return math.acos(min(1.0, max(-1.0, 0.5 * (trace - 1.0))))


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array.

    Each is the bits ``np.linalg.norm`` gives for that row alone: a batch
    of 1x3 by 3x1 products sums like its dot product, while elementwise
    sums and ``einsum`` differ from it in the last bit on about one row in
    nine.
    """
    t = np.ascontiguousarray(v, dtype=float)
    return np.sqrt((t[:, None, :] @ t[:, :, None])[:, 0, 0])


def _rotation_angles(rot: np.ndarray) -> list[float]:
    """:func:`rotation_angle` of each block of an (N, 3, 3) stack, with its bits.

    ``fmax`` sends a NaN cosine to -1 as ``max(-1.0, nan)`` does, and the
    arccos is ``math.acos`` per value, since ``np.arccos`` may round differently.
    """
    trace = (rot[:, 0, 0] + rot[:, 1, 1]) + rot[:, 2, 2]
    cos = np.minimum(np.fmax(0.5 * (trace - 1.0), -1.0), 1.0)
    return list(map(math.acos, cos.tolist()))


def transform_trajectory(
    traj: Trajectory,
    rotation: np.ndarray,
    translation: np.ndarray,
    scale: float = 1.0,
) -> Trajectory:
    """Apply a global similarity to every pose (left action).

    Positions map to scale * rotation @ p + translation; orientations are
    rotated by ``rotation``.
    """
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    poses = np.array(traj.poses)
    poses[:, :3, :3] = np.einsum("ij,njk->nik", rotation, traj.poses[:, :3, :3])
    poses[:, :3, 3] = scale * traj.positions @ rotation.T + translation
    return Trajectory(traj.timestamps, poses)


def scale_trajectory(traj: Trajectory, scale: float) -> Trajectory:
    """Scale all positions about the world origin, keeping orientations."""
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    poses = np.array(traj.poses)
    poses[:, :3, 3] = scale * poses[:, :3, 3]
    return Trajectory(traj.timestamps, poses)


def _check_same_frames(est: Trajectory, gt: Trajectory):
    if len(est) != len(gt):
        raise ShapeError(
            f"trajectories must have equal length, got {len(est)} vs {len(gt)}"
        )


def align(est: Trajectory, gt: Trajectory, mode: str = "se3") -> AlignmentResult:
    """Closed-form alignment of estimated positions onto ground truth.

    ``mode`` "se3" fits rotation + translation (scale fixed at 1);
    "sim3" additionally fits a positive scale.  The fit is
    :func:`bevkit.geometry.fit_similarity` over the positions.

    Raises:
        DegenerateGeometryError: fewer than 3 frames, or the positions
            are collinear/coincident so the fit is not unique.
    """
    if mode not in ("se3", "sim3"):
        raise ValueError(f"mode must be 'se3' or 'sim3', got {mode!r}")
    _check_same_frames(est, gt)
    if len(est) < 3:
        raise DegenerateGeometryError("alignment needs at least 3 frames")
    rot, t, scale, d = fit_similarity(est.positions, gt.positions, with_scale=mode == "sim3")
    if d[0] <= 0.0 or d[1] <= _COLLINEAR_TOL * d[0]:
        raise DegenerateGeometryError(
            "positions are collinear or coincident; alignment is ambiguous"
        )
    if scale <= 0.0:
        raise DegenerateGeometryError("similarity fit produced a nonpositive scale")
    return AlignmentResult(rotation=rot, translation=t, scale=scale)


def ate(est: Trajectory, gt: Trajectory, mode: str = "se3") -> float:
    """Absolute trajectory error: position RMSE after alignment, meters."""
    a = align(est, gt, mode)
    if np.array_equal(est.positions, gt.positions):
        # the optimum for identical point sets is the identity with zero
        # residual; return it exactly rather than the fitted rounding noise
        return 0.0
    mapped = a.scale * est.positions @ a.rotation.T + a.translation
    residuals = mapped - gt.positions
    return float(np.sqrt((residuals ** 2).sum(axis=1).mean()))


@dataclass(frozen=True)
class RelativeErrorReport:
    """Segment-based relative errors, overall and per nominal length."""

    rte_percent: float
    rre_deg_per_100m: float
    per_length: dict[float, tuple[float, float, int]]


def rte_rre(
    est: Trajectory,
    gt: Trajectory,
    lengths_m: tuple[float, ...] = DEFAULT_SEGMENT_LENGTHS_M,
    stride: int = 1,
) -> RelativeErrorReport:
    """Relative translation (percent) and rotation (deg / 100 m) errors.

    For each start frame (every ``stride``-th frame) and each nominal
    length L, the segment ends at the first frame whose ground-truth path
    length from the start reaches L; segments that run off the end of the
    trajectory are skipped.  Per segment, the pose discrepancy
    inverse(delta_est) * delta_gt is reduced to a translation norm and a
    rotation angle, both normalized by the nominal L.  Per-length values
    are root mean squares; the headline numbers average the per-length
    values over lengths that produced at least one segment.

    Raises:
        InsufficientLengthError: the ground-truth path is shorter than
            every requested segment length.
    """
    _check_same_frames(est, gt)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    lengths = tuple(float(l) for l in lengths_m)
    if not lengths or not all(0.0 < l < math.inf for l in lengths):
        raise ValueError(f"segment lengths must be finite and positive, got {lengths}")
    dist = path_lengths(gt)
    if dist[-1] < min(lengths):
        raise InsufficientLengthError(
            f"ground-truth path covers {dist[-1]:.3f} m, shorter than every "
            f"requested segment length (min {min(lengths):g} m)"
        )
    n = len(gt)
    firsts = np.arange(0, n, stride)
    t_sq: dict[float, np.ndarray] = {}
    r_sq: dict[float, np.ndarray] = {}
    for length in dict.fromkeys(lengths):
        # end frame: first index at or beyond the nominal path length
        lasts = np.searchsorted(dist, dist[firsts] + length, side="left")
        starts = firsts[lasts < n]
        ends = lasts[lasts < n]
        t_err = np.zeros(len(starts))
        r_err = np.zeros(len(starts))
        for block in range(0, len(starts), _BLOCK):
            i, j = starts[block:block + _BLOCK], ends[block:block + _BLOCK]
            delta_gt = np.linalg.solve(gt.poses[i], gt.poses[j])
            delta_est = np.linalg.solve(est.poses[i], est.poses[j])
            # identical relative motion has zero error by definition; keep it
            # exact instead of routing through another solve, whose rounding
            # the arccos near trace 3 would amplify
            same = np.all(delta_est == delta_gt, axis=(1, 2))
            err = np.linalg.solve(delta_est[~same], delta_gt[~same])
            moved = block + np.flatnonzero(~same)
            t_err[moved] = _norms(err[:, :3, 3])
            r_err[moved] = _rotation_angles(err[:, :3, :3])
        # squared per value in Python: numpy's x ** 2 is x * x, which differs
        # from the pow(x, 2) of a float in the last bit on about one value in a
        # thousand; a length listed k times gets each of its values k times in a row
        copies = lengths.count(length)
        t_sq[length] = np.repeat([(e / length) ** 2 for e in t_err.tolist()], copies)
        r_sq[length] = np.repeat([(e / length) ** 2 for e in r_err.tolist()], copies)
    per_length: dict[float, tuple[float, float, int]] = {}
    for length in lengths:
        if not t_sq[length].size:
            continue
        rte = 100.0 * math.sqrt(float(np.mean(t_sq[length])))
        rre = 100.0 * math.degrees(math.sqrt(float(np.mean(r_sq[length]))))
        per_length[length] = (rte, rre, t_sq[length].size)
    if not per_length:
        raise InsufficientLengthError(
            "no complete segment of any requested length fits the trajectory"
        )
    rte_overall = float(np.mean([v[0] for v in per_length.values()]))
    rre_overall = float(np.mean([v[1] for v in per_length.values()]))
    return RelativeErrorReport(
        rte_percent=rte_overall,
        rre_deg_per_100m=rre_overall,
        per_length=per_length,
    )


def scale_from_first_10m(est: Trajectory, gt: Trajectory, prefix_m: float = 10.0) -> float:
    """Scale correction from the opening stretch of the trajectory.

    Returns the ratio of ground-truth to estimated accumulated path length
    over the prefix ending at the first frame where the ground-truth path
    reaches ``prefix_m`` meters.  Multiplying the estimate by this factor
    matches its early path length to the ground truth.

    Raises:
        InsufficientLengthError: ground truth never reaches the prefix.
        DegenerateInputError: the estimated prefix has zero length.
    """
    _check_same_frames(est, gt)
    if not 0.0 < prefix_m < math.inf:
        raise ValueError(f"prefix must be finite and positive, got {prefix_m}")
    d_gt = path_lengths(gt)
    if d_gt[-1] < prefix_m:
        raise InsufficientLengthError(
            f"ground-truth path covers {d_gt[-1]:.3f} m < prefix {prefix_m:g} m"
        )
    k = int(np.searchsorted(d_gt, prefix_m, side="left"))
    d_est = path_lengths(est)
    if d_est[k] <= 0.0:
        raise DegenerateInputError("estimated trajectory has zero length over the prefix")
    return float(d_gt[k] / d_est[k])


@dataclass(frozen=True)
class LogScaleCurve:
    """Per-segment log2 scale ratios along the trajectory.

    ``values[i]`` is log2(est displacement / gt displacement) over the
    i-th consecutive ground-truth segment; 0 means locally correct scale.
    ``skipped`` lists segment indices dropped because one side returned
    to its starting point (zero displacement), making the ratio undefined.
    """

    segment_indices: np.ndarray
    values: np.ndarray
    skipped: tuple[int, ...]


def log_scale_curve(est: Trajectory, gt: Trajectory, segment_m: float = 10.0) -> LogScaleCurve:
    """Log2 ratio of estimated to ground-truth displacement per segment.

    The trajectory is cut into consecutive segments each covering
    ``segment_m`` meters of ground-truth path (a segment ends at the first
    frame at or beyond the target length); the final partial segment is
    dropped.  Per segment, the ratio compares start-to-end displacements
    of the two trajectories over the same index range.

    Raises:
        InsufficientLengthError: not even one full segment fits.
        ValueError: ``segment_m`` is not finite and positive, or too small
            to move past a frame's path length.
    """
    _check_same_frames(est, gt)
    if not 0.0 < segment_m < math.inf:
        raise ValueError(f"segment length must be finite and positive, got {segment_m}")
    d_gt = path_lengths(gt)
    n = len(gt)
    bounds = [0]
    while True:
        nxt = int(np.searchsorted(d_gt, d_gt[bounds[-1]] + segment_m, side="left"))
        if nxt >= n:
            break
        if nxt <= bounds[-1]:
            raise ValueError(f"segment length {segment_m:g} m is below the float resolution of the "
                             f"ground-truth path length {d_gt[bounds[-1]]:g} m at frame {bounds[-1]}")
        bounds.append(nxt)
    if len(bounds) < 2:
        raise InsufficientLengthError(
            f"ground-truth path covers {d_gt[-1]:.3f} m, not even one {segment_m:g} m segment"
        )
    b = np.array(bounds)
    dg = _norms(gt.positions[b[1:]] - gt.positions[b[:-1]])
    de = _norms(est.positions[b[1:]] - est.positions[b[:-1]])
    skip = (dg <= 0.0) | (de <= 0.0)
    values = [math.log2(e / g) for g, e in zip(dg[~skip].tolist(), de[~skip].tolist())]
    return LogScaleCurve(
        segment_indices=np.flatnonzero(~skip).astype(np.int64),
        values=np.array(values, dtype=float),
        skipped=tuple(np.flatnonzero(skip).tolist()),
    )


def evaluate_trajectories(
    est: Trajectory,
    gt: Trajectory,
    lengths_m: tuple[float, ...] = DEFAULT_SEGMENT_LENGTHS_M,
    stride: int = 1,
    scale_init_10m: bool = False,
) -> MetricsReport:
    """One-call evaluation: optional scale init, RTE/RRE, both ATE variants."""
    scale_init = None
    if scale_init_10m:
        scale_init = scale_from_first_10m(est, gt)
        est = scale_trajectory(est, scale_init)
    rel = rte_rre(est, gt, lengths_m, stride)
    return MetricsReport(
        rte_percent=rel.rte_percent,
        rre_deg_per_100m=rel.rre_deg_per_100m,
        ate_se3_m=ate(est, gt, "se3"),
        ate_sim3_m=ate(est, gt, "sim3"),
        per_length=rel.per_length,
        scale_init=scale_init,
    )
