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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    InsufficientLengthError,
    ShapeError,
)
from .geometry import Trajectory, _scale_safe, check_rigid, fit_similarity, invert_rigid
from .text import FINITE_POSITIVE, FLAG, check_arg, integer_in

DEFAULT_SEGMENT_LENGTHS_M = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)

# Segments per stacked product; bounds the (block, 4, 4) stacks whatever
# the trajectory length.
_BLOCK = 1024

# Second singular value of the position cross-covariance below this times
# the first means the point sets are collinear and rotation is ambiguous.
_COLLINEAR_TOL = 1e-9


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
    """Accumulated path length at every frame, starting at 0.

    A step or a sum past the float range is inf.
    """
    with np.errstate(over="ignore"):
        diffs = np.diff(traj.positions, axis=0)
        # plain elementwise square/sum/sqrt; keeps the arithmetic identical to
        # a scalar accumulation loop, which BLAS-backed norms need not be
        steps = _scale_safe(lambda d: np.sqrt((d * d).sum(axis=1)), diffs)
        return np.concatenate([[0.0], np.cumsum(steps)])


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, each row rescaled as ``_scale_safe`` rescales it.

    Each is the bits ``np.linalg.norm`` gives for that row alone: a batch
    of 1x3 by 3x1 products sums like its dot product, while elementwise
    sums and ``einsum`` differ from it in the last bit on about one row in
    nine.
    """
    t = np.ascontiguousarray(v, dtype=float)
    return _scale_safe(lambda x: np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]), t)


def _rotation_angles(rot: np.ndarray) -> list[float]:
    """Geodesic angle, radians in [0, pi], of each block of an (N, 3, 3) stack.

    Each angle has the bits of the scalar form
    ``math.acos(min(1.0, max(-1.0, 0.5 * (trace - 1.0))))``: ``fmax`` sends a
    NaN cosine to -1 as ``max(-1.0, nan)`` does, and the arccos is
    ``math.acos`` per value, since ``np.arccos`` may round differently.
    """
    trace = (rot[:, 0, 0] + rot[:, 1, 1]) + rot[:, 2, 2]
    cos = np.minimum(np.fmax(0.5 * (trace - 1.0), -1.0), 1.0)
    return list(map(math.acos, cos.tolist()))


def scale_trajectory(traj: Trajectory, scale: float) -> Trajectory:
    """Scale all positions about the world origin, keeping orientations."""
    scale = check_arg("scale", scale, FINITE_POSITIVE)
    poses = np.array(traj.poses)
    with np.errstate(over="ignore"):  # Trajectory refuses positions scaled past the float range
        poses[:, :3, 3] = scale * poses[:, :3, 3]
    return Trajectory(traj.timestamps, poses)


def _check_same_frames(est: Trajectory, gt: Trajectory):
    if len(est) != len(gt):
        raise ShapeError(
            f"trajectories must have equal length, got {len(est)} vs {len(gt)}"
        )


def ate(est: Trajectory, gt: Trajectory, mode: str = "se3") -> float:
    """Absolute trajectory error: position RMSE after alignment, meters.

    The estimated positions are aligned onto the ground truth in closed
    form by :func:`bevkit.geometry.fit_similarity`: ``mode`` "se3" fits
    rotation + translation (scale fixed at 1), "sim3" also a positive scale.

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
    if np.array_equal(est.positions, gt.positions):
        # the optimum for identical point sets is the identity with zero
        # residual; return it exactly rather than the fitted rounding noise
        return 0.0
    residuals = scale * est.positions @ rot.T + t - gt.positions
    return _scale_safe(lambda r: float(np.sqrt((r ** 2).sum(axis=1).mean())), residuals)


@dataclass(frozen=True)
class RelativeErrorReport:
    """Segment-based relative errors, overall and per nominal length."""

    rte_percent: float
    rre_deg_per_100m: float
    per_length: dict[float, tuple[float, float, int]]


def _unresolved(length: float, dist: np.ndarray, frame: int) -> ValueError:
    """The refusal of a segment length that adds nothing to the path length ``dist`` at ``frame``."""
    return ValueError(f"segment length {length:g} m is below the float resolution of the "
                      f"ground-truth path length {dist[frame]:g} m at frame {frame}")


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
    rotation angle, both normalized by the nominal L.  Each delta is
    inverse(P_start) * P_end, and every inverse is the rigid one,
    [R^T | -R^T t]: each trajectory is inverted once, and each delta_est
    once.  Per-length values are root mean squares; the headline numbers
    average the per-length values over lengths that produced at least one
    segment.

    Raises:
        InsufficientLengthError: the ground-truth path is shorter than
            every requested segment length.
        ValueError: a pose of either trajectory is not rigid, as
            :func:`bevkit.geometry.check_rigid` judges it, or ``stride``
            is not an integer >= 1 (a bool is not one), or there is no
            length, or a length is not a finite
            number > 0 or is listed twice, or is too small to move past a
            start frame's path length, or its RTE or RRE leaves the float
            range, as for a length of 1e-320 m.
    """
    _check_same_frames(est, gt)
    stride = check_arg("stride", stride, integer_in(1))
    lengths = tuple(check_arg("segment length", l, FINITE_POSITIVE) for l in lengths_m)
    if not lengths:
        raise ValueError("need at least one segment length")
    if len(set(lengths)) != len(lengths):
        raise ValueError(f"segment lengths must be distinct, got {', '.join(f'{l:g}' for l in lengths)}")
    check_rigid(est.poses)
    check_rigid(gt.poses)
    dist = path_lengths(gt)
    if dist[-1] < min(lengths):
        raise InsufficientLengthError(
            f"ground-truth path covers {dist[-1]:g} m, shorter than every "
            f"requested segment length (min {min(lengths):g} m)"
        )
    n = len(gt)
    # any stride >= n starts at frame 0 alone; capped, arange stays integer
    firsts = np.arange(0, n, min(stride, n))
    # a product past the float range holds inf or NaN; a segment error that
    # is not finite ends in its length's refusal
    with np.errstate(over="ignore"):
        inv_gt, inv_est = invert_rigid(gt.poses), invert_rigid(est.poses)
    per_length: dict[float, tuple[float, float, int]] = {}
    for length in lengths:
        # end frame: first index at or beyond the nominal path length; an
        # end target past the float range is inf, which no finite path reaches
        with np.errstate(over="ignore"):
            targets = dist[firsts] + length
        lasts = np.searchsorted(dist, targets, side="left")
        starts = firsts[lasts < n]
        ends = lasts[lasts < n]
        if not starts.size:
            continue
        t_err = np.zeros(len(starts))
        r_err = np.zeros(len(starts))
        for block in range(0, len(starts), _BLOCK):
            i, j = starts[block:block + _BLOCK], ends[block:block + _BLOCK]
            with np.errstate(over="ignore", invalid="ignore"):
                delta_gt = inv_gt[i] @ gt.poses[j]
                delta_est = inv_est[i] @ est.poses[j]
                # identical relative motion has zero error by definition; keep
                # it exact instead of routing through another product, whose
                # rounding the arccos near trace 3 would amplify
                same = np.all(delta_est == delta_gt, axis=(1, 2))
                err = invert_rigid(delta_est[~same]) @ delta_gt[~same]
            moved = block + np.flatnonzero(~same)
            t_err[moved] = _norms(err[:, :3, 3])
            r_err[moved] = _rotation_angles(err[:, :3, :3])
        # squared per value in Python: numpy's x ** 2 is x * x, which differs
        # from the pow(x, 2) of a float in the last bit on about one value in a thousand
        with np.errstate(over="ignore"):  # an error per meter past the float range is inf, refused below
            t_rms, r_rms = (_scale_safe(lambda x: math.sqrt(float(np.mean([v ** 2 for v in x.tolist()]))), e / length)
                            for e in (t_err, r_err))
        rte, rre = 100.0 * t_rms, 100.0 * math.degrees(r_rms)
        if not (math.isfinite(rte) and math.isfinite(rre)):
            raise ValueError(f"segment length {length!r} m: its RTE or RRE leaves the float range")
        # a target that did not move past its start's path length ended the
        # segment on or before the start: such a length measures nothing there
        stuck = starts[ends <= starts]
        if stuck.size:
            raise _unresolved(length, dist, int(stuck[0]))
        per_length[length] = (rte, rre, len(starts))
    if not per_length:
        raise InsufficientLengthError(
            "no complete segment of any requested length fits the trajectory"
        )
    # finite per-length values may sum past the float range; their mean, rescaled, never leaves it
    rte_overall, rre_overall = (float(_scale_safe(np.mean, np.array(v))) for v in list(zip(*per_length.values()))[:2])
    return RelativeErrorReport(
        rte_percent=rte_overall,
        rre_deg_per_100m=rre_overall,
        per_length=per_length,
    )


def scale_from_first_10m(est: Trajectory, gt: Trajectory) -> float:
    """Scale correction from the opening stretch of the trajectory.

    Returns the ratio of ground-truth to estimated accumulated path length
    over the prefix ending at the first frame where the ground-truth path
    reaches 10 meters.  Multiplying the estimate by this factor matches
    its early path length to the ground truth.

    Raises:
        InsufficientLengthError: ground truth never reaches 10 m.
        DegenerateInputError: the estimated prefix has zero length, or the
            ratio is not a finite number > 0.
    """
    _check_same_frames(est, gt)
    d_gt = path_lengths(gt)
    if d_gt[-1] < 10.0:
        raise InsufficientLengthError(f"ground-truth path covers {d_gt[-1]:g} m < prefix 10 m")
    k = int(np.searchsorted(d_gt, 10.0, side="left"))
    d_est = path_lengths(est)
    if d_est[k] <= 0.0:
        raise DegenerateInputError("estimated trajectory has zero length over the prefix")
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        scale = float(d_gt[k] / d_est[k])
    if not 0.0 < scale < math.inf:
        raise DegenerateInputError(f"the scale correction over the prefix leaves the float range, got {scale!r}")
    return scale


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
    of the two trajectories over the same index range; a ratio outside the
    normal float range is taken as log2(est) - log2(gt).

    Raises:
        InsufficientLengthError: not even one full segment fits.
        ValueError: ``segment_m`` is not a finite number > 0, or too small
            to move past a frame's path length.
    """
    _check_same_frames(est, gt)
    segment_m = check_arg("segment_m", segment_m, FINITE_POSITIVE)
    d_gt = path_lengths(gt)
    n = len(gt)
    bounds = [0]
    while True:
        with np.errstate(over="ignore"):  # a target past the float range is inf, which no finite path reaches
            target = d_gt[bounds[-1]] + segment_m
        nxt = int(np.searchsorted(d_gt, target, side="left"))
        if nxt >= n:
            break
        if nxt <= bounds[-1]:
            raise _unresolved(segment_m, d_gt, bounds[-1])
        bounds.append(nxt)
    if len(bounds) < 2:
        raise InsufficientLengthError(
            f"ground-truth path covers {d_gt[-1]:g} m, not even one {segment_m:g} m segment"
        )
    b = np.array(bounds)
    dg = _norms(gt.positions[b[1:]] - gt.positions[b[:-1]])
    de = _norms(est.positions[b[1:]] - est.positions[b[:-1]])
    skip = (dg <= 0.0) | (de <= 0.0)
    values = [math.log2(e / g) if sys.float_info.min <= e / g < math.inf else math.log2(e) - math.log2(g)
              for g, e in zip(dg[~skip].tolist(), de[~skip].tolist())]
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
    """One-call evaluation: optional scale init, both ATE variants, RTE/RRE.

    The ATE fits judge the whole drive before the segments do, so a collinear
    drive is refused for that, not for a segment length its path lengths
    cannot resolve.  A drive and its lengths scaled by a power of two s
    keep their RTE, RRE * s and ATE / s, up to the last bit of a rescued
    reduction, at any s that keeps the positions finite.
    """
    scale_init = None
    if check_arg("scale_init_10m", scale_init_10m, FLAG):
        scale_init = scale_from_first_10m(est, gt)
        est = scale_trajectory(est, scale_init)
    ate_se3, ate_sim3 = ate(est, gt, "se3"), ate(est, gt, "sim3")
    rel = rte_rre(est, gt, lengths_m, stride)
    return MetricsReport(
        rte_percent=rel.rte_percent,
        rre_deg_per_100m=rel.rre_deg_per_100m,
        ate_se3_m=ate_se3,
        ate_sim3_m=ate_sim3,
        per_length=rel.per_length,
        scale_init=scale_init,
    )
