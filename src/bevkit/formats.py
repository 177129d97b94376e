"""Text file formats: trajectories, timestamp association, pair and scale-curve CSVs.

Trajectory formats:

* KITTI: one pose per line, 12 floats = row-major 3x4 [R | t].
* TUM: ``timestamp tx ty tz qx qy qz qw`` per line, ``#`` comments.
* CSV: the TUM fields, comma-separated, with an optional header line.

Every row goes through the row reader of :mod:`bevkit.text` and its
number rule.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError
from .geometry import Trajectory, _direction, is_rotation, proper_rotation, repair_rotations, rotation_error
from .text import AT_LEAST_ZERO, Rows, check_arg, check_array, format_rows, read_rows

if TYPE_CHECKING:
    from .evaluation import LogScaleCurve
    from .sampler import PairRecord

# Rotations parsed from text are accepted when orthonormal within this,
# then snapped to the closest exact rotation if they drift past the
# strict pose tolerance.
_PARSE_ROT_TOL = 1e-4


# ---------------------------------------------------------------------------
# trajectory text formats

_KITTI_ROWS = Rows(12, blank="blank line in pose file")
_TUM_ROWS = Rows(8, comments=True)
_CSV_ROWS = Rows(8, ",", comments=True, header="timestamp")


def parse_kitti_poses(text: str, timestamps: np.ndarray | None = None) -> Trajectory:
    """Parse KITTI-style pose lines (12 floats: row-major 3x4 [R | t]).

    Rotations must be orthonormal within 1e-4; those drifting past 1e-9
    are re-orthonormalized so downstream pose algebra sees valid rotations.
    Without explicit timestamps, frames are stamped 0, 1, 2, ...

    Raises:
        ParseError: wrong field count, non-numeric or non-finite values,
            or a non-orthonormal rotation; the message names the first
            bad line.
    """
    values, _, failure = read_rows(enumerate(text.splitlines(), start=1), _KITTI_ROWS)
    rows = np.array(values, dtype=float).reshape(-1, 12)
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        # a line before any field error; the rotation judge sees only the
        # rows before it, since proper_rotation refuses a NaN block
        failure = ParseError("non-finite value", line=int(nonfinite[0]) + 1)
        rows = rows[:nonfinite[0]]
    poses = np.zeros((len(rows), 4, 4))
    poses[:, :3] = rows.reshape(-1, 3, 4)
    poses[:, 3, 3] = 1.0
    drift, det = rotation_error(poses[:, :3, :3])
    refused = np.flatnonzero(~is_rotation(drift, det, _PARSE_ROT_TOL))
    if refused.size:
        i = int(refused[0])
        raise ParseError(f"rotation not orthonormal within {_PARSE_ROT_TOL:g} "
                         f"(drift {drift[i]:.2e}, det {det[i]:.6f})", line=i + 1)
    # within 1e-4, a drift of at most 1e-9 bounds |det - 1| by about 0.87e-9,
    # so drift alone picks the rows that is_rotation would
    repair_rotations(poses)
    if failure is not None:
        raise failure
    if not values:
        raise ParseError("pose file contains no poses", line=1)
    return Trajectory(np.arange(len(poses), dtype=float) if timestamps is None else timestamps, poses)


def write_kitti_poses(traj: Trajectory) -> str:
    """Serialize as KITTI pose lines; timestamps are not representable."""
    return format_rows(" ".join(["%.17g"] * 12), traj.poses[:, :3, :4].reshape(-1, 12).tolist())


def quat_to_matrix(quat: np.ndarray) -> np.ndarray:
    """Rotations (N, 3, 3) from x, y, z, w quaternions (N, 4), each normalized first.

    Each row is normalized by :func:`bevkit.geometry._direction`'s rule, so a norm past the float range
    still gives the rotation; a zero quaternion raises ValueError.
    """
    q = check_array("quat", quat, ("N", 4))
    zero = np.flatnonzero(~q.any(axis=1))
    if zero.size:
        raise ValueError(f"quaternion {zero[0]} has norm 0.0, not a finite number > 0")
    x, y, z, w = _direction(q, axis=-1).T
    m = [x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w),
         2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w),
         2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w]
    return np.stack(m, axis=-1).reshape(-1, 3, 3)


def matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternions (N, 4), x, y, z, w order, from rotations (N, 3, 3) by Shepperd's method.

    A matrix whose Gram matrix misses the identity (rtol 1e-5, atol 1e-12)
    is replaced by its closest rotation first; a nonpositive determinant
    raises ValueError.
    """
    m = check_array("rot", rot, ("N", 3, 3))
    # the determinant's sign from slogdet: on finite entries the determinant itself may leave the float range
    bad = np.flatnonzero(np.linalg.slogdet(m)[0] <= 0.0)
    if bad.size:
        raise ValueError(f"rotation matrix {bad[0]} has a nonpositive determinant")
    # scipy's codec rule, not the pose rule: projection starts at a drift of 1e-12.  A Gram entry past
    # the float range is not close to the identity
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ np.swapaxes(m, -1, -2)
        drifted = np.flatnonzero(~np.isclose(gram, np.eye(3), rtol=1e-5, atol=1e-12).all((1, 2)))
    if drifted.size:
        m = m.copy()  # the checked copy is read-only
        for n in drifted.tolist():
            m[n] = proper_rotation(m[n])[0]
    mt = np.swapaxes(m, -1, -2)
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    # row c of the symmetric k is the unnormalized quaternion solved from
    # diagonal entry c (c < 3) or from the trace (c = 3)
    k = np.empty((len(m), 4, 4))
    k[:, :3, :3] = m + mt
    k[:, [0, 1, 2], [0, 1, 2]] += (1 - trace)[:, None]
    k[:, 3, :3] = k[:, :3, 3] = (m - mt)[:, [2, 0, 1], [1, 2, 0]]
    k[:, 3, 3] = 1 + trace
    choice = np.argmax(np.stack([m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], trace], axis=-1), axis=-1)
    q = k[np.arange(len(m)), choice]
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _parse_quat_rows(text: str, spec: Rows) -> Trajectory:
    """Parse ``timestamp tx ty tz qx qy qz qw`` rows cut as ``spec`` says."""
    values, linenos, failure = read_rows(enumerate(text.splitlines(), start=1), spec)
    rows = np.array(values, dtype=float).reshape(-1, 8)
    # the value checks, each over all rows: the first failing row wins, and
    # within a row non-finite goes before the quaternion norm before the order
    finite = np.isfinite(rows).all(axis=1)
    unordered = np.zeros(len(rows), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = rows[:, 4:] * rows[:, 4:]
        # summed left to right, as the per-line sum() of v * v did
        qnorm = np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])
        off_unit = np.abs(qnorm - 1.0) > _PARSE_ROT_TOL
        unordered[1:] = rows[1:, 0] <= rows[:-1, 0]
    bad = np.flatnonzero(~finite | off_unit | unordered)
    if bad.size:
        k = int(bad[0])
        if not finite[k]:
            raise ParseError("non-finite value", line=linenos[k])
        if off_unit[k]:
            raise ParseError(
                f"quaternion norm {float(qnorm[k]):.6f} not 1 within {_PARSE_ROT_TOL:g}", line=linenos[k]
            )
        raise ParseError(f"timestamp {float(rows[k, 0])!r} not strictly increasing", line=linenos[k])
    if failure is not None:
        raise failure
    if not linenos:
        raise ParseError("trajectory file contains no poses", line=1)
    poses = np.tile(np.eye(4), (len(rows), 1, 1))
    poses[:, :3, :3] = quat_to_matrix(rows[:, 4:])
    poses[:, :3, 3] = rows[:, 1:4]
    return Trajectory(rows[:, 0], poses)


def _write_quat_rows(traj: Trajectory, sep: str, header: str | None) -> str:
    """Serialize as ``timestamp tx ty tz qx qy qz qw`` rows joined by ``sep``."""
    rows = np.column_stack([traj.timestamps, traj.positions, matrix_to_quat(traj.poses[:, :3, :3])])
    return format_rows(sep.join(["%.9f"] + ["%.17g"] * 7), rows.tolist(), header)


def parse_tum_trajectory(text: str) -> Trajectory:
    """Parse TUM-style lines: ``timestamp tx ty tz qx qy qz qw``.

    Blank lines and ``#`` comments are skipped.  Quaternions must be unit
    within 1e-4 (they are renormalized on conversion); timestamps must be
    strictly increasing.

    Raises:
        ParseError: malformed content; the message names the line.
    """
    return _parse_quat_rows(text, _TUM_ROWS)


def write_tum_trajectory(traj: Trajectory) -> str:
    """Serialize as TUM lines (quaternions in x, y, z, w order)."""
    return _write_quat_rows(traj, " ", None)


def parse_csv_trajectory(text: str) -> Trajectory:
    """Parse the comma-separated twin of the TUM format.

    An optional first header line (starting with ``timestamp`` or ``#``)
    is skipped.
    """
    return _parse_quat_rows(text, _CSV_ROWS)


def write_csv_trajectory(traj: Trajectory) -> str:
    """Serialize as CSV with a header line."""
    return _write_quat_rows(traj, ",", "timestamp,tx,ty,tz,qx,qy,qz,qw")


# format name -> (parser, writer); the keys are text.TRAJECTORY_FORMATS
_CODECS = {
    "kitti": (parse_kitti_poses, write_kitti_poses),
    "tum": (parse_tum_trajectory, write_tum_trajectory),
    "csv": (parse_csv_trajectory, write_csv_trajectory),
}


def _trajectory_format(fmt: str):
    try:
        return _CODECS[fmt]
    except KeyError:
        raise ValueError(f"unknown trajectory format {fmt!r}") from None


def parse_trajectory(text: str, fmt: str) -> Trajectory:
    """Dispatch to the parser for ``fmt``, one of ``text.TRAJECTORY_FORMATS``."""
    return _trajectory_format(fmt)[0](text)


def write_trajectory(traj: Trajectory, fmt: str) -> str:
    """Dispatch to the writer for ``fmt``, one of ``text.TRAJECTORY_FORMATS``."""
    return _trajectory_format(fmt)[1](traj)


# ---------------------------------------------------------------------------
# timestamp association


def associate_by_timestamp(
    times_a: np.ndarray, times_b: np.ndarray, max_dt_s: float
) -> list[tuple[int, int]]:
    """Greedy monotone matching of two timestamp streams.

    Walks both streams once; each a-frame, in the order given, takes the nearest unclaimed b-frame within
    ``max_dt_s``, the earlier one on a tie.  ``times_b`` must be strictly increasing; ``times_a`` may come
    in any order.  Indices are strictly increasing on both sides of the pairing; an empty stream pairs nothing.
    """
    times_a, times_b = (np.zeros(0) if np.shape(times) == (0,) else check_array(name, times, ("N",))
                        for name, times in (("times_a", times_a), ("times_b", times_b)))
    max_dt_s = check_arg("max_dt_s", max_dt_s, AT_LEAST_ZERO)
    if np.any(times_b[1:] <= times_b[:-1]):
        raise ValueError("times_b must be strictly increasing")
    pairs: list[tuple[int, int]] = []
    tb, n = times_b.tolist(), len(times_b)
    first = 0  # the first unclaimed b-frame
    for i, (ta, p) in enumerate(zip(times_a.tolist(), np.searchsorted(times_b, times_a).tolist())):
        if first == n:
            break
        # Python floats: a difference past the float range is +-inf, beyond any tolerance but an infinite one.
        # Along times_b the distance falls up to the insertion point p and rises from it, so frame j + 1, at
        # or past ta, is the nearer only when j is before ta, where |dt| is -dt
        j = p - 1 if p > first else first
        dt = tb[j] - ta
        if j + 1 < n and (after := tb[j + 1] - ta) < -dt:
            j, dt = j + 1, after
        elif j > first and tb[j - 1] - ta == dt:
            # rounding put earlier frames at the same distance; the earliest of them wins
            j = bisect.bisect_left(tb, dt, first, j, key=lambda b: b - ta)
        if abs(dt) <= max_dt_s:
            pairs.append((i, j))
            first = j + 1
    return pairs


# ---------------------------------------------------------------------------
# CSV side outputs


_PAIRS_HEADER = "anchor_id,partner_id,yaw_diff_deg,displacement_m"


def write_pairs_csv(records: list[PairRecord]) -> str:
    """Serialize drawn or enumerated pairs as CSV."""
    return format_rows("%s,%s,%.17g,%.17g", records, _PAIRS_HEADER)


_PAIR_ROWS = Rows(4, ",", (int, int, float, float), header="anchor_id", bad="bad pair record")


def parse_pairs_csv(text: str) -> list[PairRecord]:
    """Parse the pairs CSV written by :func:`write_pairs_csv`: integer ids >= 0, finite yaw and displacement.

    Raises:
        ParseError: malformed content; the message names the first bad line.
    """
    from .sampler import PairRecord

    rows, linenos, failure = read_rows(enumerate(text.splitlines(), start=1), _PAIR_ROWS)
    for lineno, (anchor, partner, yaw, disp) in zip(linenos, rows):
        if anchor < 0 or partner < 0:
            raise ParseError(f"bad pair record: negative pair id in ({anchor}, {partner})", line=lineno)
        if not (math.isfinite(yaw) and math.isfinite(disp)):
            raise ParseError("non-finite value", line=lineno)
    if failure is not None:
        raise failure
    return list(map(PairRecord._make, rows))


def write_scale_curve_csv(curve: LogScaleCurve) -> str:
    """Serialize a per-segment log-scale curve as ``segment_index,log2_scale``."""
    rows = zip(curve.segment_indices.tolist(), curve.values.tolist())
    return format_rows("%d,%.17g", rows, "segment_index,log2_scale")
