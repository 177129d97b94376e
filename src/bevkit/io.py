"""Parsers, writers, config, and synthetic data for the toolkit.

Text trajectory formats:

* KITTI: one pose per line, 12 floats = row-major 3x4 [R | t].
* TUM: ``timestamp tx ty tz qx qy qz qw`` per line, ``#`` comments.
* CSV: the TUM fields, comma-separated, with an optional header line.

Binary tensors travel in a tiny container: magic ``BVT1``, then a u32
little-endian rank, rank u32 dims, and a row-major float32 payload.  The
byte length must match the header exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParseError, ShapeError
from .evaluation import LogScaleCurve, Trajectory
from .flow import FlowField
from .geometry import (
    ORTHONORMALITY_TOL,
    BevGridSpec,
    CameraModel,
    Pose2,
    closest_rotation,
    planar_stack,
    rotation_error,
    screen_rotations,
    sin_cos,
    wrap_angle,
)
from .losses import LossWeights
from .sampler import (
    DEFAULT_HIGH_DEG,
    DEFAULT_LOW_DEG,
    DEFAULT_MAX_DISP_M,
    DEFAULT_WINDOW_S,
    PairRecord,
)

# Rotations parsed from text are accepted when orthonormal within this,
# then snapped to the closest exact rotation if they drift past the
# strict pose tolerance.
_PARSE_ROT_TOL = 1e-4

_BVT1_MAGIC = b"BVT1"


# ---------------------------------------------------------------------------
# trajectory text formats


def _parse_floats(fields: list[str], lineno: int) -> list[float]:
    """The fields of one line as floats, all of them or a ParseError; finiteness is judged later, per array."""
    try:
        return list(map(float, fields))
    except ValueError as exc:
        raise ParseError(f"non-numeric field: {exc}", line=lineno) from None


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
    values, failure = array("d"), None  # 8 bytes a value, not a float object
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        fields = line.split()
        try:
            if not line:
                raise ParseError("blank line in pose file", line=lineno)
            if len(fields) != 12:
                raise ParseError(f"expected 12 fields, got {len(fields)}", line=lineno)
            values.extend(_parse_floats(fields, lineno))
        except ParseError as exc:
            failure = exc  # reported unless an earlier line's rotation is bad
            break
    rows = np.frombuffer(values).reshape(-1, 12)
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        # a line before any field error; the rotation judge sees only the
        # rows before it, since closest_rotation of a NaN block raises
        failure = ParseError("non-finite value", line=int(nonfinite[0]) + 1)
        rows = rows[:nonfinite[0]]
    poses = np.zeros((len(rows), 4, 4))
    poses[:, :3] = rows.reshape(-1, 3, 4)
    poses[:, 3, 3] = 1.0
    rot = poses[:, :3, :3]
    for i in np.flatnonzero(screen_rotations(rot)).tolist():
        drift, det = rotation_error(rot[i])
        if drift > _PARSE_ROT_TOL or abs(det - 1.0) > _PARSE_ROT_TOL:
            raise ParseError(
                f"rotation not orthonormal within {_PARSE_ROT_TOL:g} (drift {drift:.2e}, det {det:.6f})", line=i + 1
            )
        if drift > ORTHONORMALITY_TOL or abs(det - 1.0) > ORTHONORMALITY_TOL:
            rot[i] = closest_rotation(rot[i])
    if failure is not None:
        raise failure
    if not values:
        raise ParseError("pose file contains no poses", line=1)
    if timestamps is None:
        timestamps = np.arange(len(poses), dtype=float)
    return Trajectory(np.asarray(timestamps, dtype=float), poses)


def write_kitti_poses(traj: Trajectory) -> str:
    """Serialize as KITTI pose lines; timestamps are not representable."""
    return _format_rows(" ".join(["%.17g"] * 12), traj.poses[:, :3, :4].reshape(-1, 12).tolist())


def quat_to_matrix(quat: np.ndarray) -> np.ndarray:
    """Rotations (..., 3, 3) from x, y, z, w quaternions (..., 4), each normalized first."""
    q = np.asarray(quat, dtype=float)
    x, y, z, w = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    m = [x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w),
         2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w),
         2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w]
    return np.stack(m, axis=-1).reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternions (N, 4), x, y, z, w order, from rotations (N, 3, 3) by Shepperd's method.

    A matrix whose Gram matrix misses the identity (rtol 1e-5, atol 1e-12)
    is replaced by its closest rotation first; a nonpositive determinant
    raises ValueError.
    """
    m = np.array(rot, dtype=float)
    # scipy's codec rule, not the pose rule: projection starts at a drift of 1e-12
    bad = np.flatnonzero(np.linalg.det(m) <= 0.0)
    if bad.size:
        raise ValueError(f"rotation matrix {bad[0]} has a nonpositive determinant")
    mt = np.swapaxes(m, -1, -2)
    for n in np.flatnonzero(~np.isclose(m @ mt, np.eye(3), rtol=1e-5, atol=1e-12).all((1, 2))):
        m[n] = closest_rotation(m[n])
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


def _parse_quat_rows(text: str, sep: str | None, header: str | None) -> Trajectory:
    """Parse ``timestamp tx ty tz qx qy qz qw`` rows split on ``sep``.

    ``sep`` None splits on whitespace.  Blank lines and ``#`` comments
    are skipped, and so is a first line starting with ``header``.
    """
    what = "fields" if sep is None else "comma-separated fields"
    values, linenos, failure = array("d"), [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is not None and lineno == 1 and line.lower().startswith(header):
            continue
        fields = [f.strip() for f in line.split(sep)]
        try:
            if len(fields) != 8:
                raise ParseError(f"expected 8 {what}, got {len(fields)}", line=lineno)
            values.extend(_parse_floats(fields, lineno))
        except ParseError as exc:
            failure = exc  # reported unless an earlier row fails a value check
            break
        linenos.append(lineno)
    rows = np.frombuffer(values).reshape(-1, 8)
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
    return _format_rows(sep.join(["%.9f"] + ["%.17g"] * 7), rows.tolist(), header)


def parse_tum_trajectory(text: str) -> Trajectory:
    """Parse TUM-style lines: ``timestamp tx ty tz qx qy qz qw``.

    Blank lines and ``#`` comments are skipped.  Quaternions must be unit
    within 1e-4 (they are renormalized on conversion); timestamps must be
    strictly increasing.

    Raises:
        ParseError: malformed content; the message names the line.
    """
    return _parse_quat_rows(text, None, None)


def write_tum_trajectory(traj: Trajectory) -> str:
    """Serialize as TUM lines (quaternions in x, y, z, w order)."""
    return _write_quat_rows(traj, " ", None)


def parse_csv_trajectory(text: str) -> Trajectory:
    """Parse the comma-separated twin of the TUM format.

    An optional first header line (starting with ``timestamp`` or ``#``)
    is skipped.
    """
    return _parse_quat_rows(text, ",", "timestamp")


def write_csv_trajectory(traj: Trajectory) -> str:
    """Serialize as CSV with a header line."""
    return _write_quat_rows(traj, ",", "timestamp,tx,ty,tz,qx,qy,qz,qw")


def _format_rows(fmt: str, rows, header: str | None = None) -> str:
    """One line per row, each a single ``fmt % tuple(row)``, after an optional header line.

    ``"%.17g" % x`` and ``"%.9f" % x`` give the bytes of ``f"{x:.17g}"`` and
    ``f"{x:.9f}"``, so the text is the one per-value f-strings wrote.
    """
    lines = [] if header is None else [header]
    lines.extend([fmt % tuple(row) for row in rows])
    return "\n".join(lines) + "\n"


_TRAJECTORY_PARSERS = {
    "kitti": parse_kitti_poses,
    "tum": parse_tum_trajectory,
    "csv": parse_csv_trajectory,
}

_TRAJECTORY_WRITERS = {
    "kitti": write_kitti_poses,
    "tum": write_tum_trajectory,
    "csv": write_csv_trajectory,
}


def parse_trajectory(text: str, fmt: str) -> Trajectory:
    """Dispatch to the parser for ``fmt`` in {kitti, tum, csv}."""
    try:
        parser = _TRAJECTORY_PARSERS[fmt]
    except KeyError:
        raise ValueError(f"unknown trajectory format {fmt!r}") from None
    return parser(text)


def write_trajectory(traj: Trajectory, fmt: str) -> str:
    """Dispatch to the writer for ``fmt`` in {kitti, tum, csv}."""
    try:
        writer = _TRAJECTORY_WRITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown trajectory format {fmt!r}") from None
    return writer(traj)


# ---------------------------------------------------------------------------
# binary tensor interchange


def write_bvt1(array: np.ndarray) -> bytes:
    """Encode an array as BVT1 bytes (float32 payload, row-major).

    Raises:
        FormatError: a rank-0 array, or a finite value that float32 cannot hold.
    """
    array = np.asarray(array)
    if array.ndim < 1:
        raise FormatError("rank-0 tensors are not representable")
    header = _BVT1_MAGIC + struct.pack("<I", array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(array, dtype="<f4")
    if np.isinf(payload).any() and np.isinf(payload).sum() > np.isinf(array).sum():
        raise FormatError(f"value beyond the float32 range (max {np.finfo(np.float32).max:g})")
    return header + payload.tobytes()


def read_bvt1(data: bytes) -> np.ndarray:
    """Decode BVT1 bytes into a float32 array.

    Raises:
        FormatError: bad magic, zero rank, or a byte length that does not
            match the declared dimensions exactly.
    """
    if len(data) < 8:
        raise FormatError(f"truncated header: {len(data)} bytes")
    if data[:4] != _BVT1_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {_BVT1_MAGIC!r}")
    (rank,) = struct.unpack_from("<I", data, 4)
    if rank == 0:
        raise FormatError("rank-0 tensors are not representable")
    if len(data) < 8 + 4 * rank:
        raise FormatError(f"truncated dimension list for rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    count = math.prod(dims)
    expected = 8 + 4 * rank + 4 * count
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: {len(data)} bytes, header implies {expected}"
        )
    values = np.frombuffer(data, dtype="<f4", count=count, offset=8 + 4 * rank)
    return values.reshape(dims).copy()


# ---------------------------------------------------------------------------
# pipeline configuration


@dataclass(frozen=True)
class SamplerConfig:
    """Thresholds for pair selection."""

    window_s: float = DEFAULT_WINDOW_S
    max_disp_m: float = DEFAULT_MAX_DISP_M
    low_deg: float = DEFAULT_LOW_DEG
    high_deg: float = DEFAULT_HIGH_DEG


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the CLI needs to interpret tensors geometrically."""

    grid: BevGridSpec
    camera: CameraModel
    depth_bins: np.ndarray
    radius_pv: int = 3
    radius_bev: int = 5
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)


def _default_camera() -> CameraModel:
    # forward-looking camera 1.5 m up: optical axis along vehicle +x,
    # image x along -y (left is +y), image y along -z
    k = np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]])
    r = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    e = np.hstack([r, np.array([[0.0], [0.0], [1.5]])])
    return CameraModel(intrinsics=k, extrinsics=e)


def default_config() -> PipelineConfig:
    """The stock configuration: 128x128 grid at 0.8 m, 64 depth bins."""
    return PipelineConfig(
        grid=BevGridSpec(height_px=128, width_px=128, resolution_m=0.8),
        camera=_default_camera(),
        depth_bins=np.linspace(1.0, 52.2, 64),
    )


# Size caps, checked before anything of that size is allocated.
_MAX_GRID_CELLS = 2**22
_MAX_DEPTH_BINS = 1024
_MAX_SYNTH_FRAMES = 2**20
MAX_DRAWS = 2**20  # sample-pairs --draws: one CSV line each

_REAL_MAX = sys.float_info.max
_TINY = math.ulp(0.0)  # the least float > 0, so [_TINY, hi] is (0, hi]


# A field check is a (predicate, description) pair.
def _int(lo: int, hi: float = math.inf):
    text = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return (lambda v: type(v) is int and lo <= v <= hi), text


def _number(lo: float, hi: float, text: str):
    """A float, or an int a float can hold, in [lo, hi]: NaN never passes, inf only when hi is inf."""
    return (lambda v: (type(v) is float or type(v) is int and abs(v) <= _REAL_MAX) and lo <= v <= hi), text


_AT_LEAST_ZERO = _number(0.0, math.inf, "a number >= 0")
_FINITE_AT_LEAST_ZERO = _number(0.0, _REAL_MAX, "a finite number >= 0")
_FINITE_POSITIVE = _number(_TINY, _REAL_MAX, "a finite number > 0")
_FINITE = _number(-_REAL_MAX, _REAL_MAX, "a finite number")


def _finite_list(n: int):
    text = f"a list of {n} finite numbers"
    return (lambda v: type(v) is list and len(v) == n and all(map(_FINITE[0], v))), text


# The config root is a table of sections; each section is a table of fields.
_CONFIG = {
    "grid": {"h": _int(1, _MAX_GRID_CELLS), "w": _int(1, _MAX_GRID_CELLS),
             "resolution_m": _FINITE_POSITIVE, "origin": _finite_list(2)},
    "camera": {"K": _finite_list(9), "E": _finite_list(12)},
    "depth_bins": {"count": _int(1, _MAX_DEPTH_BINS), "min_m": _FINITE_POSITIVE, "max_m": _FINITE_POSITIVE},
    "correlation": {"radius_pv": _int(0), "radius_bev": _int(0)},
    "sampler": dict.fromkeys(("window_s", "max_disp_m", "low_deg", "high_deg"), _AT_LEAST_ZERO),
    "loss_weights": dict.fromkeys(("alpha", "beta", "lambda1", "lambda2"), _FINITE_AT_LEAST_ZERO),
}


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", None)) from None


def _fields(section, table: dict, where: str, required: tuple[str, ...] = ()) -> dict:
    """Check a JSON object against a field table and return it.

    A table maps each allowed key to a field check or to the table of a nested
    object; the keys in ``required`` must be present.  A failure raises ParseError.
    """
    if type(section) is not dict:
        raise ParseError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ParseError(f"unknown {where} keys: {', '.join(map(json.dumps, unknown))}")
    for key, value in section.items():
        entry = table[key]
        if type(entry) is dict:
            _fields(value, entry, key)
        elif not entry[0](value):
            raise ParseError(f"{where}.{key} must be {entry[1]}, got {json.dumps(value)}")
    for key in required:
        if key not in section:
            raise ParseError(f"{where}.{key} is required")
    return section


def parse_config(text: str) -> PipelineConfig:
    """Parse a JSON pipeline config, strictly.

    Every section and field is optional and falls back to the stock
    configuration, but unknown keys anywhere are rejected so typos cannot
    silently change an experiment, and every value must pass its field check.
    """
    doc = _fields(_load_json(text), _CONFIG, "config")
    base = default_config()
    grid, camera, depth_bins = base.grid, base.camera, base.depth_bins
    if "grid" in doc:
        g = doc["grid"]
        h, w = g.get("h", grid.height_px), g.get("w", grid.width_px)
        if h * w > _MAX_GRID_CELLS:
            raise ParseError(f"grid.h * grid.w must be at most {_MAX_GRID_CELLS} cells, got {h * w}")
        grid = BevGridSpec(h, w, g.get("resolution_m", grid.resolution_m), g.get("origin"))
    if "camera" in doc:
        c = doc["camera"]
        camera = CameraModel(np.reshape(c.get("K", camera.intrinsics), (3, 3)),
                             np.reshape(c.get("E", camera.extrinsics), (3, 4)))
    if "depth_bins" in doc:
        d = doc["depth_bins"]
        depth_bins = np.linspace(
            d.get("min_m", depth_bins[0]), d.get("max_m", depth_bins[-1]), d.get("count", depth_bins.size)
        )
        if np.any(np.diff(depth_bins) <= 0.0):
            raise ParseError("depth bins must be strictly increasing: depth_bins.min_m < max_m")
    sampler = SamplerConfig(**{k: float(v) for k, v in doc.get("sampler", {}).items()})
    weights = LossWeights(**doc.get("loss_weights", {}))
    radii = doc.get("correlation", {})
    return PipelineConfig(grid, camera, depth_bins, **radii, sampler=sampler, loss_weights=weights)


# ---------------------------------------------------------------------------
# timestamp association


def associate_by_timestamp(
    times_a: np.ndarray, times_b: np.ndarray, max_dt_s: float
) -> list[tuple[int, int]]:
    """Greedy monotone matching of two timestamp streams.

    Walks both streams once; each a-frame takes the nearest unclaimed
    b-frame within ``max_dt_s``.  Indices are strictly increasing on both
    sides of the returned pairing.
    """
    times_a = np.asarray(times_a, dtype=float)
    times_b = np.asarray(times_b, dtype=float)
    if not max_dt_s >= 0.0:
        raise ValueError(f"max_dt_s must be >= 0, got {max_dt_s}")
    pairs: list[tuple[int, int]] = []
    j_start = 0
    for i, ta in enumerate(times_a):
        best_j = -1
        best_dt = None
        j = j_start
        while j < times_b.size:
            dt = float(times_b[j] - ta)
            if dt > max_dt_s:
                break
            if abs(dt) <= max_dt_s and (best_dt is None or abs(dt) < best_dt):
                best_j = j
                best_dt = abs(dt)
            j += 1
        if best_j >= 0:
            pairs.append((i, best_j))
            j_start = best_j + 1
    return pairs


# ---------------------------------------------------------------------------
# synthetic trajectories

_PRIMITIVE_KINDS = ("straight", "arc", "stop")


@dataclass(frozen=True)
class MotionPrimitive:
    """One leg of a synthetic drive.

    ``straight`` moves at ``speed_mps`` with fixed heading; ``arc`` adds a
    constant yaw rate (degrees per second, nonzero); ``stop`` holds still.
    """

    kind: str
    duration_s: float
    speed_mps: float = 0.0
    yaw_rate_dps: float = 0.0

    def __post_init__(self):
        if self.kind not in _PRIMITIVE_KINDS:
            raise ValueError(f"kind must be one of {_PRIMITIVE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise ValueError("duration must be positive")
        if self.kind == "arc" and self.yaw_rate_dps == 0.0:
            raise ValueError("arc primitives need a nonzero yaw rate")
        if self.kind == "stop" and (self.speed_mps != 0.0 or self.yaw_rate_dps != 0.0):
            raise ValueError("stop primitives must not move")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a ground-truth drive plus a corrupted odometry estimate.

    The estimate integrates the ground-truth frame-to-frame motions after
    multiplying translations by ``scale_drift`` and adding zero-mean
    Gaussian noise (``noise_trans_m`` per planar axis, ``noise_yaw_deg``).
    With no noise and unit drift the estimate equals the ground truth.
    """

    primitives: tuple[MotionPrimitive, ...]
    dt_s: float = 0.1
    noise_trans_m: float = 0.0
    noise_yaw_deg: float = 0.0
    scale_drift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.primitives:
            raise ValueError("need at least one motion primitive")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ValueError("dt must be positive")
        if not (self.noise_trans_m >= 0.0 and self.noise_yaw_deg >= 0.0):
            raise ValueError("noise magnitudes must be >= 0")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (math.isfinite(self.scale_drift) and self.scale_drift > 0.0):
            raise ValueError("scale drift must be positive")
        frames = sum(p.duration_s for p in self.primitives) / self.dt_s
        if not frames < _MAX_SYNTH_FRAMES:
            raise ValueError(f"drive of {frames:.6g} frames exceeds the cap of {_MAX_SYNTH_FRAMES}")
        object.__setattr__(self, "primitives", tuple(self.primitives))
        _primitive_starts(self.primitives)


_SYNTH_SPEC = {
    "primitives": ((lambda v: type(v) is list and len(v) > 0), "a non-empty list of primitive objects"),
    "dt_s": _FINITE_POSITIVE,
    "noise_trans_m": _FINITE_AT_LEAST_ZERO,
    "noise_yaw_deg": _FINITE_AT_LEAST_ZERO,
    "scale_drift": _FINITE_POSITIVE,
    "seed": _int(0),
}

_PRIMITIVE = {
    "kind": ((lambda v: v in _PRIMITIVE_KINDS), f"one of {', '.join(_PRIMITIVE_KINDS)}"),
    "duration_s": _FINITE_POSITIVE,
    "speed_mps": _FINITE,
    "yaw_rate_dps": _FINITE,
}


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse a JSON synth spec, strictly (unknown keys rejected, every value checked)."""
    doc = _fields(_load_json(text), _SYNTH_SPEC, "spec", required=("primitives",))
    prims = []
    for i, sec in enumerate(doc.pop("primitives")):
        where = f"primitives[{i}]"
        prim = _fields(sec, _PRIMITIVE, where, required=("kind", "duration_s"))
        try:
            prims.append(MotionPrimitive(**prim))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
    try:
        return SynthSpec(tuple(prims), **doc)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _primitive_poses(prim: MotionPrimitive, start: Pose2, tau: np.ndarray):
    """Closed-form poses ``tau`` seconds into a primitive from ``start``: (theta, tx, ty) arrays.

    Arcs use the exact circle equations, so sampled endpoints sit on the
    true circle rather than on an integrated polyline.  Each value has the
    bits the per-frame ``Pose2`` form gave: ``math`` sines and cosines per
    element, and a heading wrapped once.
    """
    theta0, v = start.theta, prim.speed_mps
    if prim.kind == "stop":
        return np.full(tau.shape, theta0), np.full(tau.shape, start.tx), np.full(tau.shape, start.ty)
    if prim.kind == "straight":
        dist = v * tau
        return (np.full(tau.shape, theta0), start.tx + dist * math.cos(theta0),
                start.ty + dist * math.sin(theta0))
    omega = math.radians(prim.yaw_rate_dps)
    theta = theta0 + omega * tau
    radius = v / omega
    sin, cos = sin_cos(theta)
    return (wrap_angle(theta), start.tx + radius * (sin - math.sin(theta0)),
            start.ty - radius * (cos - math.cos(theta0)))


def _primitive_starts(primitives) -> list[Pose2]:
    """Start pose of every primitive, then the end pose of the drive.

    Raises ValueError naming the first primitive and field whose motion
    may leave the float range.  A pose sampled in a primitive lies within
    ``|speed_mps| * duration_s`` of its start (an arc's chord is shorter
    than its length), so that distance added to the start must be finite;
    no pose inside a passing primitive can then overflow.
    """
    starts = [Pose2.identity()]
    for i, prim in enumerate(primitives):
        where, start = f"primitives[{i}]", starts[-1]
        speed, rate, dur = prim.speed_mps, prim.yaw_rate_dps, prim.duration_s
        if prim.kind == "arc":
            omega = math.radians(rate)
            if not math.isfinite(omega * dur):
                raise ValueError(f"{where}.yaw_rate_dps {rate!r} turns through a non-finite angle "
                                 f"over duration_s {dur!r}")
            if omega == 0.0 or not math.isfinite(speed / omega):
                raise ValueError(f"{where}.yaw_rate_dps {rate!r} gives no finite arc radius "
                                 f"at speed_mps {speed!r}")
        reach = abs(speed) * dur
        if not math.isfinite(max(abs(start.tx), abs(start.ty)) + reach):
            raise ValueError(f"{where}.speed_mps {speed!r} over duration_s {dur!r} "
                             "carries the drive beyond the float range")
        starts.append(Pose2(*(float(a[0]) for a in _primitive_poses(prim, start, np.array([dur])))))
    return starts


def synth_trajectory(spec: SynthSpec) -> tuple[Trajectory, Trajectory]:
    """Generate (ground truth, corrupted estimate) trajectories.

    Ground truth is sampled every ``dt_s`` seconds from the closed-form
    motion (endpoint included when total duration is a multiple of dt).
    The estimate recomposes the per-step relative motions after applying
    scale drift and noise; it is bit-identical to the ground truth when
    both corruptions are off.

    Raises:
        ValueError: the corrupted estimate leaves the float range; the
            message names ``spec.scale_drift`` or ``spec.noise_trans_m``.
    """
    durations = [p.duration_s for p in spec.primitives]
    total = sum(durations)
    n_steps = int(math.floor(total / spec.dt_s + 1e-9))
    times = np.arange(n_steps + 1, dtype=float) * spec.dt_s

    starts = _primitive_starts(spec.primitives)
    bounds = np.cumsum([0.0] + durations)
    # primitive i holds the frames in [bounds[i], bounds[i + 1]); the last
    # one also holds the endpoint
    cuts = np.append(np.searchsorted(times, bounds[:-1], side="left"), times.size)
    theta, tx, ty = np.empty_like(times), np.empty_like(times), np.empty_like(times)
    for i, prim in enumerate(spec.primitives):
        part = slice(cuts[i], cuts[i + 1])
        theta[part], tx[part], ty[part] = _primitive_poses(prim, starts[i], times[part] - bounds[i])
    gt_poses = planar_stack(theta, tx, ty)
    gt = Trajectory(times, gt_poses)

    if spec.noise_trans_m == 0.0 and spec.noise_yaw_deg == 0.0 and spec.scale_drift == 1.0:
        return gt, Trajectory(times, gt_poses)

    # relative planar motion of each step in the previous frame's
    # coordinates; wrap_angle maps its outputs to themselves bit for bit,
    # so the per-step Pose2 that wrapped this once more changed nothing
    dtheta = wrap_angle(theta[1:] - theta[:-1])
    dx_w, dy_w = tx[1:] - tx[:-1], ty[1:] - ty[:-1]
    c, s = gt_poses[:-1, 0, 0], gt_poses[:-1, 1, 0]
    # one draw in row-major order gives the (yaw, x, y) values of three
    # scalar draws per step
    noise = np.random.default_rng(spec.seed).standard_normal((n_steps, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_x, scaled_y = (c * dx_w + s * dy_w) * spec.scale_drift, (-s * dx_w + c * dy_w) * spec.scale_drift
        noise_x, noise_y = spec.noise_trans_m * noise[:, 1], spec.noise_trans_m * noise[:, 2]
        steps = planar_stack(wrap_angle(dtheta + math.radians(spec.noise_yaw_deg) * noise[:, 0]),
                              scaled_x + noise_x, scaled_y + noise_y)
        est_poses = np.empty_like(gt_poses)
        est_poses[0] = gt_poses[0]
        # a sequential chain: its bits are part of the format round trips
        for k in range(n_steps):
            est_poses[k + 1] = est_poses[k] @ steps[k]
    if not (np.all(np.isfinite(steps)) and np.all(np.isfinite(est_poses))):
        # name the corruption whose term is larger; an infinite term wins
        scaled = max(np.max(np.abs(scaled_x)), np.max(np.abs(scaled_y)))
        noisy = max(np.max(np.abs(noise_x)), np.max(np.abs(noise_y)))
        key = "scale_drift" if scaled >= noisy else "noise_trans_m"
        raise ValueError(f"spec.{key} {getattr(spec, key)!r} carries the estimate beyond the float range")
    return gt, Trajectory(times, est_poses)


# ---------------------------------------------------------------------------
# CSV side outputs


_PAIRS_HEADER = "anchor_id,partner_id,yaw_diff_deg,displacement_m"


def write_pairs_csv(records: list[PairRecord]) -> str:
    """Serialize drawn or enumerated pairs as CSV."""
    rows = [(r.anchor_id, r.partner_id, r.yaw_diff_deg, r.displacement_m) for r in records]
    return _format_rows("%s,%s,%.17g,%.17g", rows, _PAIRS_HEADER)


def parse_pairs_csv(text: str) -> list[PairRecord]:
    """Parse the pairs CSV written by :func:`write_pairs_csv`."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().startswith("anchor_id"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ParseError(f"expected 4 comma-separated fields, got {len(fields)}", line=lineno)
        try:
            records.append(
                PairRecord(
                    anchor_id=int(fields[0]),
                    partner_id=int(fields[1]),
                    yaw_diff_deg=float(fields[2]),
                    displacement_m=float(fields[3]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"bad pair record: {exc}", line=lineno) from None
    return records


def write_flow_csv(flow: FlowField) -> str:
    """Debug dump of a flow field: one ``u,v,du,dv`` row per pixel.

    Rows iterate v (grid rows) in the outer loop and u in the inner one.
    """
    v, u = np.indices(flow.data.shape[1:])
    rows = np.column_stack([u.ravel(), v.ravel(), flow.data[0].ravel(), flow.data[1].ravel()])
    return _format_rows("%d,%d,%.17g,%.17g", rows.tolist(), "u,v,du,dv")


def write_scale_curve_csv(curve: LogScaleCurve) -> str:
    """Serialize a per-segment log-scale curve as ``segment_index,log2_scale``."""
    rows = zip(curve.segment_indices.tolist(), curve.values.tolist())
    return _format_rows("%d,%.17g", rows, "segment_index,log2_scale")


def flow_to_bvt1(flow: FlowField) -> bytes:
    """Encode a flow field's (2, H, W) data as BVT1 bytes."""
    return write_bvt1(flow.data)


def flow_from_bvt1(data: bytes, grid: BevGridSpec) -> FlowField:
    """Decode BVT1 bytes into a flow field on the given grid.

    Raises:
        ShapeError: the tensor is not (2, H, W) for the grid.
    """
    arr = read_bvt1(data)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise ShapeError(f"flow tensor must have shape (2, H, W), got {arr.shape}")
    return FlowField(arr.astype(float), grid)
