"""Synthetic drives: motion primitives, the JSON synth spec, and a corrupted estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .geometry import Pose2, Trajectory, planar_stack, sin_cos, wrap_angle
from .text import FINITE, FINITE_AT_LEAST_ZERO, FINITE_POSITIVE, check_arg, check_fields, integer_in, load_json

_PRIMITIVE_KINDS = ("straight", "arc", "stop")

# Size cap, checked before anything of that size is allocated.
_MAX_SYNTH_FRAMES = 2**20


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
        for name in ("duration_s", "speed_mps", "yaw_rate_dps"):
            object.__setattr__(self, name, check_arg(name, getattr(self, name), _PRIMITIVE[name]))
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
        for name in ("dt_s", "noise_trans_m", "noise_yaw_deg", "scale_drift", "seed"):
            object.__setattr__(self, name, check_arg(name, getattr(self, name), _SYNTH_SPEC[name]))
        frames = sum(p.duration_s for p in self.primitives) / self.dt_s
        if not frames < _MAX_SYNTH_FRAMES:
            raise ValueError(f"drive of {frames:.6g} frames exceeds the cap of {_MAX_SYNTH_FRAMES}")
        object.__setattr__(self, "primitives", tuple(self.primitives))
        _primitive_starts(self.primitives)


_SYNTH_SPEC = {
    "primitives": ((lambda v: type(v) is list and len(v) > 0), "a non-empty list of primitive objects"),
    "dt_s": FINITE_POSITIVE,
    "noise_trans_m": FINITE_AT_LEAST_ZERO,
    "noise_yaw_deg": FINITE_AT_LEAST_ZERO,
    "scale_drift": FINITE_POSITIVE,
    "seed": integer_in(0),
}

_PRIMITIVE = {
    "kind": ((lambda v: v in _PRIMITIVE_KINDS), f"one of {', '.join(_PRIMITIVE_KINDS)}"),
    "duration_s": FINITE_POSITIVE,
    "speed_mps": FINITE,
    "yaw_rate_dps": FINITE,
}


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse a JSON synth spec, strictly (unknown keys rejected, every value checked)."""
    doc = check_fields(load_json(text), _SYNTH_SPEC, "spec", required=("primitives",))
    prims = []
    for i, sec in enumerate(doc.pop("primitives")):
        where = f"primitives[{i}]"
        prim = check_fields(sec, _PRIMITIVE, where, required=("kind", "duration_s"))
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
