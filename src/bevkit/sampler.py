"""Rotation-aware training pair selection over a posed frame sequence.

Pairs within a temporal window and a displacement budget are split by
relative yaw magnitude into a high-rotation list and a standard list;
draws then oversample the high-rotation list to rebalance turning data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, NoPairsError
from .geometry import Pose3, check_rigid, invert_rigid, repair_rotations, wrap_angle

DEFAULT_WINDOW_S = 60.0
DEFAULT_MAX_DISP_M = 4.0
DEFAULT_LOW_DEG = 15.0
DEFAULT_HIGH_DEG = 45.0
DEFAULT_HIGH_FRACTION = 0.7

# Candidate pairs handled per array pass; bounds the index arrays and the
# (block, 4, 4) stacks whatever the window and sequence length.
_BLOCK = 1024


@dataclass(frozen=True)
class FrameIndex:
    """One posed frame of a sequence: integer id, timestamp, world pose."""

    id: int
    timestamp: float
    pose: Pose3

    def __post_init__(self):
        object.__setattr__(self, "id", int(self.id))
        ts = float(self.timestamp)
        if not math.isfinite(ts):
            raise ValueError("timestamp must be finite")
        object.__setattr__(self, "timestamp", ts)


@dataclass(frozen=True)
class PairRecord:
    """A candidate training pair with its relative-motion summary.

    ``yaw_diff_deg`` is the absolute relative yaw in degrees, in [0, 180];
    ``displacement_m`` is the planar distance between the two frames.
    """

    anchor_id: int
    partner_id: int
    yaw_diff_deg: float
    displacement_m: float


@dataclass
class PairLists:
    """The two candidate pools for one anchor (or a whole sequence)."""

    high: list[PairRecord] = field(default_factory=list)
    standard: list[PairRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.high) + len(self.standard)


def merge_pair_lists(per_anchor: dict[int, PairLists]) -> PairLists:
    """Concatenate per-anchor lists (in anchor-id order) into one pool."""
    merged = PairLists()
    for anchor in sorted(per_anchor):
        merged.high.extend(per_anchor[anchor].high)
        merged.standard.extend(per_anchor[anchor].standard)
    return merged


def build_pair_lists(
    frames: list[FrameIndex],
    window_s: float = DEFAULT_WINDOW_S,
    max_disp_m: float = DEFAULT_MAX_DISP_M,
    low_deg: float = DEFAULT_LOW_DEG,
    high_deg: float = DEFAULT_HIGH_DEG,
) -> dict[int, PairLists]:
    """Classify every admissible ordered pair around each anchor frame.

    A partner is admissible when its timestamp lies within ``window_s``
    of the anchor (inclusive, both directions) and the planar displacement
    is at most ``max_disp_m``.  Admissible pairs with absolute relative
    yaw in [low_deg, high_deg] (inclusive ends) go to the high-rotation
    list; pairs strictly below ``low_deg`` go to the standard list; pairs
    above ``high_deg`` are discarded as unreliable.

    The relative pose of a pair is the one :func:`relative_pose` gives,
    computed for blocks of candidates at once with the same bits; a pair
    whose product leaves the float range, which ``relative_pose`` refuses,
    is kept with an infinite displacement when ``max_disp_m`` is inf.

    Args:
        frames: posed frames with nondecreasing timestamps.
        window_s, max_disp_m, low_deg, high_deg: numbers >= 0 (inf
            allowed), with ``low_deg <= high_deg``.

    Returns:
        Mapping anchor id -> PairLists for that anchor, in frame order
        (a repeated id keeps its first position and its last anchor's
        lists); empty for an empty sequence.
    """
    for name, value in (("window_s", window_s), ("max_disp_m", max_disp_m),
                        ("low_deg", low_deg), ("high_deg", high_deg)):
        if not (isinstance(value, numbers.Real) and value >= 0.0):  # also refuses NaN
            raise ValueError(f"{name} must be a number >= 0, got {value!r}")
    if low_deg > high_deg:
        raise ValueError("need low_deg <= high_deg")
    if not frames:
        return {}
    times = np.array([f.timestamp for f in frames], dtype=float)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("frame timestamps must be nondecreasing")

    ids = [f.id for f in frames]
    poses = np.stack([f.pose.matrix for f in frames])
    inverses = invert_rigid(poses)
    # candidate c of anchor i is frame lo[i] + c - starts[i]; the anchor
    # itself is one of its own candidates and is dropped below
    lo = np.searchsorted(times, times - window_s, side="left")
    hi = np.searchsorted(times, times + window_s, side="right")
    starts = np.concatenate([[0], np.cumsum(hi - lo)])
    per_anchor = [PairLists() for _ in frames]
    for first in range(0, int(starts[-1]), _BLOCK):
        pos = np.arange(first, min(first + _BLOCK, int(starts[-1])))
        a = np.searchsorted(starts, pos, side="right") - 1
        b = lo[a] + pos - starts[a]
        a, b = a[a != b], b[a != b]
        # a product that leaves the float range is judged by the rule in the
        # docstring, without a numpy warning: kept with an infinite
        # displacement when max_disp_m is inf, dropped by the box test if NaN
        with np.errstate(over="ignore", invalid="ignore"):
            rel = np.matmul(inverses[a], poses[b])
        # a box test first: hypot(x, y) >= max(|x|, |y|), so it drops no pair
        # the displacement cap would keep
        box = (np.abs(rel[:, 0, 3]) <= max_disp_m) & (np.abs(rel[:, 1, 3]) <= max_disp_m)
        a, b, rel = a[box], b[box], rel[box]
        # math.hypot, not np.hypot, whose last bits differ
        disp = np.array(list(map(math.hypot, rel[:, 0, 3].tolist(), rel[:, 1, 3].tolist())))
        near = disp <= max_disp_m
        a, b, rel, disp = a[near], b[near], rel[near], disp[near]
        # relative_pose re-orthonormalizes a product that drifts past the tolerance
        repair_rotations(rel)
        # math.atan2, not np.arctan2; then wrap_angle before abs, as Pose2
        # does, since wrapping a negative angle can change its last bits
        theta = wrap_angle(np.array(list(map(math.atan2, rel[:, 1, 0].tolist(), rel[:, 0, 0].tolist()))))
        yaw = [abs(math.degrees(t)) for t in theta.tolist()]
        for i, j, y, d in zip(a.tolist(), b.tolist(), yaw, disp.tolist()):
            if y > high_deg:
                continue
            lists = per_anchor[i]
            (lists.high if y >= low_deg else lists.standard).append(PairRecord(ids[i], ids[j], y, d))
    return dict(zip(ids, per_anchor))


def sample_pair(
    lists: PairLists,
    rng: np.random.Generator,
    high_fraction: float = DEFAULT_HIGH_FRACTION,
) -> PairRecord:
    """Draw one pair, preferring the high-rotation list.

    With probability ``high_fraction`` the draw comes from the high list,
    otherwise from the standard list; an empty chosen list falls back to
    the other one.  Within a list the pick is uniform.

    Raises:
        NoPairsError: both lists are empty.
    """
    if not (0.0 <= high_fraction <= 1.0):
        raise ValueError("high_fraction must lie in [0, 1]")
    if not lists.high and not lists.standard:
        raise NoPairsError("no admissible pairs to sample from")
    pool = lists.high if rng.random() < high_fraction else lists.standard
    if not pool:
        pool = lists.high if lists.high else lists.standard
    return pool[int(rng.integers(len(pool)))]


def frames_from_trajectory(timestamps: np.ndarray, poses: np.ndarray) -> list[FrameIndex]:
    """Wrap parallel timestamp/pose arrays as FrameIndex records, ids 0..N-1.

    The poses are copied once into a read-only stack and checked as a
    whole by :func:`check_rigid`; each frame's ``Pose3`` is a row of it.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    poses = np.array(poses, dtype=float)
    if timestamps.ndim != 1 or poses.shape != (timestamps.size, 4, 4):
        raise DegenerateInputError(
            f"need (N,) timestamps with (N, 4, 4) poses, got {timestamps.shape} and {poses.shape}"
        )
    check_rigid(poses)
    poses.flags.writeable = False
    return [
        FrameIndex(id=i, timestamp=t, pose=Pose3._trusted(m))
        for i, (t, m) in enumerate(zip(timestamps.tolist(), poses))
    ]
