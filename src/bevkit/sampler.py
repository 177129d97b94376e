"""Rotation-aware training pair selection over a posed frame sequence.

Pairs within a temporal window and a displacement budget are split by
relative yaw magnitude into a high-rotation list and a standard list;
draws then oversample the high-rotation list to rebalance turning data.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .config import DEFAULT_HIGH_DEG, DEFAULT_LOW_DEG, DEFAULT_MAX_DISP_M, DEFAULT_WINDOW_S
from .errors import NoPairsError
from .geometry import Pose3, check_rigid, invert_rigid, repair_rotations, wrap_angle
from .text import AT_LEAST_ZERO, FINITE, INTEGER, _numeric_array, check_arg, check_array

# Share of draws that go to the high-rotation list.
HIGH_FRACTION = 0.7

# Candidate pairs handled per array pass; bounds the index arrays and the
# (block, 4, 4) stacks whatever the window and sequence length.
_BLOCK = 1024
# Most pairs one mining admits: about 650 MB of pools at some 155 bytes a pair.
_MAX_PAIRS = 2**22


@dataclass(frozen=True)
class FrameIndex:
    """One posed frame of a sequence: integer id, finite timestamp, world pose."""

    id: int
    timestamp: float
    pose: Pose3

    def __post_init__(self):
        object.__setattr__(self, "id", check_arg("frame id", self.id, INTEGER))
        object.__setattr__(self, "timestamp", check_arg("timestamp", self.timestamp, FINITE))


class PairRecord(namedtuple("PairRecord", "anchor_id partner_id yaw_diff_deg displacement_m")):
    """A candidate training pair with its relative-motion summary: a tuple of its four fields.

    ``yaw_diff_deg`` is the absolute relative yaw in degrees, in [0, 180];
    ``displacement_m`` is the planar distance between the two frames.
    """

    __slots__ = ()


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
    computed for blocks of candidates at once with the same bits, and a
    pair is admitted only when ``relative_pose`` accepts it and its
    displacement is a finite number: a pair whose product leaves the float
    range is dropped.

    Args:
        frames: posed frames with nondecreasing timestamps.
        window_s, max_disp_m, low_deg, high_deg: numbers >= 0 (inf
            allowed, a bool refused), with ``low_deg <= high_deg``.

    Returns:
        Mapping anchor id -> PairLists for that anchor, in frame order
        (a repeated id keeps its first position and its last anchor's
        lists); empty for an empty sequence.

    Raises:
        ValueError: more than ``_MAX_PAIRS`` (2^22) pairs are admitted.
    """
    window_s, max_disp_m, low_deg, high_deg = (check_arg(name, value, AT_LEAST_ZERO) for name, value in zip(
        ("window_s", "max_disp_m", "low_deg", "high_deg"), (window_s, max_disp_m, low_deg, high_deg)))
    if low_deg > high_deg:
        raise ValueError("need low_deg <= high_deg")
    if not frames:
        return {}
    times = np.array([f.timestamp for f in frames], dtype=float)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("frame timestamps must be nondecreasing")

    ids = np.array([f.id for f in frames], dtype=object)
    poses = np.stack([f.pose.matrix for f in frames])
    inverses = invert_rigid(poses)
    # candidate c of anchor i is frame lo[i] + c - starts[i]; the anchor
    # itself is one of its own candidates and is dropped below
    lo = np.searchsorted(times, times - window_s, side="left")
    hi = np.searchsorted(times, times + window_s, side="right")
    starts = np.concatenate([[0], np.cumsum(hi - lo)])
    # the records of the high and of the standard list, in anchor order, and
    # their anchors block by block, after an empty block for a sequence with none
    records, anchors = ([], []), ([np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)])
    admitted = 0
    for first in range(0, int(starts[-1]), _BLOCK):
        pos = np.arange(first, min(first + _BLOCK, int(starts[-1])))
        a = np.searchsorted(starts, pos, side="right") - 1
        b = lo[a] + pos - starts[a]
        a, b = a[a != b], b[a != b]
        # a product that leaves the float range is dropped below, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            rel = np.matmul(inverses[a], poses[b])
        # a box test first: hypot(x, y) >= max(|x|, |y|), so it drops no pair
        # the displacement cap would keep
        box = (np.abs(rel[:, 0, 3]) <= max_disp_m) & (np.abs(rel[:, 1, 3]) <= max_disp_m)
        a, b, rel = a[box], b[box], rel[box]
        # math.hypot, not np.hypot, whose last bits differ
        disp = np.array(list(map(math.hypot, rel[:, 0, 3].tolist(), rel[:, 1, 3].tolist())))
        # relative_pose accepts a finite product: a NaN rotation entry comes from inf * 0,
        # which leaves that row's translation non-finite, so the translation column decides
        near = (disp <= max_disp_m) & np.isfinite(disp) & np.isfinite(rel[:, 2, 3])
        a, b, rel, disp = a[near], b[near], rel[near], disp[near]
        # relative_pose re-orthonormalizes a product that drifts past the tolerance
        repair_rotations(rel)
        # math.atan2, not np.arctan2; then wrap_angle before abs, as Pose2
        # does, since wrapping a negative angle can change its last bits
        theta = wrap_angle(np.array(list(map(math.atan2, rel[:, 1, 0].tolist(), rel[:, 0, 0].tolist()))))
        # np.degrees multiplies by 180 / pi once, as math.degrees does
        yaw = np.abs(np.degrees(theta))
        kept, high = yaw <= high_deg, yaw >= low_deg
        admitted += int(np.count_nonzero(kept))
        if admitted > _MAX_PAIRS:
            raise ValueError(f"more than {_MAX_PAIRS} pairs admitted; lower window_s ({window_s!r}) "
                             f"or max_disp_m ({max_disp_m!r})")
        for k, mask in enumerate((kept & high, kept & ~high)):
            fields = zip(ids[a[mask]].tolist(), ids[b[mask]].tolist(), yaw[mask].tolist(), disp[mask].tolist())
            # PairRecord._make without its length check: no Python call per record
            records[k].extend(map(tuple.__new__, repeat(PairRecord), fields))
            anchors[k].append(a[mask])
    per_class = []
    for listed, anchor in zip(records, anchors):
        # the pairs come in anchor order, so each anchor's records are one slice
        bounds = np.searchsorted(np.concatenate(anchor), np.arange(len(frames) + 1)).tolist()
        per_class.append([listed[i:j] for i, j in zip(bounds[:-1], bounds[1:])])
    return dict(zip(ids.tolist(), map(PairLists, *per_class)))


def sample_pair(lists: PairLists, rng: np.random.Generator) -> PairRecord:
    """Draw one pair, preferring the high-rotation list.

    With probability ``HIGH_FRACTION`` the draw comes from the high list,
    otherwise from the standard list; an empty chosen list falls back to
    the other one.  Within a list the pick is uniform.

    Raises:
        NoPairsError: both lists are empty.
    """
    if not lists.high and not lists.standard:
        raise NoPairsError("no admissible pairs to sample from")
    pool = lists.high if rng.random() < HIGH_FRACTION else lists.standard
    if not pool:
        pool = lists.high if lists.high else lists.standard
    return pool[int(rng.integers(len(pool)))]


def frames_from_trajectory(timestamps: np.ndarray, poses: np.ndarray) -> list[FrameIndex]:
    """Wrap parallel timestamp/pose arrays as FrameIndex records, ids 0..N-1; no frames give none.

    The poses become a read-only stack, checked as a whole by
    :func:`check_rigid`; each frame's ``Pose3`` is a row of it.
    """
    if np.shape(timestamps) == (0,) and np.shape(poses) == (0, 4, 4):
        return []
    timestamps = check_array("timestamps", timestamps, ("N",))
    shape = (timestamps.size, 4, 4)
    # check_rigid judges the frames in order, finiteness with rigidity, so the
    # first frame Pose3 would refuse is the one reported, not a later NaN
    poses = _numeric_array("poses", poses, shape)
    check_rigid(poses)
    poses = check_array("poses", poses, shape)
    return [
        FrameIndex(id=i, timestamp=t, pose=Pose3._trusted(m))
        for i, (t, m) in enumerate(zip(timestamps.tolist(), poses))
    ]
