"""Tests for rotation-aware pair mining and sampling."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bevkit.geometry
import bevkit.sampler
from bevkit.errors import NoPairsError, ShapeError
from bevkit.formats import parse_pairs_csv, parse_tum_trajectory, write_pairs_csv, write_tum_trajectory
from bevkit.geometry import Pose2, Pose3, pose2_to_pose3, pose3_to_pose2, wrap_angle
from bevkit.sampler import (
    FrameIndex,
    PairLists,
    PairRecord,
    build_pair_lists,
    frames_from_trajectory,
    merge_pair_lists,
    sample_pair,
)
from bevkit.synth import MotionPrimitive, SynthSpec, synth_trajectory
from helpers import pose3, reference_relative_pose, rot_z


def make_frames(rows):
    """rows: iterable of (timestamp, theta, tx, ty)."""
    return [
        FrameIndex(id=i, timestamp=t, pose=pose2_to_pose3(Pose2(th, tx, ty)))
        for i, (t, th, tx, ty) in enumerate(rows)
    ]


def record(anchor=0, partner=1, yaw=20.0, disp=1.0):
    return PairRecord(anchor_id=anchor, partner_id=partner, yaw_diff_deg=yaw, displacement_m=disp)


def reference_build_pair_lists(frames, window_s=60.0, max_disp_m=4.0, low_deg=15.0, high_deg=45.0):
    """The per-pair loop that build_pair_lists replaces: one relative_pose per candidate."""
    if not frames:
        return {}
    times = np.array([f.timestamp for f in frames], dtype=float)
    out = {}
    n = len(frames)
    for i, anchor in enumerate(frames):
        lists = PairLists()
        lo = int(np.searchsorted(times, anchor.timestamp - window_s, side="left"))
        hi = int(np.searchsorted(times, anchor.timestamp + window_s, side="right"))
        for j in range(lo, min(hi, n)):
            if j == i:
                continue
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    m = reference_relative_pose(anchor.pose, frames[j].pose)
            except ValueError as exc:
                assert "non-finite" in str(exc)
                continue  # Pose3 refuses a product past the float range
            rel = pose3_to_pose2(Pose3(m))
            disp = math.hypot(rel.tx, rel.ty)
            if disp > max_disp_m or disp == math.inf:
                continue
            yaw = abs(math.degrees(rel.theta))
            if yaw > high_deg:
                continue
            rec = PairRecord(anchor_id=anchor.id, partner_id=frames[j].id, yaw_diff_deg=yaw, displacement_m=disp)
            if yaw >= low_deg:
                lists.high.append(rec)
            else:
                lists.standard.append(rec)
        out[anchor.id] = lists
    return out


def assert_matches_reference(frames, **thresholds):
    """Same anchors in the same order, same pairs per list in the same order, same bits."""
    got = build_pair_lists(frames, **thresholds)
    want = reference_build_pair_lists(frames, **thresholds)
    assert list(got) == list(want)
    for anchor, lists in want.items():
        for name in ("high", "standard"):
            g, w = getattr(got[anchor], name), getattr(lists, name)
            assert [(r.anchor_id, r.partner_id) for r in g] == [(r.anchor_id, r.partner_id) for r in w]
            assert np.array_equal([r.yaw_diff_deg for r in g], [r.yaw_diff_deg for r in w])
            assert np.array_equal([r.displacement_m for r in g], [r.displacement_m for r in w])
    return got


def parsed_frames(primitives, seed):
    """Frames of a noisy synthetic estimate after a TUM write and parse, as the CLI reads them."""
    _, est = synth_trajectory(SynthSpec(
        primitives, dt_s=0.1, noise_trans_m=0.02, noise_yaw_deg=0.1, scale_drift=1.03, seed=seed))
    traj = parse_tum_trajectory(write_tum_trajectory(est))
    return frames_from_trajectory(traj.timestamps, traj.poses)


def reference_frames_from_trajectory(timestamps, poses):
    """One validated Pose3 per frame: the stacked path's reference."""
    return [FrameIndex(id=i, timestamp=float(timestamps[i]), pose=Pose3(poses[i])) for i in range(len(timestamps))]


def drifted_rotation(drift):
    """rot_z(0.3) scaled so that ||R^T R - I||_F equals ``drift`` (|det R - 1| is about 0.87 drift)."""
    return rot_z(0.3) * math.sqrt(1.0 + drift / math.sqrt(3.0))


def drive_stack(n=12):
    gt, _ = synth_trajectory(SynthSpec((MotionPrimitive("arc", 2.0, 2.0, 30.0),)))
    return gt.timestamps[:n], np.array(gt.poses[:n])


def put(index, value):
    def fault(m):
        m[index] = value
    return fault


POSE_FAULTS = {
    "nan": put((0, 3), math.nan),
    "inf-rotation": put((1, 1), math.inf),
    "bottom-row": put((3, 0), 1e-300),
    "drift-2e-9": put((slice(0, 3), slice(0, 3)), drifted_rotation(2e-9)),
    "reflection": put((slice(0, 3), 2), (0.0, 0.0, -1.0)),
}


def rot_y(theta):
    """3x3 rotation about the vehicle y axis: a pitch."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def frames_at(*poses):
    """Frames one second apart at the given poses."""
    return [FrameIndex(id=k, timestamp=float(k), pose=pose) for k, pose in enumerate(poses)]


IDENTITY = Pose3(np.eye(4))
# stock, an infinite window, and an infinite window, displacement cap and yaw cap
OVERFLOW_THRESHOLDS = ({}, {"window_s": math.inf},
                       {"window_s": math.inf, "max_disp_m": math.inf, "high_deg": math.inf})
def assert_matches_reference_quietly(frames):
    """assert_matches_reference at each of OVERFLOW_THRESHOLDS with every warning an error; the last pools."""
    for thresholds in OVERFLOW_THRESHOLDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_reference(frames, **thresholds)
    return got


# frame sets whose products leave the float range, and the pairs admitted at infinite thresholds
OVERFLOW_CASES = {
    # each rotation drifts 0.9e-9, so the product of the two needs the repair before its refusal
    "drifted-pair": (frames_at(*(pose3(drifted_rotation(0.9e-9), [x, 0.0, 0.0]) for x in (-1e308, 1e308))), set()),
    "far-apart": (frames_at(*(pose3(np.eye(3), [x, 0.0, 0.0]) for x in (-1e308, 1e308, 1e308))), {(1, 2), (2, 1)}),
    "far-apart-turning": (frames_at(*(pose3(rot_z(0.3 * k), [x, 0.0, 0.0])
                                      for k, x in enumerate((-1e308, 1e308, 1e308)))), {(1, 2), (2, 1)}),
    # 0 and +-1.7e308 m: the pairs of the two far frames overflow, the pairs with the origin do not
    "either-side-of-the-origin": (frames_at(*(pose3(np.eye(3), [x, 0.0, 0.0]) for x in (0.0, 1.7e308, -1.7e308))),
                                  {(0, 1), (0, 2), (1, 0), (2, 0)}),
    # R^T t of a 45 degree frame at (-1.7e308, -1.7e308) overflows, so inf * 0 makes every rotation
    # block of that anchor NaN; seen from the origin, its displacement of 2.4e308 m is infinite
    "anchor-inverse-overflows": (frames_at(pose3(rot_z(math.pi / 4), [-1.7e308, -1.7e308, 0.0]), IDENTITY, IDENTITY),
                                 {(1, 2), (2, 1)}),
    # pitched 45 degrees at (-1.7e308, 0, -1.7e308): only the height of R^T t overflows, so the
    # anchor's products have finite planar offsets but a NaN rotation row
    "anchor-inverse-overflows-in-height": (
        frames_at(pose3(rot_y(math.pi / 4), [-1.7e308, 0.0, -1.7e308]), IDENTITY, IDENTITY),
        {(1, 0), (1, 2), (2, 0), (2, 1)}),
}


class TestBuildPairLists:
    def test_empty_sequence_gives_empty_result(self):
        assert build_pair_lists([]) == {}

    def test_classification_by_yaw(self):
        frames = make_frames(
            [
                (0.0, 0.0, 0.0, 0.0),
                (1.0, math.radians(30.0), 1.0, 0.0),   # high
                (2.0, math.radians(10.0), 0.5, 0.5),   # standard
                (3.0, math.radians(50.0), 1.0, 0.0),   # discarded (yaw)
                (4.0, 0.0, 5.0, 0.0),                  # discarded (displacement)
            ]
        )
        lists = build_pair_lists(frames)[0]
        assert [r.partner_id for r in lists.high] == [1]
        assert [r.partner_id for r in lists.standard] == [2]
        hi = lists.high[0]
        assert abs(hi.yaw_diff_deg - 30.0) < 1e-9
        assert abs(hi.displacement_m - 1.0) < 1e-12

    def test_both_orderings_retained(self):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, math.radians(20.0), 1.0, 0.0)])
        per_anchor = build_pair_lists(frames)
        assert [r.partner_id for r in per_anchor[0].high] == [1]
        assert [r.partner_id for r in per_anchor[1].high] == [0]
        # Absolute yaw is symmetric between the two orderings.
        assert abs(per_anchor[0].high[0].yaw_diff_deg - per_anchor[1].high[0].yaw_diff_deg) < 1e-9

    def test_temporal_window_inclusive(self):
        frames = make_frames(
            [(0.0, 0.0, 0.0, 0.0), (60.0, 0.0, 1.0, 0.0), (61.0, 0.0, 2.0, 0.0)]
        )
        per_anchor = build_pair_lists(frames, window_s=60.0)
        assert [r.partner_id for r in per_anchor[0].standard] == [1]
        assert {r.partner_id for r in per_anchor[1].standard} == {0, 2}

    def test_displacement_boundary_inclusive(self):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 4.0, 0.0)])
        lists = build_pair_lists(frames)[0]
        assert len(lists.standard) == 1
        assert lists.standard[0].displacement_m == 4.0

    def test_yaw_45_boundary_is_high(self):
        # 45 degrees survives the trig round trip bit-exactly, so this
        # pins the inclusive upper bound with the default thresholds.
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, math.radians(45.0), 1.0, 0.0)])
        lists = build_pair_lists(frames)[0]
        assert len(lists.high) == 1
        assert lists.high[0].yaw_diff_deg == 45.0

    def test_low_boundary_inclusive_exact(self):
        # Default 15 deg is not exactly reachable through the rotation
        # matrix round trip, so pin inclusivity by using the computed
        # yaw itself as the threshold.
        theta = 0.25
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, theta, 1.0, 0.0)])
        yaw = build_pair_lists(frames, low_deg=0.0)[0].high[0].yaw_diff_deg
        at_boundary = build_pair_lists(frames, low_deg=yaw)[0]
        assert len(at_boundary.high) == 1 and len(at_boundary.standard) == 0
        above = build_pair_lists(frames, low_deg=math.nextafter(yaw, math.inf))[0]
        assert len(above.high) == 0 and len(above.standard) == 1
        at_top = build_pair_lists(frames, low_deg=0.0, high_deg=yaw)[0]
        assert len(at_top.high) == 1
        below_top = build_pair_lists(
            frames, low_deg=0.0, high_deg=math.nextafter(yaw, -math.inf)
        )[0]
        assert len(below_top) == 0

    def test_planar_displacement_ignores_height(self):
        pose_hi = pose2_to_pose3(Pose2(0.0, 0.3, 0.4)).matrix.copy()
        pose_hi[2, 3] = 10.0
        from bevkit.geometry import Pose3

        frames = [
            FrameIndex(id=0, timestamp=0.0, pose=Pose3(np.eye(4))),
            FrameIndex(id=1, timestamp=1.0, pose=Pose3(pose_hi)),
        ]
        lists = build_pair_lists(frames)[0]
        assert len(lists.standard) == 1
        assert abs(lists.standard[0].displacement_m - 0.5) < 1e-12

    def test_no_self_pairs(self):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)])
        per_anchor = build_pair_lists(frames)
        for anchor, lists in per_anchor.items():
            for rec in lists.high + lists.standard:
                assert rec.partner_id != anchor

    def test_unsorted_timestamps_rejected(self):
        frames = make_frames([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            build_pair_lists(frames)

    def test_bad_thresholds_rejected(self):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            build_pair_lists(frames, low_deg=50.0, high_deg=40.0)
        with pytest.raises(ValueError):
            build_pair_lists(frames, window_s=-1.0)

    @pytest.mark.parametrize("name", ["window_s", "max_disp_m", "low_deg", "high_deg"])
    def test_nan_threshold_rejected(self, name):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 30.0, 0.0)])
        for frames_arg in (frames, []):
            with pytest.raises(ValueError, match=name):
                build_pair_lists(frames_arg, **{name: math.nan})

    @pytest.mark.parametrize("name", ["window_s", "max_disp_m", "low_deg", "high_deg"])
    def test_bool_threshold_rejected(self, name):
        # a bool is a numbers.Real: True would run as 1
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.5, 0.0)])
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be a number >= 0, got {value}"):
                build_pair_lists(frames, **{name: value})

    def test_yaw_in_degrees_is_the_per_value_form(self):
        # np.degrees multiplies by 180 / pi once, as math.degrees does, on
        # wrapped angles at zeros, pi and its neighbours and random values
        rng = np.random.default_rng(76)
        edges = np.array([0.0, 5e-324, 1e-300, math.pi / 2, math.pi / 4, math.pi])
        theta = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 4.0),
                                rng.uniform(-math.pi, math.pi, 50000)])
        theta = wrap_angle(np.concatenate([theta, -theta]))
        want = [abs(math.degrees(t)) for t in theta.tolist()]
        assert np.array_equal(np.abs(np.degrees(theta)), want)

    def test_partition_property(self):
        rng = np.random.default_rng(70)
        rows = []
        t = 0.0
        for _ in range(40):
            t += rng.uniform(0.5, 2.0)
            rows.append((t, rng.uniform(-np.pi, np.pi), rng.uniform(-3, 3), rng.uniform(-3, 3)))
        frames = make_frames(rows)
        per_anchor = build_pair_lists(frames)
        for lists in per_anchor.values():
            high_keys = {(r.anchor_id, r.partner_id) for r in lists.high}
            std_keys = {(r.anchor_id, r.partner_id) for r in lists.standard}
            assert not high_keys & std_keys
            for r in lists.high:
                assert 15.0 <= r.yaw_diff_deg <= 45.0
                assert r.displacement_m <= 4.0
            for r in lists.standard:
                assert r.yaw_diff_deg < 15.0
                assert r.displacement_m <= 4.0


class TestBuildPairListsMatchesReference:
    def test_figure_eight_ten_second_window(self):
        gt, _ = synth_trajectory(SynthSpec(
            (MotionPrimitive("arc", 20.0, speed_mps=2.0, yaw_rate_dps=18.0),
             MotionPrimitive("arc", 20.0, speed_mps=2.0, yaw_rate_dps=-18.0)), dt_s=0.1))
        got = assert_matches_reference(frames_from_trajectory(gt.timestamps, gt.poses), window_s=10.0)
        merged = merge_pair_lists(got)
        assert merged.high and merged.standard

    def test_drive_with_stops_and_sharp_turns_one_second_window(self):
        prims = []
        for k in range(4):
            sign = 1.0 if k % 2 == 0 else -1.0
            prims += [
                MotionPrimitive("straight", 5.0, speed_mps=9.0 + k),
                MotionPrimitive("stop", 2.0),
                MotionPrimitive("arc", 3.0, speed_mps=2.0, yaw_rate_dps=sign * 35.0),
                MotionPrimitive("arc", 5.0, speed_mps=8.0, yaw_rate_dps=sign * 3.0),
            ]
        got = assert_matches_reference(parsed_frames(tuple(prims), seed=11), window_s=1.0)
        merged = merge_pair_lists(got)
        assert merged.high and merged.standard

    def test_cli_window_on_201_frames(self):
        prims = (
            MotionPrimitive("straight", 8.0, speed_mps=10.0),
            MotionPrimitive("stop", 3.0),
            MotionPrimitive("arc", 3.0, speed_mps=2.5, yaw_rate_dps=35.0),
            MotionPrimitive("straight", 6.0, speed_mps=10.0),
        )
        frames = parsed_frames(prims, seed=12)
        assert len(frames) == 201
        assert_matches_reference(frames, window_s=60.0)

    def test_duplicate_timestamps(self):
        rng = np.random.default_rng(73)
        rows = [(float(t), rng.uniform(-0.5, 0.5), rng.uniform(-2, 2), rng.uniform(-2, 2))
                for t in np.repeat(np.arange(12) * 0.5, 3)]
        frames = make_frames(rows)
        for window in (0.0, 0.5, 2.0):
            assert_matches_reference(frames, window_s=window)

    def test_repeated_ids_keep_first_position_and_last_anchor(self):
        frames = make_frames([(0.1 * k, 0.3 * k, 0.4 * k, -0.2 * k) for k in range(8)])
        frames = [FrameIndex(id=k % 3, timestamp=f.timestamp, pose=f.pose) for k, f in enumerate(frames)]
        got = assert_matches_reference(frames, window_s=1.0, low_deg=5.0)
        assert list(got) == [0, 1, 2]
        assert all(r.anchor_id == 0 for r in got[0].high + got[0].standard)

    def test_empty_and_single_frame(self):
        assert_matches_reference([])
        single = assert_matches_reference(make_frames([(0.0, 0.1, 0.0, 0.0)]))
        assert list(single) == [0] and len(single[0]) == 0

    def test_zero_window(self):
        frames = make_frames([(0.0, 0.0, 0.0, 0.0), (0.0, 0.3, 1.0, 0.0), (0.1, 0.0, 0.5, 0.0)])
        got = assert_matches_reference(frames, window_s=0.0)
        assert [r.partner_id for r in got[0].high] == [1]
        assert len(got[2]) == 0

    def test_drift_past_tolerance_takes_the_reorthonormalized_yaw(self):
        # rotation blocks with drift just under 1e-9 each: the product of two
        # drifts past it, so relative_pose re-orthonormalizes and the yaw bits
        # come from the repaired rotation
        rng = np.random.default_rng(74)
        skew = np.array([[1.0, 0.7, 0.0], [-0.2, -1.0, 0.0], [0.0, 0.0, 0.0]])
        frames = []
        for k in range(40):
            m = np.eye(4)
            m[:3, :3] = rot_z(rng.uniform(-math.pi, math.pi)) @ (np.eye(3) + (k % 2) * 2.4e-10 * skew)
            m[:2, 3] = rng.uniform(-1.5, 1.5, 2)
            frames.append(FrameIndex(id=k, timestamp=0.1 * k, pose=Pose3(m)))
        assert_matches_reference(frames, window_s=10.0, low_deg=0.0, high_deg=180.0)

    def test_frames_drifting_in_opposite_senses(self, monkeypatch):
        # rotation blocks stretched or shrunk by about 0.9e-9 of drift: a pair
        # drifting the same way needs the repair, an opposite pair does not
        rng = np.random.default_rng(75)
        frames = []
        for k in range(60):
            m = pose2_to_pose3(Pose2(rng.uniform(-math.pi, math.pi), *rng.uniform(-1.5, 1.5, 2))).matrix.copy()
            m[:3, :3] *= math.sqrt(1.0 + (-1) ** (k // 2) * 0.9e-9 / math.sqrt(3.0))
            frames.append(FrameIndex(id=k, timestamp=0.1 * k, pose=Pose3(m)))
        repairs = []
        project = bevkit.geometry.proper_rotation
        monkeypatch.setattr(bevkit.geometry, "proper_rotation", lambda r: (repairs.append(1), project(r))[1])
        assert_matches_reference(frames, window_s=10.0, low_deg=0.0, high_deg=180.0)
        assert len(repairs) > 0

    def test_mines_without_relative_pose(self, monkeypatch):
        calls = []
        for module in (bevkit.geometry, bevkit.sampler):
            if hasattr(module, "relative_pose"):
                monkeypatch.setattr(module, "relative_pose", lambda a, b: calls.append(1))
        frames = parsed_frames((MotionPrimitive("arc", 10.0, 2.0, 30.0),), seed=13)
        assert sum(len(lists) for lists in build_pair_lists(frames, window_s=5.0).values()) > 0
        assert calls == []

    @pytest.mark.parametrize("frames, admitted", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
    def test_products_past_the_float_range_are_dropped_without_warnings(self, capfd, frames, admitted):
        # the pairs relative_pose accepts with a finite displacement, and no numpy warning on any path
        got = assert_matches_reference_quietly(frames)
        assert {(r.anchor_id, r.partner_id) for lists in got.values() for r in lists.high + lists.standard} == admitted
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_drives_near_the_float_limit_match_the_reference(self, capfd, seed):
        # 12 frames turned about z and y, each coordinate +-1e300 to +-1.75e308: at infinite
        # thresholds some pairs of each drive overflow and others are admitted
        rng = np.random.default_rng(seed)
        frames = [FrameIndex(id=k, timestamp=0.5 * k, pose=pose3(
            rot_z(rng.uniform(-math.pi, math.pi)) @ rot_y(rng.choice([0.0, rng.uniform(-math.pi, math.pi)])),
            rng.choice([-1.0, 1.0], 3) * rng.uniform(1.0, 1.75, 3) * 10.0 ** rng.choice([300.0, 307.0, 308.0], 3)))
            for k in range(12)]
        assert_matches_reference_quietly(frames)
        assert capfd.readouterr() == ("", "")

    def test_infinite_thresholds(self):
        frames = make_frames([(0.5 * k, 0.4 * k, 3.0 * k, 0.0) for k in range(10)])
        got = assert_matches_reference(frames, window_s=math.inf, max_disp_m=math.inf, high_deg=math.inf)
        assert sum(len(lists) for lists in got.values()) == 90

    def test_admitted_pairs_past_the_cap_are_refused_block_by_block(self, monkeypatch):
        # the 90 pairs of test_infinite_thresholds, mined 10 candidates a block
        frames = make_frames([(0.5 * k, 0.4 * k, 3.0 * k, 0.0) for k in range(10)])
        thresholds = {"window_s": math.inf, "max_disp_m": math.inf, "high_deg": math.inf}
        monkeypatch.setattr(bevkit.sampler, "_BLOCK", 10)
        monkeypatch.setattr(bevkit.sampler, "_MAX_PAIRS", 90)
        assert sum(len(lists) for lists in build_pair_lists(frames, **thresholds).values()) == 90
        blocks = []
        repair = bevkit.sampler.repair_rotations
        monkeypatch.setattr(bevkit.sampler, "repair_rotations", lambda rel: (blocks.append(1), repair(rel)))
        monkeypatch.setattr(bevkit.sampler, "_MAX_PAIRS", 20)
        refusal = r"^more than 20 pairs admitted; lower window_s \(inf\) or max_disp_m \(inf\)$"
        with pytest.raises(ValueError, match=refusal):
            build_pair_lists(frames, **thresholds)
        assert len(blocks) == 3  # of 10: the third block passes the cap

    def test_blocks_bound_traced_memory(self, peak_bytes):
        # about 1M in-window candidates and no survivors; one unblocked
        # (candidates, 4, 4) float64 stack alone would take 128 MB
        gt, _ = synth_trajectory(SynthSpec(
            (MotionPrimitive("straight", 100.0, speed_mps=10.0),), dt_s=0.1))
        frames = frames_from_trajectory(gt.timestamps, gt.poses)
        got, peak = peak_bytes(lambda: build_pair_lists(frames, window_s=60.0, max_disp_m=0.0))
        assert sum(len(lists) for lists in got.values()) == 0
        assert peak < 32e6


class TestFramesFromTrajectory:
    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_equal_to_per_frame_path(self, n):
        ts, poses = drive_stack(n)
        self.assert_same(frames_from_trajectory(ts, poses), reference_frames_from_trajectory(ts, poses))

    def test_equal_on_parsed_noisy_drive(self):
        frames = parsed_frames((MotionPrimitive("arc", 20.0, 3.0, -25.0),), seed=4)
        ts = np.array([f.timestamp for f in frames])
        poses = np.stack([f.pose.matrix for f in frames])
        self.assert_same(frames_from_trajectory(ts, poses), reference_frames_from_trajectory(ts, poses))

    @staticmethod
    def assert_same(got, want):
        assert [(f.id, f.timestamp) for f in got] == [(f.id, f.timestamp) for f in want]
        assert all(g.pose.matrix.tobytes() == w.pose.matrix.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("form", ["float64", "list", "fortran", "big-endian", "int32", "float32"])
    def test_rows_are_the_float64_bytes_of_the_input(self, form):
        # each frame's matrix is a row of one float64 copy, with the bits np.array(poses, dtype=float) gives
        ts, poses = drive_stack()
        poses[::3, :3, 3] = -0.0
        if form in ("int32", "float32"):
            poses = np.tile(np.eye(4), (len(ts), 1, 1))
            poses[:, :3, 3] = np.arange(3 * len(ts)).reshape(-1, 3) - 5
        given = {"list": poses.tolist(), "fortran": np.asfortranarray(poses), "big-endian": poses.astype(">f8"),
                 "int32": poses.astype(np.int32), "float32": poses.astype(np.float32)}.get(form, poses)
        frames = frames_from_trajectory(ts, given)
        assert b"".join(f.pose.matrix.tobytes() for f in frames) == np.array(given, dtype=float).tobytes()

    def test_poses_are_one_read_only_copy(self):
        ts, poses = drive_stack()
        frames = frames_from_trajectory(ts, poses)
        poses[2, 0, 3] = 99.0
        assert frames[2].pose.matrix[0, 3] != 99.0
        with pytest.raises(ValueError):
            frames[2].pose.matrix[0, 3] = 1.0

    @pytest.mark.parametrize("fault", POSE_FAULTS.values(), ids=POSE_FAULTS.keys())
    def test_refusal_matches_per_frame_path(self, fault):
        ts, poses = drive_stack()
        fault(poses[4])
        POSE_FAULTS["nan"](poses[9])  # a later bad frame is not the one reported
        with pytest.raises(ValueError) as want:
            reference_frames_from_trajectory(ts, poses)
        with pytest.raises(ValueError) as got:
            frames_from_trajectory(ts, poses)
        assert type(got.value) is type(want.value)
        assert str(got.value) == f"pose 4: {want.value}"

    def test_small_drift_accepted(self):
        ts, poses = drive_stack()
        poses[4, :3, :3] = drifted_rotation(5e-10)
        frames = frames_from_trajectory(ts, poses)
        assert np.array_equal(frames[4].pose.matrix, Pose3(poses[4]).matrix)


class TestSamplePair:
    def test_both_empty_raises(self):
        with pytest.raises(NoPairsError):
            sample_pair(PairLists(), np.random.default_rng(0))

    def test_empty_high_falls_back_to_standard(self):
        lists = PairLists(standard=[record(yaw=5.0)])
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert sample_pair(lists, rng) is lists.standard[0]

    def test_empty_standard_falls_back_to_high(self):
        lists = PairLists(high=[record(yaw=20.0)])
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert sample_pair(lists, rng) is lists.high[0]

    def test_single_element_lists_return_existing_records(self):
        lists = PairLists(high=[record(yaw=20.0)], standard=[record(partner=2, yaw=5.0)])
        rng = np.random.default_rng(3)
        for _ in range(100):
            drawn = sample_pair(lists, rng)
            assert drawn is lists.high[0] or drawn is lists.standard[0]

    def test_deterministic_given_seed(self):
        lists = PairLists(
            high=[record(partner=p, yaw=20.0) for p in range(1, 6)],
            standard=[record(partner=p, yaw=5.0) for p in range(6, 12)],
        )
        seq_a = [sample_pair(lists, np.random.default_rng(77)) for _ in range(1)]
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        seq_a = [sample_pair(lists, rng_a).partner_id for _ in range(500)]
        seq_b = [sample_pair(lists, rng_b).partner_id for _ in range(500)]
        assert seq_a == seq_b

    def test_high_fraction_concentrates(self):
        lists = PairLists(
            high=[record(partner=p, yaw=30.0) for p in range(1, 4)],
            standard=[record(partner=p, yaw=5.0) for p in range(4, 9)],
        )
        rng = np.random.default_rng(4)
        n = 20000
        high_ids = {r.partner_id for r in lists.high}
        hits = sum(sample_pair(lists, rng).partner_id in high_ids for _ in range(n))
        assert 0.68 <= hits / n <= 0.72


class TestHelpers:
    def test_merge_orders_by_anchor(self):
        per_anchor = {
            2: PairLists(high=[record(anchor=2, partner=0)]),
            0: PairLists(standard=[record(anchor=0, partner=1, yaw=5.0)]),
        }
        merged = merge_pair_lists(per_anchor)
        assert [r.anchor_id for r in merged.high] == [2]
        assert [r.anchor_id for r in merged.standard] == [0]
        assert len(merged) == 2

    def test_frames_from_trajectory(self):
        ts = np.array([0.0, 0.5, 1.0])
        poses = np.stack([np.eye(4)] * 3)
        frames = frames_from_trajectory(ts, poses)
        assert [f.id for f in frames] == [0, 1, 2]
        assert frames[1].timestamp == 0.5

    def test_frames_from_trajectory_shape_check(self):
        with pytest.raises(ShapeError, match=r"^poses must have shape \(3, 4, 4\), got \(2, 4, 4\)$"):
            frames_from_trajectory(np.zeros(3), np.zeros((2, 4, 4)))

    def test_frame_index_validation(self):
        from bevkit.geometry import Pose3

        with pytest.raises(ValueError):
            FrameIndex(id=0, timestamp=np.nan, pose=Pose3(np.eye(4)))

    @pytest.mark.parametrize("field, value", [
        ("id", 1.7), ("id", True), ("id", "3"), ("id", np.float64(2.0)),
        ("timestamp", "2.5"), ("timestamp", True), ("timestamp", math.inf),
    ])
    def test_frame_index_refuses_instead_of_coercing(self, field, value):
        # int() and float() would make 1.7 an id of 1, True an id of 1 and "2.5" a time of 2.5
        fields = {"id": 0, "timestamp": 0.5, "pose": Pose3(np.eye(4)), field: value}
        what = "frame id must be an integer" if field == "id" else "timestamp must be a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what}, got {value!r}')}$"):
            FrameIndex(**fields)

    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"])
    def test_frame_index_refuses_timestamp_past_float_range(self, value):
        # math.isfinite raised OverflowError on these
        with pytest.raises(ValueError, match="^timestamp must be a finite number, got "):
            FrameIndex(id=0, timestamp=value, pose=Pose3(np.eye(4)))

    def test_frame_index_takes_numpy_numbers(self):
        frame = FrameIndex(id=np.int64(4), timestamp=np.float32(0.5), pose=Pose3(np.eye(4)))
        assert (frame.id, frame.timestamp) == (4, 0.5)
        assert type(frame.id) is int and type(frame.timestamp) is float
        assert FrameIndex(id=2, timestamp=3, pose=frame.pose).timestamp == 3.0


class TestPairRecord:
    def test_a_tuple_of_its_four_fields(self):
        rec = PairRecord(3, 5, 17.25, 2.5)
        assert PairRecord._fields == ("anchor_id", "partner_id", "yaw_diff_deg", "displacement_m")
        assert rec == (3, 5, 17.25, 2.5) and tuple(rec) == (3, 5, 17.25, 2.5)
        anchor, partner, yaw, disp = rec
        assert (anchor, partner, yaw, disp) == (rec.anchor_id, rec.partner_id, rec.yaw_diff_deg, rec.displacement_m)
        assert rec == record(anchor=3, partner=5, yaw=17.25, disp=2.5) and hash(rec) == hash((3, 5, 17.25, 2.5))
        assert repr(rec) == "PairRecord(anchor_id=3, partner_id=5, yaw_diff_deg=17.25, displacement_m=2.5)"

    def test_immutable(self):
        rec = PairRecord(3, 5, 17.25, 2.5)
        with pytest.raises(AttributeError):
            rec.yaw_diff_deg = 1.0
        with pytest.raises(AttributeError):
            rec.extra = 1  # __slots__ = (): no instance dict

    def test_csv_round_trip_of_mined_records(self):
        # records straight from the miner keep their types and bits through the pairs CSV
        frames = parsed_frames((MotionPrimitive("arc", 10.0, 2.0, 30.0),), seed=14)
        merged = merge_pair_lists(build_pair_lists(frames, window_s=3.0, low_deg=5.0))
        records = merged.high + merged.standard
        assert merged.high and merged.standard
        back = parse_pairs_csv(write_pairs_csv(records))
        assert back == records and all(type(r) is PairRecord for r in back)
        for got, want in zip(back, records):
            assert [type(v) for v in got] == [type(v) for v in want] == [int, int, float, float]
        assert np.array_equal([r[2:] for r in back], [r[2:] for r in records])
