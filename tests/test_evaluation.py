"""Tests for trajectory alignment, ATE/RTE/RRE, and scale diagnostics."""

import math

import numpy as np
import pytest

from bevkit.errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    InsufficientLengthError,
    ShapeError,
)
from bevkit.evaluation import (
    DEFAULT_SEGMENT_LENGTHS_M,
    LogScaleCurve,
    Trajectory,
    _norms,
    align,
    ate,
    evaluate_trajectories,
    log_scale_curve,
    path_lengths,
    rotation_angle,
    rte_rre,
    scale_from_first_10m,
    scale_trajectory,
    transform_trajectory,
)
from bevkit.geometry import Pose2, pose2_to_pose3, rot_z


def line_traj(n, step=1.0, direction=(1.0, 0.0, 0.0)):
    d = np.asarray(direction, dtype=float)
    poses = np.tile(np.eye(4), (n, 1, 1))
    poses[:, :3, 3] = np.arange(n)[:, None] * step * d
    return Trajectory(np.arange(n, dtype=float), poses)


def curved_traj(n, seed, yaw_sigma=0.05, step=1.0):
    """Random smooth planar trajectory built by composing per-step motion."""
    rng = np.random.default_rng(seed)
    mats = [np.eye(4)]
    for _ in range(n - 1):
        rel = Pose2(
            rng.normal(0.0, yaw_sigma),
            step * (1.0 + 0.1 * rng.standard_normal()),
            0.1 * rng.standard_normal(),
        )
        mats.append(mats[-1] @ pose2_to_pose3(rel).matrix)
    return Trajectory(np.arange(n, dtype=float), np.stack(mats))


def perturb_steps(traj, seed, t_sigma=0.02, yaw_sigma=0.002, drift=1.0):
    """Re-integrate the trajectory with noisy, optionally scaled steps."""
    rng = np.random.default_rng(seed)
    mats = [np.array(traj.poses[0])]
    for k in range(1, len(traj)):
        rel = np.linalg.solve(traj.poses[k - 1], traj.poses[k])
        rel = np.array(rel)
        rel[:3, 3] *= drift
        noise = pose2_to_pose3(
            Pose2(
                rng.normal(0.0, yaw_sigma),
                rng.normal(0.0, t_sigma),
                rng.normal(0.0, t_sigma),
            )
        ).matrix
        mats.append(mats[-1] @ rel @ noise)
    return Trajectory(traj.timestamps, np.stack(mats))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


class TestTrajectory:
    def test_basic_properties(self):
        traj = line_traj(5)
        assert len(traj) == 5
        assert traj.positions.shape == (5, 3)
        assert not traj.poses.flags.writeable

    def test_non_increasing_timestamps_rejected(self):
        poses = np.tile(np.eye(4), (3, 1, 1))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), poses)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Trajectory(np.array([0.0, 1.0]), np.tile(np.eye(4), (3, 1, 1)))

    def test_non_finite_rejected(self):
        poses = np.tile(np.eye(4), (2, 1, 1))
        poses[1, 0, 3] = np.nan
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), poses)


class TestPathLengths:
    def test_unit_steps(self):
        dist = path_lengths(line_traj(6))
        assert np.array_equal(dist, np.arange(6, dtype=float))

    def test_matches_scalar_accumulation_bitwise(self):
        # The segment-endpoint rule compares path lengths for equality, so
        # the vectorized computation must agree with a plain running sum.
        traj = curved_traj(200, seed=5)
        dist = path_lengths(traj)
        acc = [0.0]
        pos = traj.positions
        for k in range(1, len(traj)):
            dx, dy, dz = (pos[k] - pos[k - 1]).tolist()
            acc.append(acc[-1] + math.sqrt(dx * dx + dy * dy + dz * dz))
        assert np.array_equal(dist, np.array(acc))


class TestRotationAngle:
    def test_identity_zero(self):
        assert rotation_angle(np.eye(3)) == 0.0

    def test_z_rotation(self):
        assert abs(rotation_angle(rot_z(0.3)) - 0.3) < 1e-12
        assert abs(rotation_angle(rot_z(-0.3)) - 0.3) < 1e-12

    def test_half_turn(self):
        assert abs(rotation_angle(np.diag([-1.0, -1.0, 1.0])) - math.pi) < 1e-12

    def test_trace_clamp_no_nan(self):
        slightly_off = np.eye(3) * (1.0 + 1e-15)
        assert rotation_angle(slightly_off) == 0.0


class TestTransformHelpers:
    def test_transform_applies_similarity(self):
        traj = line_traj(4)
        rot = rot_z(0.5)
        t = np.array([1.0, -2.0, 0.5])
        out = transform_trajectory(traj, rot, t, scale=2.0)
        expected = 2.0 * traj.positions @ rot.T + t
        assert np.allclose(out.positions, expected, atol=1e-12)
        assert np.allclose(out.poses[0, :3, :3], rot, atol=1e-12)

    def test_scale_keeps_orientations(self):
        traj = curved_traj(10, seed=6)
        out = scale_trajectory(traj, 3.0)
        assert np.allclose(out.positions, 3.0 * traj.positions, atol=1e-12)
        assert np.array_equal(out.poses[:, :3, :3], traj.poses[:, :3, :3])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_trajectory(line_traj(3), 0.0)
        with pytest.raises(ValueError):
            scale_trajectory(line_traj(3), -1.0)


class TestAlign:
    def test_identity_on_equal_inputs(self):
        traj = curved_traj(50, seed=7)
        res = align(traj, traj, "se3")
        assert np.allclose(res.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(res.translation, 0.0, atol=1e-9)
        assert res.scale == 1.0

    def test_sim3_recovers_double_scale(self):
        gt = curved_traj(50, seed=8)
        est = scale_trajectory(gt, 0.5)
        res = align(est, gt, "sim3")
        assert abs(res.scale - 2.0) < 1e-9
        mapped = res.scale * est.positions @ res.rotation.T + res.translation
        assert np.allclose(mapped, gt.positions, atol=1e-9)

    def test_se3_recovers_inverse_rigid_motion(self):
        gt = curved_traj(60, seed=9)
        rot = rot_z(math.radians(30.0))
        shift = np.array([1.0, 2.0, 0.0])
        est = transform_trajectory(gt, rot, shift)
        res = align(est, gt, "se3")
        mapped = est.positions @ res.rotation.T + res.translation
        assert np.max(np.abs(mapped - gt.positions)) < 1e-9
        assert np.allclose(res.rotation, rot.T, atol=1e-9)
        assert res.scale == 1.0

    def test_se3_keeps_unit_scale_under_scaled_input(self):
        gt = curved_traj(40, seed=10)
        res = align(scale_trajectory(gt, 1.3), gt, "se3")
        assert res.scale == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            align(line_traj(4), line_traj(5))

    def test_too_few_frames_rejected(self):
        a = curved_traj(2, seed=11)
        with pytest.raises(DegenerateGeometryError):
            align(a, a)

    def test_collinear_rejected(self):
        a = line_traj(10)
        with pytest.raises(DegenerateGeometryError):
            align(a, a)

    def test_bad_mode_rejected(self):
        a = curved_traj(5, seed=12)
        with pytest.raises(ValueError):
            align(a, a, "rigid")


class TestAte:
    def test_zero_on_equal(self):
        traj = curved_traj(30, seed=13)
        assert ate(traj, traj) == 0.0
        assert ate(traj, traj, "sim3") == 0.0

    def test_constant_offset_absorbed(self):
        gt = curved_traj(30, seed=14)
        est = transform_trajectory(gt, np.eye(3), np.array([5.0, -3.0, 2.0]))
        assert ate(est, gt, "se3") < 1e-9

    def test_matches_manual_residual_rmse(self):
        gt = curved_traj(40, seed=15)
        est = perturb_steps(gt, seed=16, t_sigma=0.1)
        res = align(est, gt, "se3")
        mapped = res.scale * est.positions @ res.rotation.T + res.translation
        manual = float(np.sqrt(((mapped - gt.positions) ** 2).sum(axis=1).mean()))
        assert ate(est, gt, "se3") == manual

    def test_alignment_invariance(self):
        rng = np.random.default_rng(17)
        gt = curved_traj(40, seed=18)
        est = perturb_steps(gt, seed=19, t_sigma=0.05)
        base_se3 = ate(est, gt, "se3")
        base_sim3 = ate(est, gt, "sim3")
        for _ in range(20):
            rot = random_rotation(rng)
            t = rng.normal(size=3) * 10.0
            moved = transform_trajectory(est, rot, t)
            assert abs(ate(moved, gt, "se3") - base_se3) < 1e-9
            s = float(rng.uniform(0.2, 5.0))
            similar = transform_trajectory(est, rot, t, scale=s)
            assert abs(ate(similar, gt, "sim3") - base_sim3) < 1e-9

    def test_sim3_never_worse_than_se3(self):
        for seed in range(20):
            gt = curved_traj(35, seed=100 + seed)
            est = perturb_steps(gt, seed=200 + seed, t_sigma=0.1, drift=1.02)
            assert ate(est, gt, "sim3") <= ate(est, gt, "se3") + 1e-9


class TestRteRre:
    def test_zero_on_equal(self):
        gt = curved_traj(120, seed=20)
        rep = rte_rre(gt, gt, lengths_m=(10.0, 25.0))
        assert rep.rte_percent == 0.0
        assert rep.rre_deg_per_100m == 0.0
        for rte, rre, count in rep.per_length.values():
            assert rte == 0.0 and rre == 0.0 and count > 0

    def test_uniform_scale_gives_constant_rte(self):
        gt = line_traj(101)
        est = scale_trajectory(gt, 1.05)
        rep = rte_rre(est, gt, lengths_m=(10.0, 25.0))
        for length, (rte, rre, count) in rep.per_length.items():
            assert abs(rte - 5.0) < 1e-9
            assert rre == 0.0
            assert count == 101 - int(length)
        assert abs(rep.rte_percent - 5.0) < 1e-9

    def test_rigid_invariance(self):
        rng = np.random.default_rng(21)
        gt = curved_traj(150, seed=22)
        est = perturb_steps(gt, seed=23)
        base = rte_rre(est, gt, lengths_m=(10.0, 30.0))
        for _ in range(5):
            moved = transform_trajectory(est, random_rotation(rng), rng.normal(size=3) * 5.0)
            rep = rte_rre(moved, gt, lengths_m=(10.0, 30.0))
            assert abs(rep.rte_percent - base.rte_percent) < 1e-9
            assert abs(rep.rre_deg_per_100m - base.rre_deg_per_100m) < 1e-9

    def test_matches_brute_force_oracle(self):
        gt = curved_traj(150, seed=24)
        est = perturb_steps(gt, seed=25)
        lengths = (5.0, 12.5)
        rep = rte_rre(est, gt, lengths_m=lengths)
        dist = path_lengths(gt)
        n = len(gt)
        for length in lengths:
            t_sq = []
            r_sq = []
            for first in range(n):
                target = dist[first] + length
                last = first
                while last < n and dist[last] < target:
                    last += 1
                if last >= n:
                    continue
                delta_gt = np.linalg.solve(gt.poses[first], gt.poses[last])
                delta_est = np.linalg.solve(est.poses[first], est.poses[last])
                if np.array_equal(delta_est, delta_gt):
                    t_sq.append(0.0)
                    r_sq.append(0.0)
                    continue
                err = np.linalg.solve(delta_est, delta_gt)
                t_sq.append((float(np.linalg.norm(err[:3, 3])) / length) ** 2)
                r_sq.append((rotation_angle(err[:3, :3]) / length) ** 2)
            rte = 100.0 * math.sqrt(float(np.mean(t_sq)))
            rre = 100.0 * math.degrees(math.sqrt(float(np.mean(r_sq))))
            got_rte, got_rre, got_count = rep.per_length[length]
            assert got_count == len(t_sq)
            assert got_rte == rte
            assert got_rre == rre

    def test_stride_reduces_segment_count(self):
        gt = curved_traj(120, seed=26)
        est = perturb_steps(gt, seed=27)
        full = rte_rre(est, gt, lengths_m=(10.0,))
        strided = rte_rre(est, gt, lengths_m=(10.0,), stride=4)
        assert strided.per_length[10.0][2] < full.per_length[10.0][2]

    def test_too_short_rejected(self):
        gt = line_traj(5)
        with pytest.raises(InsufficientLengthError):
            rte_rre(gt, gt, lengths_m=(100.0,))

    def test_bad_arguments_rejected(self):
        gt = line_traj(20)
        with pytest.raises(ValueError):
            rte_rre(gt, gt, lengths_m=(10.0,), stride=0)
        with pytest.raises(ValueError):
            rte_rre(gt, gt, lengths_m=())
        with pytest.raises(ValueError):
            rte_rre(gt, gt, lengths_m=(-5.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_nonfinite_or_zero_length_rejected(self, bad):
        gt = line_traj(20)
        with pytest.raises(ValueError, match="segment lengths must be finite and positive"):
            rte_rre(gt, gt, lengths_m=(10.0, bad))


def reference_rte_rre(est, gt, lengths, stride=1):
    """The per-segment loop that rte_rre replaces: three solves per (first, length)."""
    dist = path_lengths(gt)
    n = len(gt)
    t_sq = {length: [] for length in lengths}
    r_sq = {length: [] for length in lengths}
    for first in range(0, n, stride):
        for length in lengths:
            last = int(np.searchsorted(dist, dist[first] + length, side="left"))
            if last >= n:
                continue
            delta_gt = np.linalg.solve(gt.poses[first], gt.poses[last])
            delta_est = np.linalg.solve(est.poses[first], est.poses[last])
            if np.array_equal(delta_est, delta_gt):
                t_err = 0.0
                r_err = 0.0
            else:
                err = np.linalg.solve(delta_est, delta_gt)
                t_err = float(np.linalg.norm(err[:3, 3]))
                r_err = rotation_angle(err[:3, :3])
            t_sq[length].append((t_err / length) ** 2)
            r_sq[length].append((r_err / length) ** 2)
    per_length = {}
    for length in lengths:
        if t_sq[length]:
            rte = 100.0 * math.sqrt(float(np.mean(t_sq[length])))
            rre = 100.0 * math.degrees(math.sqrt(float(np.mean(r_sq[length]))))
            per_length[length] = (rte, rre, len(t_sq[length]))
    rte_overall = float(np.mean([v[0] for v in per_length.values()]))
    rre_overall = float(np.mean([v[1] for v in per_length.values()]))
    return rte_overall, rre_overall, per_length


class TestRteRreMatchesReference:
    @pytest.mark.parametrize("lengths, stride, yaw_sigma", [
        ((5.0, 12.5, 40.0), 1, 0.002),
        ((5.0, 12.5, 40.0), 1, 0.05),    # rotation errors far from trace 3
        ((5.0, 12.5, 40.0), 3, 0.002),
        ((10.0, 5000.0, 25.0), 2, 0.002),   # 5000 m has no complete segment
        ((20.0, 7.5, 20.0), 1, 0.002),      # a repeated length counts its segments twice
        ((12.5, 5000.0, 5.0, 12.5, 5000.0), 2, 0.05),  # listed twice, apart, and once without segments
    ])
    def test_bitwise_equal(self, lengths, stride, yaw_sigma):
        gt = curved_traj(300, seed=28)
        est = perturb_steps(gt, seed=29, yaw_sigma=yaw_sigma, drift=1.01)
        rep = rte_rre(est, gt, lengths_m=lengths, stride=stride)
        rte, rre, per_length = reference_rte_rre(est, gt, lengths, stride)
        assert (rep.rte_percent, rep.rre_deg_per_100m) == (rte, rre)
        assert rep.per_length == per_length
        assert list(rep.per_length) == list(per_length)

    def test_equal_trajectories_take_the_exact_zero(self):
        gt = curved_traj(200, seed=30)
        rep = rte_rre(gt, gt, lengths_m=(10.0, 50.0), stride=2)
        assert rep.per_length == reference_rte_rre(gt, gt, (10.0, 50.0), 2)[2]
        assert all(rte == 0.0 and rre == 0.0 for rte, rre, _ in rep.per_length.values())

    def test_partly_equal_trajectories(self):
        # the estimate equals the ground truth on its first half, so one block
        # mixes exact-zero segments with solved ones
        gt = curved_traj(160, seed=31)
        est = perturb_steps(gt, seed=32)
        poses = np.array(gt.poses)
        poses[80:] = est.poses[80:]
        est = Trajectory(gt.timestamps, poses)
        rep = rte_rre(est, gt, lengths_m=(10.0, 30.0))
        rte, rre, per_length = reference_rte_rre(est, gt, (10.0, 30.0))
        assert (rep.rte_percent, rep.rre_deg_per_100m, rep.per_length) == (rte, rre, per_length)


    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_bench_drive(self, bench_drive, seed):
        gt, est = bench_drive(seed)
        rep = rte_rre(est, gt)
        rte, rre, per_length = reference_rte_rre(est, gt, DEFAULT_SEGMENT_LENGTHS_M)
        assert rep.per_length == per_length
        assert (rep.rte_percent, rep.rre_deg_per_100m) == (rte, rre)
        assert sum(count for _, _, count in per_length.values()) > 30000

    def test_batched_norm_is_the_per_vector_norm(self):
        # the numpy behaviour the segment norms rest on: a stack of 1x3 by 3x1
        # products rounds as the dot product inside np.linalg.norm does, on
        # rows of every magnitude, also those taken from a strided (N, 4, 4) stack
        rng = np.random.default_rng(40)
        stack = rng.standard_normal((200_000, 4, 4)) * 10.0 ** rng.integers(-6, 7, (200_000, 1, 1))
        vectors = stack[:, :3, 3]
        want = np.array([np.linalg.norm(v) for v in vectors])
        assert np.array_equal(_norms(vectors), want)


def reference_log_scale_curve(est, gt, segment_m=10.0):
    """The per-segment loop log_scale_curve replaced, after its boundaries: one np.linalg.norm per side."""
    d_gt = path_lengths(gt)
    bounds = [0]
    while (nxt := int(np.searchsorted(d_gt, d_gt[bounds[-1]] + segment_m, side="left"))) < len(gt):
        bounds.append(nxt)
    indices, values, skipped = [], [], []
    for seg, (i0, i1) in enumerate(zip(bounds[:-1], bounds[1:])):
        dg = float(np.linalg.norm(gt.positions[i1] - gt.positions[i0]))
        de = float(np.linalg.norm(est.positions[i1] - est.positions[i0]))
        if dg <= 0.0 or de <= 0.0:
            skipped.append(seg)
            continue
        indices.append(seg)
        values.append(math.log2(de / dg))
    return indices, values, tuple(skipped)


def assert_curve_matches_reference(est, gt, segment_m=10.0):
    curve = log_scale_curve(est, gt, segment_m)
    indices, values, skipped = reference_log_scale_curve(est, gt, segment_m)
    assert curve.segment_indices.dtype == np.int64 and curve.segment_indices.tolist() == indices
    assert np.array_equal(curve.values, np.array(values, dtype=float))
    assert curve.skipped == skipped and all(type(k) is int for k in curve.skipped)
    return curve


class TestLogScaleCurveMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_bench_drive(self, bench_drive, seed):
        gt, est = bench_drive(seed)
        assert len(assert_curve_matches_reference(est, gt).values) > 100
        assert_curve_matches_reference(est, gt, segment_m=0.5)

    def test_returns_to_start_are_skipped(self):
        # out and back inside segments on both sides, at different places
        xs = [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
        poses = np.tile(np.eye(4), (len(xs), 1, 1))
        poses[:, 0, 3] = xs
        gt = Trajectory(np.arange(len(xs), dtype=float), poses)
        est_poses = np.array(poses)
        est_poses[6:12, 1, 3] = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0]
        est_poses[6:12, 0, 3] = 6.0
        curve = assert_curve_matches_reference(Trajectory(gt.timestamps, est_poses), gt, segment_m=6.0)
        assert curve.skipped == (0, 1)


class TestScaleFromFirst10m:
    def test_identity(self):
        gt = line_traj(20)
        assert scale_from_first_10m(gt, gt) == 1.0

    def test_half_scale_doubles(self):
        gt = line_traj(25)
        est = scale_trajectory(gt, 0.5)
        assert abs(scale_from_first_10m(est, gt) - 2.0) < 1e-12

    def test_prefix_ratio(self):
        gt = line_traj(15, step=1.03)
        est = line_traj(15, step=0.97)
        # gt crosses 10 m at frame 10 (10.3 m); est there is 9.7 m.
        expected = path_lengths(gt)[10] / path_lengths(est)[10]
        got = scale_from_first_10m(est, gt)
        assert got == expected
        assert abs(got - 10.3 / 9.7) < 1e-12

    def test_short_gt_rejected(self):
        gt = line_traj(5)
        with pytest.raises(InsufficientLengthError):
            scale_from_first_10m(gt, gt)

    def test_stationary_est_rejected(self):
        gt = line_traj(20)
        poses = np.tile(np.eye(4), (20, 1, 1))
        est = Trajectory(gt.timestamps, poses)
        with pytest.raises(DegenerateInputError):
            scale_from_first_10m(est, gt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_prefix_rejected(self, bad):
        gt = line_traj(20)
        with pytest.raises(ValueError, match="prefix must be finite and positive"):
            scale_from_first_10m(gt, gt, prefix_m=bad)


class TestLogScaleCurve:
    def test_identity_is_exactly_zero(self):
        gt = curved_traj(200, seed=28)
        curve = log_scale_curve(gt, gt)
        assert isinstance(curve, LogScaleCurve)
        assert curve.values.size > 0
        assert np.all(curve.values == 0.0)
        assert curve.skipped == ()

    def test_uniform_scale_constant_curve(self):
        gt = curved_traj(200, seed=29)
        est = scale_trajectory(gt, 1.5)
        curve = log_scale_curve(est, gt)
        assert np.allclose(curve.values, math.log2(1.5), atol=1e-12)

    def test_doubled_tail_gives_one(self):
        gt = line_traj(31)
        est_poses = np.array(gt.poses)
        # Double every displacement after the first segment boundary.
        est_poses[10:, 0, 3] = est_poses[10, 0, 3] + 2.0 * (
            est_poses[10:, 0, 3] - est_poses[10, 0, 3]
        )
        est = Trajectory(gt.timestamps, est_poses)
        curve = log_scale_curve(est, gt)
        assert curve.values[0] == 0.0
        assert np.all(curve.values[1:] == 1.0)

    def test_zero_gt_displacement_skipped_and_flagged(self):
        # Out 5 m and back inside one segment: 10 m of path, zero chord.
        xs = list(range(6)) + list(range(4, -1, -1)) + list(range(1, 21))
        n = len(xs)
        poses = np.tile(np.eye(4), (n, 1, 1))
        poses[:, 0, 3] = np.array(xs, dtype=float)
        gt = Trajectory(np.arange(n, dtype=float), poses)
        est = line_traj(n, step=0.9)
        curve = log_scale_curve(est, gt)
        assert 0 in curve.skipped
        assert 0 not in curve.segment_indices.tolist()

    def test_too_short_rejected(self):
        gt = line_traj(5)
        with pytest.raises(InsufficientLengthError):
            log_scale_curve(gt, gt, segment_m=10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_segment_rejected(self, bad):
        gt = line_traj(40)
        with pytest.raises(ValueError, match="segment length must be finite and positive"):
            log_scale_curve(gt, gt, segment_m=bad)

    @pytest.mark.parametrize("segment_m", [1e-20, 1e-300])
    def test_segment_below_float_resolution_rejected(self, segment_m):
        # d + segment_m == d for the path length d of some frame: the next
        # boundary would be that frame again, forever
        gt = curved_traj(251, seed=31)
        with pytest.raises(ValueError, match=f"segment length {segment_m:g} m is below the float resolution"):
            log_scale_curve(gt, gt, segment_m=segment_m)

    def test_segment_shorter_than_every_step_gives_one_per_frame(self):
        gt = line_traj(40)
        curve = log_scale_curve(gt, gt, segment_m=1e-6)
        assert curve.segment_indices.tolist() == list(range(39))


class TestEvaluateTrajectories:
    def test_zero_noise_report(self):
        gt = curved_traj(150, seed=30)
        rep = evaluate_trajectories(gt, gt, lengths_m=(10.0, 30.0))
        assert rep.rte_percent == 0.0
        assert rep.rre_deg_per_100m == 0.0
        assert rep.ate_se3_m == 0.0
        assert rep.ate_sim3_m == 0.0
        assert rep.scale_init is None

    def test_scale_init_corrects_uniform_drift(self):
        gt = curved_traj(150, seed=31)
        est = scale_trajectory(gt, 0.8)
        rep = evaluate_trajectories(est, gt, lengths_m=(10.0,), scale_init_10m=True)
        assert rep.scale_init is not None
        assert abs(rep.scale_init - 1.25) < 1e-9
        assert rep.rte_percent < 1e-9
        assert rep.ate_se3_m < 1e-9

    def test_to_dict_keys(self):
        gt = curved_traj(120, seed=32)
        rep = evaluate_trajectories(gt, gt, lengths_m=(10.0, 25.0))
        d = rep.to_dict()
        assert set(d) == {
            "rte_percent",
            "rre_deg_per_100m",
            "ate_se3_m",
            "ate_sim3_m",
            "scale_init",
            "per_length",
        }
        assert set(d["per_length"]) == {"10", "25"}
        assert set(d["per_length"]["10"]) == {"rte_percent", "rre_deg_per_100m", "segments"}
