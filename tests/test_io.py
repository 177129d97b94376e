"""Tests for trajectory formats, BVT1 tensors, config, and synthesis."""

import dataclasses
import json
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from bevkit.errors import (
    FormatError,
    InvalidCameraError,
    ParseError,
    ShapeError,
)
from bevkit.evaluation import LogScaleCurve, Trajectory, log_scale_curve, path_lengths
from bevkit.flow import FlowField, construct_flow_gt
from bevkit.geometry import BevGridSpec, Pose2, Pose3, closest_rotation, pose2_to_pose3, wrap_angle
from bevkit.io import (
    _CONFIG,
    _PRIMITIVE,
    _SYNTH_SPEC,
    MotionPrimitive,
    SynthSpec,
    associate_by_timestamp,
    default_config,
    flow_from_bvt1,
    flow_to_bvt1,
    matrix_to_quat,
    parse_config,
    parse_csv_trajectory,
    parse_kitti_poses,
    parse_pairs_csv,
    parse_synth_spec,
    parse_trajectory,
    parse_tum_trajectory,
    quat_to_matrix,
    read_bvt1,
    synth_trajectory,
    write_bvt1,
    write_csv_trajectory,
    write_kitti_poses,
    write_pairs_csv,
    write_scale_curve_csv,
    write_flow_csv,
    write_trajectory,
    write_tum_trajectory,
)
from bevkit.sampler import PairRecord, build_pair_lists, frames_from_trajectory, merge_pair_lists


def random_trajectory(n, seed):
    rng = np.random.default_rng(seed)
    mats = [np.eye(4)]
    for _ in range(n - 1):
        rel = Pose2(rng.normal(0.0, 0.1), rng.normal(1.0, 0.2), rng.normal(0.0, 0.2))
        mats.append(mats[-1] @ pose2_to_pose3(rel).matrix)
    return Trajectory(np.arange(n) * 0.1, np.stack(mats))


def reference_primitive_pose(prim, start, tau):
    """Closed-form pose ``tau`` s into a primitive, one Pose2 per call: the array path's reference."""
    if prim.kind == "stop":
        return start
    theta0 = start.theta
    v = prim.speed_mps
    if prim.kind == "straight":
        return Pose2(theta0, start.tx + v * tau * math.cos(theta0), start.ty + v * tau * math.sin(theta0))
    omega = math.radians(prim.yaw_rate_dps)
    theta = theta0 + omega * tau
    radius = v / omega
    return Pose2(
        theta,
        start.tx + radius * (math.sin(theta) - math.sin(theta0)),
        start.ty - radius * (math.cos(theta) - math.cos(theta0)),
    )


def reference_synth_trajectory(spec):
    """Per-frame synthesis: one Pose2 and Pose3 per frame, three scalar noise draws per step.

    Returns (timestamps, gt poses, est poses) for comparison with synth_trajectory.
    """
    durations = [p.duration_s for p in spec.primitives]
    n_steps = int(math.floor(sum(durations) / spec.dt_s + 1e-9))
    times = np.arange(n_steps + 1, dtype=float) * spec.dt_s
    starts = [Pose2.identity()]
    for prim in spec.primitives:
        starts.append(reference_primitive_pose(prim, starts[-1], prim.duration_s))
    bounds = np.cumsum([0.0] + durations)
    gt_planar = []
    for t in times:
        idx = min(int(np.searchsorted(bounds, t, side="right")) - 1, len(spec.primitives) - 1)
        gt_planar.append(reference_primitive_pose(spec.primitives[idx], starts[idx], t - bounds[idx]))
    gt_poses = np.array([pose2_to_pose3(p).matrix for p in gt_planar])
    if spec.noise_trans_m == 0.0 and spec.noise_yaw_deg == 0.0 and spec.scale_drift == 1.0:
        return times, gt_poses, gt_poses
    rng = np.random.default_rng(spec.seed)
    noise_yaw = math.radians(spec.noise_yaw_deg)
    est_mats = [gt_poses[0]]
    for prev, cur in zip(gt_planar, gt_planar[1:]):
        dtheta = wrap_angle(cur.theta - prev.theta)
        dx_w = cur.tx - prev.tx
        dy_w = cur.ty - prev.ty
        c, s = math.cos(prev.theta), math.sin(prev.theta)
        rel = Pose2(dtheta, c * dx_w + s * dy_w, -s * dx_w + c * dy_w)
        corrupted = Pose2(
            rel.theta + noise_yaw * rng.standard_normal(),
            rel.tx * spec.scale_drift + spec.noise_trans_m * rng.standard_normal(),
            rel.ty * spec.scale_drift + spec.noise_trans_m * rng.standard_normal(),
        )
        est_mats.append(est_mats[-1] @ pose2_to_pose3(corrupted).matrix)
    return times, gt_poses, np.array(est_mats)


def assert_synth_matches_reference(spec):
    gt, est = synth_trajectory(spec)
    times, gt_poses, est_poses = reference_synth_trajectory(spec)
    assert np.array_equal(gt.timestamps, times) and np.array_equal(est.timestamps, times)
    assert np.array_equal(gt.poses, gt_poses)
    assert np.array_equal(est.poses, est_poses)
    return gt, est


def kitti_length_primitives():
    """31 primitives over 454 s: 4541 frames at 10 Hz, as long as KITTI sequence 00."""
    leg = (
        MotionPrimitive("straight", 30.0, speed_mps=8.0),
        MotionPrimitive("arc", 12.0, speed_mps=5.0, yaw_rate_dps=15.0),
        MotionPrimitive("stop", 4.0),
        MotionPrimitive("straight", 19.0, speed_mps=10.0),
        MotionPrimitive("arc", 10.0, speed_mps=4.0, yaw_rate_dps=-20.0),
    )
    return leg * 6 + (MotionPrimitive("stop", 4.0),)


def scipy_quats(rots):
    # one matrix per call: scipy's single-rotation path
    return np.array([Rotation.from_matrix(r).as_quat() for r in rots])


class TestQuaternionCodec:
    """scipy's Rotation is the oracle; agreement is bitwise."""

    def test_each_shepperd_branch(self):
        # near half turns about x, y and z, then a small rotation
        rotvecs = np.vstack([0.999 * np.pi * np.eye(3), [0.1, -0.2, 0.3]])
        rots = Rotation.from_rotvec(rotvecs).as_matrix()
        diag = np.diagonal(rots, axis1=1, axis2=2)
        choice = np.argmax(np.column_stack([diag, diag.sum(axis=1)]), axis=1)
        assert choice.tolist() == [0, 1, 2, 3]
        assert np.array_equal(matrix_to_quat(rots), scipy_quats(rots))

    def test_random_rotations_and_quaternions(self):
        rng = np.random.default_rng(40)
        rots = Rotation.random(500, random_state=41).as_matrix()
        assert np.array_equal(matrix_to_quat(rots), scipy_quats(rots))
        quats = rng.standard_normal((500, 4)) * rng.uniform(0.5, 2.0, (500, 1))
        expected = np.array([Rotation.from_quat(q).as_matrix() for q in quats])
        assert np.array_equal(quat_to_matrix(quats), expected)

    def test_drifted_rotation_is_projected_first(self):
        rng = np.random.default_rng(42)
        r = Rotation.random(random_state=43).as_matrix() + 3e-11 * rng.standard_normal((3, 3))
        drift = np.linalg.norm(r.T @ r - np.eye(3))
        assert 1e-12 < drift <= 1e-9
        q = matrix_to_quat(r[None])
        assert np.array_equal(q, scipy_quats([r]))
        assert np.array_equal(q, matrix_to_quat(closest_rotation(r)[None]))

    @pytest.mark.parametrize("m", [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))])
    def test_nonpositive_determinant_rejected(self, m):
        with pytest.raises(ValueError):
            Rotation.from_matrix(m)
        with pytest.raises(ValueError, match="matrix 1 has a nonpositive determinant"):
            matrix_to_quat(np.stack([np.eye(3), m]))


def reference_parse_kitti_poses(text):
    """The per-line KITTI judge the stacked parser replaced: its own norm and det on every line."""
    poses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            raise ParseError("blank line in pose file", line=lineno)
        fields = line.split()
        if len(fields) != 12:
            raise ParseError(f"expected 12 fields, got {len(fields)}", line=lineno)
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite value", line=lineno)
        m = np.eye(4)
        m[:3, :4] = np.array(values).reshape(3, 4)
        r = m[:3, :3]
        drift = float(np.linalg.norm(r.T @ r - np.eye(3)))
        det = float(np.linalg.det(r))
        if drift > 1e-4 or abs(det - 1.0) > 1e-4:
            raise ParseError(f"rotation not orthonormal within 0.0001 (drift {drift:.2e}, det {det:.6f})", line=lineno)
        if drift > 1e-9 or abs(det - 1.0) > 1e-9:
            m[:3, :3] = closest_rotation(r)
        poses.append(m)
    if not poses:
        raise ParseError("pose file contains no poses", line=1)
    return Trajectory(np.arange(len(poses), dtype=float), np.array(poses))


def kitti_line(rotation, translation=(1.5, -0.25, 3.0)):
    return " ".join(f"{v:.17g}" for v in np.hstack([rotation, np.reshape(translation, (3, 1))]).reshape(-1))


def kitti_verdict(parse, text):
    """The parsed poses, or the error's (type, message, line)."""
    try:
        return parse(text).poses
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def assert_same_kitti_verdict(text):
    got, want = kitti_verdict(parse_kitti_poses, text), kitti_verdict(reference_parse_kitti_poses, text)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got == want
    return want


class TestKittiMatchesReference:
    def test_each_case_between_good_lines(self, rotation_cases):
        good = kitti_line(np.eye(3))
        verdicts = {}
        for name, rotation in rotation_cases.items():
            want = assert_same_kitti_verdict(f"{good}\n{kitti_line(rotation)}\n{good}\n")
            verdicts[name] = "parsed" if isinstance(want, np.ndarray) else want[1].split(" (")[0]
        assert set(verdicts.values()) == {
            "parsed", "line 2: non-finite value", "line 2: rotation not orthonormal within 0.0001"}
        assert len({v for n, v in verdicts.items() if n.startswith("drift-1e-4")}) == 2

    def test_repairs_exactly_where_the_reference_does(self, rotation_cases):
        text = "".join(kitti_line(r) + "\n" for n, r in rotation_cases.items() if "e-9" in n or n == "exact")
        poses = assert_same_kitti_verdict(text)
        rotations = [r for n, r in rotation_cases.items() if "e-9" in n or n == "exact"]
        changed = [not np.array_equal(p[:3, :3], r) for p, r in zip(poses, rotations)]
        assert 0 < sum(changed) < len(changed)

    def test_first_bad_line_of_a_shuffled_file_wins(self, rotation_cases):
        lines = [kitti_line(r) for r in rotation_cases.values()] + ["1 0 0 0 0 1 0 x 0 0 1 0", "1 0 0", ""]
        rng = np.random.default_rng(22)
        for _ in range(30):
            order = rng.permutation(len(lines))
            assert_same_kitti_verdict("\n".join(lines[k] for k in order) + "\n")

    @pytest.mark.parametrize("rot_line, field_line", [(2, 5), (5, 2)])
    def test_bad_rotation_against_a_field_error(self, rot_line, field_line):
        lines = [kitti_line(np.eye(3))] * 6
        lines[rot_line - 1] = kitti_line(np.diag([1.0, 2.0, 1.0]))
        lines[field_line - 1] = "1 0 0 0 0 1 0 abc 0 0 1 0"
        want = assert_same_kitti_verdict("\n".join(lines) + "\n")
        assert want[2] == 2

    def test_noisy_drive_round_trip(self):
        _, est = synth_trajectory(SynthSpec(kitti_length_primitives()[:6], seed=3, noise_trans_m=0.02,
                                            noise_yaw_deg=0.1, scale_drift=1.03))
        poses = assert_same_kitti_verdict(write_kitti_poses(est))
        assert np.array_equal(poses, est.poses)


    @pytest.mark.parametrize("drift", ["drift-2.0e-9", "drift-1e-4+4ulp"])
    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_rotation_entry_against_a_drifted_rotation(self, rotation_cases, drift, nan_first):
        # the rotation judge sees only the rows before the first non-finite one
        pair = [kitti_line(rotation_cases["nan"]), kitti_line(rotation_cases[drift])]
        lines = [kitti_line(np.eye(3))] + (pair if nan_first else pair[::-1]) + [kitti_line(np.eye(3))]
        want = assert_same_kitti_verdict("\n".join(lines) + "\n")
        # a refused rotation on line 2 wins; a repaired one lets the NaN on line 3 through
        assert want[2] == (3 if not nan_first and drift == "drift-2.0e-9" else 2)

    def test_non_finite_line_before_a_field_error(self):
        lines = [kitti_line(np.eye(3))] * 6
        lines[2] = "1 0 0 inf 0 1 0 0 0 0 1 0"
        lines[4] = "1 0 0 0 0 1 0 0 0 0 1"
        assert assert_same_kitti_verdict("\n".join(lines) + "\n")[1:] == ("line 3: non-finite value", 3)
        lines[2], lines[4] = lines[4], lines[2]
        assert assert_same_kitti_verdict("\n".join(lines) + "\n")[1:] == ("line 3: expected 12 fields, got 11", 3)


def reference_parse_quat_rows(text, sep, header):
    """The per-line TUM/CSV reader the array checks replaced: finiteness, norm and order judged line by line."""
    what = "fields" if sep is None else "comma-separated fields"
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is not None and lineno == 1 and line.lower().startswith(header):
            continue
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 8:
            raise ParseError(f"expected 8 {what}, got {len(fields)}", line=lineno)
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite value", line=lineno)
        qnorm = math.sqrt(sum(v * v for v in values[4:]))
        if abs(qnorm - 1.0) > 1e-4:
            raise ParseError(f"quaternion norm {qnorm:.6f} not 1 within 0.0001", line=lineno)
        if rows and values[0] <= rows[-1][0]:
            raise ParseError(f"timestamp {values[0]!r} not strictly increasing", line=lineno)
        rows.append(values)
    if not rows:
        raise ParseError("trajectory file contains no poses", line=1)
    rows = np.array(rows)
    poses = np.tile(np.eye(4), (len(rows), 1, 1))
    poses[:, :3, :3] = quat_to_matrix(rows[:, 4:])
    poses[:, :3, 3] = rows[:, 1:4]
    return Trajectory(rows[:, 0], poses)


QUAT_PARSERS = {"tum": (parse_tum_trajectory, None, None), "csv": (parse_csv_trajectory, ",", "timestamp")}


def assert_same_quat_verdict(fmt, text):
    """parse_{tum,csv}_trajectory and the reference agree: the same poses and stamps, or the same error.

    ``text`` is space-separated; for CSV every space becomes a comma.
    """
    parse, sep, header = QUAT_PARSERS[fmt]
    if fmt == "csv":
        text = text.replace(" ", ",")
    verdicts = []
    for reader in (parse, lambda t: reference_parse_quat_rows(t, sep, header)):
        try:
            traj = reader(text)
            verdicts.append((traj.timestamps, traj.poses))
        except ParseError as exc:
            verdicts.append((type(exc), str(exc), exc.line))
    got, want = verdicts
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    else:
        assert got == want
    return want


class TestQuatParsersMatchReference:
    @pytest.mark.parametrize("fmt", ["tum", "csv"])
    @pytest.mark.parametrize("third, fifth, want", [
        ("2.0 inf 0 0 0 0 0 1", "4.0 0 0 0 0 0 1", "line 3: non-finite value"),
        ("2.0 0 0 0 0 0 1", "4.0 inf 0 0 0 0 0 1", "line 3: expected 8"),
    ])
    def test_first_bad_line_wins_whatever_its_kind(self, fmt, third, fifth, want):
        lines = [f"{k}.0 0 0 0 0 0 0 1" for k in range(6)]
        lines[2], lines[4] = third, fifth
        assert assert_same_quat_verdict(fmt, "\n".join(lines) + "\n")[1].startswith(want)

    @pytest.mark.parametrize("fmt", ["tum", "csv"])
    def test_bad_quaternion_and_order_on_one_line(self, fmt):
        want = assert_same_quat_verdict(fmt, "1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 2\n")
        assert want[1:] == ("line 2: quaternion norm 2.000000 not 1 within 0.0001", 2)

    @pytest.mark.parametrize("fmt", ["tum", "csv"])
    def test_non_finite_before_bad_quaternion_on_one_line(self, fmt):
        want = assert_same_quat_verdict(fmt, "1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 nan 0 2\n")
        assert want[1:] == ("line 2: non-finite value", 2)

    @pytest.mark.parametrize("fmt", ["tum", "csv"])
    def test_non_numeric_field_after_valid_ones(self, fmt):
        # a row converts in full or not at all: no partial row is kept
        want = assert_same_quat_verdict(fmt, "# x\n1.0 0 0 0 0 0 0 1\n2.0 0 0 0 0 0 0 x\n")
        assert want[2] == 3 and "non-numeric field" in want[1]

    def test_order_error_names_the_timestamp(self):
        text = "# hdr\n\n1.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n"
        assert assert_same_quat_verdict("tum", text)[1:] == ("line 4: timestamp 1.0 not strictly increasing", 4)

    @pytest.mark.parametrize("fmt", ["tum", "csv"])
    def test_shuffled_good_and_bad_lines(self, fmt):
        lines = [f"{k}.0 {k} 0 0 0 0 0 1" for k in range(8)] + [
            "9.0 0 0 0 0 0 0 1.5", "9.5 0 0 nan 0 0 0 1", "1 2 3", "10.0 0 0 0 0 0 0 y", "", "# c",
            "1e308 0 0 0 1e200 1e200 0 0"]
        rng = np.random.default_rng(23)
        for _ in range(40):
            order = rng.permutation(len(lines))
            assert_same_quat_verdict(fmt, "\n".join(lines[k] for k in order) + "\n")

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["0", "1", "-1", "0.5", "1.00005", "2", "-0.0", "nan", "inf", "-inf",
                                              "1e308", "5e-324", "x", ""]), min_size=7, max_size=9), max_size=6))
    def test_random_rows(self, rows):
        text = "\n".join(" ".join(row) for row in rows)
        assert_same_quat_verdict("tum", text)
        assert_same_quat_verdict("csv", text)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_bench_drive(self, bench_drive, seed):
        _, est = bench_drive(seed)
        assert_same_quat_verdict("tum", write_tum_trajectory(est))
        assert_same_quat_verdict("csv", write_csv_trajectory(est))
        assert_same_kitti_verdict(write_kitti_poses(est))


def reference_write_kitti_poses(traj):
    lines = []
    for pose in traj.poses:
        lines.append(" ".join(f"{v:.17g}" for v in pose[:3, :4].reshape(-1)))
    return "\n".join(lines) + "\n"


def reference_write_quat_rows(traj, sep, header):
    lines = [] if header is None else [header]
    for t, pos, q in zip(traj.timestamps, traj.positions, matrix_to_quat(traj.poses[:, :3, :3])):
        lines.append(sep.join([f"{t:.9f}"] + [f"{v:.17g}" for v in (*pos, *q)]))
    return "\n".join(lines) + "\n"


def reference_write_pairs_csv(records):
    lines = ["anchor_id,partner_id,yaw_diff_deg,displacement_m"]
    for r in records:
        lines.append(f"{r.anchor_id},{r.partner_id},{r.yaw_diff_deg:.17g},{r.displacement_m:.17g}")
    return "\n".join(lines) + "\n"


def reference_write_flow_csv(flow):
    lines = ["u,v,du,dv"]
    for v in range(flow.grid.height_px):
        for u in range(flow.grid.width_px):
            lines.append(f"{u},{v},{flow.data[0][v, u]:.17g},{flow.data[1][v, u]:.17g}")
    return "\n".join(lines) + "\n"


def reference_write_scale_curve_csv(curve):
    lines = ["segment_index,log2_scale"]
    for idx, val in zip(curve.segment_indices, curve.values):
        lines.append(f"{int(idx)},{val:.17g}")
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Byte equality; a failure names the first differing line instead of diffing megabytes."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        k = next((k for k, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {k + 1}: {got_lines[k:k + 1]!r} != {want_lines[k:k + 1]!r}")


def assert_trajectory_text_matches_reference(traj):
    assert_same_text(write_kitti_poses(traj), reference_write_kitti_poses(traj))
    assert_same_text(write_tum_trajectory(traj), reference_write_quat_rows(traj, " ", None))
    assert_same_text(write_csv_trajectory(traj), reference_write_quat_rows(traj, ",", "timestamp,tx,ty,tz,qx,qy,qz,qw"))


# zeros of both signs, the least subnormal, the largest float, integer-valued
# floats and the first integers a double cannot all hold (1e16 and 1e17 print
# with and without an exponent under %.17g)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               3.0, -42.0, 1e16, 1e17, -1e16, 0.1, 1 / 3]


class TestWritersMatchReference:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_bench_drive(self, bench_drive, seed):
        gt, est = bench_drive(seed)
        assert_trajectory_text_matches_reference(est)
        assert_trajectory_text_matches_reference(gt)
        frames = frames_from_trajectory(gt.timestamps, gt.poses)
        pool = merge_pair_lists(build_pair_lists(frames, 1.0, 4.0, 15.0, 45.0))
        records = pool.high + pool.standard
        assert len(records) > 1000
        assert_same_text(write_pairs_csv(records), reference_write_pairs_csv(records))
        curve = log_scale_curve(est, gt)
        assert_same_text(write_scale_curve_csv(curve), reference_write_scale_curve_csv(curve))

    def test_edge_values(self):
        n = len(EDGE_VALUES)
        poses = np.tile(np.eye(4), (n, 1, 1))
        poses[:, :3, 3] = np.stack([EDGE_VALUES, EDGE_VALUES[::-1], np.roll(EDGE_VALUES, 3)], axis=1)
        poses[:, 0, 1] = poses[:, 1, 0] = -0.0  # a rotation with signed zeros
        stamps = np.array([-1e17, -1e16, -42.0, -0.0, 5e-324, 0.1, 1 / 3, 3.0, 1e16, 1e17, 1e300, 1e307,
                           1.7976931348623157e308])
        assert_trajectory_text_matches_reference(Trajectory(stamps, poses))
        records = [PairRecord(k, n - k, a, b) for k, (a, b) in enumerate(zip(EDGE_VALUES, EDGE_VALUES[::-1]))]
        assert_same_text(write_pairs_csv(records), reference_write_pairs_csv(records))
        curve = LogScaleCurve(np.arange(n) * 3, np.array(EDGE_VALUES), ())
        assert_same_text(write_scale_curve_csv(curve), reference_write_scale_curve_csv(curve))
        flow = FlowField(np.reshape(EDGE_VALUES[:12] * 2, (2, 3, 4)), BevGridSpec(3, 4, 0.5))
        assert_same_text(write_flow_csv(flow), reference_write_flow_csv(flow))

    def test_flow_of_a_motion(self):
        flow = construct_flow_gt(Pose2(0.3, 1.25, -0.5), BevGridSpec(16, 24, 0.8))
        assert_same_text(write_flow_csv(flow), reference_write_flow_csv(flow))

    def test_no_pairs(self):
        assert write_pairs_csv([]) == reference_write_pairs_csv([]) == "anchor_id,partner_id,yaw_diff_deg,displacement_m\n"


class TestKittiFormat:
    def test_identity_line(self):
        traj = parse_kitti_poses("1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert len(traj) == 1
        assert np.array_equal(traj.poses[0], np.eye(4))
        assert traj.timestamps[0] == 0.0

    def test_round_trip_is_exact(self):
        traj = random_trajectory(100, seed=80)
        back = parse_kitti_poses(write_kitti_poses(traj))
        # %.17g short-prints doubles losslessly, so poses survive bitwise.
        assert np.array_equal(back.poses, traj.poses)
        assert np.array_equal(back.timestamps, np.arange(100, dtype=float))

    def test_explicit_timestamps(self):
        traj = random_trajectory(5, seed=81)
        back = parse_kitti_poses(write_kitti_poses(traj), timestamps=np.arange(5) * 0.5)
        assert np.array_equal(back.timestamps, np.arange(5) * 0.5)

    def test_wrong_field_count_names_line(self):
        text = "1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1\n"
        with pytest.raises(ParseError) as exc:
            parse_kitti_poses(text)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_kitti_poses("1 0 0 0 0 1 0 abc 0 0 1 0\n")
        assert exc.value.line == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            parse_kitti_poses("1 0 0 inf 0 1 0 0 0 0 1 0\n")

    def test_gross_rotation_drift_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_kitti_poses("1 0 0 0 0 2 0 0 0 0 1 0\n")
        assert exc.value.line == 1

    def test_small_drift_reorthonormalized(self):
        eps = 1e-6
        line = f"{1 + eps:.17g} 0 0 0 0 1 0 0 0 0 1 0"
        traj = parse_kitti_poses(line + "\n")
        r = traj.poses[0, :3, :3]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12

    def test_blank_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_kitti_poses("1 0 0 0 0 1 0 0 0 0 1 0\n\n1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert exc.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_kitti_poses("")

    def test_crlf_accepted(self):
        traj = parse_kitti_poses("1 0 0 0 0 1 0 0 0 0 1 0\r\n1 0 0 1 0 1 0 0 0 0 1 0\r\n")
        assert len(traj) == 2


class TestTumFormat:
    def test_identity_line(self):
        traj = parse_tum_trajectory("0.0 0 0 0 0 0 0 1\n")
        assert len(traj) == 1
        assert np.array_equal(traj.poses[0], np.eye(4))

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n0.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n"
        assert len(parse_tum_trajectory(text)) == 2

    def test_round_trip(self):
        traj = random_trajectory(50, seed=82)
        back = parse_tum_trajectory(write_tum_trajectory(traj))
        assert np.array_equal(back.poses[:, :3, 3], traj.poses[:, :3, 3])
        assert np.allclose(back.poses[:, :3, :3], traj.poses[:, :3, :3], atol=1e-12)
        assert np.allclose(back.timestamps, traj.timestamps, atol=1e-9)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_tum_trajectory("0.0 0 0 0 0 0 1\n")
        assert exc.value.line == 1

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(ParseError):
            parse_tum_trajectory("0.0 0 0 0 0 0 0 2\n")

    def test_slightly_off_quaternion_renormalized(self):
        q = 1.0 + 5e-5
        traj = parse_tum_trajectory(f"0.0 0 0 0 0 0 0 {q!r}\n")
        r = traj.poses[0, :3, :3]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12

    def test_non_monotone_timestamps_rejected(self):
        text = "# hdr\n1.0 0 0 0 0 0 0 1\n0.5 1 0 0 0 0 0 1\n"
        with pytest.raises(ParseError) as exc:
            parse_tum_trajectory(text)
        assert exc.value.line == 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_tum_trajectory("# only comments\n")


class TestCsvFormat:
    def test_round_trip_with_header(self):
        traj = random_trajectory(30, seed=83)
        text = write_csv_trajectory(traj)
        assert text.startswith("timestamp,tx,ty,tz,qx,qy,qz,qw\n")
        back = parse_csv_trajectory(text)
        assert np.array_equal(back.poses[:, :3, 3], traj.poses[:, :3, 3])
        assert np.allclose(back.poses[:, :3, :3], traj.poses[:, :3, :3], atol=1e-12)

    def test_headerless_accepted(self):
        back = parse_csv_trajectory("0.0,0,0,0,0,0,0,1\n")
        assert len(back) == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_csv_trajectory("0.0,0,0,0,0,0,1\n")
        assert exc.value.line == 1

    def test_dispatch_by_format(self):
        traj = random_trajectory(10, seed=84)
        for fmt in ("kitti", "tum", "csv"):
            back = parse_trajectory(write_trajectory(traj, fmt), fmt)
            assert len(back) == 10
        with pytest.raises(ValueError):
            parse_trajectory("", "rosbag")
        with pytest.raises(ValueError):
            write_trajectory(traj, "rosbag")


class TestBvt1:
    def test_two_by_two_layout(self):
        data = write_bvt1(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert len(data) == 32
        assert data[:4] == b"BVT1"
        assert struct.unpack_from("<I", data, 4) == (2,)
        assert struct.unpack_from("<II", data, 8) == (2, 2)
        assert np.array_equal(
            read_bvt1(data), np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        )

    def test_rank1_layout(self):
        expected = b"BVT1" + struct.pack("<I", 1) + struct.pack("<I", 1) + struct.pack("<f", 1.0)
        assert write_bvt1(np.array([1.0])) == expected

    def test_rank3_round_trip_bit_exact(self):
        rng = np.random.default_rng(85)
        arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
        back = read_bvt1(write_bvt1(arr))
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_bvt1(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))

    def test_rank_zero_rejected(self):
        with pytest.raises(FormatError):
            read_bvt1(b"BVT1" + struct.pack("<I", 0))
        with pytest.raises(FormatError):
            write_bvt1(np.float64(3.0))

    def test_truncated_payload(self):
        data = write_bvt1(np.ones((2, 2)))
        with pytest.raises(FormatError):
            read_bvt1(data[:-1])

    def test_extra_bytes_rejected(self):
        data = write_bvt1(np.ones((2, 2)))
        with pytest.raises(FormatError):
            read_bvt1(data + b"\x00")

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_bvt1(b"BVT1\x02")
        with pytest.raises(FormatError):
            read_bvt1(b"BVT1" + struct.pack("<I", 3) + struct.pack("<I", 2))

    @pytest.mark.parametrize("values", [[1.0, 1e39], [-1e300], [np.inf, 1e39], [np.nan, -3.5e38]])
    def test_values_beyond_float32_refused(self, values):
        with pytest.raises(FormatError, match="beyond the float32 range"):
            write_bvt1(np.array(values))

    def test_infinities_and_float32_extremes_kept(self):
        f32max = float(np.finfo(np.float32).max)
        values = np.array([np.inf, -np.inf, np.nan, f32max, -f32max, 1e-50])
        back = read_bvt1(write_bvt1(values))
        assert np.array_equal(back, values.astype(np.float32), equal_nan=True)


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.grid.height_px == 128
        assert cfg.grid.width_px == 128
        assert cfg.grid.resolution_m == 0.8
        assert cfg.grid.origin_px == (63.5, 63.5)
        assert cfg.depth_bins.shape == (64,)
        assert cfg.depth_bins[0] == 1.0
        assert abs(cfg.depth_bins[-1] - 52.2) < 1e-12
        assert cfg.radius_pv == 3
        assert cfg.radius_bev == 5

    def test_empty_document_is_default(self):
        cfg = parse_config("{}")
        assert cfg.grid == default_config().grid

    def test_full_document(self):
        doc = {
            "grid": {"h": 64, "w": 96, "resolution_m": 0.5, "origin": [48.0, 32.0]},
            "camera": {
                "K": [50, 0, 32, 0, 50, 24, 0, 0, 1],
                "E": [0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1.2],
            },
            "depth_bins": {"count": 8, "min_m": 2.0, "max_m": 16.0},
            "correlation": {"radius_pv": 2, "radius_bev": 4},
            "sampler": {"window_s": 30, "max_disp_m": 2, "low_deg": 10, "high_deg": 50},
            "loss_weights": {"alpha": 5, "beta": 5, "lambda1": 0.5, "lambda2": 2},
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.grid.height_px == 64 and cfg.grid.width_px == 96
        assert cfg.grid.origin_px == (48.0, 32.0)
        assert cfg.camera.intrinsics[0, 2] == 32.0
        assert cfg.camera.translation[2] == 1.2
        assert np.array_equal(cfg.depth_bins, np.linspace(2.0, 16.0, 8))
        assert cfg.radius_pv == 2 and cfg.radius_bev == 4
        assert cfg.sampler.window_s == 30.0
        assert cfg.loss_weights.lambda2 == 2.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config('{"gird": {}}')
        # key names print as JSON strings, so the message stays on one line
        with pytest.raises(ParseError, match=re.escape('unknown config keys: "\\n", "gird"')):
            parse_config('{"gird": {}, "\\n": 1}')

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config('{"grid": {"h": 128, "widht": 128}}')

    def test_wrong_matrix_sizes_rejected(self):
        with pytest.raises(ParseError):
            parse_config('{"camera": {"K": [1, 2, 3]}}')
        with pytest.raises(ParseError):
            parse_config('{"camera": {"E": [1, 2, 3]}}')
        # K is 9 row-major numbers; a nested 3x3 list is refused
        with pytest.raises(ParseError, match="camera.K must be a list of 9 finite numbers"):
            parse_config('{"camera": {"K": [[50, 0, 32], [0, 50, 24], [0, 0, 1]]}}')

    def test_bad_origin_rejected(self):
        with pytest.raises(ParseError):
            parse_config('{"grid": {"origin": [1, 2, 3]}}')

    def test_invalid_json_names_line(self):
        with pytest.raises(ParseError):
            parse_config("{\n  broken\n}")

    def test_bad_depth_bins_rejected(self):
        with pytest.raises(ParseError):
            parse_config('{"depth_bins": {"count": 0}}')
        with pytest.raises(ParseError):
            parse_config('{"depth_bins": {"count": 4, "min_m": 9.0, "max_m": 3.0}}')

    @pytest.mark.parametrize("section", ["grid", "camera", "depth_bins", "correlation", "sampler", "loss_weights"])
    @pytest.mark.parametrize("value", [5, [], "x", None])
    def test_section_must_be_an_object(self, section, value):
        with pytest.raises(ParseError, match=f"{section} must be a JSON object"):
            parse_config(json.dumps({section: value}))

    @pytest.mark.parametrize("key", ["window_s", "max_disp_m", "low_deg", "high_deg"])
    @pytest.mark.parametrize("value", ["null", "true", "false", '"1"', "[1]", "NaN", "-1", "-Infinity"])
    def test_sampler_fields_are_numbers_at_least_zero(self, key, value):
        with pytest.raises(ParseError, match=f"sampler.{key} must be a number >= 0"):
            parse_config(f'{{"sampler": {{"{key}": {value}}}}}')

    def test_sampler_fields_accept_infinity_and_integers(self):
        cfg = parse_config('{"sampler": {"window_s": Infinity, "max_disp_m": 3, "high_deg": 90}}')
        assert cfg.sampler.window_s == math.inf
        assert cfg.sampler.max_disp_m == 3.0 and type(cfg.sampler.max_disp_m) is float
        assert cfg.sampler.low_deg == default_config().sampler.low_deg

    def test_invalid_camera_values_propagate(self):
        doc = {"camera": {"E": [1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]}}
        with pytest.raises(InvalidCameraError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("doc, needle", [
        ({"grid": {"h": 4096, "w": 4096}}, "grid.h * grid.w must be at most 4194304 cells"),
        ({"grid": {"w": 2**22 + 1}}, "grid.w must be an integer in [1, 4194304]"),
        ({"depth_bins": {"count": 1025}}, "depth_bins.count must be an integer in [1, 1024]"),
        ({"depth_bins": {"count": 10**12}}, "depth_bins.count must be an integer in [1, 1024]"),
        ({"depth_bins": {"count": 1e12}}, "depth_bins.count must be an integer in [1, 1024], got 1000000000000.0"),
    ])
    def test_size_caps_refuse_before_allocating(self, doc, needle, refuse_cheaply):
        refuse_cheaply(lambda: parse_config(json.dumps(doc)), ParseError, re.escape(needle))

    def test_grid_at_the_cell_cap_parses(self):
        cfg = parse_config('{"grid": {"h": 2048, "w": 2048}, "depth_bins": {"count": 1024}}')
        assert cfg.grid.shape == (2048, 2048)
        assert cfg.depth_bins.size == 1024

    @pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000])
    def test_json_too_deep_or_too_long_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_config(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_synth_spec(text)


VALID_PRIMITIVE = {"kind": "straight", "duration_s": 1.0}


def field_cases():
    """One (parser, document, dotted field name) case per bad value of every table field."""
    fields = [
        (f"{section}.{key}", text, parse_config, lambda v, s=section, k=key: {s: {k: v}})
        for section, table in _CONFIG.items()
        for key, (_, text) in table.items()
    ]
    fields += [
        (f"spec.{key}", text, parse_synth_spec, lambda v, k=key: {"primitives": [VALID_PRIMITIVE], k: v})
        for key, (_, text) in _SYNTH_SPEC.items()
    ]
    fields += [
        (f"primitives[0].{key}", text, parse_synth_spec, lambda v, k=key: {"primitives": [{**VALID_PRIMITIVE, k: v}]})
        for key, (_, text) in _PRIMITIVE.items()
    ]
    for name, text, parse, doc in fields:
        values = [None, True, "1", [], math.nan]
        if text.startswith("an integer"):
            values.append(1.5)
        length = re.match(r"a list of (\d+)", text)
        if length:
            n = int(length.group(1))
            values += [[1.0] * (n + 1), [1.0] * (n - 1) + [True]]
        for value in values:
            yield pytest.param(parse, json.dumps(doc(value)), name, id=f"{name}={json.dumps(value)}")


class TestFieldTables:
    @pytest.mark.parametrize("parse, text, name", field_cases())
    def test_every_field_refuses_the_wrong_kind(self, parse, text, name):
        with pytest.raises(ParseError, match=f"^{re.escape(name)} must be "):
            parse(text)

    def test_every_table_key_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for section, table in _CONFIG.items():
            for key in table:
                assert f"`{section}.{key}`" in readme
        for key in [*_SYNTH_SPEC, *(f"primitives[].{k}" for k in _PRIMITIVE)]:
            assert f"`{key}`" in readme

    def test_integers_stay_exact_and_numbers_take_integers(self):
        cfg = parse_config('{"grid": {"h": 12, "w": 8, "resolution_m": 1, "origin": [4, 6]}}')
        assert cfg.grid.shape == (12, 8) and cfg.grid.resolution_m == 1.0
        assert cfg.grid.origin_px == (4.0, 6.0)
        spec = parse_synth_spec('{"primitives": [{"kind": "stop", "duration_s": 2}], "seed": 12345678901234567890}')
        assert spec.seed == 12345678901234567890
        assert spec.primitives[0].duration_s == 2.0

    def test_required_keys_named(self):
        with pytest.raises(ParseError, match=re.escape("spec.primitives is required")):
            parse_synth_spec('{"dt_s": 0.1}')
        with pytest.raises(ParseError, match=re.escape("primitives[1].duration_s is required")):
            parse_synth_spec('{"primitives": [{"kind": "stop", "duration_s": 1}, {"kind": "stop"}]}')
        with pytest.raises(ParseError, match=re.escape("primitives[0] must be a JSON object")):
            parse_synth_spec('{"primitives": [5]}')


class TestAssociateByTimestamp:
    def test_identical_sets(self):
        t = np.arange(10) * 0.1
        assert associate_by_timestamp(t, t, 0.05) == [(i, i) for i in range(10)]

    def test_half_window_offset_pairs_fully(self):
        t = np.arange(10) * 1.0
        pairs = associate_by_timestamp(t, t + 0.05, 0.1)
        assert pairs == [(i, i) for i in range(10)]

    def test_too_large_offset_pairs_nothing(self):
        t = np.arange(10) * 1.0
        assert associate_by_timestamp(t, t + 0.2, 0.1) == []

    def test_picks_nearest(self):
        pairs = associate_by_timestamp(np.array([0.0]), np.array([-0.03, 0.01]), 0.05)
        assert pairs == [(0, 1)]

    def test_each_frame_used_once_and_monotone(self):
        a = np.array([0.0, 0.1, 0.2, 0.35])
        b = np.array([0.01, 0.12, 0.18, 0.34, 0.36])
        pairs = associate_by_timestamp(a, b, 0.05)
        ai = [p[0] for p in pairs]
        bi = [p[1] for p in pairs]
        assert ai == sorted(set(ai))
        assert bi == sorted(set(bi))
        for i, j in pairs:
            assert abs(a[i] - b[j]) <= 0.05

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            associate_by_timestamp(np.zeros(1), np.zeros(1), -0.1)

    def test_nan_window_rejected(self):
        with pytest.raises(ValueError, match="max_dt_s must be >= 0"):
            associate_by_timestamp(np.zeros(3), np.zeros(3), math.nan)


class TestSynthTrajectory:
    def test_zero_noise_est_equals_gt(self):
        spec = SynthSpec(
            primitives=(
                MotionPrimitive("straight", duration_s=5.0, speed_mps=2.0),
                MotionPrimitive("arc", duration_s=5.0, speed_mps=2.0, yaw_rate_dps=9.0),
            )
        )
        gt, est = synth_trajectory(spec)
        assert np.array_equal(gt.poses, est.poses)
        assert np.array_equal(gt.timestamps, est.timestamps)

    def test_straight_endpoint(self):
        spec = SynthSpec(primitives=(MotionPrimitive("straight", 5.0, speed_mps=2.0),))
        gt, _ = synth_trajectory(spec)
        assert len(gt) == 51
        assert np.allclose(gt.timestamps, np.arange(51) * 0.1, atol=1e-12)
        assert np.allclose(gt.positions[-1], [10.0, 0.0, 0.0], atol=1e-9)

    def test_arc_endpoint_on_exact_circle(self):
        # 18 deg/s for 5 s = quarter turn; radius = v / omega.
        v, rate, dur = 5.0, 18.0, 5.0
        spec = SynthSpec(primitives=(MotionPrimitive("arc", dur, speed_mps=v, yaw_rate_dps=rate),))
        gt, _ = synth_trajectory(spec)
        radius = v / math.radians(rate)
        assert np.allclose(gt.positions[-1], [radius, radius, 0.0], atol=1e-9)
        center = np.array([0.0, radius, 0.0])
        dists = np.linalg.norm(gt.positions - center, axis=1)
        assert np.max(np.abs(dists - radius)) < 1e-9

    def test_stop_holds_still(self):
        spec = SynthSpec(
            primitives=(
                MotionPrimitive("straight", 1.0, speed_mps=1.0),
                MotionPrimitive("stop", 2.0),
            )
        )
        gt, _ = synth_trajectory(spec)
        assert len(gt) == 31
        assert np.allclose(gt.positions[10:], gt.positions[10], atol=1e-12)

    def test_scale_drift_scales_path_length(self):
        spec = SynthSpec(
            primitives=(MotionPrimitive("straight", 10.0, speed_mps=1.5),),
            scale_drift=1.05,
        )
        gt, est = synth_trajectory(spec)
        ratio = path_lengths(est)[-1] / path_lengths(gt)[-1]
        assert abs(ratio - 1.05) < 1e-9

    def test_noise_is_seeded(self):
        spec = SynthSpec(
            primitives=(MotionPrimitive("straight", 5.0, speed_mps=2.0),),
            noise_trans_m=0.05,
            seed=7,
        )
        gt1, est1 = synth_trajectory(spec)
        gt2, est2 = synth_trajectory(spec)
        assert np.array_equal(est1.poses, est2.poses)
        assert np.array_equal(gt1.poses, gt2.poses)
        assert not np.array_equal(est1.poses, gt1.poses)

    def test_primitive_validation(self):
        with pytest.raises(ValueError):
            MotionPrimitive("straight", 0.0, speed_mps=1.0)
        with pytest.raises(ValueError):
            MotionPrimitive("arc", 1.0, speed_mps=1.0, yaw_rate_dps=0.0)
        with pytest.raises(ValueError):
            MotionPrimitive("stop", 1.0, speed_mps=1.0)
        with pytest.raises(ValueError):
            MotionPrimitive("teleport", 1.0)

    def test_parse_synth_spec(self):
        doc = {
            "primitives": [
                {"kind": "straight", "duration_s": 2.0, "speed_mps": 1.0},
                {"kind": "arc", "duration_s": 1.0, "speed_mps": 1.0, "yaw_rate_dps": 30.0},
            ],
            "dt_s": 0.05,
            "scale_drift": 1.02,
            "seed": 3,
        }
        spec = parse_synth_spec(json.dumps(doc))
        assert len(spec.primitives) == 2
        assert spec.dt_s == 0.05
        assert spec.scale_drift == 1.02
        assert spec.seed == 3

    def test_parse_synth_spec_errors(self):
        with pytest.raises(ParseError):
            parse_synth_spec("[]")
        with pytest.raises(ParseError):
            parse_synth_spec('{"primitives": [], "warp": 1}')
        with pytest.raises(ParseError):
            parse_synth_spec('{"primitives": [{"kind": "straight", "duration_s": -1}]}')
        with pytest.raises(ParseError):
            parse_synth_spec('{"primitives": [{"kind": "straight", "duration_s": 1}], "dt_s": 0}')

    @pytest.mark.parametrize("prims, dt", [
        ([MotionPrimitive("straight", 1e9, speed_mps=1.0)], 0.1),
        ([MotionPrimitive("stop", 60000.0), MotionPrimitive("stop", 60000.0)], 0.1),
        ([MotionPrimitive("stop", 1.0)], 1e-300),
        ([MotionPrimitive("stop", 1.7e308), MotionPrimitive("stop", 1.7e308)], 0.1),
    ])
    def test_frame_cap_refuses_before_allocating(self, prims, dt, refuse_cheaply):
        refuse_cheaply(lambda: SynthSpec(prims, dt_s=dt), ValueError, "frames exceeds the cap of 1048576")
        doc = {"primitives": [{"kind": p.kind, "duration_s": p.duration_s, "speed_mps": p.speed_mps} for p in prims],
               "dt_s": dt}
        refuse_cheaply(lambda: parse_synth_spec(json.dumps(doc)), ParseError, "exceeds the cap")

    @pytest.mark.parametrize("prims, needle", [
        ([{"kind": "straight", "duration_s": 10, "speed_mps": 1e308}],
         "primitives[0].speed_mps 1e+308 over duration_s 10 carries the drive beyond the float range"),
        ([{"kind": "straight", "duration_s": 10, "speed_mps": 1e307}, {"kind": "stop", "duration_s": 1},
          {"kind": "straight", "duration_s": 10, "speed_mps": 1e307}],
         "primitives[2].speed_mps 1e+307 over duration_s 10 carries the drive beyond the float range"),
        ([{"kind": "arc", "duration_s": 1000, "speed_mps": 1, "yaw_rate_dps": 1e308}],
         "primitives[0].yaw_rate_dps 1e+308 turns through a non-finite angle over duration_s 1000"),
        ([{"kind": "arc", "duration_s": 1, "speed_mps": 1, "yaw_rate_dps": 5e-324}],
         "primitives[0].yaw_rate_dps 5e-324 gives no finite arc radius at speed_mps 1"),
        ([{"kind": "arc", "duration_s": 1, "speed_mps": 1e308, "yaw_rate_dps": 1e-3}],
         "primitives[0].yaw_rate_dps 0.001 gives no finite arc radius at speed_mps 1e+308"),
    ], ids=["speed", "speed-second-leg", "turn", "subnormal-rate", "radius"])
    def test_motion_beyond_float_range_names_primitive_and_field(self, prims, needle):
        with pytest.raises(ParseError) as info:
            parse_synth_spec(json.dumps({"primitives": prims}))
        assert str(info.value) == needle
        with pytest.raises(ValueError, match=re.escape(needle)):
            SynthSpec(tuple(MotionPrimitive(**p) for p in prims))

    def test_extreme_but_finite_motion_synthesizes(self):
        prims = (MotionPrimitive("straight", 10.0, speed_mps=1e306), MotionPrimitive("arc", 1.0, 1.0, 1e300),
                 MotionPrimitive("straight", 10.0, speed_mps=-1e306))
        gt, _ = synth_trajectory(SynthSpec(prims, dt_s=1.0))
        assert np.all(np.isfinite(gt.poses))
        assert gt.poses[10, 0, 3] == 1e307

    def test_nan_noise_rejected(self):
        prims = (MotionPrimitive("stop", 1.0),)
        with pytest.raises(ValueError, match="noise magnitudes"):
            SynthSpec(prims, noise_trans_m=math.nan)
        with pytest.raises(ValueError, match="noise magnitudes"):
            SynthSpec(prims, noise_yaw_deg=math.nan)

    def test_negative_seed_rejected_also_by_replace(self):
        spec = SynthSpec((MotionPrimitive("stop", 1.0),), seed=3)
        for make in (lambda: SynthSpec(spec.primitives, seed=-1), lambda: dataclasses.replace(spec, seed=-1)):
            with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
                make()
        assert dataclasses.replace(spec, seed=np.int64(5)).seed == 5


NOISY = {"noise_trans_m": 0.05, "noise_yaw_deg": 0.5, "scale_drift": 1.03}
ORACLE_CASES = {
    "all-kinds": (
        (MotionPrimitive("straight", 3.0, speed_mps=2.0), MotionPrimitive("stop", 1.0),
         MotionPrimitive("arc", 4.0, speed_mps=3.0, yaw_rate_dps=25.0)),
        {"seed": 1, **NOISY},
    ),
    "negative-rates": (
        (MotionPrimitive("arc", 3.0, speed_mps=2.0, yaw_rate_dps=-40.0),
         MotionPrimitive("arc", 2.0, speed_mps=-1.5, yaw_rate_dps=-10.0),
         MotionPrimitive("straight", 2.0, speed_mps=-3.0)),
        {"seed": 2, **NOISY},
    ),
    "heading-wraps": (
        (MotionPrimitive("arc", 9.0, speed_mps=4.0, yaw_rate_dps=100.0),
         MotionPrimitive("straight", 1.0, speed_mps=2.0),
         MotionPrimitive("arc", 11.0, speed_mps=3.0, yaw_rate_dps=-170.0)),
        {"seed": 3, **NOISY, "noise_yaw_deg": 60.0},
    ),
    "ragged-duration": (
        (MotionPrimitive("straight", 1.23, speed_mps=2.0), MotionPrimitive("arc", 0.77, 1.0, 33.0),
         MotionPrimitive("stop", 0.41)),
        {"dt_s": 0.3, "seed": 4, **NOISY},
    ),
    "one-frame": ((MotionPrimitive("arc", 0.05, speed_mps=1.0, yaw_rate_dps=5.0),), {"seed": 5, **NOISY}),
    # 100 + 1e-20 == 100: two primitives start at the same time, and the later one takes the frame
    "vanishing-primitive": (
        (MotionPrimitive("straight", 100.0, speed_mps=1.0), MotionPrimitive("arc", 1e-20, 1.0, 90.0),
         MotionPrimitive("arc", 2.0, speed_mps=1.0, yaw_rate_dps=-45.0)),
        {"seed": 8, **NOISY},
    ),
    "noise-off": (
        (MotionPrimitive("straight", 2.0, speed_mps=2.0), MotionPrimitive("arc", 2.0, 2.0, -30.0)),
        {"seed": 6},
    ),
    "drift-only": ((MotionPrimitive("arc", 3.0, speed_mps=2.0, yaw_rate_dps=50.0),), {"scale_drift": 0.9}),
    **{f"seed-{seed}": (kitti_length_primitives()[:4], {"seed": seed, **NOISY}) for seed in (0, 7, 123456789)},
}


class TestSynthMatchesReference:
    @pytest.mark.parametrize("prims, kwargs", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_bitwise_equal_to_per_frame_loop(self, prims, kwargs):
        gt, est = assert_synth_matches_reference(SynthSpec(prims, **kwargs))
        assert np.all(gt.poses[:, 3] == (0.0, 0.0, 0.0, 1.0))

    def test_one_frame_drive(self):
        prims, kwargs = ORACLE_CASES["one-frame"]
        gt, est = synth_trajectory(SynthSpec(prims, **kwargs))
        assert len(gt) == len(est) == 1

    def test_heading_wraps_past_pi(self):
        prims, kwargs = ORACLE_CASES["heading-wraps"]
        poses = synth_trajectory(SynthSpec(prims, **kwargs))[0].poses
        heading = np.arctan2(poses[:, 1, 0], poses[:, 0, 0])
        assert np.sum(np.abs(np.diff(heading)) > math.pi) >= 2

    def test_kitti_length_drive(self):
        gt, _ = assert_synth_matches_reference(SynthSpec(kitti_length_primitives(), seed=1, **NOISY))
        assert len(gt) == 4541

    @settings(derandomize=True, database=None, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        prims=st.lists(
            st.one_of(
                st.builds(lambda d, v: MotionPrimitive("straight", d, speed_mps=v),
                          st.floats(0.01, 5.0), st.floats(-20.0, 20.0)),
                st.builds(lambda d, v, w: MotionPrimitive("arc", d, speed_mps=v, yaw_rate_dps=w),
                          st.floats(0.01, 5.0), st.floats(-20.0, 20.0),
                          st.floats(-720.0, 720.0).filter(lambda w: abs(w) >= 1e-3)),
                st.builds(lambda d: MotionPrimitive("stop", d), st.floats(0.01, 5.0)),
            ),
            min_size=1,
            max_size=4,
        ),
        dt_s=st.floats(0.05, 1.0),
        noise=st.sampled_from([0.0, 0.02]) | st.floats(0.0, 1.0),
        yaw=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 90.0),
        drift=st.sampled_from([1.0, 1.03]) | st.floats(0.5, 2.0),
        seed=st.integers(0, 2**63),
    )
    def test_random_specs_match_reference(self, prims, dt_s, noise, yaw, drift, seed):
        assert_synth_matches_reference(
            SynthSpec(tuple(prims), dt_s=dt_s, noise_trans_m=noise, noise_yaw_deg=yaw, scale_drift=drift, seed=seed)
        )

    @pytest.mark.parametrize("prims, kwargs, needle", [
        ((MotionPrimitive("straight", 10.0, speed_mps=1.0),), {"noise_trans_m": 1e308},
         "spec.noise_trans_m 1e+308 carries the estimate beyond the float range"),
        ((MotionPrimitive("straight", 10.0, speed_mps=1e300),), {"scale_drift": 1e300},
         "spec.scale_drift 1e+300 carries the estimate beyond the float range"),
        # every step is finite; their chain is not
        ((MotionPrimitive("straight", 10.0, speed_mps=1e306),), {"scale_drift": 100.0},
         "spec.scale_drift 100.0 carries the estimate beyond the float range"),
    ], ids=["noise", "drift-step", "drift-chain"])
    def test_corruption_beyond_float_range_names_the_field(self, prims, kwargs, needle):
        with pytest.raises(ValueError) as info:
            synth_trajectory(SynthSpec(prims, **kwargs))
        assert str(info.value) == needle

    def test_no_pose_object_per_frame(self, monkeypatch):
        spec = SynthSpec(kitti_length_primitives(), seed=1, **NOISY)
        built = Counter()
        for cls in (Pose2, Pose3):
            def counting(self, check=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        gt, _ = synth_trajectory(spec)
        frames = frames_from_trajectory(gt.timestamps, gt.poses)
        assert len(frames) == 4541
        # the primitive start poses only; one per frame would be thousands
        assert sum(built.values()) <= 2 * (len(spec.primitives) + 1), built


class TestSideCsv:
    def test_pairs_round_trip(self):
        records = [
            PairRecord(anchor_id=0, partner_id=3, yaw_diff_deg=17.25, displacement_m=2.5),
            PairRecord(anchor_id=1, partner_id=0, yaw_diff_deg=3.125, displacement_m=0.25),
        ]
        back = parse_pairs_csv(write_pairs_csv(records))
        assert back == records

    def test_pairs_bad_line(self):
        with pytest.raises(ParseError) as exc:
            parse_pairs_csv("anchor_id,partner_id,yaw_diff_deg,displacement_m\n1,2,3\n")
        assert exc.value.line == 2

    def test_flow_csv_layout(self):
        grid = BevGridSpec(2, 3, 1.0, origin_px=(1.0, 0.5))
        flow = construct_flow_gt(Pose2(0.0, 1.0, 0.0), grid)
        lines = write_flow_csv(flow).splitlines()
        assert lines[0] == "u,v,du,dv"
        assert len(lines) == 1 + 2 * 3
        # v is the outer loop; first data row is pixel (0, 0).
        u0, v0, du0, dv0 = lines[1].split(",")
        assert (u0, v0) == ("0", "0")
        assert float(du0) == flow.du[0, 0]
        assert float(dv0) == flow.dv[0, 0]
        u1, v1, _, _ = lines[2].split(",")
        assert (u1, v1) == ("1", "0")

    def test_scale_curve_csv(self):
        from bevkit.evaluation import LogScaleCurve

        curve = LogScaleCurve(
            segment_indices=np.array([0, 2]),
            values=np.array([0.25, -0.5]),
            skipped=(1,),
        )
        lines = write_scale_curve_csv(curve).splitlines()
        assert lines == ["segment_index,log2_scale", "0,0.25", "2,-0.5"]

    def test_flow_bvt1_round_trip_exact_values(self):
        grid = BevGridSpec(4, 4, 0.8, origin_px=(2.0, 2.0))
        flow = construct_flow_gt(Pose2(0.0, 0.0, 0.8), grid)  # exactly (0, -1)
        back = flow_from_bvt1(flow_to_bvt1(flow), grid)
        assert np.array_equal(back.data, flow.data)

    def test_flow_bvt1_quantizes_to_f32(self):
        grid = BevGridSpec(4, 4, 1.0)
        data = np.full((2, 4, 4), 0.1)
        flow = FlowField(data, grid)
        back = flow_from_bvt1(flow_to_bvt1(flow), grid)
        assert np.array_equal(back.data, data.astype(np.float32).astype(float))

    def test_flow_bvt1_shape_check(self):
        grid = BevGridSpec(4, 4, 1.0)
        with pytest.raises(ShapeError):
            flow_from_bvt1(write_bvt1(np.zeros((3, 4, 4))), grid)
        with pytest.raises(ShapeError):
            flow_from_bvt1(write_bvt1(np.zeros((2, 5, 4))), grid)
