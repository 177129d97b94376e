"""Acceptance gate: ten headline checks, one printed verdict line each.

Each test times itself, verifies the stated property at the stated
tolerance, and records a single "[acceptance] name: PASS/FAIL" line;
conftest.py replays the lines in the terminal summary so they are
visible even with output capture on.
"""

import json
import math
import time

import numpy as np
import pytest

from bevkit.bvt1 import read_bvt1, write_bvt1
from bevkit.cli import main as cli_main
from bevkit.correlation import FeatureMap, local_correlation, peak_displacement
from bevkit.errors import ParseError
from bevkit.evaluation import (
    Trajectory,
    ate,
    log_scale_curve,
    path_lengths,
    rte_rre,
    scale_from_first_10m,
    scale_trajectory,
)
from bevkit.flow import construct_flow_gt, solve_pose_from_flow
from bevkit.formats import (
    parse_kitti_poses,
    parse_tum_trajectory,
    write_kitti_poses,
    write_trajectory,
)
from bevkit.geometry import (
    BevGridSpec,
    CameraModel,
    Pose2,
    pose2_to_pose3,
    wrap_angle,
)
from bevkit.losses import loss_3dof, loss_5dof
from bevkit.lss import DepthDistribution, build_frustum, project_volume
from bevkit.sampler import (
    build_pair_lists,
    frames_from_trajectory,
    merge_pair_lists,
    sample_pair,
)
from bevkit.synth import MotionPrimitive, SynthSpec, synth_trajectory
from helpers import add_at_splat, lift, rigid_inverse, rot_z, transform_trajectory

GRID_128 = BevGridSpec(128, 128, 0.8)

VERDICTS: list[str] = []


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def compose_planar_steps(steps, dt=0.1) -> Trajectory:
    mats = [np.eye(4)]
    for dth, dx, dy in steps:
        mats.append(mats[-1] @ pose2_to_pose3(Pose2(dth, dx, dy)).matrix)
    n = len(mats)
    return Trajectory(np.arange(n) * dt, np.stack(mats))


def wiggly_trajectory(n: int, seed: int, step: float = 0.5) -> Trajectory:
    rng = np.random.default_rng(seed)
    steps = [
        (rng.normal(0.0, 0.02), step * (1.0 + 0.1 * rng.standard_normal()), 0.0)
        for _ in range(n - 1)
    ]
    return compose_planar_steps(steps)


def perturb_trajectory(traj, seed, t_sigma=0.02, yaw_sigma=0.002, drift=1.001):
    """Re-integrate the relative motions with noise and scale drift."""
    rng = np.random.default_rng(seed)
    poses = traj.poses
    out = [np.array(poses[0])]
    for i in range(1, len(poses)):
        rel = np.array(np.linalg.solve(poses[i - 1], poses[i]))
        rel[:3, 3] = drift * rel[:3, 3] + rng.normal(0.0, t_sigma, 3)
        spin = np.eye(4)
        spin[:3, :3] = rot_z(rng.normal(0.0, yaw_sigma))
        out.append(out[-1] @ rel @ spin)
    return Trajectory(traj.timestamps, np.stack(out))


def test_01_flow_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-math.pi / 4.0, math.pi / 4.0)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        radius = 4.0 * math.sqrt(rng.uniform())
        pose = Pose2(theta, radius * math.cos(bearing), radius * math.sin(bearing))
        rec = solve_pose_from_flow(construct_flow_gt(pose, GRID_128))
        worst = max(
            worst,
            abs(wrap_angle(rec.theta - pose.theta)),
            abs(rec.tx - pose.tx),
            abs(rec.ty - pose.ty),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        "flow round trip (1000 poses)",
        worst <= 1e-9 and elapsed < 30.0,
        f"max error {worst:.2e}, {elapsed:.1f} s",
    )


def test_02_flow_identity_and_unit_translation():
    t0 = time.perf_counter()
    ident = construct_flow_gt(Pose2(0.0, 0.0, 0.0), GRID_128)
    ok_ident = float(np.max(np.abs(ident.data))) == 0.0
    fwd = construct_flow_gt(Pose2(0.0, 0.8, 0.0), GRID_128)
    ok_fwd = bool(np.all(fwd.data[0] == 0.0) and np.all(fwd.data[1] == -1.0))
    elapsed = time.perf_counter() - t0
    verdict(
        "flow identity / unit translation",
        ok_ident and ok_fwd and elapsed < 1.0,
        f"identity max |flow| {float(np.max(np.abs(ident.data)))}, "
        f"forward flow constant (0, -1): {ok_fwd}, {elapsed:.2f} s",
    )


def brute_force_correlation(fa, fb, radius, normalize):
    c, h, w = fa.shape
    side = 2 * radius + 1
    out = np.zeros((side * side, h, w))
    for x in range(h):
        for y in range(w):
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    xx, yy = x + dx, y + dy
                    if 0 <= xx < h and 0 <= yy < w:
                        out[(dy + radius) * side + (dx + radius), x, y] = float(
                            np.dot(fa[:, x, y], fb[:, xx, yy])
                        )
    if normalize:
        out /= c
    return out


def test_03_correlation_oracle_and_peak_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    radii = (0, 1, 3, 5)
    worst = 0.0
    oracle_ok = True
    for case in range(50):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        radius = radii[case % 4]
        normalize = bool(case % 2)
        fa = rng.normal(size=(c, h, w))
        fb = rng.normal(size=(c, h, w))
        got = local_correlation(FeatureMap(fa), FeatureMap(fb), radius, normalize).data
        ref = brute_force_correlation(fa, fb, radius, normalize)
        if not np.allclose(got, ref, rtol=1e-6, atol=1e-12):
            oracle_ok = False
        denom = np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(np.max(np.abs(got - ref) / denom)))

    # shifted copies of per-pixel unit-norm nonnegative features: the true
    # offset is the strict argmax (Cauchy-Schwarz), so interior recovery
    # must be exact, not just approximate
    peaks_ok = True
    radius = 3
    for dx, dy in ((1, 2), (-2, 0), (3, -3), (0, 0)):
        f = rng.uniform(0.1, 1.0, size=(4, 16, 16))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        shifted = np.roll(f, shift=(dx, dy), axis=(1, 2))
        peaks = peak_displacement(local_correlation(FeatureMap(f), FeatureMap(shifted), radius))
        margin = radius + max(abs(dx), abs(dy))
        inner = (slice(margin, 16 - margin), slice(margin, 16 - margin))
        if not (np.all(peaks[0][inner] == dx) and np.all(peaks[1][inner] == dy)):
            peaks_ok = False
    elapsed = time.perf_counter() - t0
    verdict(
        "correlation brute-force equivalence + exact peak recovery",
        oracle_ok and peaks_ok and elapsed < 10.0,
        f"max rel diff {worst:.2e}, peaks exact: {peaks_ok}, {elapsed:.1f} s",
    )


def random_camera(rng) -> CameraModel:
    f = rng.uniform(4.0, 12.0)
    k = np.array(
        [
            [f, 0.0, 4.5 + rng.uniform(-1.0, 1.0)],
            [0.0, f, 3.0 + rng.uniform(-1.0, 1.0)],
            [0.0, 0.0, 1.0],
        ]
    )
    ext = np.hstack([random_rotation(rng), rng.uniform(-1.0, 1.0, size=(3, 1))])
    return CameraModel(k, ext)


def test_04_lss_conservation_and_linearity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    grid = BevGridSpec(16, 16, 0.8)
    h, w, d = 6, 9, 5
    bins = np.linspace(1.5, 6.5, d)
    conserved = additive = composed = concat_ok = True
    for _ in range(20):
        cam = random_camera(rng)
        feats = rng.uniform(0.1, 1.0, size=(3, h, w))
        weights = rng.uniform(0.05, 1.0, size=(d, h, w))
        depth = DepthDistribution(weights / weights.sum(axis=0), bins, normalized=True)
        fmap = FeatureMap(feats)

        frustum = build_frustum(cam, bins, (h, w))
        lifted = lift(fmap, depth)
        bev, dropped = add_at_splat(lifted, frustum, grid)
        direct, dropped_direct = project_volume(fmap, depth, cam, grid)

        from bevkit.lss import assign_cells

        keep = assign_cells(frustum, grid).in_grid.ravel()
        mass_in = lifted.reshape(3, -1)[:, keep].sum(axis=1)
        if not np.allclose(bev.sum(axis=(1, 2)), mass_in, rtol=1e-6, atol=1e-12):
            conserved = False

        extra = rng.uniform(0.0, 1.0, size=lifted.shape)
        lhs, _ = add_at_splat(lifted + extra, frustum, grid)
        rhs = bev + add_at_splat(extra, frustum, grid)[0]
        if not np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12):
            additive = False

        if not (np.array_equal(direct, bev) and dropped_direct == dropped):
            composed = False

        feats_b = rng.uniform(0.1, 1.0, size=(2, h, w))
        both, _ = project_volume(FeatureMap(np.concatenate([feats, feats_b])), depth, cam, grid)
        separate = np.concatenate([direct, project_volume(FeatureMap(feats_b), depth, cam, grid)[0]])
        if not np.allclose(both, separate, rtol=1e-6, atol=1e-12):
            concat_ok = False
    elapsed = time.perf_counter() - t0
    verdict(
        "lss mass conservation / linearity / stage composition",
        conserved and additive and composed and concat_ok and elapsed < 20.0,
        f"conservation {conserved}, additivity {additive}, bitwise composition "
        f"{composed}, channel concat {concat_ok}, {elapsed:.1f} s",
    )


def test_05_loss_unit_checks():
    t0 = time.perf_counter()
    hand = loss_3dof(Pose2(0.05, 0.1, 0.2), Pose2(0.0, 0.0, 0.0), alpha=10.0)
    hand_ok = abs(hand - 0.8) < 1e-12

    wrap = loss_3dof(Pose2(math.pi - 0.1, 0.0, 0.0), Pose2(-math.pi + 0.1, 0.0, 0.0), alpha=10.0)
    wrap_ok = abs(wrap - 2.0) < 1e-9

    rng = np.random.default_rng(1005)
    exact = 0
    for case in range(1000):
        t_pred = rng.normal(size=3)
        t_gt = rng.normal(size=3)
        rot_pred = random_rotation(rng)
        rot_gt = random_rotation(rng)
        base = loss_5dof(t_pred, rot_pred, t_gt, rot_gt)
        c = 2.0 ** int(rng.integers(-8, 9))
        if case % 2:
            scaled = loss_5dof(c * t_pred, rot_pred, t_gt, rot_gt)
        else:
            scaled = loss_5dof(t_pred, rot_pred, c * t_gt, rot_gt)
        if scaled == base:
            exact += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "loss hand example / rescale invariance / wrap",
        hand_ok and wrap_ok and exact == 1000 and elapsed < 5.0,
        f"hand value {hand:.17g}, wrap residual loss {wrap:.12g}, "
        f"{exact}/1000 rescales exactly invariant, {elapsed:.1f} s",
    )


def test_06_sampler_contract_on_figure_eight():
    t0 = time.perf_counter()
    spec = SynthSpec(
        primitives=(
            MotionPrimitive("arc", duration_s=20.0, speed_mps=2.0, yaw_rate_dps=18.0),
            MotionPrimitive("arc", duration_s=20.0, speed_mps=2.0, yaw_rate_dps=-18.0),
        ),
        dt_s=0.1,
    )
    gt, _ = synth_trajectory(spec)
    frames = frames_from_trajectory(gt.timestamps, gt.poses)
    lists = merge_pair_lists(build_pair_lists(frames, window_s=10.0))
    thresholds_ok = len(lists.high) > 0 and all(
        15.0 <= r.yaw_diff_deg <= 45.0 and r.displacement_m <= 4.0 for r in lists.high
    )
    standard_ok = len(lists.standard) > 0 and all(
        r.yaw_diff_deg < 15.0 and r.displacement_m <= 4.0 for r in lists.standard
    )

    rng = np.random.default_rng(1006)
    draws = 100000
    high = sum(1 for _ in range(draws) if sample_pair(lists, rng).yaw_diff_deg >= 15.0)
    frac = high / draws
    elapsed = time.perf_counter() - t0
    verdict(
        "sampler thresholds + draw mix",
        thresholds_ok and standard_ok and 0.69 <= frac <= 0.71 and elapsed < 20.0,
        f"{len(lists.high)} high / {len(lists.standard)} standard pairs, "
        f"high fraction {frac:.4f}, {elapsed:.1f} s",
    )


def oracle_rte_rre(est, gt, lengths, stride):
    """Independent segment-error reference: explicit scalar cumulative
    distance, monotone endpoint scan per length, and per segment the pose
    algebra of rte_rre through a scalar rigid inverse [R^T | -R^T t]."""
    positions = gt.positions
    n = len(gt)
    dist = [0.0]
    for i in range(1, n):
        d = positions[i] - positions[i - 1]
        step = math.sqrt(float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]))
        dist.append(dist[-1] + step)
    t_sq = {length: [] for length in lengths}
    r_sq = {length: [] for length in lengths}
    for length in lengths:
        last = 0
        for first in range(0, n, stride):
            if last < first:
                last = first
            target = dist[first] + length
            while last < n and dist[last] < target:
                last += 1
            if last >= n:
                break
            delta_gt = rigid_inverse(gt.poses[first]) @ gt.poses[last]
            delta_est = rigid_inverse(est.poses[first]) @ est.poses[last]
            if np.array_equal(delta_est, delta_gt):
                t_err = 0.0
                r_err = 0.0
            else:
                err = rigid_inverse(delta_est) @ delta_gt
                t_err = float(np.linalg.norm(err[:3, 3]))
                trace = float(err[0, 0] + err[1, 1] + err[2, 2])
                r_err = math.acos(min(1.0, max(-1.0, 0.5 * (trace - 1.0))))
            t_sq[length].append((t_err / length) ** 2)
            r_sq[length].append((r_err / length) ** 2)
    per_length = {}
    for length in lengths:
        if not t_sq[length]:
            continue
        rte = 100.0 * math.sqrt(float(np.mean(t_sq[length])))
        rre = 100.0 * math.degrees(math.sqrt(float(np.mean(r_sq[length]))))
        per_length[length] = (rte, rre, len(t_sq[length]))
    rte_overall = float(np.mean([v[0] for v in per_length.values()]))
    rre_overall = float(np.mean([v[1] for v in per_length.values()]))
    return rte_overall, rre_overall, per_length


def test_07_evaluation_oracle_and_alignment_properties():
    t0 = time.perf_counter()
    gt = wiggly_trajectory(2000, seed=1007)
    est = perturb_trajectory(gt, seed=2007)
    lengths = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)
    rep = rte_rre(est, gt, lengths_m=lengths, stride=1)
    o_rte, o_rre, o_per = oracle_rte_rre(est, gt, lengths, stride=1)
    oracle_ok = (
        rep.rte_percent == o_rte
        and rep.rre_deg_per_100m == o_rre
        and rep.per_length == o_per
    )

    rng = np.random.default_rng(3007)
    gt_short = wiggly_trajectory(300, seed=1017)
    est_short = perturb_trajectory(gt_short, seed=2017)
    base_se3 = ate(est_short, gt_short, "se3")
    base_sim3 = ate(est_short, gt_short, "sim3")
    invariant = True
    for _ in range(20):
        rot = random_rotation(rng)
        shift = rng.uniform(-50.0, 50.0, size=3)
        moved = transform_trajectory(est_short, rot, shift)
        if abs(ate(moved, gt_short, "se3") - base_se3) > 1e-9:
            invariant = False
        scale = float(rng.uniform(0.5, 2.0))
        similar = transform_trajectory(scale_trajectory(est_short, scale), rot, shift)
        if abs(ate(similar, gt_short, "sim3") - base_sim3) > 1e-9:
            invariant = False

    dominated = True
    for seed in range(100):
        g = wiggly_trajectory(120, seed=5000 + seed)
        e = perturb_trajectory(g, seed=6000 + seed, drift=1.0 + 0.002 * (seed % 5))
        if ate(e, g, "sim3") > ate(e, g, "se3") + 1e-12:
            dominated = False
    elapsed = time.perf_counter() - t0
    verdict(
        "segment-error oracle equality + alignment properties",
        oracle_ok and invariant and dominated and elapsed < 60.0,
        f"oracle exact: {oracle_ok}, transform invariance: {invariant}, "
        f"sim3 <= se3 on 100 runs: {dominated}, {elapsed:.1f} s",
    )


def test_08_scale_drift_reproduction():
    t0 = time.perf_counter()
    spec = SynthSpec(
        primitives=(MotionPrimitive("straight", duration_s=120.0, speed_mps=10.0),),
        dt_s=0.1,
        scale_drift=1.05,
    )
    gt, est = synth_trajectory(spec)
    rep = rte_rre(est, gt)
    rte_ok = all(abs(v[0] - 5.0) <= 0.1 for v in rep.per_length.values())

    curve = log_scale_curve(est, gt, segment_m=10.0)
    target = math.log2(1.05)
    curve_ok = curve.values.size > 0 and bool(
        np.all(np.abs(curve.values - target) <= 1e-6)
    ) and not curve.skipped

    recovered = 1.0 / scale_from_first_10m(est, gt)
    init_ok = abs(recovered - 1.05) <= 1e-6
    elapsed = time.perf_counter() - t0
    verdict(
        "scale drift 1.05 reproduction",
        rte_ok and curve_ok and init_ok and elapsed < 10.0,
        f"per-length RTE {[round(v[0], 6) for v in rep.per_length.values()]}, "
        f"log2 curve within 1e-6 of {target:.6f}: {curve_ok}, "
        f"first-10m factor {recovered:.9f}, {elapsed:.1f} s",
    )


def test_09_format_round_trips(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    steps = [(rng.normal(0.0, 0.1), rng.uniform(0.5, 1.5), rng.normal(0.0, 0.2)) for _ in range(49)]
    traj = compose_planar_steps(steps)

    kitti = parse_kitti_poses(write_kitti_poses(traj))
    kitti_ok = np.array_equal(kitti.positions, traj.positions) and np.allclose(
        kitti.poses[:, :3, :3], traj.poses[:, :3, :3], atol=1e-12
    )

    tum = parse_tum_trajectory(write_trajectory(traj, "tum"))
    tum_ok = (
        np.array_equal(tum.positions, traj.positions)
        and np.allclose(tum.poses[:, :3, :3], traj.poses[:, :3, :3], atol=1e-12)
        and np.allclose(tum.timestamps, traj.timestamps, atol=1e-9)
    )

    tensor = rng.normal(size=(3, 5, 7)).astype(np.float32)
    blob = write_bvt1(tensor)
    back = read_bvt1(blob)
    bvt_ok = np.array_equal(back, tensor) and write_bvt1(back) == blob

    lines = write_kitti_poses(traj).splitlines()
    lines[1] = " ".join(lines[1].split()[:11])
    try:
        parse_kitti_poses("\n".join(lines))
        kitti_err_ok = False
    except ParseError as exc:
        kitti_err_ok = exc.line == 2 and "line 2" in str(exc)

    tum_lines = write_trajectory(traj, "tum").splitlines()
    parts = tum_lines[2].split()
    parts[4:8] = ["2", "0", "0", "0"]
    tum_lines[2] = " ".join(parts)
    try:
        parse_tum_trajectory("\n".join(tum_lines))
        tum_err_ok = False
    except ParseError as exc:
        tum_err_ok = exc.line == 3 and "line 3" in str(exc)

    bad = tmp_path / "bad.tum"
    bad.write_text("\n".join(tum_lines))
    good = tmp_path / "good.tum"
    good.write_text(write_trajectory(traj, "tum"))
    code = cli_main(["eval-traj", "--est", str(bad), "--gt", str(good)])
    err = capsys.readouterr().err
    cli_ok = code != 0 and "line 3" in err

    elapsed = time.perf_counter() - t0
    verdict(
        "format round trips + line-numbered failures",
        kitti_ok and tum_ok and bvt_ok and kitti_err_ok and tum_err_ok and cli_ok and elapsed < 5.0,
        f"kitti {kitti_ok}, tum {tum_ok}, binary bit-exact {bvt_ok}, "
        f"errors line-numbered {kitti_err_ok and tum_err_ok}, cli exit {code}, {elapsed:.1f} s",
    )


def test_10_end_to_end_cli_pipe(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = tmp_path / "config.json"
    cfg.write_text("{}")
    flow_path = tmp_path / "flow.bvt1"
    assert cli_main(
        ["flow-make", "--pose", "0.2,1.0,-0.5", "--config", str(cfg), "--out", str(flow_path)]
    ) == 0
    capsys.readouterr()
    assert cli_main(["pose-from-flow", "--flow", str(flow_path), "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    pipe_ok = (
        abs(doc["theta"] - 0.2) <= 1e-9
        and abs(doc["tx"] - 1.0) <= 1e-9
        and abs(doc["ty"] + 0.5) <= 1e-9
    )

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "primitives": [
                    {"kind": "straight", "duration_s": 10.0, "speed_mps": 2.0},
                    {"kind": "arc", "duration_s": 5.0, "speed_mps": 2.0, "yaw_rate_dps": 9.0},
                ],
                "dt_s": 0.1,
            }
        )
    )
    gt_path = tmp_path / "gt.tum"
    est_path = tmp_path / "est.tum"
    assert cli_main(
        ["synth", "--spec", str(spec_path), "--out-gt", str(gt_path), "--out-est", str(est_path)]
    ) == 0
    capsys.readouterr()
    assert cli_main(
        ["eval-traj", "--est", str(est_path), "--gt", str(gt_path), "--lengths", "5,10"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    zeros_ok = (
        report["rte_percent"] == 0.0
        and report["rre_deg_per_100m"] == 0.0
        and report["ate_se3_m"] == 0.0
        and report["ate_sim3_m"] == 0.0
        and report["ate_m"] == 0.0
    )
    elapsed = time.perf_counter() - t0
    verdict(
        "end-to-end cli pipe",
        pipe_ok and zeros_ok and elapsed < 5.0,
        f"recovered pose ({doc['theta']:.12f}, {doc['tx']:.12f}, {doc['ty']:.12f}), "
        f"zero-noise metrics all zero: {zeros_ok}, {elapsed:.1f} s",
    )
