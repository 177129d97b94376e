"""The benchmark's three workloads: seeded inputs, one op, output checks.

Every workload is a closed loop: one client, one op at a time, and for
``cli_pipe`` one CLI process at a time.  Op ``k`` of a run with seed ``s``
draws its inputs from ``numpy.random.default_rng(s + k)``; op 0 is the
untimed warm-up.  bevkit only ever sees the generated inputs.

Why these three workloads (measured shares are from single runs on a
2-core Xeon; see README.md):

* ``bev_frames`` is one training sample at paper scale.  lift-splat and
  correlation carry over 90% of the op, the 92 MB lift tensor is far
  larger than the cache, and camera and grid stay fixed across ops, so a
  geometry cache would hit.  Sampler, evaluation and text formats never
  run: pose-algebra and scipy changes should not move it.
* ``drive_eval`` is one KITTI-00-length drive (4541 frames at 10 Hz).
  Pair mining, segment metrics and text io carry the op; lift-splat and
  correlation never run: splat and correlation kernels should not move it.
* ``cli_pipe`` is one pass of a user's shell pipe, a fresh process per
  step.  Process start-up is about half of it, and each process makes one
  lift-splat call, so a cache filled per process cannot pay off.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from bevkit import io as bevio
from bevkit.correlation import FeatureMap, local_correlation
from bevkit.evaluation import evaluate_trajectories, log_scale_curve, scale_trajectory
from bevkit.flow import (
    FlowField,
    construct_flow_gt,
    flow_error_map,
    in_grid_mask,
    l1_flow_loss,
    solve_pose_from_flow,
)
from bevkit.geometry import Pose2, Pose3, pose2_to_pose3, pose3_to_pose2, relative_pose, wrap_angle
from bevkit.losses import loss_3dof, loss_5dof, loss_total
from bevkit.lss import DepthDistribution, assign_cells, build_frustum, project_volume
from bevkit.sampler import build_pair_lists, frames_from_trajectory, merge_pair_lists, sample_pair

# Feature channels, image-plane feature map size and drive length per
# scale.  "paper" is the ROADMAP's fixed workload; "tiny" keeps the same
# code paths for the benchmark's own tests.
SCALES = {
    "paper": {"channels": 64, "image": (32, 88), "drive_s": 454},
    "tiny": {"channels": 4, "image": (8, 22), "drive_s": 60},
}

# Output checks: splat mass and correlation values, relative to the sum of
# absolute terms, and the noise-free flow round trip, absolute.
REL_TOL = 1e-9
FLOW_ROUND_TRIP_TOL = 1e-9
# Text formats: positions are bit-exact; rotations and timestamps within these.
ROTATION_TOL = 1e-12
TIMESTAMP_TOL = 1e-9
# BVT1 stores float32, so a pose recovered from a CLI flow file is looser.
CLI_POSE_TOL = 1e-6

DT_S = 0.1
WINDOW_S = 1.0
MAX_DISP_M = 4.0
LOW_DEG = 15.0
HIGH_DEG = 45.0
DRAWS = 1000
ASSOC_MAX_DT_S = 0.02
ASSOC_JITTER_S = 0.025
CLI_STEP_TIMEOUT_S = 150

CLI_MAIN = "import sys; from bevkit.cli import main; sys.exit(main())"


def cli_launch() -> list[str]:
    """The ``bevkit`` console script, or the interpreter running its ``main``.

    ``python -m bevkit.cli`` is avoided: it imports ``bevkit.cli`` twice and
    prints a runpy RuntimeWarning on every call.
    """
    script = shutil.which("bevkit")
    return [script] if script else [sys.executable, "-c", CLI_MAIN]


def digest(parts) -> str:
    """sha256 over arrays (dtype, shape, bytes), bytes, text and JSON values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\0")
    return h.hexdigest()


def drive_primitives(rng: np.random.Generator, total_s: int, stops: bool = True) -> tuple:
    """A seeded mix of straight, gentle-arc, stop and sharp-turn legs.

    Durations are whole seconds summing to ``total_s``, so a 0.1 s step
    gives exactly ``10 * total_s + 1`` frames.  Sharp turns are slow
    (1.5-3 m/s at 25-40 deg/s), so within a 1 s window they fill the
    high-rotation pool; stops and straights fill the standard one.
    """
    kinds = ("straight", "arc", "stop", "sharp") if stops else ("straight", "arc", "sharp")
    weights = np.array([0.35, 0.35, 0.1, 0.2] if stops else [0.4, 0.4, 0.2])
    prims = []
    left = int(total_s)
    while left > 0:
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if kind == "straight":
            dur = min(left, int(rng.integers(5, 16)))
            prims.append(bevio.MotionPrimitive("straight", float(dur), speed_mps=float(rng.uniform(6.0, 13.0))))
        elif kind == "arc":
            dur = min(left, int(rng.integers(5, 16)))
            prims.append(bevio.MotionPrimitive(
                "arc", float(dur), speed_mps=float(rng.uniform(6.0, 12.0)),
                yaw_rate_dps=sign * float(rng.uniform(1.0, 4.0))))
        elif kind == "stop":
            dur = min(left, int(rng.integers(2, 7)))
            prims.append(bevio.MotionPrimitive("stop", float(dur)))
        else:
            dur = min(left, int(rng.integers(2, 5)))
            prims.append(bevio.MotionPrimitive(
                "arc", float(dur), speed_mps=float(rng.uniform(1.5, 3.0)),
                yaw_rate_dps=sign * float(rng.uniform(25.0, 40.0))))
        left -= dur
    return tuple(prims)


def softmax_depth(rng: np.random.Generator, bins: int, image: tuple[int, int]) -> np.ndarray:
    logits = rng.standard_normal((bins,) + tuple(image))
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def check_splat(bev, dropped, features, depth, in_grid) -> list[str]:
    """bev.sum() is the lifted mass of the in-grid points; dropped counts the rest."""
    kept = depth * in_grid
    mass = float(np.einsum("dhw,hw->", kept, features.sum(axis=0)))
    scale = float(np.einsum("dhw,hw->", kept, np.abs(features).sum(axis=0)))
    problems = []
    if not abs(float(bev.sum()) - mass) <= REL_TOL * scale:
        problems.append(f"splat mass {float(bev.sum())!r} != in-grid lifted mass {mass!r}")
    outside = int(in_grid.size - np.count_nonzero(in_grid))
    if dropped != outside:
        problems.append(f"splat dropped {dropped} points, {outside} lie outside the grid")
    return problems


def check_correlation(a, b, volume, radius, rng, pixels=32) -> list[str]:
    """Brute-force inner products at sampled pixels, every shift, zero padding."""
    _, h, w = a.shape
    side = 2 * radius + 1
    problems = []
    for x, y in zip(rng.integers(h, size=pixels), rng.integers(w, size=pixels)):
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                xx, yy = x + dx, y + dy
                expected, scale = 0.0, 0.0
                if 0 <= xx < h and 0 <= yy < w:
                    terms = a[:, x, y] * b[:, xx, yy]
                    expected, scale = math.fsum(terms), math.fsum(np.abs(terms))
                got = float(volume[(dy + radius) * side + (dx + radius), x, y])
                if not abs(got - expected) <= REL_TOL * scale:
                    problems.append(f"r{radius} correlation at ({x}, {y}) shift ({dx}, {dy}): {got!r} != {expected!r}")
    return problems


def pose_values(p) -> list[float]:
    return [p.theta, p.tx, p.ty]


def record_values(records) -> list:
    return [[r.anchor_id, r.partner_id, r.yaw_diff_deg, r.displacement_m] for r in records]


def pose_error(a, b) -> float:
    return max(abs(wrap_angle(a.theta - b.theta)), abs(a.tx - b.tx), abs(a.ty - b.ty))


def check_flow_round_trip(flow, motion) -> list[str]:
    """The noise-free flow of a motion solves back to that motion."""
    err = pose_error(solve_pose_from_flow(flow), motion)
    if not err <= FLOW_ROUND_TRIP_TOL:
        return [f"flow round trip off by {err:.3g}"]
    return []


def check_text_round_trip(fmt, original, parsed) -> list[str]:
    """parse(write(traj)): positions bit-exact, rotations and timestamps close."""
    if len(parsed) != len(original):
        return [f"{fmt}: {len(parsed)} poses parsed, {len(original)} written"]
    problems = []
    if not np.array_equal(parsed.positions, original.positions):
        problems.append(f"{fmt}: positions not bit-exact")
    rot = float(np.abs(parsed.poses[:, :3, :3] - original.poses[:, :3, :3]).max())
    if not rot <= ROTATION_TOL:
        problems.append(f"{fmt}: rotations off by {rot:.3g}")
    ts = float(np.abs(parsed.timestamps - original.timestamps).max())
    if not ts <= TIMESTAMP_TOL:
        problems.append(f"{fmt}: timestamps off by {ts:.3g}")
    return problems


def check_association(pairs, times_a, times_b) -> list[str]:
    """Matches are strictly increasing on both sides and within tolerance."""
    if not pairs:
        return ["association matched nothing"]
    ia, ib = np.array(pairs).T
    problems = []
    if np.any(np.diff(ia) <= 0) or np.any(np.diff(ib) <= 0):
        problems.append("association indices not strictly increasing")
    if np.any(np.abs(times_b[ib] - times_a[ia]) > ASSOC_MAX_DT_S):
        problems.append("association matched frames beyond its tolerance")
    return problems


def check_zero_noise(report) -> list[str]:
    """A zero-noise copy of a drive scores exactly zero."""
    values = (report.rte_percent, report.rre_deg_per_100m, report.ate_se3_m, report.ate_sim3_m)
    if any(v != 0.0 for v in values):
        return [f"zero-noise drive scored RTE/RRE/ATE {values}"]
    return []


CLI_KEYS = {
    "synth": {"out_gt", "out_est", "frames", "duration_s"},
    "sample-pairs": {"out", "draws", "available_high", "available_standard", "drawn_high_fraction"},
    "flow-make": {"out", "pose", "grid", "max_abs_du", "max_abs_dv"},
    "pose-from-flow": {"theta", "tx", "ty"},
    "eval-traj": {"rte_percent", "rre_deg_per_100m", "ate_se3_m", "ate_sim3_m", "per_length", "ate_m", "scale_curve"},
    "lss-project": {"out", "bev_shape", "dropped_points", "in_grid_mass"},
    "correlate-r3": {"out", "channels", "radius"},
    "correlate-r5": {"out", "channels", "radius"},
}


def check_cli(docs) -> list[str]:
    """Every step printed its keys; pose-from-flow recovers flow-make's motion."""
    problems = [
        f"{step}: output lacks {sorted(keys - set(docs.get(step, {})))}"
        for step, keys in CLI_KEYS.items()
        if not keys <= set(docs.get(step, {}))
    ]
    if problems:
        return problems
    made, solved = docs["flow-make"]["pose"], docs["pose-from-flow"]
    err = pose_error(Pose2(made["theta"], made["tx"], made["ty"]), Pose2(solved["theta"], solved["tx"], solved["ty"]))
    if not err <= CLI_POSE_TOL:
        problems.append(f"pose-from-flow off flow-make's motion by {err:.3g}")
    return problems


# ---------------------------------------------------------------------------
# workloads


class BevFrames:
    """One training sample: lift-splat, correlation, flow supervision, losses, BVT1."""

    rss_of_children = False
    min_ops = 1

    def __init__(self, seed, scale, tracer, workdir):
        self.seed, self.tracer = seed, tracer
        params = SCALES[scale]
        self.cfg = bevio.default_config()
        self.pv_shape = (params["channels"],) + params["image"]
        self.depth_shape = (self.cfg.depth_bins.size,) + params["image"]
        rng = np.random.default_rng([seed, 0])
        # planar motions of consecutive frames of a drive without stops, so
        # every pair moves and the 5-DoF direction loss is defined
        gt, _ = bevio.synth_trajectory(bevio.SynthSpec(drive_primitives(rng, 60, stops=False), dt_s=DT_S))
        self.drive = gt.poses
        self.prev_pv = rng.standard_normal(self.pv_shape)
        self.prev_bev = rng.standard_normal((params["channels"],) + self.cfg.grid.shape)
        frustum = build_frustum(self.cfg.camera, self.cfg.depth_bins, params["image"])
        self.in_grid = assign_cells(frustum, self.cfg.grid).in_grid

    def inputs(self, k):
        rng = np.random.default_rng(self.seed + k)
        i = k % (len(self.drive) - 1)
        return {
            "pv": rng.standard_normal(self.pv_shape),
            "depth": softmax_depth(rng, self.depth_shape[0], self.depth_shape[1:]),
            "flow_noise": 0.05 * rng.standard_normal((2,) + self.cfg.grid.shape),
            "poses": (self.drive[i], self.drive[i + 1]),
            "prev_pv": self.prev_pv,
            "prev_bev": self.prev_bev,
        }

    def op(self, inp):
        cfg, span = self.cfg, self.tracer.span
        with span("lss.project_volume"):
            bev, dropped = project_volume(
                FeatureMap(inp["pv"]), DepthDistribution(inp["depth"], cfg.depth_bins), cfg.camera, cfg.grid)
        with span("correlation.pv_r3"):
            vol_pv = local_correlation(FeatureMap(inp["prev_pv"]), FeatureMap(inp["pv"]), cfg.radius_pv)
        with span("correlation.bev_r5"):
            vol_bev = local_correlation(FeatureMap(inp["prev_bev"]), FeatureMap(bev), cfg.radius_bev)
        with span("geometry.relative_pose"):
            motion = pose3_to_pose2(relative_pose(Pose3(inp["poses"][0]), Pose3(inp["poses"][1])))
        with span("flow.construct_flow_gt"):
            gt_flow = construct_flow_gt(motion, cfg.grid)
        with span("flow.in_grid_mask"):
            mask = in_grid_mask(gt_flow)
        noisy = FlowField(gt_flow.data + inp["flow_noise"], cfg.grid)
        with span("flow.solve_pose_from_flow"):
            pred = solve_pose_from_flow(noisy, mask.astype(float))
        epe, _ = flow_error_map(noisy, gt_flow)
        with span("losses"):
            l_flow = l1_flow_loss(noisy, gt_flow, mask=mask)
            l_3dof = loss_3dof(pred, motion, cfg.loss_weights.alpha)
            p3, g3 = pose2_to_pose3(pred), pose2_to_pose3(motion)
            l_5dof = loss_5dof(p3.translation, p3.rotation, g3.translation, g3.rotation, cfg.loss_weights.beta)
            total = loss_total(l_3dof, l_5dof, l_flow, cfg.loss_weights)
        with span("io.bvt1_write"):
            blobs = (bevio.write_bvt1(bev), bevio.flow_to_bvt1(noisy))
        with span("io.bvt1_read"):
            bev_back = bevio.read_bvt1(blobs[0])
            flow_back = bevio.flow_from_bvt1(blobs[1], cfg.grid)
        self.prev_pv, self.prev_bev = inp["pv"], bev
        return {
            "bev": bev, "dropped": dropped, "vol_pv": vol_pv.data, "vol_bev": vol_bev.data,
            "motion": motion, "gt_flow": gt_flow, "noisy": noisy, "mask": mask, "pred": pred, "epe": epe,
            "losses": (l_flow, l_3dof, l_5dof, total), "blobs": blobs, "bev_back": bev_back, "flow_back": flow_back,
        }

    def check(self, k, inp, out) -> list[str]:
        rng = np.random.default_rng([self.seed + k, 2])
        problems = check_splat(out["bev"], out["dropped"], inp["pv"], inp["depth"], self.in_grid)
        problems += check_correlation(inp["prev_pv"], inp["pv"], out["vol_pv"], self.cfg.radius_pv, rng)
        problems += check_correlation(inp["prev_bev"], out["bev"], out["vol_bev"], self.cfg.radius_bev, rng)
        problems += check_flow_round_trip(out["gt_flow"], out["motion"])
        if not np.array_equal(out["bev_back"], out["bev"].astype(np.float32)):
            problems.append("BVT1 round trip changed the BEV tensor")
        if not np.array_equal(out["flow_back"].data, out["noisy"].data.astype(np.float32)):
            problems.append("BVT1 round trip changed the flow")
        return problems

    def digest_parts(self, inp, out):
        return [out["bev"], out["dropped"], out["vol_pv"], out["vol_bev"], out["gt_flow"].data, out["mask"],
                pose_values(out["pred"]), out["epe"], list(out["losses"]), *out["blobs"]]

    def items(self, inp, out) -> int:
        return 1

    def counters(self, inp, out, self_ms) -> dict:
        c, h, w = self.pv_shape
        d = self.depth_shape[0]
        side_pv, side_bev = 2 * self.cfg.radius_pv + 1, 2 * self.cfg.radius_bev + 1
        gh, gw = self.cfg.grid.shape
        macs = c * h * w * side_pv ** 2 + c * gh * gw * side_bev ** 2
        busy_s = (self_ms["correlation.pv_r3"] + self_ms["correlation.bev_r5"]) / 1e3
        return {
            "lss.points": d * h * w,
            "lss.dropped_ratio": out["dropped"] / (d * h * w),
            "lss.lifted_mb": c * d * h * w * 8 / 1e6,
            "correlation.gmac_per_s": macs / busy_s / 1e9,
            "flow.in_grid_ratio": float(out["mask"].mean()),
            "geometry.poses": 1,
            "io.bvt1_mb": sum(len(b) for b in out["blobs"]) / 1e6,
        }


class DriveEval:
    """One KITTI-00-length drive: synth, text io, association, pair mining, metrics."""

    rss_of_children = False
    # one 11 s op varies by +-15% from op to op on a noisy 2-core machine,
    # which gave a run-to-run spread of 0.2; a run times two
    min_ops = 2

    def __init__(self, seed, scale, tracer, workdir):
        self.seed, self.tracer = seed, tracer
        self.drive_s = SCALES[scale]["drive_s"]

    def spec(self, k, noisy=True):
        s = self.seed + k
        prims = drive_primitives(np.random.default_rng(s), self.drive_s)
        if not noisy:
            return bevio.SynthSpec(prims, dt_s=DT_S, seed=s)
        return bevio.SynthSpec(prims, dt_s=DT_S, noise_trans_m=0.02, noise_yaw_deg=0.1, scale_drift=1.03, seed=s)

    def inputs(self, k):
        rng = np.random.default_rng([self.seed + k, 1])
        frames = 10 * self.drive_s + 1
        # every other estimate frame, stamped with up to 25 ms of jitter
        stamps = np.arange(0, frames, 2) * DT_S + rng.uniform(-ASSOC_JITTER_S, ASSOC_JITTER_S, (frames + 1) // 2)
        return {"spec": self.spec(k), "est_stamps": stamps, "draw_seed": self.seed + k}

    def op(self, inp):
        span = self.tracer.span
        with span("io.synth_trajectory"):
            gt, est = bevio.synth_trajectory(inp["spec"])
        texts, parsed = {}, {}
        with span("io.write_tum"):
            texts["tum"] = bevio.write_tum_trajectory(est)
        with span("io.parse_tum"):
            parsed["tum"] = bevio.parse_tum_trajectory(texts["tum"])
        with span("io.write_kitti"):
            texts["kitti"] = bevio.write_kitti_poses(est)
        with span("io.parse_kitti"):
            parsed["kitti"] = bevio.parse_kitti_poses(texts["kitti"], est.timestamps)
        with span("io.write_csv"):
            texts["csv"] = bevio.write_csv_trajectory(est)
        with span("io.parse_csv"):
            parsed["csv"] = bevio.parse_csv_trajectory(texts["csv"])
        with span("io.associate"):
            matches = bevio.associate_by_timestamp(inp["est_stamps"], gt.timestamps, ASSOC_MAX_DT_S)
        with span("sampler.frames_from_trajectory"):
            frames = frames_from_trajectory(gt.timestamps, gt.poses)
        with span("sampler.build_pair_lists"):
            per_anchor = build_pair_lists(frames, WINDOW_S, MAX_DISP_M, LOW_DEG, HIGH_DEG)
        pool = merge_pair_lists(per_anchor)
        rng = np.random.default_rng(inp["draw_seed"])
        draws, motions = [], []
        for _ in range(DRAWS):
            with span("sampler.sample_pair"):
                rec = sample_pair(pool, rng)
            with span("geometry.relative_pose"):
                motions.append(pose3_to_pose2(relative_pose(frames[rec.anchor_id].pose, frames[rec.partner_id].pose)))
            draws.append(rec)
        est_file = parsed["tum"]
        with span("evaluation.evaluate_trajectories"):
            report = evaluate_trajectories(est_file, gt, scale_init_10m=True)
        with span("evaluation.log_scale_curve"):
            curve = log_scale_curve(scale_trajectory(est_file, report.scale_init), gt)
        texts["pairs"] = bevio.write_pairs_csv(draws)
        texts["curve"] = bevio.write_scale_curve_csv(curve)
        return {"gt": gt, "est": est, "texts": texts, "parsed": parsed, "matches": matches, "pool": pool,
                "draws": draws, "motions": motions, "report": report}

    def check(self, k, inp, out) -> list[str]:
        est = out["est"]
        problems = []
        for fmt, traj in out["parsed"].items():
            problems += check_text_round_trip(fmt, est, traj)
        problems += check_association(out["matches"], inp["est_stamps"], out["gt"].timestamps)
        for rec, motion in zip(out["draws"], out["motions"]):
            if (rec.yaw_diff_deg != abs(math.degrees(motion.theta)) or rec.yaw_diff_deg > HIGH_DEG
                    or rec.displacement_m > MAX_DISP_M):
                problems.append(f"drawn pair {rec} disagrees with its relative pose {motion}")
                break
        if k == 1:
            gt, est0 = bevio.synth_trajectory(self.spec(k, noisy=False))
            problems += check_zero_noise(evaluate_trajectories(est0, gt, scale_init_10m=True))
        return problems

    def digest_parts(self, inp, out):
        return [out["gt"].poses, out["est"].poses, *(out["texts"][key] for key in sorted(out["texts"])),
                *(out["parsed"][fmt].poses for fmt in sorted(out["parsed"])), out["matches"],
                record_values(out["pool"].high), record_values(out["pool"].standard), record_values(out["draws"]),
                [pose_values(m) for m in out["motions"]], out["report"].to_dict()]

    def items(self, inp, out) -> int:
        return len(out["gt"])

    def counters(self, inp, out, self_ms) -> dict:
        times = out["gt"].timestamps
        lo = np.searchsorted(times, times - WINDOW_S, side="left")
        hi = np.searchsorted(times, times + WINDOW_S, side="right")
        candidates = int((hi - lo - 1).sum())
        admitted = len(out["pool"])
        return {
            "sampler.candidates": candidates,
            "sampler.admitted": admitted,
            "sampler.admit_ratio": admitted / candidates,
            "sampler.high_share": sum(r.yaw_diff_deg >= LOW_DEG for r in out["draws"]) / len(out["draws"]),
            "evaluation.segments": sum(n for _, _, n in out["report"].per_length.values()),
            "geometry.poses": len(out["motions"]),
            "io.text_mb": sum(len(t) for t in out["texts"].values()) / 1e6,
            "io.match_ratio": len(out["matches"]) / len(inp["est_stamps"]),
        }


class CliPipe:
    """One pass of a shell pipe: eight ``bevkit`` processes, one after another."""

    rss_of_children = True
    min_ops = 1
    OUTPUT_FILES = ("gt.tum", "est.tum", "pairs.csv", "flow.bvt1", "curve.csv", "bev.bvt1", "vol_r3.bvt1",
                    "vol_r5.bvt1")

    def __init__(self, seed, scale, tracer, workdir):
        self.seed, self.tracer = seed, tracer
        params = SCALES[scale]
        self.cfg = bevio.default_config()
        self.pv_shape = (params["channels"],) + params["image"]
        self.bev_shape = (params["channels"],) + self.cfg.grid.shape
        self.dir = Path(workdir) / "pipe"
        self.launch = cli_launch()

    def inputs(self, k):
        s = self.seed + k
        rng = np.random.default_rng(s)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        turn = 1.0 if rng.random() < 0.5 else -1.0
        # a 20 s drive (201 frames): straight, stop, slow sharp turn, straight
        spec = {
            "primitives": [
                {"kind": "straight", "duration_s": 8.0, "speed_mps": float(rng.uniform(9.0, 12.0))},
                {"kind": "stop", "duration_s": 3.0},
                {"kind": "arc", "duration_s": 3.0, "speed_mps": float(rng.uniform(2.0, 3.0)),
                 "yaw_rate_dps": turn * float(rng.uniform(30.0, 40.0))},
                {"kind": "straight", "duration_s": 6.0, "speed_mps": float(rng.uniform(9.0, 12.0))},
            ],
            "dt_s": DT_S, "noise_trans_m": 0.02, "noise_yaw_deg": 0.1, "scale_drift": 1.03, "seed": s,
        }
        (self.dir / "spec.json").write_text(json.dumps(spec))
        (self.dir / "config.json").write_text("{}")
        tensors = {
            "feat_t": rng.standard_normal(self.pv_shape),
            "feat_t1": rng.standard_normal(self.pv_shape),
            "depth": softmax_depth(rng, self.cfg.depth_bins.size, self.pv_shape[1:]),
            "bev_t": rng.standard_normal(self.bev_shape),
        }
        for name, array in tensors.items():
            (self.dir / f"{name}.bvt1").write_bytes(bevio.write_bvt1(array))
        return {"draw_seed": s}

    def step(self, name, *args):
        with self.tracer.span(f"cli.{name}"):
            proc = subprocess.run(self.launch + list(args), cwd=self.dir, capture_output=True, text=True,
                                  timeout=CLI_STEP_TIMEOUT_S)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RuntimeError(f"{name} exited {proc.returncode}: {last[0]}")
        return json.loads(proc.stdout)

    def op(self, inp):
        docs = {"synth": self.step("synth", "synth", "--spec", "spec.json", "--out-gt", "gt.tum", "--out-est", "est.tum")}
        docs["sample-pairs"] = self.step("sample-pairs", "sample-pairs", "--traj", "gt.tum", "--config", "config.json",
                                         "--out", "pairs.csv", "--seed", str(inp["draw_seed"]))
        anchor, partner = (self.dir / "pairs.csv").read_text().splitlines()[1].split(",")[:2]
        docs["flow-make"] = self.step("flow-make", "flow-make", "--rel-from", "gt.tum", "--indices",
                                      f"{anchor},{partner}", "--config", "config.json", "--out", "flow.bvt1")
        docs["pose-from-flow"] = self.step("pose-from-flow", "pose-from-flow", "--flow", "flow.bvt1",
                                           "--config", "config.json")
        docs["eval-traj"] = self.step("eval-traj", "eval-traj", "--est", "est.tum", "--gt", "gt.tum",
                                      "--align", "sim3", "--scale-curve", "curve.csv")
        docs["lss-project"] = self.step("lss-project", "lss-project", "--features", "feat_t1.bvt1", "--depth",
                                        "depth.bvt1", "--config", "config.json", "--out", "bev.bvt1")
        docs["correlate-r3"] = self.step("correlate-r3", "correlate", "--a", "feat_t.bvt1", "--b", "feat_t1.bvt1",
                                         "--radius", str(self.cfg.radius_pv), "--out", "vol_r3.bvt1")
        docs["correlate-r5"] = self.step("correlate-r5", "correlate", "--a", "bev_t.bvt1", "--b", "bev.bvt1",
                                         "--radius", str(self.cfg.radius_bev), "--out", "vol_r5.bvt1")
        return docs

    def check(self, k, inp, out) -> list[str]:
        problems = check_cli(out)
        if not problems and out["synth"]["frames"] != 201:
            problems.append(f"synth wrote {out['synth']['frames']} frames, expected 201")
        return problems

    def digest_parts(self, inp, out):
        return [out, *((self.dir / name).read_bytes() for name in self.OUTPUT_FILES)]

    def items(self, inp, out) -> int:
        return 1

    def counters(self, inp, out, self_ms) -> dict:
        return {}


WORKLOADS = {"bev_frames": BevFrames, "drive_eval": DriveEval, "cli_pipe": CliPipe}


def startup_samples(tracer, samples=3):
    """Time ``bevkit --help`` processes as ``cli.startup`` spans."""
    for i in range(samples):
        tracer.op_id = f"startup-{i}"
        with tracer.span("cli.startup"):
            subprocess.run(cli_launch() + ["--help"], capture_output=True, check=True, timeout=CLI_STEP_TIMEOUT_S)
