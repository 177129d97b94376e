"""Command-line entry points.

Every subcommand writes a JSON result to stdout and diagnostics to
stderr.  Exit codes: 0 on success, 1 on operational failures (bad files,
degenerate inputs), 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as bevio
from .correlation import CorrelationVolume, FeatureMap, concat_volumes, local_correlation
from .errors import ShapeError
from .evaluation import (
    DEFAULT_SEGMENT_LENGTHS_M,
    Trajectory,
    evaluate_trajectories,
    log_scale_curve,
    scale_trajectory,
)
from .flow import construct_flow_gt, solve_pose_from_flow
from .geometry import Pose2, pose3_to_pose2, relative_pose, Pose3
from .lss import DepthDistribution, project_volume
from .sampler import (
    build_pair_lists,
    frames_from_trajectory,
    merge_pair_lists,
    sample_pair,
    sampling_stats,
)


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _log(message: str):
    print(f"bevkit: {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_config(path: str | None) -> bevio.PipelineConfig:
    if path is None:
        return bevio.default_config()
    return bevio.parse_config(_read_text(path))


def _load_trajectory(path: str, fmt: str):
    return bevio.parse_trajectory(_read_text(path), fmt)


def _parse_pose_arg(text: str) -> Pose2:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--pose needs 'theta,tx,ty', got {text!r}")
    theta, tx, ty = (float(p) for p in parts)
    return Pose2(theta, tx, ty)


def _cmd_flow_make(args) -> int:
    cfg = _load_config(args.config)
    if args.pose is not None:
        pose = _parse_pose_arg(args.pose)
    else:
        traj = _load_trajectory(args.rel_from, args.format)
        i, j = (int(x) for x in args.indices.split(","))
        n = len(traj)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"indices ({i}, {j}) out of range for {n} frames")
        rel = relative_pose(Pose3(traj.poses[i]), Pose3(traj.poses[j]))
        pose = pose3_to_pose2(rel)
    flow = construct_flow_gt(pose, cfg.grid)
    Path(args.out).write_bytes(bevio.flow_to_bvt1(flow))
    _emit(
        {
            "out": args.out,
            "pose": {"theta": pose.theta, "tx": pose.tx, "ty": pose.ty},
            "grid": {
                "height_px": cfg.grid.height_px,
                "width_px": cfg.grid.width_px,
                "resolution_m": cfg.grid.resolution_m,
                "origin_px": list(cfg.grid.origin_px),
            },
            "max_abs_du": float(np.abs(flow.data[0]).max()),
            "max_abs_dv": float(np.abs(flow.data[1]).max()),
        }
    )
    return 0


def _cmd_pose_from_flow(args) -> int:
    cfg = _load_config(args.config)
    flow = bevio.flow_from_bvt1(_read_bytes(args.flow), cfg.grid)
    weights = None
    if args.weights is not None:
        w = bevio.read_bvt1(_read_bytes(args.weights))
        if w.shape != cfg.grid.shape:
            raise ShapeError(f"weights shape {w.shape} does not match grid {cfg.grid.shape}")
        weights = w.astype(float)
    pose = solve_pose_from_flow(flow, weights)
    _emit({"theta": pose.theta, "tx": pose.tx, "ty": pose.ty})
    return 0


def _cmd_eval_traj(args) -> int:
    est = _load_trajectory(args.est, args.format)
    gt = _load_trajectory(args.gt, args.format)
    if len(est) != len(gt) or not np.array_equal(est.timestamps, gt.timestamps):
        pairs = bevio.associate_by_timestamp(est.timestamps, gt.timestamps, args.max_dt)
        if len(pairs) < 2:
            raise ValueError(
                f"timestamp association failed: only {len(pairs)} match(es) "
                f"within {args.max_dt:g} s"
            )
        ei = [i for i, _ in pairs]
        gi = [j for _, j in pairs]
        est = Trajectory(est.timestamps[ei], est.poses[ei])
        gt = Trajectory(gt.timestamps[gi], gt.poses[gi])
        _log(f"associated {len(pairs)} frame pairs by timestamp")
    lengths = DEFAULT_SEGMENT_LENGTHS_M
    if args.lengths:
        lengths = tuple(float(x) for x in args.lengths.split(","))
    report = evaluate_trajectories(
        est,
        gt,
        lengths_m=lengths,
        stride=args.stride,
        scale_init_10m=args.scale_init_10m,
    )
    doc = report.to_dict()
    doc["ate_m"] = report.ate_sim3_m if args.align == "sim3" else report.ate_se3_m
    doc["align"] = args.align
    if args.scale_curve is not None:
        est_for_curve = est
        if args.scale_init_10m and report.scale_init is not None:
            est_for_curve = scale_trajectory(est, report.scale_init)
        curve = log_scale_curve(est_for_curve, gt, segment_m=args.scale_curve_segment_m)
        Path(args.scale_curve).write_text(bevio.write_scale_curve_csv(curve))
        doc["scale_curve"] = args.scale_curve
        if curve.skipped:
            _log(f"scale curve skipped {len(curve.skipped)} zero-motion segment(s)")
    _emit(doc)
    return 0


def _cmd_sample_pairs(args) -> int:
    cfg = _load_config(args.config)
    traj = _load_trajectory(args.traj, args.format)
    frames = frames_from_trajectory(traj.timestamps, traj.poses)
    per_anchor = build_pair_lists(
        frames,
        window_s=cfg.sampler.window_s,
        max_disp_m=cfg.sampler.max_disp_m,
        low_deg=cfg.sampler.low_deg,
        high_deg=cfg.sampler.high_deg,
    )
    merged = merge_pair_lists(per_anchor)
    if not merged.high:
        _log("no high-rotation pairs found; all draws will come from the standard list")
    rng = np.random.default_rng(args.seed)
    records = [sample_pair(merged, rng) for _ in range(args.draws)]
    Path(args.out).write_text(bevio.write_pairs_csv(records))
    stats = sampling_stats(records, low_deg=cfg.sampler.low_deg)
    _emit(
        {
            "out": args.out,
            "draws": args.draws,
            "available_high": len(merged.high),
            "available_standard": len(merged.standard),
            "drawn_high_fraction": stats.high_fraction,
        }
    )
    return 0


def _cmd_correlate(args) -> int:
    a = bevio.read_bvt1(_read_bytes(args.a)).astype(float)
    b = bevio.read_bvt1(_read_bytes(args.b)).astype(float)
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError("feature tensors must have shape (C, H, W)")
    vol_a = local_correlation(FeatureMap(a), FeatureMap(b), args.radius, normalize=args.normalize)
    out_data = vol_a.data
    if args.concat_with is not None:
        extra = bevio.read_bvt1(_read_bytes(args.concat_with)).astype(float)
        side_sq = extra.shape[0]
        side = int(round(side_sq ** 0.5))
        if side * side != side_sq:
            raise ShapeError(f"{args.concat_with}: channel count {side_sq} is not a square")
        out_data = concat_volumes(vol_a, CorrelationVolume(extra, (side - 1) // 2))
    Path(args.out).write_bytes(bevio.write_bvt1(out_data))
    _emit({"out": args.out, "channels": int(out_data.shape[0]), "radius": args.radius})
    return 0


def _cmd_lss_project(args) -> int:
    cfg = _load_config(args.config)
    feats = bevio.read_bvt1(_read_bytes(args.features)).astype(float)
    depth = bevio.read_bvt1(_read_bytes(args.depth)).astype(float)
    if feats.ndim != 3:
        raise ShapeError(f"features must have shape (C, H, W), got {feats.shape}")
    if depth.ndim != 3:
        raise ShapeError(f"depth must have shape (D, H, W), got {depth.shape}")
    if depth.shape[0] != cfg.depth_bins.size:
        raise ShapeError(
            f"depth has {depth.shape[0]} bins but config declares {cfg.depth_bins.size}"
        )
    dist = DepthDistribution(depth, cfg.depth_bins, normalized=args.normalized)
    bev, dropped = project_volume(FeatureMap(feats), dist, cfg.camera, cfg.grid)
    Path(args.out).write_bytes(bevio.write_bvt1(bev))
    _emit(
        {
            "out": args.out,
            "bev_shape": list(bev.shape),
            "dropped_points": dropped,
            "in_grid_mass": float(bev.sum()),
        }
    )
    return 0


def _cmd_synth(args) -> int:
    spec = bevio.parse_synth_spec(_read_text(args.spec))
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    gt, est = bevio.synth_trajectory(spec)
    Path(args.out_gt).write_text(bevio.write_trajectory(gt, args.format))
    Path(args.out_est).write_text(bevio.write_trajectory(est, args.format))
    _emit(
        {
            "out_gt": args.out_gt,
            "out_est": args.out_est,
            "frames": len(gt),
            "duration_s": float(gt.timestamps[-1] - gt.timestamps[0]),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevkit",
        description="BEV odometry toolkit: flow supervision, projection, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow-make", help="construct dense BEV flow from a planar motion")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pose", help="relative motion as 'theta,tx,ty' (radians, meters)")
    src.add_argument("--rel-from", help="trajectory file; motion comes from a frame pair")
    p.add_argument("--indices", default="0,1", help="frame pair 'i,j' for --rel-from")
    p.add_argument("--format", default="tum", choices=("kitti", "tum", "csv"))
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output flow tensor (BVT1)")
    p.set_defaults(func=_cmd_flow_make)

    p = sub.add_parser("pose-from-flow", help="recover planar motion from a flow tensor")
    p.add_argument("--flow", required=True, help="input flow tensor (BVT1)")
    p.add_argument("--weights", help="optional per-pixel weights tensor (BVT1)")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.set_defaults(func=_cmd_pose_from_flow)

    p = sub.add_parser("eval-traj", help="trajectory metrics against ground truth")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--format", default="tum", choices=("kitti", "tum", "csv"))
    p.add_argument("--align", default="se3", choices=("se3", "sim3"))
    p.add_argument("--lengths", help="comma-separated segment lengths in meters")
    p.add_argument("--stride", type=int, default=1, help="start-frame stride")
    p.add_argument(
        "--max-dt",
        type=float,
        default=0.02,
        help="association tolerance (s) when est/gt timestamps differ",
    )
    p.add_argument(
        "--scale-init-10m",
        action="store_true",
        help="rescale the estimate using the first 10 m of ground-truth path",
    )
    p.add_argument("--scale-curve", help="write per-segment log2 scale CSV here")
    p.add_argument("--scale-curve-segment-m", type=float, default=10.0)
    p.set_defaults(func=_cmd_eval_traj)

    p = sub.add_parser("sample-pairs", help="draw rotation-balanced training pairs")
    p.add_argument("--traj", required=True)
    p.add_argument("--format", default="tum", choices=("kitti", "tum", "csv"))
    p.add_argument("--config", help="pipeline config JSON (sampler thresholds)")
    p.add_argument("--out", required=True, help="output pairs CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=1000)
    p.set_defaults(func=_cmd_sample_pairs)

    p = sub.add_parser("correlate", help="local correlation volume of two feature tensors")
    p.add_argument("--a", required=True, help="frame-t features (BVT1, C x H x W)")
    p.add_argument("--b", required=True, help="frame-t+1 features (BVT1)")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--normalize", action="store_true", help="divide scores by channel count")
    p.add_argument("--concat-with", help="append channels of another volume (BVT1)")
    p.add_argument("--out", required=True, help="output volume (BVT1)")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("lss-project", help="lift-splat features onto the BEV grid")
    p.add_argument("--features", required=True, help="image features (BVT1, C x H x W)")
    p.add_argument("--depth", required=True, help="depth weights (BVT1, D x H x W)")
    p.add_argument("--normalized", action="store_true", help="require per-pixel depth sums of 1")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output BEV tensor (BVT1)")
    p.set_defaults(func=_cmd_lss_project)

    p = sub.add_parser("synth", help="generate a synthetic drive and corrupted estimate")
    p.add_argument("--spec", required=True, help="synth spec JSON")
    p.add_argument("--seed", type=int, help="override the spec's noise seed")
    p.add_argument("--format", default="tum", choices=("kitti", "tum", "csv"))
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-est", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
