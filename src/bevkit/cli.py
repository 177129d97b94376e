"""Command-line entry points.

Every subcommand returns a JSON document, which ``main`` writes to
stdout; diagnostics go to stderr.  Exit codes: 0 on success, 1 on
operational failures (bad files, degenerate inputs), 2 on usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The handlers import what they run, so a process loads only its own
# subcommand's modules; the parser needs the text rules alone.
from .text import (AT_LEAST_ZERO, FINITE_POSITIVE, TRAJECTORY_FORMATS, Rows, check_arg, integer_in, read_number,
                   read_rows)

MAX_DRAWS = 2**20  # sample-pairs --draws: one CSV line each


def _log(message: str):
    print(f"bevkit: {message}", file=sys.stderr)


def _load_config(path: str | None):
    from .config import default_config, parse_config

    if path is None:
        return default_config()
    return parse_config(Path(path).read_text())


def _option_row(option: str, text: str, count: int | None, kind: type = float) -> list:
    """The numbers of a comma-separated option value, read as one row by the text formats' row reader."""
    rows, _, failure = read_rows([(None, text)], Rows(count, ",", kind, blank="empty value"))
    if failure is not None:
        raise ValueError(f"{option}: {failure}")
    return rows[0]


def _number(kind: type):
    """An argparse ``type=`` reading ``kind`` by the text inputs' number rule, named ``kind`` in refusals."""

    def read(text: str):
        return read_number(kind, text)

    read.__name__ = kind.__name__
    return read


def _tensor(path: str):
    """The float32 array of the BVT1 file at ``path``."""
    from .bvt1 import read_bvt1

    return read_bvt1(Path(path).read_bytes())


def _cmd_flow_make(args) -> dict:
    from .errors import FormatError
    from .flow import construct_flow_gt, flow_to_bvt1
    from .geometry import Pose2, Pose3, pose3_to_pose2, relative_pose

    cfg = _load_config(args.config)
    if args.pose is not None:
        pose = Pose2(*_option_row("--pose", args.pose, 3))
    else:
        from .formats import parse_trajectory

        traj = parse_trajectory(Path(args.rel_from).read_text(), args.format)
        i, j = _option_row("--indices", args.indices, 2, int)
        n = len(traj)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"indices ({i}, {j}) out of range for {n} frames")
        rel = relative_pose(Pose3(traj.poses[i]), Pose3(traj.poses[j]))
        pose = pose3_to_pose2(rel)
    flow = construct_flow_gt(pose, cfg.grid)
    try:
        data = flow_to_bvt1(flow)
    except FormatError as exc:  # the one refusal a finite flow meets: a component past float32
        grid = cfg.grid
        raise FormatError(f"flow target of pose (theta {pose.theta:g}, tx {pose.tx:g} m, ty {pose.ty:g} m) on the "
                          f"{grid.height_px}x{grid.width_px} grid at {grid.resolution_m:g} m/px: {exc}") from None
    Path(args.out).write_bytes(data)
    return {
        "out": args.out,
        "pose": {"theta": pose.theta, "tx": pose.tx, "ty": pose.ty},
        "grid": {
            "height_px": cfg.grid.height_px,
            "width_px": cfg.grid.width_px,
            "resolution_m": cfg.grid.resolution_m,
            "origin_px": list(cfg.grid.origin_px),
        },
        "max_abs_du": float(abs(flow.data[0]).max()),
        "max_abs_dv": float(abs(flow.data[1]).max()),
    }


def _cmd_pose_from_flow(args) -> dict:
    from .flow import flow_from_bvt1, solve_pose_from_flow

    cfg = _load_config(args.config)
    flow = flow_from_bvt1(Path(args.flow).read_bytes(), cfg.grid)
    weights = None if args.weights is None else _tensor(args.weights)
    pose = solve_pose_from_flow(flow, weights)
    return {"theta": pose.theta, "tx": pose.tx, "ty": pose.ty}


def _cmd_eval_traj(args) -> dict:
    import numpy as np

    from .evaluation import DEFAULT_SEGMENT_LENGTHS_M, evaluate_trajectories, log_scale_curve, scale_trajectory
    from .formats import associate_by_timestamp, parse_trajectory, write_scale_curve_csv
    from .geometry import Trajectory

    # checked here, though the drive may need neither: a malformed option is refused either way
    check_arg("--max-dt", args.max_dt, AT_LEAST_ZERO)
    check_arg("--scale-curve-segment-m", args.scale_curve_segment_m, FINITE_POSITIVE)
    est = parse_trajectory(Path(args.est).read_text(), args.format)
    gt = parse_trajectory(Path(args.gt).read_text(), args.format)
    if len(est) != len(gt) or not np.array_equal(est.timestamps, gt.timestamps):
        pairs = associate_by_timestamp(est.timestamps, gt.timestamps, args.max_dt)
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
    lengths = tuple(_option_row("--lengths", args.lengths, None)) if args.lengths else DEFAULT_SEGMENT_LENGTHS_M
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
        if args.scale_init_10m:
            est_for_curve = scale_trajectory(est, report.scale_init)
        curve = log_scale_curve(est_for_curve, gt, segment_m=args.scale_curve_segment_m)
        Path(args.scale_curve).write_text(write_scale_curve_csv(curve))
        doc["scale_curve"] = args.scale_curve
        if curve.skipped:
            _log(f"scale curve skipped {len(curve.skipped)} zero-motion segment(s)")
    return doc


def _cmd_sample_pairs(args) -> dict:
    import numpy as np

    from .formats import parse_trajectory, write_pairs_csv
    from .sampler import build_pair_lists, frames_from_trajectory, merge_pair_lists, sample_pair

    check_arg("--draws", args.draws, integer_in(1, MAX_DRAWS))
    check_arg("--seed", args.seed, integer_in(0))
    cfg = _load_config(args.config)
    traj = parse_trajectory(Path(args.traj).read_text(), args.format)
    frames = frames_from_trajectory(traj.timestamps, traj.poses)
    per_anchor = build_pair_lists(
        frames,
        window_s=cfg.sampler.window_s,
        max_disp_m=cfg.sampler.max_disp_m,
        low_deg=cfg.sampler.low_deg,
        high_deg=cfg.sampler.high_deg,
    )
    merged = merge_pair_lists(per_anchor)
    if merged.standard and not merged.high:
        _log("no high-rotation pairs found; all draws will come from the standard list")
    rng = np.random.default_rng(args.seed)
    records = [sample_pair(merged, rng) for _ in range(args.draws)]
    Path(args.out).write_text(write_pairs_csv(records))
    return {
        "out": args.out,
        "draws": args.draws,
        "available_high": len(merged.high),
        "available_standard": len(merged.standard),
        "drawn_high_fraction": sum(r.yaw_diff_deg >= cfg.sampler.low_deg for r in records) / len(records),
    }


def _cmd_correlate(args) -> dict:
    from .bvt1 import write_bvt1
    from .correlation import CorrelationVolume, FeatureMap, concat_volumes, local_correlation

    # each decoded tensor goes straight into its float32 map, and no name holds an input past its last use
    volume = local_correlation(FeatureMap(_tensor(args.a)), FeatureMap(_tensor(args.b)), args.radius,
                               normalize=args.normalize)
    if args.concat_with is None:
        out_data = volume.data
    else:
        out_data = concat_volumes(volume, CorrelationVolume(_tensor(args.concat_with)))
    del volume  # with --concat-with, the first volume goes before the output is encoded
    Path(args.out).write_bytes(write_bvt1(out_data))
    return {"out": args.out, "channels": int(out_data.shape[0]), "radius": args.radius}


def _cmd_lss_project(args) -> dict:
    from .bvt1 import write_bvt1
    from .correlation import FeatureMap
    from .errors import ShapeError
    from .lss import DepthDistribution, project_volume

    cfg = _load_config(args.config)

    def depth_distribution():
        depth = _tensor(args.depth)
        if depth.shape[0] != cfg.depth_bins.size:
            raise ShapeError(f"depth has {depth.shape[0]} bins but config declares {cfg.depth_bins.size}")
        return DepthDistribution(depth, cfg.depth_bins, normalized=args.normalized)

    # the inputs live only as arguments of the call, so they are freed before the output is encoded
    bev, dropped = project_volume(FeatureMap(_tensor(args.features)), depth_distribution(), cfg.camera, cfg.grid)
    Path(args.out).write_bytes(write_bvt1(bev))
    return {
        "out": args.out,
        "bev_shape": list(bev.shape),
        "dropped_points": dropped,
        "in_grid_mass": float(bev.sum()),
    }


def _cmd_synth(args) -> dict:
    from dataclasses import replace

    from .formats import write_trajectory
    from .synth import parse_synth_spec, synth_trajectory

    spec = parse_synth_spec(Path(args.spec).read_text())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    gt, est = synth_trajectory(spec)
    Path(args.out_gt).write_text(write_trajectory(gt, args.format))
    Path(args.out_est).write_text(write_trajectory(est, args.format))
    return {
        "out_gt": args.out_gt,
        "out_est": args.out_est,
        "frames": len(gt),
        "duration_s": float(gt.timestamps[-1] - gt.timestamps[0]),
    }


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
    p.add_argument("--format", default="tum", choices=TRAJECTORY_FORMATS)
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
    p.add_argument("--format", default="tum", choices=TRAJECTORY_FORMATS)
    p.add_argument("--align", default="se3", choices=("se3", "sim3"))
    p.add_argument("--lengths", help="comma-separated segment lengths in meters")
    p.add_argument("--stride", type=_number(int), default=1, help="start-frame stride")
    p.add_argument(
        "--max-dt",
        type=_number(float),
        default=0.02,
        help="association tolerance (s) when est/gt timestamps differ",
    )
    p.add_argument(
        "--scale-init-10m",
        action="store_true",
        help="rescale the estimate using the first 10 m of ground-truth path",
    )
    p.add_argument("--scale-curve", help="write per-segment log2 scale CSV here")
    p.add_argument("--scale-curve-segment-m", type=_number(float), default=10.0)
    p.set_defaults(func=_cmd_eval_traj)

    p = sub.add_parser("sample-pairs", help="draw rotation-balanced training pairs")
    p.add_argument("--traj", required=True)
    p.add_argument("--format", default="tum", choices=TRAJECTORY_FORMATS)
    p.add_argument("--config", help="pipeline config JSON (sampler thresholds)")
    p.add_argument("--out", required=True, help="output pairs CSV")
    p.add_argument("--seed", type=_number(int), default=0)
    p.add_argument("--draws", type=_number(int), default=1000)
    p.set_defaults(func=_cmd_sample_pairs)

    p = sub.add_parser("correlate", help="local correlation volume of two feature tensors")
    p.add_argument("--a", required=True, help="frame-t features (BVT1, C x H x W)")
    p.add_argument("--b", required=True, help="frame-t+1 features (BVT1)")
    p.add_argument("--radius", type=_number(int), required=True)
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
    p.add_argument("--seed", type=_number(int), help="override the spec's noise seed")
    p.add_argument("--format", default="tum", choices=TRAJECTORY_FORMATS)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-est", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS sizes its pool once, when numpy loads it. No BLAS call in bevkit is
        # large enough for a second thread, and an idle worker spins; the CLI's own
        # parallel work runs on bevkit._threads. A caller that loaded numpy keeps its pool.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        json.dump(args.func(args), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
