"""The benchmark's own tests, at the tiny scale.

    python3 -m pytest bench/test_bench.py

Every workload runs end to end and traced, and prints every metric of
BENCHMARK.json with its unit; every output check rejects a corrupted
output; equal seeds give equal digests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from bevkit.evaluation import Trajectory  # noqa: E402
from bevkit.geometry import Pose2  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """Each workload once untraced and once traced, at the tiny scale."""
    out = {}
    for workload in ("bev_frames", "drive_eval", "cli_pipe"):
        for trace in ("0", "1"):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
                         "--scale", "tiny")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout.splitlines()
    return out


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", ["bev_frames", "drive_eval", "cli_pipe"])
def test_workload_prints_every_metric_with_its_unit(runs, workload, trace, section):
    lines = runs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1]), name
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    else:
        assert any(line.startswith("bench: tracing overhead") for line in lines)


def test_every_per_layer_metric_is_measured_by_some_workload(runs):
    measured = set()
    for workload in ("bev_frames", "drive_eval", "cli_pipe"):
        measured |= {line.split()[0] for line in runs[workload, "1"][:-1]
                     if line.startswith("  ") and "not run by this workload" not in line}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_refuses_a_checkout_without_bevkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bev_frames", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def run_op(workload_cls, seed, k, tmp_path):
    workload = workload_cls(seed, "tiny", Tracer(), tmp_path)
    for i in range(k):
        workload.op(workload.inputs(i))
    inp = workload.inputs(k)
    return workload, inp, workload.op(inp)


@pytest.mark.parametrize("workload_cls", [wl.BevFrames, wl.DriveEval])
def test_equal_seeds_give_equal_digests(workload_cls, tmp_path):
    digests = [wl.digest(w.digest_parts(inp, out)) for w, inp, out in
               (run_op(workload_cls, seed, 1, tmp_path) for seed in (5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def bev_op(tmp_path_factory):
    return run_op(wl.BevFrames, 2, 1, tmp_path_factory.mktemp("bev"))


def test_bev_frames_checks_pass_on_true_outputs(bev_op):
    workload, inp, out = bev_op
    assert workload.check(1, inp, out) == []


def test_splat_check_rejects_one_perturbed_cell_and_a_wrong_drop_count(bev_op):
    workload, inp, out = bev_op
    args = (inp["pv"], inp["depth"], workload.in_grid)
    bev = out["bev"].copy()
    bev[0, 64, 64] += 1e-3
    assert wl.check_splat(bev, out["dropped"], *args)
    assert wl.check_splat(out["bev"], out["dropped"] + 1, *args)


@pytest.mark.parametrize("which, radius", [("pv", 3), ("bev", 5)])
def test_correlation_check_rejects_one_perturbed_shift(bev_op, which, radius):
    _, inp, out = bev_op
    a, b = (inp["prev_pv"], inp["pv"]) if which == "pv" else (inp["prev_bev"], out["bev"])
    volume = out[f"vol_{which}"].copy()
    assert not wl.check_correlation(a, b, volume, radius, np.random.default_rng(0))
    volume[7] *= 1 + 1e-6
    volume[7] += 1e-6
    assert wl.check_correlation(a, b, volume, radius, np.random.default_rng(0))


def test_flow_check_rejects_a_wrong_pose(bev_op):
    _, _, out = bev_op
    motion = out["motion"]
    assert not wl.check_flow_round_trip(out["gt_flow"], motion)
    assert wl.check_flow_round_trip(out["gt_flow"], Pose2(motion.theta + 1e-7, motion.tx, motion.ty))


@pytest.fixture(scope="module")
def drive_op(tmp_path_factory):
    return run_op(wl.DriveEval, 2, 1, tmp_path_factory.mktemp("drive"))


def test_drive_eval_checks_pass_on_true_outputs(drive_op):
    workload, inp, out = drive_op
    assert workload.check(1, inp, out) == []


def test_text_check_rejects_one_ulp_position_rotation_and_timestamp_errors(drive_op):
    _, _, out = drive_op
    est = out["est"]
    assert not wl.check_text_round_trip("tum", est, out["parsed"]["tum"])
    for index, delta in (((5, 0, 3), "ulp"), ((5, 0, 1), 1e-11)):
        poses = est.poses.copy()
        poses[index] = np.nextafter(poses[index], np.inf) if delta == "ulp" else poses[index] + delta
        assert wl.check_text_round_trip("tum", est, Trajectory(est.timestamps, poses))
    stamps = est.timestamps.copy()
    stamps[5] += 1e-8
    assert wl.check_text_round_trip("tum", est, Trajectory(stamps, est.poses))


def test_association_check_rejects_far_or_unordered_matches(drive_op):
    _, inp, out = drive_op
    times_a, times_b = inp["est_stamps"], out["gt"].timestamps
    assert not wl.check_association(out["matches"], times_a, times_b)
    i, j = out["matches"][3]
    assert wl.check_association([(i, j + 1)], times_a, times_b)
    assert wl.check_association(out["matches"][:2][::-1], times_a, times_b)


def test_zero_noise_check_rejects_any_nonzero_error():
    zero = dict(rte_percent=0.0, rre_deg_per_100m=0.0, ate_se3_m=0.0, ate_sim3_m=0.0)
    assert not wl.check_zero_noise(SimpleNamespace(**zero))
    for field in zero:
        assert wl.check_zero_noise(SimpleNamespace(**dict(zero, **{field: 1e-300})))


def test_cli_check_rejects_a_missing_key_or_a_wrong_pose():
    docs = {step: dict.fromkeys(keys, 0) for step, keys in wl.CLI_KEYS.items()}
    docs["flow-make"]["pose"] = {"theta": 0.2, "tx": 1.0, "ty": -0.5}
    docs["pose-from-flow"].update(theta=0.2 + 1e-9, tx=1.0, ty=-0.5)
    assert not wl.check_cli(docs)
    docs["pose-from-flow"]["tx"] = 1.0 + 1e-5
    assert wl.check_cli(docs)
    del docs["eval-traj"]["ate_m"]
    assert wl.check_cli(docs)


def test_drive_primitives_fill_both_sampler_pools_and_hit_the_frame_count(drive_op):
    _, _, out = drive_op
    assert len(out["gt"]) == 10 * wl.SCALES["tiny"]["drive_s"] + 1
    assert out["pool"].high and out["pool"].standard
    assert all(math.isfinite(v) for v in (out["report"].rte_percent, out["report"].ate_sim3_m))
