"""End-to-end tests of the command-line interface (run in-process)."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bevkit
from bevkit.cli import main
from bevkit.evaluation import Trajectory
from bevkit.geometry import Pose2, pose2_to_pose3
from bevkit.io import (
    parse_pairs_csv,
    read_bvt1,
    write_bvt1,
    write_trajectory,
)


def run_fresh_python(*args):
    """Run a new interpreter that imports bevkit from the same place as this one."""
    env = dict(os.environ)
    src = str(Path(bevkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, f"stderr: {err}"
    return json.loads(out), err


def steps_trajectory(steps, dt=0.1):
    """Compose planar (dtheta, dx, dy) steps into a Trajectory."""
    mats = [np.eye(4)]
    for dth, dx, dy in steps:
        mats.append(mats[-1] @ pose2_to_pose3(Pose2(dth, dx, dy)).matrix)
    n = len(mats)
    return Trajectory(np.arange(n) * dt, np.stack(mats))


def curved_trajectory(n, seed, step=1.0):
    rng = np.random.default_rng(seed)
    steps = [
        (rng.normal(0.0, 0.05), step * (1.0 + 0.1 * rng.standard_normal()), 0.0)
        for _ in range(n - 1)
    ]
    return steps_trajectory(steps)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    return str(path)


@pytest.fixture
def small_config_path(tmp_path):
    doc = {
        "grid": {"h": 16, "w": 16, "resolution_m": 0.8, "origin": [8.0, 8.0]},
        "camera": {
            "K": [20, 0, 4, 0, 20, 4, 0, 0, 1],
            "E": [0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1.5],
        },
        "depth_bins": {"count": 4, "min_m": 2.0, "max_m": 5.0},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFlowMake:
    def test_zero_pose_gives_zero_flow(self, tmp_path, config_path, capsys):
        out = tmp_path / "flow.bvt1"
        doc, _ = run_json(
            ["flow-make", "--pose", "0,0,0", "--config", config_path, "--out", str(out)],
            capsys,
        )
        assert doc["max_abs_du"] == 0.0
        assert doc["max_abs_dv"] == 0.0
        data = read_bvt1(out.read_bytes())
        assert data.shape == (2, 128, 128)
        assert not data.any()

    def test_unit_forward_motion(self, tmp_path, config_path, capsys):
        out = tmp_path / "flow.bvt1"
        doc, _ = run_json(
            ["flow-make", "--pose", "0,0.8,0", "--config", config_path, "--out", str(out)],
            capsys,
        )
        data = read_bvt1(out.read_bytes())
        assert not data[0].any()
        assert np.all(data[1] == -1.0)
        assert doc["pose"] == {"theta": 0.0, "tx": 0.8, "ty": 0.0}

    def test_rel_from_trajectory(self, tmp_path, config_path, capsys):
        traj = steps_trajectory([(0.1, 1.0, 0.0), (0.05, 0.5, 0.2)])
        path = tmp_path / "traj.tum"
        path.write_text(write_trajectory(traj, "tum"))
        out = tmp_path / "flow.bvt1"
        doc, _ = run_json(
            [
                "flow-make",
                "--rel-from",
                str(path),
                "--indices",
                "1,2",
                "--config",
                config_path,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert abs(doc["pose"]["theta"] - 0.05) < 1e-9
        assert abs(doc["pose"]["tx"] - 0.5) < 1e-9
        assert abs(doc["pose"]["ty"] - 0.2) < 1e-9

    def test_bad_pose_string_fails(self, tmp_path, config_path, capsys):
        code, _, err = run_cli(
            ["flow-make", "--pose", "a,b", "--config", config_path, "--out", str(tmp_path / "f")],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_out_of_range_indices_fail(self, tmp_path, config_path, capsys):
        traj = steps_trajectory([(0.0, 1.0, 0.0)])
        path = tmp_path / "traj.tum"
        path.write_text(write_trajectory(traj, "tum"))
        code, _, err = run_cli(
            [
                "flow-make",
                "--rel-from",
                str(path),
                "--indices",
                "0,5",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "f"),
            ],
            capsys,
        )
        assert code == 1
        assert "out of range" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flow-make", "--pose", "0,0,0"])
        assert exc.value.code == 2


class TestPoseFromFlow:
    def test_zero_flow_gives_identity(self, tmp_path, config_path, capsys):
        flow = tmp_path / "flow.bvt1"
        run_json(
            ["flow-make", "--pose", "0,0,0", "--config", config_path, "--out", str(flow)],
            capsys,
        )
        doc, _ = run_json(
            ["pose-from-flow", "--flow", str(flow), "--config", config_path], capsys
        )
        assert abs(doc["theta"]) < 1e-9
        assert abs(doc["tx"]) < 1e-9
        assert abs(doc["ty"]) < 1e-9

    def test_round_trip_recovers_pose(self, tmp_path, config_path, capsys):
        flow = tmp_path / "flow.bvt1"
        run_json(
            ["flow-make", "--pose", "0.2,1.0,-0.5", "--config", config_path, "--out", str(flow)],
            capsys,
        )
        doc, _ = run_json(
            ["pose-from-flow", "--flow", str(flow), "--config", config_path], capsys
        )
        assert abs(doc["theta"] - 0.2) < 1e-9
        assert abs(doc["tx"] - 1.0) < 1e-9
        assert abs(doc["ty"] + 0.5) < 1e-9

    def test_corrupt_tensor_fails(self, tmp_path, config_path, capsys):
        bad = tmp_path / "bad.bvt1"
        bad.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
        code, _, err = run_cli(
            ["pose-from-flow", "--flow", str(bad), "--config", config_path], capsys
        )
        assert code == 1
        assert "error" in err

    def test_weight_shape_mismatch_fails(self, tmp_path, config_path, capsys):
        flow = tmp_path / "flow.bvt1"
        run_json(
            ["flow-make", "--pose", "0,0,0", "--config", config_path, "--out", str(flow)],
            capsys,
        )
        weights = tmp_path / "w.bvt1"
        weights.write_bytes(write_bvt1(np.ones((4, 4))))
        code, _, err = run_cli(
            [
                "pose-from-flow",
                "--flow",
                str(flow),
                "--weights",
                str(weights),
                "--config",
                config_path,
            ],
            capsys,
        )
        assert code == 1


class TestEvalTraj:
    def write(self, tmp_path, name, traj, fmt="tum"):
        path = tmp_path / name
        path.write_text(write_trajectory(traj, fmt))
        return str(path)

    def test_identical_trajectories_all_zero(self, tmp_path, capsys):
        traj = curved_trajectory(80, seed=1)
        gt = self.write(tmp_path, "gt.tum", traj)
        est = self.write(tmp_path, "est.tum", traj)
        doc, _ = run_json(
            ["eval-traj", "--est", est, "--gt", gt, "--lengths", "10,20"], capsys
        )
        assert doc["rte_percent"] == 0.0
        assert doc["rre_deg_per_100m"] == 0.0
        assert doc["ate_se3_m"] == 0.0
        assert doc["ate_sim3_m"] == 0.0
        assert doc["align"] == "se3"
        assert doc["ate_m"] == 0.0

    def test_sim3_absorbs_uniform_scale(self, tmp_path, capsys):
        traj = curved_trajectory(80, seed=2)
        poses = np.array(traj.poses)
        poses[:, :3, 3] *= 0.5
        scaled = Trajectory(traj.timestamps, poses)
        gt = self.write(tmp_path, "gt.tum", traj)
        est = self.write(tmp_path, "est.tum", scaled)
        doc, _ = run_json(
            ["eval-traj", "--est", est, "--gt", gt, "--lengths", "10,20", "--align", "sim3"],
            capsys,
        )
        assert doc["ate_m"] < 1e-6
        assert doc["ate_sim3_m"] < 1e-6
        assert doc["align"] == "sim3"

    def test_scale_curve_output(self, tmp_path, capsys):
        traj = curved_trajectory(80, seed=3)
        poses = np.array(traj.poses)
        poses[:, :3, 3] *= 0.5
        est_traj = Trajectory(traj.timestamps, poses)
        gt = self.write(tmp_path, "gt.tum", traj)
        est = self.write(tmp_path, "est.tum", est_traj)
        curve_path = tmp_path / "curve.csv"
        doc, _ = run_json(
            [
                "eval-traj",
                "--est",
                est,
                "--gt",
                gt,
                "--lengths",
                "10,20",
                "--scale-curve",
                str(curve_path),
            ],
            capsys,
        )
        assert doc["scale_curve"] == str(curve_path)
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "segment_index,log2_scale"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) > 0
        assert all(abs(v + 1.0) < 1e-9 for v in values)

    def test_timestamp_association_fallback(self, tmp_path, capsys):
        traj = curved_trajectory(60, seed=4)
        shifted = Trajectory(traj.timestamps + 0.005, traj.poses)
        gt = self.write(tmp_path, "gt.tum", traj)
        est = self.write(tmp_path, "est.tum", shifted)
        doc, err = run_json(
            ["eval-traj", "--est", est, "--gt", gt, "--lengths", "10", "--max-dt", "0.02"],
            capsys,
        )
        assert "associated" in err
        assert doc["rte_percent"] == 0.0

    def test_insufficient_length_fails(self, tmp_path, capsys):
        traj = curved_trajectory(5, seed=5)
        gt = self.write(tmp_path, "gt.tum", traj)
        est = self.write(tmp_path, "est.tum", traj)
        code, _, err = run_cli(["eval-traj", "--est", est, "--gt", gt], capsys)
        assert code == 1
        assert "error" in err


class TestSamplePairs:
    def test_straight_line_warns_and_samples_standard(self, tmp_path, config_path, capsys):
        traj = steps_trajectory([(0.0, 1.0, 0.0)] * 60)
        path = tmp_path / "line.tum"
        path.write_text(write_trajectory(traj, "tum"))
        out = tmp_path / "pairs.csv"
        doc, err = run_json(
            [
                "sample-pairs",
                "--traj",
                str(path),
                "--config",
                config_path,
                "--out",
                str(out),
                "--draws",
                "50",
            ],
            capsys,
        )
        assert "no high-rotation pairs" in err
        assert doc["available_high"] == 0
        assert doc["drawn_high_fraction"] == 0.0
        records = parse_pairs_csv(out.read_text())
        assert len(records) == 50
        assert all(r.yaw_diff_deg < 15.0 for r in records)

    def test_mixed_rotation_fraction_near_seventy_percent(self, tmp_path, config_path, capsys):
        steps = []
        for block in range(4):
            sign = 1.0 if block % 2 == 0 else -1.0
            steps += [(sign * math.radians(3.0), 0.8, 0.0)] * 30
        traj = steps_trajectory(steps)
        path = tmp_path / "curvy.tum"
        path.write_text(write_trajectory(traj, "tum"))
        out = tmp_path / "pairs.csv"
        doc, _ = run_json(
            [
                "sample-pairs",
                "--traj",
                str(path),
                "--config",
                config_path,
                "--out",
                str(out),
                "--draws",
                "2000",
                "--seed",
                "11",
            ],
            capsys,
        )
        assert doc["available_high"] > 0
        assert doc["available_standard"] > 0
        assert 0.65 <= doc["drawn_high_fraction"] <= 0.75
        # the share of drawn pairs at or above the 15 degree low threshold
        drawn = parse_pairs_csv(out.read_text())
        assert doc["drawn_high_fraction"] == np.count_nonzero([r.yaw_diff_deg >= 15.0 for r in drawn]) / 2000

    def test_deterministic_under_seed(self, tmp_path, config_path, capsys):
        traj = steps_trajectory([(math.radians(2.0), 1.0, 0.0)] * 50)
        path = tmp_path / "arc.tum"
        path.write_text(write_trajectory(traj, "tum"))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            run_json(
                [
                    "sample-pairs",
                    "--traj",
                    str(path),
                    "--config",
                    config_path,
                    "--out",
                    str(out),
                    "--draws",
                    "200",
                    "--seed",
                    "42",
                ],
                capsys,
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("draws", ["0", "-1", "1048577", "10000000000000000000000"])
    def test_draws_below_one_refused_before_any_work(self, tmp_path, capsys, draws):
        # the trajectory does not exist, so any work before the check would fail on it instead;
        # above the cap of 2^20 draws the same holds
        out = tmp_path / "pairs.csv"
        code, stdout, err = run_cli(
            ["sample-pairs", "--traj", str(tmp_path / "none.tum"), "--out", str(out), "--draws", draws], capsys
        )
        assert code == 1 and stdout == ""
        if int(draws) < 1:
            assert err == f"bevkit: error: --draws must be an integer >= 1, got {draws}\n"
        else:
            assert err == f"bevkit: error: --draws must be at most 1048576, got {draws}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, needle", [
        ('{"sampler": 5}', "sampler must be a JSON object"),
        ('{"grid": 5}', "grid must be a JSON object"),
        ('{"sampler": {"window_s": null}}', "sampler.window_s"),
        ('{"sampler": {"window_s": true}}', "sampler.window_s"),
        ('{"sampler": {"max_disp_m": NaN}}', "sampler.max_disp_m"),
        ('{"sampler": {"low_deg": 50, "high_deg": 40}}', "low_deg <= high_deg"),
    ])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, config, needle):
        traj = steps_trajectory([(math.radians(2.0), 1.0, 0.0)] * 10)
        path = tmp_path / "arc.tum"
        path.write_text(write_trajectory(traj, "tum"))
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        out = tmp_path / "pairs.csv"
        code, stdout, err = run_cli(
            ["sample-pairs", "--traj", str(path), "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 1 and stdout == ""
        assert err.startswith("bevkit: error:") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()


    def test_poses_near_the_float_limit_print_no_numpy_warning(self, tmp_path):
        # a fresh process, so numpy's RuntimeWarnings would reach stderr as text
        (tmp_path / "big.tum").write_text("0.0 -1e308 0 0 0 0 0 1\n1.0 1e308 0 0 0 0 0 1\n2.0 1e308 0 0 0 0 0 1\n")
        proc = run_fresh_python("-c", "import sys; from bevkit.cli import main; sys.exit(main())", "sample-pairs",
                                "--traj", str(tmp_path / "big.tum"), "--draws", "3", "--out", str(tmp_path / "p.csv"))
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("bevkit: no high-rotation pairs")


class TestCorrelate:
    def test_channel_count_and_values(self, tmp_path, capsys):
        from bevkit.correlation import FeatureMap, local_correlation

        rng = np.random.default_rng(90)
        a = rng.normal(size=(3, 8, 8)).astype(np.float32)
        b = rng.normal(size=(3, 8, 8)).astype(np.float32)
        pa, pb = tmp_path / "a.bvt1", tmp_path / "b.bvt1"
        pa.write_bytes(write_bvt1(a))
        pb.write_bytes(write_bvt1(b))
        out = tmp_path / "vol.bvt1"
        doc, _ = run_json(
            ["correlate", "--a", str(pa), "--b", str(pb), "--radius", "2", "--out", str(out)],
            capsys,
        )
        assert doc["channels"] == 25
        got = read_bvt1(out.read_bytes())
        expected = local_correlation(
            FeatureMap(a.astype(float)), FeatureMap(b.astype(float)), 2
        ).data.astype(np.float32)
        assert np.array_equal(got, expected)

    def test_concat_with(self, tmp_path, capsys):
        rng = np.random.default_rng(91)
        a = rng.normal(size=(2, 6, 6)).astype(np.float32)
        pa = tmp_path / "a.bvt1"
        pa.write_bytes(write_bvt1(a))
        extra = rng.normal(size=(9, 6, 6)).astype(np.float32)
        pe = tmp_path / "extra.bvt1"
        pe.write_bytes(write_bvt1(extra))
        out = tmp_path / "vol.bvt1"
        doc, _ = run_json(
            [
                "correlate",
                "--a",
                str(pa),
                "--b",
                str(pa),
                "--radius",
                "2",
                "--concat-with",
                str(pe),
                "--out",
                str(out),
            ],
            capsys,
        )
        assert doc["channels"] == 34
        assert read_bvt1(out.read_bytes()).shape == (34, 6, 6)

    def test_non_square_concat_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        a = rng.normal(size=(2, 6, 6)).astype(np.float32)
        pa = tmp_path / "a.bvt1"
        pa.write_bytes(write_bvt1(a))
        extra = rng.normal(size=(8, 6, 6)).astype(np.float32)
        pe = tmp_path / "extra.bvt1"
        pe.write_bytes(write_bvt1(extra))
        code, _, err = run_cli(
            [
                "correlate",
                "--a",
                str(pa),
                "--b",
                str(pa),
                "--radius",
                "2",
                "--concat-with",
                str(pe),
                "--out",
                str(tmp_path / "v"),
            ],
            capsys,
        )
        assert code == 1
        assert "square" in err


class TestLssProject:
    def test_zero_depth_gives_zero_bev(self, tmp_path, small_config_path, capsys):
        feats = tmp_path / "f.bvt1"
        feats.write_bytes(write_bvt1(np.ones((2, 8, 8), dtype=np.float32)))
        depth = tmp_path / "d.bvt1"
        depth.write_bytes(write_bvt1(np.zeros((4, 8, 8), dtype=np.float32)))
        out = tmp_path / "bev.bvt1"
        doc, _ = run_json(
            [
                "lss-project",
                "--features",
                str(feats),
                "--depth",
                str(depth),
                "--config",
                small_config_path,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert doc["bev_shape"] == [2, 16, 16]
        assert doc["in_grid_mass"] == 0.0
        assert not read_bvt1(out.read_bytes()).any()

    def test_depth_bin_mismatch_fails(self, tmp_path, small_config_path, capsys):
        feats = tmp_path / "f.bvt1"
        feats.write_bytes(write_bvt1(np.ones((2, 8, 8), dtype=np.float32)))
        depth = tmp_path / "d.bvt1"
        depth.write_bytes(write_bvt1(np.zeros((3, 8, 8), dtype=np.float32)))
        code, _, err = run_cli(
            [
                "lss-project",
                "--features",
                str(feats),
                "--depth",
                str(depth),
                "--config",
                small_config_path,
                "--out",
                str(tmp_path / "bev"),
            ],
            capsys,
        )
        assert code == 1
        assert "bins" in err


class TestSynth:
    SPEC = {
        "primitives": [
            {"kind": "straight", "duration_s": 3.0, "speed_mps": 2.0},
            {"kind": "arc", "duration_s": 2.0, "speed_mps": 2.0, "yaw_rate_dps": 15.0},
        ],
        "dt_s": 0.1,
    }

    def test_zero_noise_outputs_identical_files(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        gt, est = tmp_path / "gt.tum", tmp_path / "est.tum"
        doc, _ = run_json(
            ["synth", "--spec", str(spec), "--out-gt", str(gt), "--out-est", str(est)],
            capsys,
        )
        assert doc["frames"] == 51
        assert abs(doc["duration_s"] - 5.0) < 1e-9
        assert gt.read_bytes() == est.read_bytes()

    def test_seed_override_changes_est_not_gt(self, tmp_path, capsys):
        doc = dict(self.SPEC)
        doc["noise_trans_m"] = 0.05
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        files = {}
        for seed in (1, 2):
            gt = tmp_path / f"gt{seed}.tum"
            est = tmp_path / f"est{seed}.tum"
            run_json(
                [
                    "synth",
                    "--spec",
                    str(spec),
                    "--seed",
                    str(seed),
                    "--out-gt",
                    str(gt),
                    "--out-est",
                    str(est),
                ],
                capsys,
            )
            files[seed] = (gt.read_bytes(), est.read_bytes())
        assert files[1][0] == files[2][0]
        assert files[1][1] != files[2][1]

    def test_bad_spec_fails(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"primitives": []}')
        code, _, err = run_cli(
            [
                "synth",
                "--spec",
                str(spec),
                "--out-gt",
                str(tmp_path / "g"),
                "--out-est",
                str(tmp_path / "e"),
            ],
            capsys,
        )
        assert code == 1


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point_runs_without_warnings(self):
        proc = run_fresh_python("-m", "bevkit.cli", "--help")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "flow-make" in proc.stdout

    def test_import_does_not_load_scipy(self):
        proc = run_fresh_python("-c", "import sys, bevkit; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_missing_input_file_fails(self, tmp_path, config_path, capsys):
        code, _, err = run_cli(
            ["pose-from-flow", "--flow", str(tmp_path / "nope.bvt1"), "--config", config_path],
            capsys,
        )
        assert code == 1
        assert "error" in err


BAD_INPUTS = [
    (["flow-make", "--pose", "0,0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     '{"grid": {"h": null}}', "grid.h must be an integer in [1, 4194304], got null"),
    (["flow-make", "--pose", "0,0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     '{"grid": {"h": 4096, "w": 4096}}', "at most 4194304 cells"),
    (["lss-project", "--features", "{d}/ones.bvt1", "--depth", "{d}/ones.bvt1", "--config", "{d}/bad.json",
      "--out", "{d}/out"], '{"camera": {"K": [[20, 0, 4], [0, 20, 4], [0, 0, 1]]}}', "camera.K must be a list of 9"),
    (["pose-from-flow", "--flow", "{d}/ones.bvt1", "--config", "{d}/bad.json"], "[" * 100000, "invalid JSON"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"seed": 2.7}', "spec.seed must be an integer >= 0, got 2.7"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 1e9, "speed_mps": 1}]}', "exceeds the cap of 1048576"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 10, "speed_mps": 1e308}]}',
     "primitives[0].speed_mps 1e+308 over duration_s 10 carries"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "stop", "duration_s": 1}, {"kind": "arc", "duration_s": 1, "yaw_rate_dps": 5e-324}]}',
     "primitives[1].yaw_rate_dps 5e-324 gives no finite"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 10, "speed_mps": 1}], "noise_trans_m": 1e308}',
     "spec.noise_trans_m 1e+308 carries the estimate beyond the float range"),
    (["synth", "--spec", "{d}/bad.json", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 10, "speed_mps": 1e300}], "scale_drift": 1e300}',
     "spec.scale_drift 1e+300 carries the estimate beyond the float range"),
    (["correlate", "--a", "{d}/huge.bvt1", "--b", "{d}/huge.bvt1", "--radius", "0", "--out", "{d}/out"],
     None, "beyond the float32 range"),
    (["correlate", "--a", "{d}/ones.bvt1", "--b", "{d}/ones.bvt1", "--radius", "100000", "--out", "{d}/out"],
     None, "exceeds 134217728 entries"),
    (["sample-pairs", "--traj", "{d}/line.tum", "--config", "{d}/bad.json", "--out", "{d}/out"],
     '{"sampler": {"window_s": 0}}', "no admissible pairs"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10,nan"],
     None, "segment lengths must be finite and positive"),
    (["eval-traj", "--est", "{d}/shifted.tum", "--gt", "{d}/line.tum", "--max-dt", "nan"],
     None, "max_dt_s must be >= 0"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve", "{d}/out",
      "--scale-curve-segment-m", "nan"], None, "segment length must be finite and positive"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve", "{d}/out",
      "--scale-curve-segment-m", "1e-300"], None, "segment length 1e-300 m is below the float resolution"),
    (["synth", "--spec", "{d}/bad.json", "--seed", "-1", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 1, "speed_mps": 1}]}', "seed must be an integer >= 0, got -1"),
    (["synth", "--spec", "{d}/bad.json", "--seed", "-2", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 1, "speed_mps": 1}], "noise_trans_m": 0.1}',
     "seed must be an integer >= 0, got -2"),
    (["sample-pairs", "--traj", "{d}/line.tum", "--seed", "-1", "--out", "{d}/out"],
     None, "--seed must be an integer >= 0, got -1"),
]


class TestOneLineErrors:
    @pytest.mark.parametrize("argv, document, needle", BAD_INPUTS, ids=[case[2] for case in BAD_INPUTS])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, document, needle):
        line = curved_trajectory(40, seed=3)
        (tmp_path / "line.tum").write_text(write_trajectory(line, "tum"))
        shifted = Trajectory(line.timestamps + 0.005, line.poses)
        (tmp_path / "shifted.tum").write_text(write_trajectory(shifted, "tum"))
        (tmp_path / "ones.bvt1").write_bytes(write_bvt1(np.ones((2, 4, 4))))
        (tmp_path / "huge.bvt1").write_bytes(write_bvt1(np.full((1, 4, 4), 1e20)))
        if document is not None:
            (tmp_path / "bad.json").write_text(document)
        code, stdout, err = run_cli([a.format(d=tmp_path) for a in argv], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("bevkit: error:") and err.count("\n") == 1, err
        assert needle in err
        assert not (tmp_path / "out").exists()
