"""End-to-end tests of the command-line interface (run in-process)."""

import importlib
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

from bevkit.bvt1 import read_bvt1, write_bvt1
from bevkit.cli import main
from bevkit.evaluation import Trajectory, scale_trajectory
from bevkit.formats import parse_pairs_csv, write_trajectory
from bevkit.geometry import Pose2, pose2_to_pose3

from helpers import FAR_DRIVE_TUM, run_fresh_python
from test_evaluation import curved_traj, perturb_steps


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

    def test_rel_from_a_pair_past_the_float_range_is_one_error_line(self, tmp_path, config_path, capsys):
        # the suite's "error" warning filter turns a numpy RuntimeWarning into a failure
        path = tmp_path / "far.tum"
        path.write_text(FAR_DRIVE_TUM)
        code, out, err = run_cli(["flow-make", "--rel-from", str(path), "--indices", "1,2", "--config", config_path,
                                  "--out", str(tmp_path / "f")], capsys)
        assert (code, out, err) == (1, "", "bevkit: error: pose matrix contains non-finite entries\n")

    @pytest.mark.parametrize("source, pose", [
        (["--pose", "0,1e40,0"], "theta 0, tx 1e+40 m, ty 0 m"),
        (["--rel-from", "{d}/far.tum", "--indices", "0,1"], "theta 0, tx 1e+300 m, ty 0 m"),
    ])
    def test_a_target_past_float32_names_the_pose_and_the_grid(self, tmp_path, config_path, capsys, source, pose):
        (tmp_path / "far.tum").write_text("0 0 0 0 0 0 0 1\n1 1e300 0 0 0 0 0 1\n")
        out = tmp_path / "flow.bvt1"
        code, stdout, err = run_cli(["flow-make", *(a.format(d=tmp_path) for a in source), "--config", config_path,
                                     "--out", str(out)], capsys)
        assert (code, stdout, err) == (1, "", f"bevkit: error: flow target of pose ({pose}) on the 128x128 grid at "
                                              "0.8 m/px: value beyond the float32 range (max 3.40282e+38)\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("k", [664, -664])
    def test_a_drive_reads_the_same_at_any_finite_scale(self, tmp_path, capsys, k):
        # TUM files of a drive, and the lengths, times 2**k: the ATE fit's covariance leaves the
        # float range or has no normal entry, and its rescaled form may round apart from the
        # unscaled one in the last place
        drive = curved_traj(200, seed=50)
        drives = (drive, perturb_steps(drive, seed=51, drift=0.97))
        docs = []
        for s in (1.0, 2.0 ** k):
            gt, est = (scale_trajectory(t, s) for t in drives)
            argv = ["eval-traj", "--est", self.write(tmp_path, "est.tum", est), "--gt",
                    self.write(tmp_path, "gt.tum", gt), "--align", "sim3", "--lengths", f"{10 * s!r},{40 * s!r}"]
            docs.append(run_json(argv, capsys)[0])
        want, got = docs
        s = 2.0 ** k
        assert got["rte_percent"] == want["rte_percent"] and got["rre_deg_per_100m"] * s == want["rre_deg_per_100m"]
        assert abs(got["ate_m"] / s / want["ate_m"] - 1.0) < 1e-13

    @pytest.mark.parametrize("rows, code, stderr", [
        ("0 0 0\n1 1e160 0\n2 -1e160 0\n", 1,
         "bevkit: error: positions are collinear or coincident; alignment is ambiguous\n"),
        ("0 0 0\n1 1e160 0\n2 1e160 1e160\n3 0 1e160\n", 0, ""),
    ], ids=["collinear", "square"])
    def test_positions_whose_covariance_overflows_exit_instead_of_hanging(self, tmp_path, rows, code, stderr):
        # the ATE fit's covariance overflows to inf, on which the SVD may never return, so the fit
        # rescales it; a fresh process is killed after 30 s, so a hang fails the test.  Nothing else
        # reaches stderr: path_lengths and _norms rescale their overflowing squares without a numpy warning
        path = tmp_path / "far.tum"
        path.write_text("".join(f"{row} 0 0 0 0 1\n" for row in rows.splitlines()))
        proc = run_fresh_python("-m", "bevkit.cli", "eval-traj", "--est", str(path), "--gt", str(path),
                                "--lengths", "1e160", timeout=30)
        assert proc.returncode == code and proc.stderr == stderr
        if code == 0:
            doc = json.loads(proc.stdout)
            assert doc["rte_percent"] == doc["rre_deg_per_100m"] == doc["ate_m"] == 0.0
            assert doc["per_length"] == {"1e+160": {"rte_percent": 0.0, "rre_deg_per_100m": 0.0, "segments": 3}}


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
        assert err == f"bevkit: error: --draws must be an integer in [1, 1048576], got {draws}\n"
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


    def test_admitted_pairs_past_the_cap_are_one_error_line(self, tmp_path, capsys, monkeypatch):
        # 10 frames give 90 pairs at infinite thresholds
        path = tmp_path / "arc.tum"
        path.write_text(write_trajectory(steps_trajectory([(0.4, 3.0, 0.0)] * 9), "tum"))
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"sampler": {"window_s": Infinity, "max_disp_m": Infinity, "high_deg": Infinity}}')
        argv = ["sample-pairs", "--traj", str(path), "--config", str(cfg), "--out", str(tmp_path / "pairs.csv")]
        monkeypatch.setattr("bevkit.sampler._MAX_PAIRS", 90)
        doc, _ = run_json(argv, capsys)
        assert doc["available_high"] + doc["available_standard"] == 90
        monkeypatch.setattr("bevkit.sampler._MAX_PAIRS", 89)
        code, out, err = run_cli(argv[:-1] + [str(tmp_path / "refused.csv")], capsys)
        assert (code, out) == (1, "")
        assert err == "bevkit: error: more than 89 pairs admitted; lower window_s (inf) or max_disp_m (inf)\n"
        assert not (tmp_path / "refused.csv").exists()

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
        # float32 maps correlate in float32, so the file holds the float32 volume itself
        volume = local_correlation(FeatureMap(a), FeatureMap(b), 2).data
        assert volume.dtype == np.float32 and np.array_equal(got, volume)
        # within C * 2^-24 * sum_c |a b| of the float64 volume, whose float32 rounding the file held before
        wide = local_correlation(FeatureMap(a.astype(float)), FeatureMap(b.astype(float)), 2).data
        magnitude = local_correlation(FeatureMap(np.abs(a.astype(float))), FeatureMap(np.abs(b.astype(float))), 2).data
        assert np.all(np.abs(got - wide) <= 3 * 2.0**-24 * magnitude)

    def test_concat_with(self, tmp_path, capsys):
        from bevkit.correlation import FeatureMap, local_correlation

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
        # the first volume is dropped once concatenated; the file holds its bytes, then the extra volume's
        volume = local_correlation(FeatureMap(a), FeatureMap(a), 2).data
        payload = np.concatenate([volume, extra]).astype("<f4")
        assert out.read_bytes() == b"BVT1" + struct.pack("<4I", 3, 34, 6, 6) + payload.tobytes()

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

    @pytest.mark.parametrize("config", [
        {"grid": {"resolution_m": 1e-320}, "depth_bins": {"count": 4}},
        {"depth_bins": {"count": 4, "min_m": 1e300, "max_m": 1.7e308}},
    ], ids=["subnormal-resolution", "far-bins"])
    def test_pixel_overflow_drops_every_point_quietly(self, tmp_path, capsys, config):
        # every pixel coordinate overflows or leaves int64; a numpy warning is an error under the suite's settings
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "f.bvt1").write_bytes(write_bvt1(np.ones((2, 8, 8))))
        (tmp_path / "d.bvt1").write_bytes(write_bvt1(np.full((4, 8, 8), 0.25)))
        code, out, err = run_cli(["lss-project", "--features", str(tmp_path / "f.bvt1"), "--depth",
                                  str(tmp_path / "d.bvt1"), "--config", str(tmp_path / "config.json"),
                                  "--out", str(tmp_path / "bev.bvt1")], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["dropped_points"] == 4 * 8 * 8 and doc["in_grid_mass"] == 0.0


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

    def test_import_does_not_load_concurrent_futures(self):
        # the per-CPU split uses threading; concurrent.futures would add to every start-up
        proc = run_fresh_python("-c", "import sys, bevkit.cli; print('concurrent.futures' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_process_starts_no_blas_thread_pool(self, tmp_path, config_path):
        # OpenBLAS reads the variable once, when numpy loads it; a worker it starts only spins
        blas_pool = {"OPENBLAS_NUM_THREADS": "2"}
        control = run_fresh_python("-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))", env=blas_pool)
        assert control.returncode == 0, control.stderr
        if control.stdout.strip() != "2":
            pytest.skip("OpenBLAS starts no second thread here")
        report = ("import os, sys\n"
                  "from bevkit.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = run_fresh_python("-c", report, "flow-make", "--pose", "0.1,1,0", "--config", config_path,
                                "--out", str(tmp_path / "flow.bvt1"), env=blas_pool)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["True", "1"]

    @pytest.mark.parametrize("blas_threads", [None, "2"])
    def test_in_process_call_keeps_the_environment(self, tmp_path, config_path, capsys, monkeypatch, blas_threads):
        # numpy is loaded here already, so its pool exists and the variable would change nothing
        assert "numpy" in sys.modules
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        before = dict(os.environ)
        run_json(["flow-make", "--pose", "0.1,1,0", "--config", config_path, "--out", str(tmp_path / "flow.bvt1")],
                 capsys)
        assert dict(os.environ) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_correlate_pinned_to_one_cpu_writes_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(97)
        for name in ("a", "b"):
            (tmp_path / f"{name}.bvt1").write_bytes(write_bvt1(rng.normal(size=(16, 40, 40)).astype(np.float32)))
        pinned = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "assert len(os.sched_getaffinity(0)) == 1\n"
            "from bevkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        outs = {}
        for label, prefix in (("pinned", ("-c", pinned)), ("free", ("-m", "bevkit.cli"))):
            outs[label] = tmp_path / f"vol_{label}.bvt1"
            proc = run_fresh_python(*prefix, "correlate", "--a", str(tmp_path / "a.bvt1"),
                                    "--b", str(tmp_path / "b.bvt1"), "--radius", "3", "--out", str(outs[label]))
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
        assert outs["pinned"].read_bytes() == outs["free"].read_bytes()

    def test_missing_input_file_fails(self, tmp_path, config_path, capsys):
        code, _, err = run_cli(
            ["pose-from-flow", "--flow", str(tmp_path / "nope.bvt1"), "--config", config_path],
            capsys,
        )
        assert code == 1
        assert "error" in err


@pytest.fixture(scope="module")
def bench_tensors(tmp_path_factory):
    """The tensor commands' inputs at the benchmark's shapes: C=64 on a 32x88 image and on the 128x128 grid."""
    d = tmp_path_factory.mktemp("bench_tensors")
    (d / "config.json").write_text("{}")
    rng = np.random.default_rng(25)
    logits = rng.standard_normal((64, 32, 88))
    depth = np.exp(logits - logits.max(axis=0))
    tensors = {"feat_t": rng.standard_normal((64, 32, 88)), "feat_t1": rng.standard_normal((64, 32, 88)),
               "depth": depth / depth.sum(axis=0), "bev_t": rng.standard_normal((64, 128, 128)),
               "bev_t1": rng.standard_normal((64, 128, 128))}
    for name, array in tensors.items():
        (d / f"{name}.bvt1").write_bytes(write_bvt1(array))
    return d


# (argv, ceiling in MB of 10^6 bytes) per tensor command at the benchmark's shapes, with two worker threads.
# Each command holds one copy of each input beside its output, float32 for a feature map and float64 for
# depth, and writes a float32 volume as its own payload, so a dead copy of a decoded input, an input map or
# the payload passes its ceiling.
TENSOR_PEAKS = {
    # the floor is 16.3 MB, two 4.2 MB float32 maps and the 7.9 MB float32 r5 volume; measured 16.4-16.6
    # (32.7 with float64 maps and volume)
    "correlate-r5": (["correlate", "--a", "{d}/bev_t.bvt1", "--b", "{d}/bev_t1.bvt1", "--radius", "5",
                      "--out", "{d}/vol_r5.bvt1"], 18.0),
    # two 0.72 MB float32 maps and the 0.55 MB float32 r3 volume, 2.0 MB; measured 2.21 (4.05 in float64)
    "correlate-r3": (["correlate", "--a", "{d}/feat_t.bvt1", "--b", "{d}/feat_t1.bvt1", "--radius", "3",
                      "--out", "{d}/vol_r3.bvt1"], 2.5),
    # the float32 map, the depth, the frustum and its in-grid cell plan, a point buffer per thread and the
    # 8.4 MB float64 output; measured 19.4 (20.2 with a float64 map), slack 0.6
    "lss-project": (["lss-project", "--features", "{d}/feat_t1.bvt1", "--depth", "{d}/depth.bvt1",
                     "--config", "{d}/config.json", "--out", "{d}/bev.bvt1"], 20.0),
}


@pytest.mark.parametrize("name", TENSOR_PEAKS)
def test_tensor_command_peak_stays_under_its_ceiling(name, bench_tensors, peak_bytes, capsys, monkeypatch):
    from bevkit import _threads

    argv, ceiling_mb = TENSOR_PEAKS[name]
    for module in ("bevkit.config", "bevkit.lss"):  # loaded first, so the peak counts arrays, not module code
        importlib.import_module(module)
    monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
    code, peak = peak_bytes(lambda: main([a.format(d=bench_tensors) for a in argv]))
    assert code == 0, capsys.readouterr().err
    assert peak / 1e6 < ceiling_mb, f"{name} peaked at {peak / 1e6:.2f} MB"


# Runs main() on its arguments, then writes the bevkit modules it loaded as
# stderr's last line; --help ends in SystemExit(0).
REPORT_MODULES = (
    "import sys\n"
    "from bevkit.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'bevkit')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

# every subcommand process loads these: the package, the CLI, and the text
# rules its argument parser reads numbers and format names by
CLI_BASE = {"bevkit", "bevkit.cli", "bevkit.errors", "bevkit.text"}
CONFIG_MODULES = {"bevkit.config", "bevkit.geometry", "bevkit.losses"}
MODULES_LOADED = [
    ("--help", ["--help"], set()),
    ("correlate",
     ["correlate", "--a", "{d}/a.bvt1", "--b", "{d}/b.bvt1", "--radius", "1", "--out", "{d}/vol.bvt1"],
     {"bevkit.bvt1", "bevkit.correlation", "bevkit._threads"}),
    ("eval-traj",
     ["eval-traj", "--est", "{d}/est.tum", "--gt", "{d}/gt.tum", "--lengths", "1,2",
      "--scale-curve", "{d}/curve.csv", "--scale-curve-segment-m", "1"],
     {"bevkit.formats", "bevkit.geometry", "bevkit.evaluation"}),
    ("synth",
     ["synth", "--spec", "{d}/spec.json", "--out-gt", "{d}/gt2.tum", "--out-est", "{d}/est2.tum"],
     {"bevkit.synth", "bevkit.geometry", "bevkit.formats"}),
    ("sample-pairs",
     ["sample-pairs", "--traj", "{d}/gt.tum", "--config", "{d}/config.json", "--out", "{d}/pairs.csv",
      "--draws", "5"],
     CONFIG_MODULES | {"bevkit.formats", "bevkit.sampler"}),
    ("flow-make --rel-from",
     ["flow-make", "--rel-from", "{d}/gt.tum", "--indices", "0,3", "--config", "{d}/config.json",
      "--out", "{d}/flow2.bvt1"],
     CONFIG_MODULES | {"bevkit.formats", "bevkit.flow", "bevkit.bvt1"}),
    ("flow-make --pose",
     ["flow-make", "--pose", "0.1,1,0", "--config", "{d}/config.json", "--out", "{d}/flow3.bvt1"],
     CONFIG_MODULES | {"bevkit.flow", "bevkit.bvt1"}),
    ("pose-from-flow",
     ["pose-from-flow", "--flow", "{d}/flow.bvt1", "--config", "{d}/config.json"],
     CONFIG_MODULES | {"bevkit.flow", "bevkit.bvt1"}),
    ("lss-project",
     ["lss-project", "--features", "{d}/feats.bvt1", "--depth", "{d}/depth.bvt1", "--config", "{d}/config.json",
      "--out", "{d}/bev.bvt1"],
     CONFIG_MODULES | {"bevkit.bvt1", "bevkit.lss", "bevkit.correlation", "bevkit._threads"}),
]


@pytest.fixture(scope="module")
def pipe_dir(tmp_path_factory):
    """Small inputs for one run of every subcommand."""
    d = tmp_path_factory.mktemp("pipe")
    (d / "config.json").write_text(json.dumps({
        "grid": {"h": 16, "w": 16, "resolution_m": 0.8},
        "camera": {"K": [20, 0, 4, 0, 20, 4, 0, 0, 1], "E": [0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1.5]},
        "depth_bins": {"count": 4, "min_m": 2.0, "max_m": 5.0},
    }))
    (d / "spec.json").write_text(json.dumps({
        "primitives": [{"kind": "straight", "duration_s": 4.0, "speed_mps": 2.0},
                       {"kind": "arc", "duration_s": 2.0, "speed_mps": 2.0, "yaw_rate_dps": 20.0}],
        "noise_trans_m": 0.01, "seed": 3,
    }))
    rng = np.random.default_rng(5)
    tensors = {"a": rng.normal(size=(4, 8, 8)), "b": rng.normal(size=(4, 8, 8)),
               "feats": rng.normal(size=(2, 8, 8)), "depth": np.full((4, 8, 8), 0.25)}
    for name, array in tensors.items():
        (d / f"{name}.bvt1").write_bytes(write_bvt1(array))
    assert main(["synth", "--spec", str(d / "spec.json"), "--out-gt", str(d / "gt.tum"),
                 "--out-est", str(d / "est.tum")]) == 0
    assert main(["flow-make", "--pose", "0.1,1,0", "--config", str(d / "config.json"),
                 "--out", str(d / "flow.bvt1")]) == 0
    return d


class TestModulesLoaded:
    """Each subcommand process imports only the bevkit modules it runs."""

    def test_import_bevkit_loads_no_submodule(self):
        proc = run_fresh_python("-c", "import sys, bevkit; print(sorted(m for m in sys.modules if 'bevkit' in m))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['bevkit']"

    def test_submodules_load_on_first_use(self):
        proc = run_fresh_python("-c", "import bevkit; from bevkit import lss; print(bevkit.io.read_bvt1.__module__, "
                                      "lss.__name__, 'io' in bevkit.__all__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["bevkit.bvt1", "bevkit.lss", "True"]

    def test_help_loads_no_numpy(self):
        # the parser needs only the standard library and bevkit.text
        proc = run_fresh_python("-c", "import sys\nfrom bevkit.cli import main\ntry:\n    main(['--help'])\n"
                                      "except SystemExit:\n    print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("name, argv, modules", MODULES_LOADED, ids=[row[0] for row in MODULES_LOADED])
    def test_subcommand_loads_only_its_modules(self, pipe_dir, name, argv, modules):
        proc = run_fresh_python("-c", REPORT_MODULES, *(a.format(d=pipe_dir) for a in argv))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.strip().splitlines()[-1].split())
        assert loaded == CLI_BASE | modules


# (argv, bad.json text or None, expected stderr text[, id]). A row is named by its expected text, unless it
# carries an id of its own: those rows keep the name they had before their wording changed.
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
     "primitives[0].speed_mps 1e+308 over duration_s 10.0 carries"),
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
    (["correlate", "--a", "{d}/ones.bvt1", "--b", "{d}/ones.bvt1", "--radius", "0", "--concat-with", "{d}/four.bvt1",
      "--out", "{d}/out"], None,
     "channel count 4 is not the square of an odd number; a correlation volume has (2r+1)^2 channels"),
    (["sample-pairs", "--traj", "{d}/line.tum", "--config", "{d}/bad.json", "--out", "{d}/out"],
     '{"sampler": {"window_s": 0}}', "no admissible pairs"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10,nan"],
     None, "segment length must be a finite number > 0, got nan"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10,5,10"],
     None, "segment lengths must be distinct, got 10, 5, 10"),
    (["lss-project", "--features", "{d}/ones.bvt1", "--depth", "{d}/four.bvt1", "--config", "{d}/bad.json",
      "--out", "{d}/out"], '{"camera": {"K": [0.01, 0, 4, 0, 0.01, 4, 0, 0, 1]}, '
                           '"depth_bins": {"count": 4, "min_m": 1e300, "max_m": 1.7e308}}',
     "frustum contains non-finite points: 4 depth bins up to 1.7e+308 m through intrinsics K = [0.01, 0.0, 4.0,"),
    (["eval-traj", "--est", "{d}/shifted.tum", "--gt", "{d}/line.tum", "--max-dt", "nan"],
     None, "--max-dt must be a number >= 0"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve", "{d}/out",
      "--scale-curve-segment-m", "nan"], None, "--scale-curve-segment-m must be a finite number > 0, got nan",
     "segment length must be finite and > 0: --scale-curve-segment-m nan with --scale-curve"),
    # options the drive does not use are checked all the same: equal timestamps, no --scale-curve
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--max-dt", "-1"],
     None, "--max-dt must be a number >= 0, got -1.0"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--max-dt", "nan"],
     None, "--max-dt must be a number >= 0, got nan"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve-segment-m", "-5"],
     None, "--scale-curve-segment-m must be a finite number > 0, got -5.0",
     "--scale-curve-segment-m: segment length -5"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve-segment-m", "inf"],
     None, "--scale-curve-segment-m must be a finite number > 0, got inf",
     "--scale-curve-segment-m: segment length inf"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "10", "--scale-curve", "{d}/out",
      "--scale-curve-segment-m", "1e-300"], None, "segment length 1e-300 m is below the float resolution"),
    (["synth", "--spec", "{d}/bad.json", "--seed", "-1", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 1, "speed_mps": 1}]}', "seed must be an integer >= 0, got -1"),
    (["synth", "--spec", "{d}/bad.json", "--seed", "-2", "--out-gt", "{d}/out", "--out-est", "{d}/out"],
     '{"primitives": [{"kind": "straight", "duration_s": 1, "speed_mps": 1}], "noise_trans_m": 0.1}',
     "seed must be an integer >= 0, got -2"),
    (["sample-pairs", "--traj", "{d}/line.tum", "--seed", "-1", "--out", "{d}/out"],
     None, "--seed must be an integer >= 0, got -1"),
    # one number rule: a field Python alone reads as a number is refused like any other non-number
    (["flow-make", "--pose", "1_0,0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     "{}", "--pose: non-numeric field: could not convert string to float: '1_0'"),
    (["flow-make", "--pose", "\u0661,0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     "{}", "--pose: non-numeric field: could not convert string to float: '\u0661'"),
    (["flow-make", "--pose", "0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     "{}", "--pose: expected 3 comma-separated fields, got 2"),
    (["flow-make", "--rel-from", "{d}/line.tum", "--indices", "0,1_0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     "{}", "--indices: non-numeric field: invalid literal for int() with base 10: '1_0'"),
    (["flow-make", "--rel-from", "{d}/line.tum", "--indices", "0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     "{}", "--indices: expected 2 comma-separated fields, got 1"),
    (["eval-traj", "--est", "{d}/line.tum", "--gt", "{d}/line.tum", "--lengths", "1_00"],
     None, "--lengths: non-numeric field: could not convert string to float: '1_00'"),
    (["eval-traj", "--est", "{d}/bad.json", "--gt", "{d}/line.tum"],
     "0 0 0 0 0 0 0 1\n1 1_5 0 0 0 0 0 1\n", "line 2: non-numeric field: could not convert string to float: '1_5'"),
    # rotation entries and positions whose squares overflow: one line, no numpy warning before it
    (["eval-traj", "--est", "{d}/bad.json", "--gt", "{d}/bad.json", "--format", "kitti"],
     "1e200 1e200 0 0 -1e200 1e200 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1 0\n", "rotation not orthonormal within 0.0001",
     "kitti-rotation-1e200"),
    (["flow-make", "--pose", "0,0,0", "--config", "{d}/bad.json", "--out", "{d}/out"],
     '{"camera": {"E": [1e200, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1.5]}}', "extrinsic rotation is not a proper rotation",
     "camera-E-1e200"),
    (["eval-traj", "--est", "{d}/bad.json", "--gt", "{d}/bad.json", "--lengths", "1"],
     "0 0 0 0 0 0 0 1\n1 1e160 0 0 0 0 0 1\n2 -1e160 0 0 0 0 0 1\n",
     "positions are collinear or coincident; alignment is ambiguous", "positions-1e160"),
    # a path step, or a path length, past the float range: inf, without a numpy warning
    (["eval-traj", "--est", "{d}/bad.json", "--gt", "{d}/bad.json", "--lengths", "1"],
     "0 0 0 0 0 0 0 1\n1 1e308 0 0 0 0 0 1\n2 -1e308 0 0 0 0 0 1\n3 0 0 0 0 0 0 1\n",
     "positions are collinear or coincident; alignment is ambiguous", "path-step-past-float-range"),
    (["eval-traj", "--est", "{d}/bad.json", "--gt", "{d}/bad.json", "--lengths", "1"],
     "0 0 0 0 0 0 0 1\n1 1e308 0 0 0 0 0 1\n2 0 0 0 0 0 0 1\n",
     "positions are collinear or coincident; alignment is ambiguous", "path-sum-past-float-range"),
]


class TestOneLineErrors:
    @pytest.mark.parametrize("argv, document, needle", [case[:3] for case in BAD_INPUTS],
                             ids=[case[-1] for case in BAD_INPUTS])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, document, needle):
        line = curved_trajectory(40, seed=3)
        (tmp_path / "line.tum").write_text(write_trajectory(line, "tum"))
        shifted = Trajectory(line.timestamps + 0.005, line.poses)
        (tmp_path / "shifted.tum").write_text(write_trajectory(shifted, "tum"))
        (tmp_path / "ones.bvt1").write_bytes(write_bvt1(np.ones((2, 4, 4))))
        (tmp_path / "huge.bvt1").write_bytes(write_bvt1(np.full((1, 4, 4), 1e20)))
        (tmp_path / "four.bvt1").write_bytes(write_bvt1(np.ones((4, 4, 4))))
        if document is not None:
            (tmp_path / "bad.json").write_text(document)
        code, stdout, err = run_cli([a.format(d=tmp_path) for a in argv], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("bevkit: error:") and err.count("\n") == 1, err
        assert needle in err
        assert not (tmp_path / "out").exists()


# Each numeric option, after the arguments its command requires, and the type argparse names in its refusal.
NUMBER_OPTIONS = [
    (["correlate", "--a", "a", "--b", "b", "--out", "o"], "--radius", "int"),
    (["eval-traj", "--est", "e", "--gt", "g"], "--stride", "int"),
    (["eval-traj", "--est", "e", "--gt", "g"], "--max-dt", "float"),
    (["eval-traj", "--est", "e", "--gt", "g"], "--scale-curve-segment-m", "float"),
    (["sample-pairs", "--traj", "t", "--out", "o"], "--seed", "int"),
    (["sample-pairs", "--traj", "t", "--out", "o"], "--draws", "int"),
    (["synth", "--spec", "s", "--out-gt", "g", "--out-est", "e"], "--seed", "int"),
]


class TestNumberOptions:
    """Numeric options read numbers by the text inputs' rule: what only Python reads as a number is a usage error."""

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1\u0662", "+1_0", "x"])
    @pytest.mark.parametrize("argv, option, kind", NUMBER_OPTIONS, ids=[f"{a[0]} {o}" for a, o, _ in NUMBER_OPTIONS])
    def test_refused_by_argparse(self, capsys, argv, option, kind, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{option}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"error: argument {option}: invalid {kind} value: {value!r}")

    def test_plain_numbers_still_read(self, tmp_path, capsys):
        a = tmp_path / "a.bvt1"
        a.write_bytes(write_bvt1(np.ones((1, 3, 3))))
        doc, _ = run_json(["correlate", "--a", str(a), "--b", str(a), "--radius", " 1 ", "--out", str(tmp_path / "v")],
                          capsys)
        assert doc["channels"] == 9
