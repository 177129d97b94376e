"""Property tests: random documents, text, bytes and library arguments end in a result or a one-line error.

Every parser either returns or raises its documented error type; the CLI
returns 0 or 1 and never lets an exception escape; a library call on
values of any finite magnitude returns or raises a one-line ValueError.
Runs are derandomized and use no example database, so the suite stays
deterministic.
"""

import contextlib
import io as stdio
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from bevkit.bvt1 import read_bvt1, write_bvt1
from bevkit.cli import main
from bevkit.config import _CONFIG
from bevkit.correlation import CorrelationVolume, FeatureMap, concat_volumes, local_correlation, peak_displacement
from bevkit.errors import FormatError, ParseError
from bevkit.evaluation import (Trajectory, ate, evaluate_trajectories, log_scale_curve, path_lengths, rte_rre,
                               scale_from_first_10m, scale_trajectory)
from bevkit.flow import (FlowField, FlowStats, construct_flow_gt, displacement_at, flow_error_map, in_grid_mask,
                         l1_flow_loss, solve_pose_from_flow)
from bevkit.formats import (
    associate_by_timestamp,
    parse_csv_trajectory,
    parse_kitti_poses,
    parse_pairs_csv,
    parse_tum_trajectory,
    write_pairs_csv,
    write_trajectory,
)
from bevkit.geometry import (BevGridSpec, CameraModel, Pose2, Pose3, check_rigid, fit_similarity, invert_rigid,
                             is_rotation, pixel_to_vehicle, planar_stack, pose2_to_pose3, pose3_to_pose2,
                             proper_rotation, relative_pose, repair_rotations, rotation_error, vehicle_to_pixel,
                             wrap_angle)
from bevkit.losses import LossWeights, loss_3dof, loss_5dof, loss_total
from bevkit.lss import DepthDistribution, assign_cells, build_frustum, project_volume
from bevkit.sampler import FrameIndex, build_pair_lists, frames_from_trajectory, merge_pair_lists, sample_pair
from bevkit.synth import _PRIMITIVE, _SYNTH_SPEC, SynthSpec, parse_synth_spec
from helpers import FAR_DRIVE_TUM
from test_arguments import (ARRAY_TABLE, CAMERA, EST, FEATURES, GT, PIXEL_MAPS, PIXELS, TABLE,
                            one_line_refusal)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Explicit alphabets: hypothesis's default one builds a unicode table on first use, which takes seconds.
CHARS = "0123456789.,-+eE #\t\r\nnaifxé\x00\"\\"
# Numbers near every field's edges, plus JSON values of the wrong kind.
numbers = (
    st.integers(-3, 70)
    | st.sampled_from([1024, 1025, 2**22, 2**22 + 1, 10**400, 1.5, 1e-300, 1e12, 1e308, -1e308])
    | st.floats()
)
scalars = st.none() | st.booleans() | numbers | st.text(CHARS, max_size=3) | st.sampled_from(["straight", "arc", "stop"])
values = (
    scalars
    | st.lists(numbers, max_size=13)
    | st.lists(scalars, max_size=3)
    | st.dictionaries(st.text(CHARS, max_size=2), scalars, max_size=2)
)


def mostly(common, rare):
    """Draw ``common`` about three times in four, else ``rare``."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


def objects(table):
    """JSON objects over a subset of ``table``'s keys, each value drawn for its field or nested table."""
    fields = {key: mostly(objects(entry) if isinstance(entry, dict) else numbers, values) for key, entry in table.items()}
    return st.fixed_dictionaries({}, optional=fields)


primitive_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["straight", "arc", "stop"]), "duration_s": numbers},
    optional={"speed_mps": numbers, "yaw_rate_dps": numbers},
)
config_docs = mostly(objects(_CONFIG), values)
spec_docs = mostly(
    st.builds(
        lambda doc, prims: {**doc, "primitives": prims},
        objects({k: v for k, v in _SYNTH_SPEC.items() if k != "primitives"}),
        st.lists(mostly(primitive_docs, objects(_PRIMITIVE) | values), max_size=3),
    ),
    objects(_SYNTH_SPEC) | values,
)


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "drive.tum"
    rows = [f"{0.1 * i:.9f} {0.5 * i} {0.01 * i * i} 0 0 0 {0.02 * i} {(1 - 0.0004 * i * i) ** 0.5}" for i in range(6)]
    path.write_text("\n".join(rows) + "\n")
    return path


@settings(FUZZ, max_examples=100)
@given(doc=config_docs)
def test_sample_pairs_never_raises(drive, doc):
    config = drive.with_name("config.json")
    config.write_text(json.dumps(doc))
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sample-pairs", "--traj", str(drive), "--config", str(config),
                     "--out", str(drive.with_name("pairs.csv")), "--draws", "3"])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("bevkit: error:") and err.getvalue().count("\n") == 1


@FUZZ
@given(doc=spec_docs)
def test_parse_synth_spec_returns_or_raises_parse_error(doc):
    try:
        assert isinstance(parse_synth_spec(json.dumps(doc)), SynthSpec)
    except ParseError:
        pass


tokens = st.sampled_from(["0", "1", "-1", "0.5", "1e400", "nan", "inf", "x", "", "#", ",", "0.7071067811865476"])
# a valid row of each format, the timestamp taken from the row number
ROWS = {
    parse_kitti_poses: "1 0 0 {i} 0 1 0 0 0 0 1 0",
    parse_tum_trajectory: "{i} {i} 0 0 0 0 0 1",
    parse_csv_trajectory: "{i},0,{i},0,0,0.7071067811865476,0,0.7071067811865476",
}


def mutate_rows(template, n, edits):
    """``n`` rows from ``template``, then each (row, field, token) edit applied."""
    sep = "," if "," in template else " "
    rows = [template.format(i=i).split(sep) for i in range(n)]
    for row, col, token in edits:
        if rows:
            fields = rows[row % len(rows)]
            fields[col % len(fields)] = token
    return "\n".join(sep.join(fields) for fields in rows)


random_texts = st.lists(st.lists(tokens, max_size=13).map(" ".join), max_size=4).map("\n".join) | st.text(CHARS, max_size=40)
parser_cases = st.sampled_from(list(ROWS)).flatmap(
    lambda parser: st.tuples(
        st.just(parser),
        mostly(
            st.builds(
                mutate_rows,
                st.just(ROWS[parser]),
                st.integers(1, 4),
                st.lists(st.tuples(st.integers(0, 9), st.integers(0, 13), tokens), max_size=2),
            ),
            random_texts,
        ),
    )
)


@FUZZ
@given(case=parser_cases)
def test_trajectory_parsers_return_or_raise_parse_error(case):
    parser, text = case
    try:
        parser(text)
    except ParseError:
        pass


def bvt1_blob(dims, payload, cut):
    """A BVT1 header for ``dims`` followed by ``payload``, cut to ``cut`` bytes when given."""
    blob = b"BVT1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + payload
    return blob if cut is None else blob[:cut]


small_dims = st.lists(st.integers(0, 3), max_size=3)
exact_bvt1_blobs = small_dims.flatmap(
    lambda d: st.binary(min_size=4 * math.prod(d), max_size=4 * math.prod(d)).map(lambda p: bvt1_blob(d, p, None))
)
bvt1_blobs = (
    exact_bvt1_blobs
    | st.builds(bvt1_blob, small_dims, st.binary(max_size=40), st.none() | st.integers(0, 40))
    | st.builds(bvt1_blob, st.lists(st.sampled_from([1, 2**16, 2**32 - 1]), max_size=4), st.binary(max_size=8), st.none())
    | st.binary(max_size=40)
)


@FUZZ
@given(data=bvt1_blobs)
def test_read_bvt1_returns_or_raises_format_error(data):
    try:
        arr = read_bvt1(data)
    except FormatError:
        return
    assert write_bvt1(arr) == data


# Tensor commands: small tensors of drawn shape and values, oversize radii and headers now and then.
SMALL_CONFIG = {"grid": {"h": 12, "w": 12, "resolution_m": 1.0},
                "depth_bins": {"count": 3, "min_m": 1.0, "max_m": 9.0},
                "camera": {"K": [8, 0, 3, 0, 8, 3, 0, 0, 1], "E": [0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1.5]}}
# bytes, the bound of the refuse_cheaply fixture: the drawn tensors are tiny (runs peak near 0.1 MB),
# so a run only nears it when a size guard lets a huge request through
PEAK_CAP = 2**20

finite_values = st.floats(-4.0, 4.0, width=32)
any_values = st.floats(width=32)


def tensor(dims, values):
    """A BVT1 blob of ``dims`` filled from ``values``."""
    n = math.prod(dims)
    return st.lists(values, min_size=n, max_size=n).map(
        lambda vals: b"BVT1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + struct.pack(f"<{n}f", *vals))


def shaped(dims, values=finite_values):
    """Mostly a tensor of ``dims`` from ``values``; else any floats, other small dims, an oversize header or junk."""
    other = st.lists(st.integers(1, 6), min_size=1, max_size=4).flatmap(lambda d: tensor(d, finite_values))
    oversize = st.builds(bvt1_blob, st.just([2**16, 2**16]), st.binary(max_size=8), st.none())
    return mostly(tensor(dims, values), tensor(dims, any_values) | other | oversize | bvt1_blobs)


images = st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7))
# a radius from 6000 up exceeds the 2**27-entry volume cap on every drawn map, even 1x1
radii = mostly(st.integers(0, 4), st.integers(6000, 2**31 - 1) | st.just(-1))
numbers_text = st.sampled_from(["0", "1", "2", "-2.5", "0.25", " 3 ", "1e400", "nan", "1_0", "\u0661", "x", ""])
rows = mostly(st.lists(numbers_text, min_size=2, max_size=3), st.lists(numbers_text, max_size=4)).map(",".join)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, drive):
    d = tmp_path_factory.mktemp("tensors")
    (d / "config.json").write_text(json.dumps(SMALL_CONFIG))
    (d / "drive.tum").write_text(drive.read_text())
    return d


def run_cli(peak_bytes, workdir, argv, files, usage_errors=False, notes=False):
    """Run ``main(argv)`` after writing ``files`` to ``workdir``, which ``{d}`` in ``argv`` names.

    The run must exit 0, or exit 1 with one error line, and allocate under
    the cap.  With ``usage_errors``, argparse's exit 2 after its usage and
    one ``error: argument`` line is allowed too; with ``notes``, one-line
    ``bevkit:`` diagnostics may come before the error line.
    """
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    out, err = stdio.StringIO(), stdio.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return main([a.format(d=workdir) for a in argv])
            except SystemExit as exc:
                return exc.code

    code, peak = peak_bytes(run)
    assert code in ((0, 1, 2) if usage_errors else (0, 1)), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        if notes:
            assert all(line.startswith("bevkit: ") and not line.startswith("bevkit: error:") for line in lines[:-1])
            lines = lines[-1:]
        assert len(lines) == 1 and lines[0].startswith("bevkit: error:") and lines[0].endswith("\n"), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: bevkit ") and ": error: argument " in err.getvalue().splitlines()[-1]
    assert peak < PEAK_CAP, (peak, err.getvalue())
    return code


TENSOR_FUZZ = settings(FUZZ, max_examples=60,
                       suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@TENSOR_FUZZ
@given(data=st.data(), shape=images, radius=radii, side=st.integers(0, 2), normalize=st.booleans())
def test_correlate_exits_cleanly(peak_bytes, workdir, data, shape, radius, side, normalize):
    files = {"a.bvt1": data.draw(shaped(shape)), "b.bvt1": data.draw(shaped(shape))}
    argv = ["correlate", "--a", "{d}/a.bvt1", "--b", "{d}/b.bvt1", "--radius", str(radius), "--out", "{d}/out"]
    if side:
        # a volume to append: (2 r + 1)^2 channels on the same grid
        files["c.bvt1"] = data.draw(shaped(((2 * side - 1) ** 2,) + shape[1:]))
        argv += ["--concat-with", "{d}/c.bvt1"]
    run_cli(peak_bytes, workdir, argv + ["--normalize"] * normalize, files)


@TENSOR_FUZZ
@given(data=st.data(), shape=images, normalized=st.booleans())
def test_lss_project_exits_cleanly(peak_bytes, workdir, data, shape, normalized):
    depth = (SMALL_CONFIG["depth_bins"]["count"],) + shape[1:]
    files = {"f.bvt1": data.draw(shaped(shape)), "d.bvt1": data.draw(shaped(depth, st.floats(0.0, 1.0, width=32)))}
    argv = ["lss-project", "--features", "{d}/f.bvt1", "--depth", "{d}/d.bvt1", "--config", "{d}/config.json", "--out", "{d}/out"]
    run_cli(peak_bytes, workdir, argv + ["--normalized"] * normalized, files)


@TENSOR_FUZZ
@given(pose=st.none() | rows, indices=rows)
def test_flow_make_exits_cleanly(peak_bytes, workdir, pose, indices):
    # the value joined to its option, as argparse reads "-2.5,0" alone as an option
    source = ["--rel-from", "{d}/drive.tum", f"--indices={indices}"] if pose is None else [f"--pose={pose}"]
    run_cli(peak_bytes, workdir, ["flow-make", *source, "--config", "{d}/config.json", "--out", "{d}/out"], {})


@TENSOR_FUZZ
@given(data=st.data(), weighted=st.booleans())
def test_pose_from_flow_exits_cleanly(peak_bytes, workdir, data, weighted):
    grid = (SMALL_CONFIG["grid"]["h"], SMALL_CONFIG["grid"]["w"])
    files = {"flow.bvt1": data.draw(shaped((2,) + grid))}
    argv = ["pose-from-flow", "--flow", "{d}/flow.bvt1", "--config", "{d}/config.json"]
    if weighted:
        files["w.bvt1"] = data.draw(shaped(grid, st.floats(0.0, 2.0, width=32)))
        argv += ["--weights", "{d}/w.bvt1"]
    run_cli(peak_bytes, workdir, argv, files)


# Trajectory commands: small planar drives in every format, an estimate that may need association,
# and option values from the number rule's edge cases; argparse refuses some of them with exit 2.
FORMATS = ("tum", "kitti", "csv")
steps = st.lists(st.tuples(st.just(0.0) | st.floats(0.5, 4.0), st.floats(-0.4, 0.4)), min_size=1, max_size=30)
int_text = st.sampled_from(["0", "1", "2", "3", "-1", " 2 ", "1_0", "١", "x", "", "9223372036854775808",
                            "18446744073709551616"])


def drive_texts(steps, dt, fmt, scale, shift_s, drop):
    """``fmt`` and, as ``fmt`` text, a ground truth along ``steps`` (distance, turn) and an estimate
    with positions times ``scale``, timestamps shifted by ``shift_s`` and the first ``drop`` frames left out."""
    turns = np.concatenate([[0.0], np.cumsum([w for _, w in steps])])
    dists = np.array([d for d, _ in steps])
    tx = np.concatenate([[0.0], np.cumsum(dists * np.cos(turns[:-1]))])
    ty = np.concatenate([[0.0], np.cumsum(dists * np.sin(turns[:-1]))])
    times = dt * np.arange(turns.size)
    gt = Trajectory(times, planar_stack(turns, tx, ty))
    est_poses = np.array(gt.poses)
    est_poses[:, :3, 3] *= scale
    drop = min(drop, turns.size - 1)
    est = Trajectory(times[drop:] + shift_s, est_poses[drop:])
    return fmt, write_trajectory(gt, fmt), write_trajectory(est, fmt)


drives = st.builds(drive_texts, steps, st.sampled_from([0.01, 0.1, 1.0]), st.sampled_from(FORMATS),
                   st.floats(0.5, 2.0), mostly(st.just(0.0), st.sampled_from([0.005, 0.03, 1.0])),
                   mostly(st.just(0), st.integers(1, 3)))


lengths_m = mostly(st.lists(st.sampled_from(["1", "2.5", "5", "20", "1e-320"]), min_size=1, max_size=3).map(",".join),
                   rows)


@TENSOR_FUZZ
@given(data=st.data(), drive=drives, align=st.sampled_from(["se3", "sim3"]), scale_init=st.booleans(),
       lengths=mostly(lengths_m, st.none()), stride=mostly(st.none() | st.sampled_from(["1", "2"]), int_text),
       max_dt=mostly(st.none(), numbers_text), curve_m=st.none() | mostly(st.sampled_from(["1", "5"]), numbers_text))
def test_eval_traj_exits_cleanly(peak_bytes, workdir, data, drive, align, scale_init, lengths, stride, max_dt,
                                 curve_m):
    fmt, gt_text, est_text = drive
    files = {"gt.txt": gt_text.encode(), "est.txt": data.draw(mostly(st.just(est_text), random_texts)).encode()}
    argv = ["eval-traj", "--est", "{d}/est.txt", "--gt", "{d}/gt.txt", "--format", fmt, "--align", align]
    argv += ["--scale-init-10m"] * scale_init
    # each value joined to its option, as argparse reads "-2.5" alone as an option
    for option, value in (("--lengths", lengths), ("--stride", stride), ("--max-dt", max_dt),
                          ("--scale-curve-segment-m", curve_m)):
        if value is not None:
            argv.append(f"{option}={value}")
    if curve_m is not None:
        argv += ["--scale-curve", "{d}/curve.csv"]
    run_cli(peak_bytes, workdir, argv, files, usage_errors=True, notes=True)


# the drives above with every step times 10 ** power, from 1e-300 to 1e300; the segment lengths scale with them
@TENSOR_FUZZ
@given(steps=steps, power=st.integers(-300, 300), fmt=st.sampled_from(FORMATS), scale=st.floats(0.5, 2.0),
       align=st.sampled_from(["se3", "sim3"]), curve_m=st.none() | st.sampled_from([1.0, 5.0]),
       lengths=st.lists(st.sampled_from([1.0, 2.5, 5.0, 20.0]), min_size=1, max_size=3, unique=True))
def test_eval_traj_exits_cleanly_at_extreme_scales(peak_bytes, workdir, steps, power, fmt, scale, align, curve_m,
                                                   lengths):
    unit = 10.0 ** power
    fmt, gt_text, est_text = drive_texts([(d * unit, w) for d, w in steps], 0.1, fmt, scale, 0.0, 0)
    argv = ["eval-traj", "--est", "{d}/est.txt", "--gt", "{d}/gt.txt", "--format", fmt, "--align", align,
            "--lengths=" + ",".join(repr(k * unit) for k in lengths)]
    if curve_m is not None:
        argv += [f"--scale-curve-segment-m={curve_m * unit!r}", "--scale-curve", "{d}/curve.csv"]
    run_cli(peak_bytes, workdir, argv, {"gt.txt": gt_text.encode(), "est.txt": est_text.encode()}, notes=True)


INFINITE_SAMPLER = {"sampler": {"window_s": math.inf, "max_disp_m": math.inf, "low_deg": 0, "high_deg": 180}}
# the drives above as one text, every step times 10 ** power, from 1e-300 to 1e305: every position stays finite
scaled_drives = st.builds(lambda steps, power, fmt: drive_texts([(d * 10.0 ** power, w) for d, w in steps], 0.1, fmt,
                                                                1.0, 0.0, 0)[:2],
                          steps, st.integers(-300, 305), st.sampled_from(FORMATS))


# random drives rarely hold a pair whose relative pose leaves the float range; the far drive does
@TENSOR_FUZZ
@example(drive=("tum", FAR_DRIVE_TUM), sampler=INFINITE_SAMPLER)
@given(drive=scaled_drives, sampler=st.sampled_from([{}, INFINITE_SAMPLER]))
def test_pair_path_exits_cleanly_at_extreme_scales(peak_bytes, workdir, drive, sampler):
    # sample-pairs writes only pairs that parse_pairs_csv reads and flow-make --rel-from takes
    fmt, text = drive
    files = {"pairs-drive.txt": text.encode(), "sampler.json": json.dumps(sampler).encode()}
    argv = ["sample-pairs", "--traj", "{d}/pairs-drive.txt", "--format", fmt, "--config", "{d}/sampler.json",
            "--out", "{d}/pairs.csv"]
    if run_cli(peak_bytes, workdir, argv, files) == 0:
        first = parse_pairs_csv((workdir / "pairs.csv").read_text())[0]
        run_cli(peak_bytes, workdir, ["flow-make", "--rel-from", "{d}/pairs-drive.txt", "--format", fmt,
                                      f"--indices={first.anchor_id},{first.partner_id}", "--config",
                                      "{d}/config.json", "--out", "{d}/flow.bvt1"], {})


def write_drive(workdir, scale=1.1):
    """A 21-frame drive and an estimate with positions times ``scale``, as gt.txt and est.txt in ``workdir``."""
    _, gt_text, est_text = drive_texts([(1.0, 0.1)] * 20, 0.1, "tum", scale, 0.0, 0)
    (workdir / "gt.txt").write_text(gt_text)
    (workdir / "est.txt").write_text(est_text)
    return ["eval-traj", "--est", str(workdir / "est.txt"), "--gt", str(workdir / "gt.txt")]


def test_eval_traj_stride_beyond_the_frames_is_stride_n(workdir, capsys):
    # numpy's arange takes a stride in [2**63, 2**64) as a float
    argv = write_drive(workdir) + ["--lengths=1,2"]
    outputs = []
    for stride in ("21", "9223372036854775808", "18446744073709551616"):
        assert main(argv + [f"--stride={stride}"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# an infinite quotient, and a square past the float range whose RMS is finite but whose
# length the path lengths cannot resolve
@pytest.mark.parametrize("scale, lengths, refused", [(1.1, "100,1e-320", "1e-320"), (1.1, "1e-160", "1e-160"),
                                                     (1.1, "1,1e-320", "1e-320")])
def test_eval_traj_refuses_a_mean_error_beyond_the_float_range(workdir, capsys, scale, lengths, refused):
    assert main(write_drive(workdir, scale) + [f"--lengths={lengths}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bevkit: error: segment length {refused} m")
    assert ("m is below the float resolution" in captured.err) == (refused == "1e-160")
    assert captured.err.count("\n") == 1


def test_eval_traj_reads_an_error_whose_squares_overflow(workdir, capsys):
    # an estimate 4e153 times too long: the squared errors per meter overflow, and the rescaled
    # RMS reads (4e153 - 1) / 0.1 times the 1.1 drive's
    rte = []
    for scale in (1.1, 4e153):
        assert main(write_drive(workdir, scale) + ["--lengths=1"]) == 0
        rte.append(json.loads(capsys.readouterr().out)["rte_percent"])
    assert abs(rte[1] / rte[0] / ((4e153 - 1.0) / 0.1) - 1.0) < 1e-12


def primitive(kind, duration_s, speed_mps, yaw_rate_dps):
    """A primitive document with the fields its kind takes."""
    doc = {"kind": kind, "duration_s": duration_s}
    if kind != "stop":
        doc["speed_mps"] = speed_mps
    if kind == "arc":
        doc["yaw_rate_dps"] = yaw_rate_dps
    return doc


# Valid documents stay small (at most 300 frames); a dt that would make a drive large is one the cap refuses.
synth_primitives = mostly(
    st.builds(primitive, st.sampled_from(["straight", "arc", "stop"]), st.floats(0.05, 10.0), st.floats(-5.0, 5.0),
              st.floats(1.0, 90.0) | st.floats(-90.0, -1.0)),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["straight", "arc", "stop"]),
         "duration_s": st.floats(0.05, 10.0) | st.sampled_from([0.0, -1.0, 1e-300, 1e12, 1e308, math.inf, "1"])},
        optional={"speed_mps": numbers, "yaw_rate_dps": numbers},
    ),
)
small_specs = st.fixed_dictionaries(
    {"primitives": st.lists(synth_primitives, min_size=1, max_size=3)},
    optional={"dt_s": st.sampled_from([0.1, 0.5, 1.0, 1e-300, 0.0, -1.0]),
              "noise_trans_m": mostly(st.floats(0.0, 1.0), numbers),
              "noise_yaw_deg": mostly(st.floats(0.0, 5.0), numbers),
              "scale_drift": mostly(st.floats(0.5, 2.0), numbers),
              "seed": mostly(st.integers(0, 2**64), values)},
)


@TENSOR_FUZZ
@given(doc=mostly(small_specs, objects(_SYNTH_SPEC) | values), seed=st.none() | int_text,
       fmt=mostly(st.sampled_from(FORMATS), st.just("xml")))
def test_synth_exits_cleanly(peak_bytes, workdir, doc, seed, fmt):
    argv = ["synth", "--spec", "{d}/spec.json", "--format", fmt, "--out-gt", "{d}/gt.txt", "--out-est", "{d}/est.txt"]
    if seed is not None:
        argv.append(f"--seed={seed}")
    run_cli(peak_bytes, workdir, argv, {"spec.json": json.dumps(doc).encode()}, usage_errors=True)


# The flow module's library calls, every value scaled by 10 ** k for k from -300 to 307 and grid resolutions
# from 1e-300 to 1e300; each ends in a result or a one-line ValueError subclass, and the suite's "error"
# warning filter fails a numpy RuntimeWarning. The parameters are drawn by the names tests/test_arguments.py's
# tables give them, so a parameter added to the public surface there is drawn here too.
POWERS = {"resolution_m": st.integers(-300, 300)}


def scaled(name, plain):
    """A value for parameter ``name`` whose ordinary value is ``plain``: either bool for a bool, a small grid
    side or stride for an int, else mostly ``plain``, or ``plain`` times a factor in [0.5, 2] and 10 ** k, or 0."""
    if type(plain) is bool:
        return st.booleans()
    if type(plain) is int:
        return st.integers(1, 6)
    powers = POWERS.get(name, st.integers(-300, 307))
    factors = st.builds(lambda f, k: plain * f * 10.0 ** k, st.floats(0.5, 2.0), powers)
    return mostly(st.just(plain), factors | st.just(0.0))


def scaled_array(plain, shape):
    """An array of ``shape`` with the signs ``plain`` allows: standard normal values (their magnitudes when
    ``plain`` is nonnegative) times 10 ** k, or zeros."""
    def make(seed, k, zero):
        values = np.zeros(shape) if zero else np.random.default_rng(seed).standard_normal(shape) * 10.0 ** k
        return np.abs(values) if (plain >= 0.0).all() else values

    return st.builds(make, st.integers(0, 2**32 - 1), st.integers(-300, 307), st.integers(0, 7).map(lambda i: i == 0))


@FUZZ
@given(data=st.data())
def test_flow_library_returns_or_refuses_at_extreme_scales(data):
    def scalars(name):
        return {p: data.draw(scaled(p, v), label=p) for p, v in TABLE[name][1].items()}

    def arrays(name, grid):
        # the tables' arrays are shaped on their own grid; these take the drawn grid's shape
        return {p: data.draw(scaled_array(v, v.shape[:-2] + grid.shape), label=p)
                for p, v in ARRAY_TABLE[name][1].items()}

    grid = one_line_refusal(lambda: TABLE["BevGridSpec"][0](**scalars("BevGridSpec")))
    if not isinstance(grid, BevGridSpec):
        return
    pose = Pose2(**scalars("Pose2"))
    plain = ARRAY_TABLE["FlowField"][1]["data"][0]
    coordinates = {p: data.draw(scaled_array(plain, grid.shape), label=p) for p in PIXEL_MAPS["displacement_at"][1]}
    one_line_refusal(lambda: displacement_at(pose, grid, **coordinates))
    flows = [one_line_refusal(lambda: construct_flow_gt(pose, grid)),
             one_line_refusal(lambda: FlowField(grid=grid, **arrays("FlowField", grid)))]
    flows = [f for f in flows if isinstance(f, FlowField)]
    weights = arrays("solve_pose_from_flow", grid)["weights"] if data.draw(st.booleans(), label="weighted") else None
    for flow in flows:
        one_line_refusal(lambda: in_grid_mask(flow))
        one_line_refusal(lambda: solve_pose_from_flow(flow, weights))
    threshold = scalars("FlowStats.frac_below")
    stats = [one_line_refusal(lambda: FlowStats(**arrays("FlowStats", grid)))]
    if len(flows) == 2:
        pred, gt = flows
        mask = data.draw(st.none() | st.builds(lambda seed: np.random.default_rng(seed).random(grid.shape) < 0.5,
                                               st.integers(0, 2**32 - 1)), label="mask")
        errors = one_line_refusal(lambda: flow_error_map(pred, gt))
        if not isinstance(errors, ValueError):
            assert np.isfinite(errors[0]).all() and (errors[0] >= 0.0).all()
            stats.append(errors[1])
        loss = one_line_refusal(lambda: l1_flow_loss(pred, gt, mask))
        assert isinstance(loss, ValueError) or 0.0 <= loss < math.inf
    for s in stats:
        if isinstance(s, FlowStats):
            assert 0.0 <= float(s._epe.min()) <= s.mean_epe <= s.max_epe < math.inf
            one_line_refusal(lambda: s.frac_below(**threshold))


# The similarity fit and the trajectory metrics, on point sets and drives times 10 ** k for k from -300 to 307,
# by the names tests/test_arguments.py's tables give their parameters; the segment lengths follow the drive or not
@FUZZ
@given(data=st.data())
def test_fit_and_metrics_return_or_refuse_at_extreme_scales(data):
    def scalars(name):
        return {p: data.draw(scaled(p, v), label=p) for p, v in TABLE[name][1].items()}

    points = {p: data.draw(scaled_array(v, v.shape), label=p) for p, v in ARRAY_TABLE["fit_similarity"][1].items()}
    if not data.draw(st.booleans(), label="weighted"):
        points["weights"] = None
    fit = one_line_refusal(lambda: fit_similarity(**points, **scalars("fit_similarity")))
    if not isinstance(fit, ValueError):
        rot, t, scale, sigma = fit
        assert np.isfinite(rot).all() and np.isfinite(t).all() and np.isfinite(sigma).all()
        assert 0.0 <= scale < math.inf

    units = st.builds(lambda f, k: f * 10.0 ** k, st.floats(0.5, 2.0), st.integers(-300, 307))
    unit = data.draw(units, label="unit")
    gt = one_line_refusal(lambda: scale_trajectory(GT, unit))
    est = one_line_refusal(lambda: scale_trajectory(EST, data.draw(mostly(st.just(unit), units), label="est unit")))
    if isinstance(gt, ValueError) or isinstance(est, ValueError):
        return
    for traj in (gt, est):
        dist = path_lengths(traj)
        assert dist[0] == 0.0 and (np.diff(dist) >= 0.0).all()
    follow = unit if data.draw(st.booleans(), label="lengths follow the drive") else 1.0
    for mode in ("se3", "sim3"):
        error = one_line_refusal(lambda: ate(est, gt, mode))
        assert isinstance(error, ValueError) or 0.0 <= error < math.inf
    kw = scalars("rte_rre")
    rel = one_line_refusal(lambda: rte_rre(est, gt, (kw["length"] * follow,), kw["stride"]))
    if not isinstance(rel, ValueError):
        assert 0.0 <= rel.rte_percent < math.inf and 0.0 <= rel.rre_deg_per_100m < math.inf
    curve = one_line_refusal(lambda: log_scale_curve(est, gt, scalars("log_scale_curve")["segment_m"] * follow))
    assert isinstance(curve, ValueError) or np.isfinite(curve.values).all()
    first = one_line_refusal(lambda: scale_from_first_10m(est, gt))
    assert isinstance(first, ValueError) or 0.0 < first < math.inf
    kw = scalars("evaluate_trajectories")
    report = one_line_refusal(lambda: evaluate_trajectories(est, gt, (kw["length"] * follow,), kw["stride"],
                                                            kw["scale_init_10m"]))
    if not isinstance(report, ValueError):
        assert all(math.isfinite(v) for v in (report.rte_percent, report.rre_deg_per_100m, report.ate_se3_m,
                                              report.ate_sim3_m))


# The rest of the library: the geometry callables other than the fit and the metrics, correlation, lift-splat,
# losses, the sampler and the formats, with finite magnitudes from 1e-300 to 1.7e308 in each array and scalar
# parameter, drawn by the names tests/test_arguments.py's tables give them. Each call ends in a result or a
# one-line ValueError subclass; the suite's "error" warning filter fails a numpy RuntimeWarning. Every value is
# a magnitude times a factor in [-1, 1], so building one never overflows.
MAGNITUDES = st.builds(lambda f, k: min(f * 10.0 ** k, 1.7e308), st.floats(0.5, 2.0), st.integers(-300, 308))
# 100 examples: the four tests take about 10 s on a 2-core VM. Without hypothesis's explain phase, which on a
# failure of these many-draw tests ran past the suite's 300 s watchdog
LIBRARY_FUZZ = settings(FUZZ, max_examples=100, phases=[p for p in Phase if p is not Phase.explain])


def extreme(plain):
    """A value for a parameter whose ordinary value is ``plain``: either bool for a bool, else mostly ``plain``,
    or a small int for an int, or a magnitude with its sign, or 0."""
    if type(plain) is bool:
        return st.booleans()
    if type(plain) is int:
        return mostly(st.just(plain), st.integers(1, 6))
    return mostly(st.just(plain), MAGNITUDES.map(lambda m: math.copysign(m, plain)) | st.just(0.0))


def extreme_array(plain, shape=None):
    """An array of ``plain``'s shape, or ``shape``: uniform values in [-1, 1] (their magnitudes when ``plain``
    is nonnegative) times a magnitude, or zeros."""
    shape = plain.shape if shape is None else shape

    def make(seed, m, zero):
        values = np.zeros(shape) if zero else np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * m
        return np.abs(values) if (plain >= 0.0).all() else values

    return st.builds(make, st.integers(0, 2**32 - 1), MAGNITUDES, st.integers(0, 7).map(lambda i: i == 0))


def scaled_like(plain):
    """``plain`` times a magnitude over its largest entry: the same signs and order, largest entry that magnitude."""
    return MAGNITUDES.map(lambda m: plain / float(np.abs(plain).max()) * m)


def far_poses(plain):
    """``plain`` (4, 4) or (N, 4, 4) rigid poses with their translations drawn by :func:`extreme_array`."""
    def move(t):
        poses = np.array(plain)
        poses[..., :3, 3] = t
        return poses

    return extreme_array(plain[..., :3, 3]).map(move)


def drawn_scalars(data, name):
    """Each scalar parameter of ``TABLE[name]``, drawn by :func:`extreme`."""
    return {p: data.draw(extreme(v), label=p) for p, v in TABLE[name][1].items()}


@LIBRARY_FUZZ
@given(data=st.data())
def test_geometry_library_returns_or_refuses_at_extreme_scales(data):
    pose2 = one_line_refusal(lambda: Pose2(**drawn_scalars(data, "Pose2")))
    if isinstance(pose2, Pose2):
        pose3 = one_line_refusal(lambda: pose2_to_pose3(pose2))
        if isinstance(pose3, Pose3):
            assert isinstance(one_line_refusal(lambda: pose3_to_pose2(pose3)), (Pose2, ValueError))
    poses = data.draw(far_poses(GT.poses) | extreme_array(GT.poses), label="poses")
    one_line_refusal(lambda: check_rigid(poses))
    one_line_refusal(lambda: invert_rigid(poses))
    one_line_refusal(lambda: invert_rigid(poses[0]))
    error = one_line_refusal(lambda: rotation_error(poses[:, :3, :3]))
    if not isinstance(error, ValueError):
        is_rotation(*error)
    one_line_refusal(lambda: planar_stack(poses[:, 0, 3], poses[:, 1, 3], poses[:, 2, 3]))
    one_line_refusal(lambda: repair_rotations(np.array(poses)))
    one_line_refusal(lambda: proper_rotation(poses[1, :3, :3]))
    one_line_refusal(lambda: wrap_angle(poses[:, 0, 3]))
    one_line_refusal(lambda: wrap_angle(float(poses[2, 1, 3])))
    a, b = (one_line_refusal(lambda: Pose3(m)) for m in poses[:2])
    if isinstance(a, Pose3) and isinstance(b, Pose3):
        one_line_refusal(lambda: relative_pose(a, b))
    timestamps = data.draw(scaled_like(GT.timestamps[1:]) | extreme_array(GT.timestamps), label="timestamps")
    one_line_refusal(lambda: Trajectory(timestamps, poses[:len(timestamps)]))
    intrinsics = data.draw(scaled_like(CAMERA.intrinsics) | extreme_array(CAMERA.intrinsics), label="intrinsics")
    extrinsics = data.draw(far_poses(CAMERA.extrinsics) | extreme_array(CAMERA.extrinsics), label="extrinsics")
    one_line_refusal(lambda: CameraModel(intrinsics, extrinsics))
    grid = one_line_refusal(lambda: TABLE["BevGridSpec"][0](**drawn_scalars(data, "BevGridSpec")))
    if isinstance(grid, BevGridSpec):
        for call in (pixel_to_vehicle, vehicle_to_pixel):
            coordinates = {p: data.draw(extreme_array(PIXELS), label=p) for p in PIXEL_MAPS[call.__name__][1]}
            one_line_refusal(lambda: call(**coordinates, grid=grid))


@LIBRARY_FUZZ
@given(data=st.data(), radius=st.integers(0, 2), normalize=st.booleans())
def test_correlation_and_lss_return_or_refuse_at_extreme_scales(data, radius, normalize):
    maps = [data.draw(extreme_array(f.data), label="feature map") for f in FEATURES]
    f_t, f_t1 = (one_line_refusal(lambda: FeatureMap(m)) for m in maps)
    volume = one_line_refusal(lambda: local_correlation(f_t, f_t1, radius, normalize))
    if isinstance(volume, CorrelationVolume):
        assert np.isfinite(volume.data).all()
        one_line_refusal(lambda: peak_displacement(volume))
        one_line_refusal(lambda: concat_volumes(volume, volume))
    plain = ARRAY_TABLE["CorrelationVolume"][1]["data"]
    one_line_refusal(lambda: CorrelationVolume(data.draw(extreme_array(plain), label="volume")))
    depth_plain, bins_plain = (ARRAY_TABLE["DepthDistribution"][1][p] for p in ("data", "bins"))
    depth_data = data.draw(extreme_array(depth_plain, (2, *FEATURES[0].spatial_shape)), label="depth")
    bins = data.draw(mostly(scaled_like(bins_plain), extreme_array(bins_plain)), label="bins")
    normalized = data.draw(mostly(st.just(False), st.just(True)), label="normalized")
    depth = one_line_refusal(lambda: DepthDistribution(depth_data, bins, normalized))
    frustum = one_line_refusal(lambda: build_frustum(CAMERA, bins, FEATURES[0].spatial_shape))
    grid = one_line_refusal(lambda: TABLE["BevGridSpec"][0](**drawn_scalars(data, "BevGridSpec")))
    if not isinstance(grid, BevGridSpec):
        return
    if not isinstance(frustum, ValueError):
        assert np.isfinite(frustum).all()
        one_line_refusal(lambda: assign_cells(frustum, grid))
    plain_frustum = ARRAY_TABLE["assign_cells"][1]["frustum"]
    one_line_refusal(lambda: assign_cells(data.draw(extreme_array(plain_frustum), label="frustum"), grid))
    if isinstance(f_t, FeatureMap) and isinstance(depth, DepthDistribution):
        bev = one_line_refusal(lambda: project_volume(f_t, depth, CAMERA, grid))
        assert isinstance(bev, ValueError) or np.isfinite(bev[0]).all()


@LIBRARY_FUZZ
@given(data=st.data())
def test_losses_return_or_refuse_at_extreme_scales(data):
    weights = one_line_refusal(lambda: LossWeights(**drawn_scalars(data, "LossWeights")))
    poses = [one_line_refusal(lambda: Pose2(**drawn_scalars(data, "Pose2"))) for _ in range(2)]
    if all(isinstance(p, Pose2) for p in poses):
        loss = one_line_refusal(lambda: loss_3dof(*poses, **drawn_scalars(data, "loss_3dof")))
        assert isinstance(loss, ValueError) or 0.0 <= loss < math.inf
    arrays = {p: data.draw(extreme_array(v), label=p) for p, v in ARRAY_TABLE["loss_5dof"][1].items()}
    loss = one_line_refusal(lambda: loss_5dof(**arrays, **drawn_scalars(data, "loss_5dof")))
    assert isinstance(loss, ValueError) or 0.0 <= loss < math.inf
    if isinstance(weights, LossWeights):
        loss = one_line_refusal(lambda: loss_total(**drawn_scalars(data, "loss_total"), weights=weights))
        assert isinstance(loss, ValueError) or math.isfinite(loss)


@LIBRARY_FUZZ
@given(data=st.data())
def test_sampler_and_formats_return_or_refuse_at_extreme_scales(data):
    timestamps = data.draw(scaled_like(GT.timestamps[1:]) | extreme_array(GT.timestamps), label="timestamps")
    poses = data.draw(far_poses(GT.poses[:len(timestamps)]), label="poses")
    frames = one_line_refusal(lambda: frames_from_trajectory(timestamps, poses))
    one_line_refusal(lambda: FrameIndex(**drawn_scalars(data, "FrameIndex"), pose=Pose3(np.eye(4))))
    if isinstance(frames, list):
        kw = drawn_scalars(data, "build_pair_lists")
        lists = one_line_refusal(lambda: build_pair_lists(frames, **kw))
        if isinstance(lists, dict):
            pool = merge_pair_lists(lists)
            for record in pool.high + pool.standard:
                assert 0.0 <= record.yaw_diff_deg <= 180.0 and 0.0 <= record.displacement_m < math.inf
            if len(pool):
                assert sample_pair(pool, np.random.default_rng(0)) in pool.high + pool.standard
                assert parse_pairs_csv(write_pairs_csv(pool.high + pool.standard)) == pool.high + pool.standard
    times = {p: data.draw(scaled_like(v[1:]) | extreme_array(v), label=p)
             for p, v in ARRAY_TABLE["associate_by_timestamp"][1].items()}
    one_line_refusal(lambda: associate_by_timestamp(**times, **drawn_scalars(data, "associate_by_timestamp")))
    for name, param in (("quat_to_matrix", "quat"), ("matrix_to_quat", "rot")):
        plain = ARRAY_TABLE[name][1][param]
        one_line_refusal(lambda: ARRAY_TABLE[name][0](data.draw(extreme_array(plain), label=param)))
    traj = one_line_refusal(lambda: Trajectory(timestamps, poses))
    if isinstance(traj, Trajectory):
        for fmt in FORMATS:
            one_line_refusal(lambda: write_trajectory(traj, fmt))
