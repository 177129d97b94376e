"""Every scalar argument of the library passes the one rule of ``bevkit.text.check_arg``, every array the one of ``check_array``.

Each callable that takes a scalar is called once per scalar parameter
with each hostile value, the others held at an ordinary value.  A call
passes when it returns, or raises a ``ValueError`` subclass with a
one-line message; any other exception, or a numpy warning (the suite
turns warnings into errors), fails it.  A value no rule of the
parameter's kind admits, such as a bool or a str for a number, must be
refused, not coerced.  numpy integers and floats give the result the
plain Python value gives, bit for bit.  The array parameters get a table
of hostile arrays by the same rules, and a Fortran-ordered array gives
the bytes and the layout a C-ordered one gives.
"""

import dataclasses
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from bevkit.bvt1 import write_bvt1
from bevkit.cli import main
from bevkit.config import default_config
from bevkit.correlation import CorrelationVolume, FeatureMap, channel_index, channel_offset, local_correlation
from bevkit.errors import InvalidCameraError, ShapeError
from bevkit.evaluation import evaluate_trajectories, log_scale_curve, rte_rre, scale_trajectory
from bevkit.flow import FlowField, FlowStats, construct_flow_gt, displacement_at, l1_flow_loss, solve_pose_from_flow
from bevkit.formats import associate_by_timestamp, matrix_to_quat, quat_to_matrix
from bevkit.geometry import (BevGridSpec, CameraModel, Pose2, Pose3, Trajectory, check_rigid, fit_similarity,
                             pixel_to_vehicle, proper_rotation, vehicle_to_pixel)
from bevkit.losses import LossWeights, loss_3dof, loss_5dof, loss_total
from bevkit.lss import DepthDistribution, assign_cells, build_frustum
from bevkit.sampler import FrameIndex, build_pair_lists, frames_from_trajectory
from bevkit.synth import MotionPrimitive, SynthSpec, synth_trajectory
from bevkit.text import FINITE, FLAG, INTEGER, check_arg, check_array, integer_in

from helpers import rot_z

HOSTILE = [True, "1", 2.7, 10**400, math.inf, -math.inf, math.nan, 1e308, 5e-324, None]

_RNG = np.random.default_rng(22)
_PRIMS = (MotionPrimitive("straight", 10.0, 2.0), MotionPrimitive("arc", 10.0, 2.0, 10.0))
GT, EST = synth_trajectory(SynthSpec(_PRIMS, dt_s=0.5, noise_trans_m=0.05, noise_yaw_deg=0.5, seed=1))
FRAMES = frames_from_trajectory(GT.timestamps, GT.poses)
FEATURES = FeatureMap(_RNG.standard_normal((2, 5, 6))), FeatureMap(_RNG.standard_normal((2, 5, 6)))
POINTS = _RNG.standard_normal((6, 3))
BINS = np.array([1.0, 2.0])

# callable name -> (call, its scalar parameters at ordinary values); every
# float is one a float32 holds, so np.float32 and the plain value agree
TABLE = {
    "FrameIndex": (lambda id, timestamp: FrameIndex(id, timestamp, Pose3(np.eye(4))), {"id": 3, "timestamp": 0.5}),
    "build_pair_lists": (lambda **kw: build_pair_lists(FRAMES, **kw),
                         {"window_s": 1.0, "max_disp_m": 4.0, "low_deg": 2.0, "high_deg": 45.0}),
    "local_correlation": (lambda radius, normalize: local_correlation(*FEATURES, radius, normalize),
                          {"radius": 1, "normalize": True}),
    "channel_index": (channel_index, {"dx": 1, "dy": -1, "radius": 2}),
    "channel_offset": (channel_offset, {"index": 7, "radius": 2}),
    "rte_rre": (lambda stride, length: rte_rre(EST, GT, (length,), stride), {"stride": 2, "length": 10.0}),
    "evaluate_trajectories": (
        lambda stride, length, scale_init_10m: evaluate_trajectories(EST, GT, (length,), stride, scale_init_10m),
        {"stride": 2, "length": 10.0, "scale_init_10m": True}),
    "scale_trajectory": (lambda scale: scale_trajectory(EST, scale), {"scale": 2.0}),
    "log_scale_curve": (lambda segment_m: log_scale_curve(EST, GT, segment_m), {"segment_m": 10.0}),
    "associate_by_timestamp": (lambda max_dt_s: associate_by_timestamp(GT.timestamps, GT.timestamps + 0.125, max_dt_s),
                               {"max_dt_s": 0.25}),
    "Pose2": (Pose2, {"theta": 0.5, "tx": 1.0, "ty": -2.0}),
    "BevGridSpec": (lambda height_px, width_px, resolution_m, o_x, o_y:
                    BevGridSpec(height_px, width_px, resolution_m, (o_x, o_y)),
                    {"height_px": 8, "width_px": 6, "resolution_m": 0.5, "o_x": 3.5, "o_y": 2.5}),
    "fit_similarity": (lambda with_scale: fit_similarity(POINTS, 2.0 * POINTS + 1.0, with_scale=with_scale),
                       {"with_scale": True}),
    "LossWeights": (LossWeights, {"alpha": 10.0, "beta": 10.0, "lambda1": 1.0, "lambda2": 0.5}),
    "loss_3dof": (lambda alpha: loss_3dof(Pose2(0.5, 1.0, 2.0), Pose2(0.25, 1.5, 2.0), alpha), {"alpha": 10.0}),
    "loss_5dof": (lambda beta: loss_5dof(np.array([1.0, 0.0, 0.0]), np.eye(3), np.array([0.6, 0.8, 0.0]),
                                         rot_z(0.25), beta), {"beta": 10.0}),
    "loss_total": (loss_total, {"l3dof": 1.5, "l5dof": 0.25, "lflow": 0.5}),
    "MotionPrimitive": (lambda **kw: MotionPrimitive("arc", **kw),
                        {"duration_s": 2.0, "speed_mps": 1.5, "yaw_rate_dps": 10.0}),
    "SynthSpec": (lambda **kw: SynthSpec(_PRIMS, **kw),
                  {"dt_s": 0.5, "noise_trans_m": 0.25, "noise_yaw_deg": 0.5, "scale_drift": 1.0, "seed": 3}),
    "build_frustum": (lambda h, w: build_frustum(default_config().camera, BINS, (h, w)), {"h": 2, "w": 3}),
    "DepthDistribution": (lambda normalized: DepthDistribution(np.full((2, 3, 4), 0.5), BINS, normalized),
                          {"normalized": True}),
    "FlowStats.frac_below": (lambda threshold_px: FlowStats(np.array([[0.25, 0.75, 1.5]])).frac_below(threshold_px),
                             {"threshold_px": 0.5}),
}

CASES = [(name, param) for name, (_, params) in TABLE.items() for param in params]


def never_admitted(value, plain) -> bool:
    """Whether no rule of the kind of ``plain``, a parameter's ordinary value, admits ``value``."""
    if type(plain) is bool:
        return value is not True
    if value is True or value is None or isinstance(value, str) or value != value:
        return True
    if type(plain) is int:
        return type(value) is float
    return type(value) is int and abs(value) > sys.float_info.max


def one_line_refusal(call):
    """The result of ``call()``, or the ValueError it raised, which must have a one-line message."""
    try:
        return call()
    except ValueError as exc:
        assert "\n" not in str(exc), f"{type(exc).__name__} over more than one line: {exc}"
        return exc


@pytest.mark.parametrize("name, param", CASES, ids=[f"{name}-{param}" for name, param in CASES])
def test_hostile_scalar_returns_or_refuses_in_one_line(name, param):
    call, params = TABLE[name]
    for value in HOSTILE:
        result = one_line_refusal(lambda: call(**{**params, param: value}))
        if never_admitted(value, params[param]):
            assert isinstance(result, ValueError), f"{param}={value!r} was admitted"


@pytest.mark.parametrize("name, param", CASES, ids=[f"{name}-{param}" for name, param in CASES])
def test_numpy_scalars_give_the_plain_value_result(name, param):
    call, params = TABLE[name]
    plain = params[param]
    kinds = {bool: [np.bool_], int: [np.int64, np.int32], float: [np.float32, np.float64]}[type(plain)]
    expected = call(**params)
    for kind in kinds:
        assert same(call(**{**params, param: kind(plain)}), expected), kind.__name__


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` are equal bit for bit, of the same types, through containers and dataclasses."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


# the CLI options the CLI checks itself, each with the rest of a command that
# would go on to fail on a missing file
CLI_OPTIONS = {
    "--max-dt": ["eval-traj", "--est", "none.tum", "--gt", "none.tum"],
    "--scale-curve-segment-m": ["eval-traj", "--est", "none.tum", "--gt", "none.tum"],
    "--draws": ["sample-pairs", "--traj", "none.tum", "--out", "none.csv"],
    "--seed": ["sample-pairs", "--traj", "none.tum", "--out", "none.csv"],
}


@pytest.mark.parametrize("option", CLI_OPTIONS)
def test_cli_option_hostile_values_end_in_one_line(option, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for value in HOSTILE:
        try:
            code = main([*CLI_OPTIONS[option], option, str(value)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code in (1, 2), (value, code)
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("bevkit: error: "), err


class TestCheckArg:
    def test_returns_plain_values(self):
        assert type(check_arg("n", np.int64(3), INTEGER)) is int
        assert type(check_arg("x", np.float32(0.5), FINITE)) is float
        assert type(check_arg("x", 2, FINITE)) is float
        assert check_arg("f", np.bool_(True), FLAG) is True
        assert check_arg("x", Fraction(1, 4), FINITE) == 0.25

    @pytest.mark.parametrize("rule, value, text", [
        (integer_in(1), 0, "n must be an integer >= 1, got 0"),
        (integer_in(1, 4), np.int64(5), "n must be an integer in [1, 4], got np.int64(5)"),
        (INTEGER, True, "n must be an integer, got True"),
        (FINITE, 10**400, f"n must be a finite number, got {10**400}"),
        (FINITE, np.float32(math.inf), "n must be a finite number, got np.float32(inf)"),
        (FINITE, np.longdouble("1e400"), f"n must be a finite number, got {np.longdouble('1e400')!r}"),
        (FINITE, Fraction(10**400), f"n must be a finite number, got {Fraction(10**400)!r}"),
        (FLAG, 1, "n must be a bool, got 1"),
    ])
    def test_refusal_names_parameter_and_value(self, rule, value, text):
        with pytest.raises(ValueError) as info:
            check_arg("n", value, rule)
        assert str(info.value) == text


# ---------------------------------------------------------------------------
# array arguments

CAMERA = default_config().camera
GRID = BevGridSpec(8, 6, 0.5)
FLOW = construct_flow_gt(Pose2(0.1, 0.5, -0.25), GRID)

# callable name -> (call, its array parameters at ordinary values)
ARRAY_TABLE = {
    "Pose3": (Pose3, {"matrix": GT.poses[3]}),
    "Trajectory": (Trajectory, {"timestamps": GT.timestamps, "poses": GT.poses}),
    "CameraModel": (CameraModel, {"intrinsics": CAMERA.intrinsics, "extrinsics": CAMERA.extrinsics}),
    "FlowField": (lambda data: FlowField(data, GRID), {"data": FLOW.data}),
    "solve_pose_from_flow": (lambda weights: solve_pose_from_flow(FLOW, weights),
                             {"weights": np.linspace(0.5, 1.5, 48).reshape(GRID.shape)}),
    "FeatureMap": (FeatureMap, {"data": FEATURES[0].data}),
    "CorrelationVolume": (CorrelationVolume, {"data": _RNG.standard_normal((9, 5, 6))}),
    "DepthDistribution": (DepthDistribution, {"data": np.full((2, 3, 4), 0.5), "bins": BINS}),
    "build_frustum": (lambda bins: build_frustum(CAMERA, bins, (2, 3)), {"bins": BINS}),
    "assign_cells": (lambda frustum: assign_cells(frustum, GRID),
                     {"frustum": build_frustum(CAMERA, BINS, (2, 3))}),
    "loss_5dof": (loss_5dof, {"t_pred": np.array([1.0, 0.0, 0.0]), "rot_pred": np.eye(3),
                              "t_gt": np.array([0.6, 0.8, 0.0]), "rot_gt": rot_z(0.25)}),
    "frames_from_trajectory": (frames_from_trajectory, {"timestamps": GT.timestamps, "poses": GT.poses}),
    "associate_by_timestamp": (lambda times_a, times_b: associate_by_timestamp(times_a, times_b, 0.25),
                               {"times_a": GT.timestamps, "times_b": GT.timestamps + 0.125}),
    "fit_similarity": (lambda src, dst, weights: fit_similarity(src, dst, weights, with_scale=True),
                       {"src": POINTS, "dst": 2.0 * POINTS + 1.0, "weights": np.linspace(0.5, 1.5, len(POINTS))}),
    "check_rigid": (check_rigid, {"poses": GT.poses}),
    "quat_to_matrix": (quat_to_matrix, {"quat": np.array([[0.1, 0.2, 0.3, 0.9], [0.5, -0.5, 0.5, 0.5]])}),
    "matrix_to_quat": (matrix_to_quat, {"rot": GT.poses[:3, :3, :3]}),
    "FlowStats": (lambda epe: vars(FlowStats(epe)), {"epe": np.linspace(0.0, 2.0, 48).reshape(GRID.shape)}),
}

ARRAY_CASES = [(name, param) for name, (_, params) in ARRAY_TABLE.items() for param in params]


def first_set(v, x, dtype=float):
    """A copy of ``v`` as ``dtype`` whose first entry is ``x``."""
    a = np.array(v, dtype=dtype)
    a.flat[0] = x
    return a


# hostile array name -> the array made from an ordinary float array; all but
# the dtype ones keep float64, and only a zero-length axis may be accepted
HOSTILE_ARRAYS = {
    "bool": lambda v: v.astype(bool),
    "str": lambda v: v.astype(str),
    "fraction": lambda v: np.array(list(map(Fraction, v.ravel().tolist())), dtype=object).reshape(v.shape),
    "complex": lambda v: v.astype(complex),
    "longdouble-1e400": lambda v: first_set(v, np.longdouble("1e400"), np.longdouble),
    "nan": lambda v: first_set(v, math.nan),
    "inf": lambda v: first_set(v, -math.inf),
    "wrong-rank": lambda v: v[None],
    "zero-length": lambda v: v[:0],
}
WRONG_DTYPES = ("bool", "str", "fraction", "complex", "longdouble-1e400")


@pytest.mark.parametrize("name, param", ARRAY_CASES, ids=[f"{name}-{param}" for name, param in ARRAY_CASES])
def test_hostile_array_returns_or_refuses_in_one_line(name, param):
    call, params = ARRAY_TABLE[name]
    for kind, make in HOSTILE_ARRAYS.items():
        value = make(params[param])
        result = one_line_refusal(lambda: call(**{**params, param: value}))
        if kind != "zero-length":
            assert isinstance(result, ValueError), f"{param} as a {kind} array was admitted"
        if kind in WRONG_DTYPES:
            assert str(result).startswith(param) or f" {param} must hold" in str(result), str(result)


@pytest.mark.parametrize("name, param", ARRAY_CASES, ids=[f"{name}-{param}" for name, param in ARRAY_CASES])
def test_fortran_order_gives_the_c_order_bytes(name, param):
    call, params = ARRAY_TABLE[name]
    value = np.asfortranarray(params[param])
    expected = call(**params)
    assert same(call(**{**params, param: value}), expected)


I3 = np.eye(3)

# each call was accepted, warned or ended in TypeError before the array rule;
# now each raises a ValueError subclass whose one line starts with what it names
REFUSED = {
    "loss_5dof-str-translation": (lambda: loss_5dof(["1", "0", "0"], I3, [1, 0, 0], I3), ValueError, "t_pred must hold"),
    "Pose3-bool": (lambda: Pose3(np.eye(4, dtype=bool)), ValueError, "pose matrix must hold"),
    "FeatureMap-str": (lambda: FeatureMap(np.ones((1, 2, 2)).astype(str)), ValueError, "feature map data must hold"),
    "FeatureMap-complex": (lambda: FeatureMap(np.ones((1, 2, 2), dtype=complex)), ValueError,
                           "feature map data must hold"),
    "Trajectory-bool-timestamps": (lambda: Trajectory([False, True], np.stack([np.eye(4)] * 2)), ValueError,
                                   "timestamps must hold"),
    "DepthDistribution-bool-bins": (lambda: DepthDistribution(np.full((2, 3, 4), 0.5), [False, True]), ValueError,
                                    "depth bins must hold"),
    "solve_pose_from_flow-str-weights": (lambda: solve_pose_from_flow(FLOW, np.ones(GRID.shape).astype(str)),
                                         ValueError, "weights must hold"),
    "CameraModel-str": (lambda: CameraModel(CAMERA.intrinsics.astype(str), CAMERA.extrinsics), InvalidCameraError,
                        "intrinsics must hold"),
    "associate-2d": (lambda: associate_by_timestamp([[0.0, 1.0]], [0.0, 1.0], 0.1), ShapeError,
                     "times_a must have shape (N,)"),
    "associate-nan": (lambda: associate_by_timestamp([0.0, math.nan, 2.0], [0.0, 1.0], 0.1), ValueError,
                      "times_a contains non-finite entries"),
    "l1_flow_loss-float-mask": (lambda: l1_flow_loss(FLOW, FLOW, np.full(GRID.shape, 0.5)), ValueError,
                                "mask must be a bool array, got dtype float64"),
    "l1_flow_loss-str-mask": (lambda: l1_flow_loss(FLOW, FLOW, np.full(GRID.shape, "no")), ValueError,
                              "mask must be a bool array"),
    "channel_offset-fractional": (lambda: channel_offset(np.array([2.5, 7.0]), 1), ValueError,
                                  "index must be an integer array, got dtype float64"),
    "channel_offset-bool": (lambda: channel_offset(np.array([True, False]), 1), ValueError,
                            "index must be an integer array, got dtype bool"),
    "BevGridSpec-three-origin-entries": (lambda: BevGridSpec(8, 8, 0.5, (1, 2, 3)), ShapeError,
                                         "origin_px must hold 2 entries, got shape (3,)"),
    "loss_3dof-overflow": (lambda: loss_3dof(Pose2(0.0, 1e308, 0.0), Pose2(0.0, -1e308, 0.0)), ValueError,
                           "loss_3dof leaves the float range, got inf"),
    "loss_5dof-overflow": (lambda: loss_5dof([1, 0, 0], 1e307 * I3, [1, 0, 0], 0 * I3, beta=100.0), ValueError,
                           "loss_5dof leaves the float range, got inf"),
    "loss_total-overflow": (lambda: loss_total(1e308, 1e308, 0.0), ValueError,
                            "loss_total leaves the float range, got inf"),
    "fit_similarity-str": (lambda: fit_similarity(I3.astype(str), I3), ValueError, "src must hold"),
    "fit_similarity-complex": (lambda: fit_similarity(I3.astype(complex), I3), ValueError, "src must hold"),
    "check_rigid-complex": (lambda: check_rigid(np.zeros((1, 4, 4), dtype=complex)), ValueError, "poses must hold"),
    "quat_to_matrix-str": (lambda: quat_to_matrix(np.array([["0", "0", "0", "1"]])), ValueError, "quat must hold"),
    "matrix_to_quat-str": (lambda: matrix_to_quat(I3[None].astype(str)), ValueError, "rot must hold"),
    "FlowStats-str": (lambda: FlowStats(np.array(["0.5", "1"])), ValueError, "epe must hold"),
    "FlowStats-nan": (lambda: FlowStats(np.array([[0.5, math.nan]])), ValueError, "epe contains non-finite entries"),
    "proper_rotation-str": (lambda: proper_rotation(I3.astype(str)), ValueError, "m must hold"),
    # an all-NaN or all-inf matrix ended in LinAlgError, an inf on the diagonal hung LAPACK's SVD
    "proper_rotation-nan": (lambda: proper_rotation(np.full((3, 3), math.nan)), ValueError,
                            "m contains non-finite entries"),
    "proper_rotation-inf": (lambda: proper_rotation(np.full((3, 3), -math.inf)), ValueError,
                            "m contains non-finite entries"),
    # a ragged nest of sequences got numpy's bare message from the caller's np.shape
    "write_bvt1-ragged": (lambda: write_bvt1([[1.0, 2.0], [3.0]]), ValueError, "array: "),
}

# the coordinates of the pixel maps broadcast against each other, so a wrong
# rank is no fault of theirs: they cannot join ARRAY_TABLE, whose "wrong-rank"
# case must be refused, and take its dtype and finiteness cases here
PIXEL_MAPS = {
    "pixel_to_vehicle": (lambda u, v: pixel_to_vehicle(u, v, GRID), ("u", "v")),
    "displacement_at": (lambda u, v: displacement_at(Pose2(0.1, 0.5, -0.25), GRID, u, v), ("u", "v")),
    "vehicle_to_pixel": (lambda x, y: vehicle_to_pixel(x, y, GRID), ("x", "y")),
}
PIXELS = np.array([[1.0, 2.0, 3.5], [0.0, 7.0, 4.25]])


def _pixel_map_with(name, param, value):
    """A call of the pixel map ``name`` with ``value`` as ``param`` and ``PIXELS`` as the other coordinate."""
    call, params = PIXEL_MAPS[name]
    return lambda: call(**{**dict.fromkeys(params, PIXELS), param: value})


REFUSED.update({
    f"{name}-{param}-{kind}": (
        _pixel_map_with(name, param, HOSTILE_ARRAYS[kind](PIXELS)),
        ValueError, f"{param} contains non-finite entries" if kind in ("nan", "inf") else f"{param} must hold")
    for name, (_, params) in PIXEL_MAPS.items() for param in params
    for kind in ("str", "bool", "complex", "fraction", "nan", "inf")
})
REFUSED.update({
    f"{name}-{param}-ragged": (_pixel_map_with(name, param, [[1, 2], [3]]), ValueError, f"{param}: ")
    for name, (_, params) in PIXEL_MAPS.items() for param in params
})


@pytest.mark.parametrize("call, kind, text", REFUSED.values(), ids=REFUSED.keys())
def test_listed_coercions_are_refused(call, kind, text):
    with pytest.raises(kind) as info:
        call()
    assert str(info.value).startswith(text) and "\n" not in str(info.value), str(info.value)


@pytest.mark.parametrize("u, v", [
    (3, 5), (2.5, -1.25), (np.float32(2.5), np.int64(7)), ([0, 1, 2], [4.5, 5.5, 6.5]),
    (np.arange(6).reshape(2, 3), np.arange(6, 0, -1).reshape(2, 3)),
    (np.linspace(0, 5, 6, dtype=np.float32).reshape(2, 3), PIXELS),
    (np.asfortranarray(PIXELS.T), np.asfortranarray(PIXELS.T + 0.5)),
    (np.arange(6.0)[None, :], np.arange(4.0)[:, None]), (np.arange(4.0)[:, None], 2.0),
], ids=["int-scalars", "float-scalars", "numpy-scalars", "lists", "ints", "float32", "fortran", "broadcast",
        "column-scalar"])
@pytest.mark.parametrize("name", PIXEL_MAPS)
def test_pixel_maps_give_the_bits_of_coerced_coordinates(name, u, v):
    # np.asarray(x, dtype=float) is how the pixel maps took u and v before the array rule
    call = PIXEL_MAPS[name][0]
    got, want = call(u, v), call(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    for a, b in zip(got, want):
        assert type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_origin_entries_keep_the_scalar_rule():
    # numpy makes (True, 0) an int array, which the array rule would take
    with pytest.raises(ValueError, match=r"^origin_px\[0\] must be a finite number, got True$"):
        BevGridSpec(8, 8, 0.5, (True, 0))
    assert BevGridSpec(8, 8, 0.5, np.array([1, 2])).origin_px == (1.0, 2.0)


def test_unsigned_and_narrow_channel_indices():
    index = np.array([0, 4, 8])
    for kind in (np.uint8, np.uint64, np.int32):
        dx, dy = channel_offset(index.astype(kind), 1)
        assert dx.tolist() == [-1, 0, 1] and dy.tolist() == [-1, 0, 1], kind
    assert channel_offset(index.astype(np.int32), 1)[0].dtype == np.int32
    with pytest.raises(ValueError, match="^channel 9 outside volume with radius 1$"):
        channel_offset(np.array([[0, 9], [4, 10]]), 1)


def test_an_empty_stream_pairs_nothing():
    assert associate_by_timestamp([], GT.timestamps, 0.25) == []
    assert associate_by_timestamp(GT.timestamps, np.zeros(0), 0.25) == []


class TestCheckArray:
    @pytest.mark.parametrize("dtype", [float, np.float32])
    @pytest.mark.parametrize("kind", HOSTILE_ARRAYS)
    def test_the_float32_opt_in_refuses_what_the_rule_refuses(self, kind, dtype):
        # the table's arrays, from a float64 or a float32 map, with their NaN or inf entry in the map's dtype
        plain = np.linspace(0.5, 2.0, 12).reshape(2, 2, 3).astype(dtype)
        value = HOSTILE_ARRAYS[kind](plain)
        if kind in ("nan", "inf"):
            value = value.astype(dtype)
        got = [one_line_refusal(lambda keep=keep: check_array("x", value, ("C", "H", "W"), keep_float32=keep))
               for keep in (False, True)]
        assert all(isinstance(g, ValueError) for g in got), f"a {kind} array was admitted"
        assert type(got[0]) is type(got[1]) and str(got[0]) == str(got[1])

    @pytest.mark.parametrize("value", [
        [[1, 2], [3, 4]], np.arange(4, dtype=np.uint64).reshape(2, 2), np.float16([[0.1, 2], [3, 4]]),
        np.arange(8.0).reshape(2, 4)[:, ::2], np.asfortranarray([[0.1, 0.2], [0.3, 0.4]]), [[1.5, 2**62 + 1], [3, 4]],
    ], ids=["int-list", "uint64", "float16", "strided", "fortran", "mixed-list"])
    def test_the_float32_opt_in_keeps_the_float64_copy_of_any_other_dtype(self, value):
        got = check_array("x", value, (2, "N"), keep_float32=True)
        assert got.tobytes() == check_array("x", value, (2, "N")).tobytes() and got.dtype == np.float64

    @pytest.mark.parametrize("value", [
        np.float32([[0.1, 2], [3, 4]]), np.asfortranarray(np.float32([[0.1, 0.2], [0.3, 0.4]])),
        np.float32([[0.1, 2, 5], [3, 4, 6]])[:, ::2], np.float32([[0.1, 2], [3, 4]]).astype(">f4"),
        np.full((2, 3), 3e38, np.float32),
    ], ids=["float32", "fortran", "strided", "big-endian", "sum-inf"])
    def test_the_float32_opt_in_keeps_a_frozen_c_ordered_float32_copy(self, value):
        got = check_array("x", value, (2, "N"), keep_float32=True)
        assert got.dtype == np.float32 and got.dtype.isnative and np.array_equal(got, value)
        assert got.flags.c_contiguous and not got.flags.writeable and not np.shares_memory(got, value)

    @pytest.mark.parametrize("value", [
        [[1, 2], [3, 4]], np.arange(4, dtype=np.uint64).reshape(2, 2), np.float32([[0.1, 2], [3, 4]]),
        np.arange(8.0).reshape(2, 4)[:, ::2], np.asfortranarray([[0.1, 0.2], [0.3, 0.4]]), [[1.5, 2**62 + 1], [3, 4]],
    ], ids=["int-list", "uint64", "float32", "strided", "fortran", "mixed-list"])
    def test_a_frozen_c_ordered_copy_with_the_float_bits(self, value):
        got = check_array("x", value, (2, "N"))
        want = np.array(value, dtype=float)
        assert got.tobytes() == want.tobytes() and got.dtype == np.float64
        assert got.flags.c_contiguous and not got.flags.writeable and not np.shares_memory(got, value)

    @pytest.mark.parametrize("value", [np.full((2, 3), 1e308), [[1e308, 1e308], [-1e308, -1e308]]],
                             ids=["sum-inf", "sum-nan"])
    def test_finite_entries_whose_sum_overflows_are_accepted(self, value):
        # the sum is judged first; a non-finite one sends every entry to np.isfinite
        assert check_array("x", value, (2, "N")).tobytes() == np.array(value, dtype=float).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fill", [0.5, 1e308], ids=["small", "overflowing"])
    def test_a_non_finite_entry_is_refused_whatever_the_others_sum_to(self, bad, fill):
        value = np.full((2, 3), fill)
        value[1, 2] = bad
        with pytest.raises(ValueError, match=r"^x contains non-finite entries$"):
            check_array("x", value, (2, 3))

    @pytest.mark.parametrize("value, shape, kind, text", [
        (np.eye(2, dtype=bool), (2, 2), ValueError, "x must hold integers or floats of at most 64 bits, got dtype bool"),
        ([[1, 2], [3]], ("N",), ValueError, "x: setting an array element with a sequence."),
        (np.eye(2), (2, 3), ShapeError, "x must have shape (2, 3), got (2, 2)"),
        (np.zeros((0, 3)), ("N", 3), ShapeError, "x must have shape (N, 3) with N >= 1, got (0, 3)"),
        (np.zeros(3), ("C", "H", "W"), ShapeError, "x must have shape (C, H, W) with C, H, W >= 1, got (3,)"),
        (5.0, (1,), ShapeError, "x must have shape (1,), got ()"),
        ([0.0, math.inf], ("N",), ValueError, "x contains non-finite entries"),
    ])
    def test_refusal_names_the_parameter(self, value, shape, kind, text):
        with pytest.raises(kind) as info:
            check_array("x", value, shape)
        assert type(info.value) is kind and str(info.value).startswith(text), str(info.value)
