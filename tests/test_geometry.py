import itertools
import math
import sys

import numpy as np
import pytest

import bevkit.geometry
from bevkit.errors import DegenerateInputError, InvalidCameraError, ParseError, ShapeError
from bevkit.evaluation import Trajectory, _norms, ate, path_lengths, scale_trajectory
from bevkit.flow import FlowField, FlowStats, l1_flow_loss
from bevkit.formats import parse_kitti_poses
from bevkit.geometry import (
    BevGridSpec,
    CameraModel,
    Pose2,
    Pose3,
    check_rigid,
    fit_similarity,
    invert_rigid,
    pixel_to_vehicle,
    pose2_to_pose3,
    pose3_to_pose2,
    proper_rotation,
    relative_pose,
    vehicle_to_pixel,
    wrap_angle,
)
from bevkit.losses import loss_5dof
from bevkit.synth import MotionPrimitive, SynthSpec, synth_trajectory
from helpers import (
    compose,
    pose3,
    reference_invert_rigid,
    reference_relative_pose,
    reference_rotation_error,
    rigid_inverse,
    rot_z,
    run_fresh_python,
    unscaled_similarity_fit,
)


def random_rotation(rng):
    # QR of a Gaussian matrix, sign-fixed to det +1
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose3(rng):
    return pose3(random_rotation(rng), rng.uniform(-10, 10, 3))


def reference_check_rigid_matrix(m):
    """The scalar rigid check the array screen defers to, as Pose3 ran it before the rule moved."""
    if not np.all(np.isfinite(m)):
        raise ValueError("pose matrix contains non-finite entries")
    if not np.array_equal(m[3], np.array([0.0, 0.0, 0.0, 1.0])):
        raise ValueError("pose bottom row must be exactly (0, 0, 0, 1)")
    r = m[:3, :3]
    if float(np.linalg.norm(r.T @ r - np.eye(3))) > 1e-9:
        raise ValueError("rotation block is not orthonormal within 1e-9")
    if abs(np.linalg.det(r) - 1.0) > 1e-9:
        raise ValueError("rotation block must have determinant +1")


def reference_check_extrinsics(e):
    """CameraModel's own extrinsic checks, as it ran them before the rule moved, in the array rule's wording."""
    if not np.all(np.isfinite(e)):
        raise InvalidCameraError("extrinsics contains non-finite entries")
    r = e[:, :3]
    if float(np.linalg.norm(r.T @ r - np.eye(3))) > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
        raise InvalidCameraError("extrinsic rotation is not a proper rotation within 1e-9")


def verdict(fn, *args):
    """(exception type, message) of ``fn(*args)``, or None when it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def rigid(rotation):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = (0.5, -2.0, 3.0)
    return m


class TestWrapAngle:
    def test_fixed_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(1.0) == 1.0
        assert wrap_angle(-1.0) == -1.0

    def test_period_shifts(self):
        assert abs(wrap_angle(2 * math.pi) - 0.0) < 1e-15
        assert abs(wrap_angle(math.pi + 0.1) - (-math.pi + 0.1)) < 1e-12
        assert abs(wrap_angle(-math.pi - 0.1) - (math.pi - 0.1)) < 1e-12

    def test_range_property(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            w = wrap_angle(rng.uniform(-50, 50))
            assert -math.pi < w <= math.pi

    def test_outputs_are_fixed_points_bitwise(self):
        # a wrapped negative angle can lose its last bits, but wrapping
        # once more changes none: synth_trajectory wraps step yaw once
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 20000), rng.uniform(-50.0, 50.0, 20000)])
        w = wrap_angle(x)
        assert np.any(w != x)
        assert np.array_equal(wrap_angle(w), w)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, math.pi, -math.pi, 3 * math.pi]))
        assert out.shape == (4,)
        assert np.all(out > -math.pi) and np.all(out <= math.pi)

    def test_float_path_matches_the_array_path_bitwise(self):
        # a float's % and np.mod share fmod and the divisor's sign; compared
        # sign bits included, at zeros, the smallest subnormal, pi and its
        # neighbours, multiples of pi and 2 pi and magnitudes up to 1e300
        rng = np.random.default_rng(9)
        k = np.arange(-2000.0, 2001.0)
        centers = np.concatenate([[0.0, 5e-324, 1.0, 1e300], k * math.pi, k * 2.0 * math.pi])
        magnitudes = 10.0 ** rng.uniform(-320.0, 300.0, 20000)
        values = np.concatenate([centers, np.nextafter(centers, -np.inf), np.nextafter(centers, np.inf),
                                 rng.uniform(-50.0, 50.0, 20000), magnitudes])
        values = np.concatenate([values, -values])
        want = wrap_angle(values)
        for kind in (float, np.float64):
            got = np.array([wrap_angle(kind(v)) for v in values.tolist()])
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert type(wrap_angle(np.float64(4.0))) is float

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_float_takes_the_array_path(self, value):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(wrap_angle(value))


class TestPixelVehicleMap:
    # the worked examples place the origin at pixel (64, 64)
    grid = BevGridSpec(128, 128, 0.8, origin_px=(64.0, 64.0))

    def test_origin_maps_to_origin(self):
        assert pixel_to_vehicle(64, 64, self.grid) == (0.0, 0.0)
        assert vehicle_to_pixel(0.0, 0.0, self.grid) == (64.0, 64.0)

    def test_one_pixel_forward(self):
        # one row up = one resolution step forward
        assert pixel_to_vehicle(64, 63, self.grid) == (0.8, 0.0)
        assert vehicle_to_pixel(0.8, 0.0, self.grid) == (64.0, 63.0)

    def test_one_pixel_left(self):
        assert pixel_to_vehicle(65, 64, self.grid) == (0.0, 0.8)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            u, v = rng.uniform(-200, 200, 2)
            uu, vv = vehicle_to_pixel(*pixel_to_vehicle(u, v, self.grid), self.grid)
            assert abs(uu - u) < 1e-12 and abs(vv - v) < 1e-12

    def test_array_round_trip(self):
        us = np.arange(0, 128, dtype=float)
        vs = 17.0  # one row: the scalar broadcasts against the columns
        x, y = pixel_to_vehicle(us, vs, self.grid)
        assert x.shape == y.shape == (128,)
        uu, vv = vehicle_to_pixel(x, y, self.grid)
        assert np.max(np.abs(uu - us)) < 1e-12
        assert np.max(np.abs(vv - vs)) < 1e-12

    def test_coordinates_past_the_float_range_are_refused_without_a_warning(self):
        with pytest.raises(ValueError, match="^pixel_to_vehicle: a vehicle coordinate leaves the float range$"):
            pixel_to_vehicle(np.array([1e308]), np.array([0.0]), BevGridSpec(8, 8, 1e300))
        with pytest.raises(ValueError, match="float range"):
            pixel_to_vehicle(0.0, -1e308, BevGridSpec(8, 8, 2.0, origin_px=(0.0, 1e308)))
        x, y = pixel_to_vehicle(np.array([1e8]), np.array([0.0]), BevGridSpec(8, 8, 1e300, origin_px=(0.0, 0.0)))
        assert (x.tolist(), y.tolist()) == ([0.0], [1e308])

    def test_pixels_past_the_float_range_are_infinite_without_a_warning(self):
        # 1e10 / 1e-300 overflowed in the division with a numpy warning
        u, v = vehicle_to_pixel(np.array([1e10, -1e10]), np.array([0.0, 1e10]), BevGridSpec(4, 4, 1e-300))
        assert (u.tolist(), v.tolist()) == ([1.5, math.inf], [-math.inf, math.inf])

    def test_default_origin_is_grid_center(self):
        g = BevGridSpec(128, 128, 0.8)
        assert g.origin_px == (63.5, 63.5)
        g2 = BevGridSpec(5, 9, 1.0)
        assert g2.origin_px == (4.0, 2.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BevGridSpec(0, 128, 0.8)
        with pytest.raises(ValueError):
            BevGridSpec(128, 128, 0.0)
        with pytest.raises(ValueError):
            BevGridSpec(128, 128, -1.0)

    @pytest.mark.parametrize("h, w", [(4096, 4096), (2**22, 2)])
    def test_a_grid_past_the_cell_cap_is_refused(self, h, w):
        # 2**22 x 2**22 cells built a grid whose float64 plane would take 128 TiB
        with pytest.raises(ValueError, match=rf"^height_px \* width_px must be at most 4194304 cells, got {h} \* {w}$"):
            BevGridSpec(h, w, 1.0)

    @pytest.mark.parametrize("h, w", [(2048, 2048), (2**22, 1), (1, 2**22)])
    def test_a_grid_at_the_cell_cap_is_accepted(self, h, w):
        assert BevGridSpec(h, w, 1.0).shape == (h, w)


def _line_to(step):
    """Two frames, the second ``step`` (3,) from the first at the origin."""
    poses = np.tile(np.eye(4), (2, 1, 1))
    poses[1, :3, 3] = step
    return Trajectory(np.arange(2.0), poses)


_HELIX = np.stack([10.0 * np.cos(np.arange(21) / 5.0), 10.0 * np.sin(np.arange(21) / 5.0), 0.1 * np.arange(21)], 1)


def _ate_residuals(gt_scale, ratio):
    """``ate`` of a helix ``gt_scale`` times its size and an estimate ``ratio`` times that, and the residuals
    it reduces, formed as the se3 fit forms them."""
    poses = np.tile(np.eye(4), (21, 1, 1))
    poses[:, :3, 3] = _HELIX
    gt = scale_trajectory(Trajectory(np.arange(21.0), poses), gt_scale)
    est = scale_trajectory(gt, ratio)
    rot, t, _, _ = fit_similarity(est.positions, gt.positions)
    return ate(est, gt, "se3"), 1.0 * est.positions @ rot.T + t - gt.positions


def _l1(data, mask):
    """``l1_flow_loss`` of a (2, 2, 2) flow ``data`` against zero flow, and the kept differences it reduces."""
    g = BevGridSpec(2, 2, 0.8)
    loss = l1_flow_loss(FlowField(data, g), FlowField(np.zeros((2, 2, 2)), g), mask)
    return loss, np.abs(data)[:, np.ones((2, 2), bool) if mask is None else mask]


_FLOW_OVER = np.array([[[1.7e308, 1.5e308], [1e308, 0.0]], [[0.0, 1.5e308], [0.0, 2e307]]])
_FLOW_UNDER = _FLOW_OVER / 1.7e308 * 1e-300
_FLOW = np.arange(8.0).reshape(2, 2, 2) / 3.0
_KEEP = np.array([[False, True], [True, True]])  # the largest difference lies outside the mask
_ROT = np.array([[0.6, -0.8, 0.1], [0.8, 0.6, -0.2], [0.0, 0.3, 1.0]])

# each site of the scale-safe rule: (run, f, inputs); run(input) gives the site's value and the array it reduces,
# f is the plain reduction the site computed before the rule, and the inputs overflow it, underflow it, or neither
SCALE_SAFE_SITES = {
    "path_lengths": (lambda x: (path_lengths(_line_to(x))[1], x[None]),
                     lambda d: float(np.sqrt((d * d).sum(axis=1))[0]),
                     [np.array([3e200, -4e200, 1e150]), np.array([3e-170, 4e-170, 0.0]), np.array([0.3, -1.7, 2.2])]),
    "segment norms": (lambda x: (_norms(x[None])[0], x[None]),
                      lambda d: float(np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])[0]),
                      [np.array([1e200, -1e200, 5e199]), np.array([1e-300, 0.0, -2e-300]), np.array([1.0, 2.0, 2.5])]),
    "ate": (lambda x: _ate_residuals(*x), lambda r: float(np.sqrt((r ** 2).sum(axis=1).mean())),
            [(1.0, 4e153), (1e-150, 1.000001), (1.0, 1.1)]),
    "FlowStats": (lambda x: (FlowStats(x).mean_epe, x.ravel()), lambda e: float(e.mean()),
                  [np.array([[1.5e308, 1e308], [0.0, 3e307]]), np.array([[1e-300, 3e-300], [0.0, 5e-301]]),
                   np.array([[0.25, 1.5], [2.0, 0.125]])]),
    "l1_flow_loss": (lambda x: _l1(x, _KEEP), lambda d: float(d.sum(axis=0).mean()),
                     [_FLOW_OVER, _FLOW_UNDER, _FLOW]),
    "l1_flow_loss unmasked": (lambda x: _l1(x, None), lambda d: float(d.sum(axis=0).mean()),
                              [_FLOW_OVER, _FLOW_UNDER, _FLOW]),
    "loss_5dof": (lambda x: (loss_5dof(np.array([1.0, 0.0, 0.0]), x, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)),
                                       beta=1.0), x),
                  lambda d: float(np.linalg.norm(d)), [1e200 * _ROT, 1e-170 * _ROT, _ROT]),
}


class TestScaleSafe:
    """Every site of the one rule: a plain reduction past the float range, or below sqrt(smallest normal),
    becomes m * f(x / m) with m = max|x|; any other keeps the plain reduction's bits."""

    @pytest.mark.parametrize("site", SCALE_SAFE_SITES)
    @pytest.mark.parametrize("case", ["overflow", "underflow"])
    def test_a_reduction_out_of_range_is_rescaled(self, site, case):
        run, f, (over, under, _) = SCALE_SAFE_SITES[site]
        got, x = run(over if case == "overflow" else under)
        with np.errstate(over="ignore"):
            plain = f(x)
        assert plain == math.inf if case == "overflow" else plain < math.sqrt(sys.float_info.min)
        m = float(np.abs(x).max())
        assert got == m * f(x / m) and 0.0 < got < math.inf

    @pytest.mark.parametrize("site", SCALE_SAFE_SITES)
    def test_an_ordinary_reduction_keeps_its_bits(self, site):
        run, f, (_, _, ordinary) = SCALE_SAFE_SITES[site]
        got, x = run(ordinary)
        assert got == f(x)


class TestPose3:
    def test_identity(self):
        assert np.array_equal(Pose3(np.eye(4)).matrix, np.eye(4))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            Pose3(np.eye(3))

    def test_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1e-12
        with pytest.raises(ValueError):
            Pose3(m)

    def test_rejects_non_orthonormal(self):
        m = np.eye(4)
        m[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            Pose3(m)

    def test_rejects_reflection(self):
        m = np.eye(4)
        m[0, 0] = -1.0
        with pytest.raises(ValueError):
            Pose3(m)

    def test_matrix_is_read_only(self):
        p = Pose3(np.eye(4))
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2.0

    def test_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_pose3(rng)
            ident = compose(p, Pose3(invert_rigid(p.matrix[None])[0])).matrix
            assert np.max(np.abs(ident - np.eye(4))) < 1e-12

    def test_invert_rigid_is_the_per_pose_inverse(self):
        rng = np.random.default_rng(6)
        poses = np.stack([random_pose3(rng).matrix for _ in range(3000)])
        # translations from 1e-5 to 1e5, and some zero entries for signed zeros
        poses[:, :3, 3] *= 10.0 ** rng.uniform(-6.0, 4.0, (len(poses), 1))
        poses[::7, :3, 3] = 0.0
        poses[::5, 1, 3] = -0.0
        got, want = invert_rigid(poses), reference_invert_rigid(poses)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_invert_rigid_empty_stack(self):
        assert invert_rigid(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_an_inverse_past_the_float_range_is_inf_without_a_warning(self):
        # -R^T t of a yaw-0.7 pose at (1.7e308, 1.7e308, 0) overflows in matmul; the suite turns a warning into an error
        far = pose3(rot_z(0.7), [1.7e308, 1.7e308, 0.0]).matrix
        for poses in (far, far[None]):
            t = invert_rigid(poses)[..., :3, 3].ravel()
            assert t[0] == -math.inf and math.isfinite(t[1]) and t[2] == 0.0

    def test_check_rigid_verdict_matches_pose3_at_the_tolerance(self):
        rng = np.random.default_rng(8)
        verdicts = set()
        for drift in np.linspace(0.9e-9, 1.1e-9, 81):
            m = np.eye(4)
            m[:3, :3] = random_rotation(rng) * math.sqrt(1.0 + drift / math.sqrt(3.0))
            try:
                Pose3(m)
                want = None
            except ValueError as exc:
                want = str(exc)
            try:
                check_rigid(np.stack([np.eye(4), m]))
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == (want and f"pose 1: {want}")
            verdicts.add(want)
        assert len(verdicts) == 2

    def test_check_rigid_matches_the_scalar_reference_per_case(self, rotation_cases):
        seen = set()
        for name, rotation in rotation_cases.items():
            m = rigid(rotation)
            want = verdict(reference_check_rigid_matrix, m)
            assert verdict(lambda x: Pose3(x), m) == want, name
            assert verdict(check_rigid, np.stack([np.eye(4), m])) == (
                want and (want[0], f"pose 1: {want[1]}")), name
            seen.add(want and want[1])
        assert len(seen) == 4  # accepted, non-finite, drift and determinant refusals all occur

    def test_check_rigid_reports_the_first_bad_matrix_of_a_stack(self, rotation_cases):
        names = list(rotation_cases)
        stack = np.stack([rigid(rotation_cases[n]) for n in names])
        rng = np.random.default_rng(21)
        for _ in range(20):
            order = rng.permutation(len(names))
            first = next((i for i, k in enumerate(order) if verdict(reference_check_rigid_matrix, stack[k])), None)
            want = None if first is None else verdict(reference_check_rigid_matrix, stack[order[first]])
            assert verdict(check_rigid, stack[order]) == (want and (want[0], f"pose {first}: {want[1]}"))

    def test_check_rigid_shape(self):
        check_rigid(np.zeros((0, 4, 4)))
        with pytest.raises(ShapeError):
            check_rigid(np.eye(4))


def screen_cases(rotation_cases):
    """4x4 matrices at the edges of the single-pose screen and of the scalar rule, by name.

    Drift and ``|det - 1|`` at 0.4, 0.5, 0.6 and 1.0 times the tolerance and
    one ulp either side, every rotation case, non-finite entries, a
    translation whose sum overflows and perturbed bottom rows.
    """
    rot = rotation_cases["exact"]
    cases = {name: rigid(r) for name, r in rotation_cases.items()}
    for k in (0.4, 0.5, 0.6, 1.0):
        tol = k * 1e-9
        for tag, err in (("-1ulp", np.nextafter(tol, 0.0)), ("", tol), ("+1ulp", np.nextafter(tol, 1.0))):
            cases[f"drift-{k}tol{tag}"] = rigid(rot * math.sqrt(1.0 + err / math.sqrt(3.0)))
            cases[f"det-up-{k}tol{tag}"] = rigid(rot * (1.0 + err) ** (1.0 / 3.0))
            cases[f"det-down-{k}tol{tag}"] = rigid(rot * (1.0 - err) ** (1.0 / 3.0))
    for name, index, value in (("nan-rotation", (0, 1), math.nan), ("inf-rotation", (2, 2), -math.inf),
                               ("nan-translation", (1, 3), math.nan), ("inf-translation", (0, 3), math.inf),
                               ("huge-rotation", (0, 0), 1e50), ("bottom-subnormal", (3, 0), 5e-324),
                               ("bottom-one-ulp", (3, 3), np.nextafter(1.0, 2.0)), ("bottom-nan", (3, 2), math.nan),
                               ("bottom-signed-zero", (3, 1), -0.0)):
        cases[name] = rigid(rot)
        cases[name][index] = value
    cases["translation-sum-overflows"] = rigid(rot)
    cases["translation-sum-overflows"][:3, 3] = 1.5e308
    return cases


def reference_rigid_verdict(m):
    """Pose3's checks in their order, the rotation judged by the float oracle of the rule."""
    if not np.all(np.isfinite(m)):
        raise ValueError("pose matrix contains non-finite entries")
    if m[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
        raise ValueError("pose bottom row must be exactly (0, 0, 0, 1)")
    drift, det = reference_rotation_error(m[:3, :3])
    if not drift <= 1e-9:
        raise ValueError("rotation block is not orthonormal within 1e-9")
    if not abs(det - 1.0) <= 1e-9:
        raise ValueError("rotation block must have determinant +1")


def reference_kitti_line(r):
    """What the per-line KITTI judge made of a rotation with numpy's norm and det: refused, repaired or kept."""
    drift, det = float(np.linalg.norm(r.T @ r - np.eye(3))), float(np.linalg.det(r))
    if drift > 1e-4 or abs(det - 1.0) > 1e-4:
        return "refused"
    return "repaired" if drift > 1e-9 or abs(det - 1.0) > 1e-9 else "kept"


def near_tolerance_blocks(rng, n):
    """``n`` random blocks at each drift scale 1e-9, 1e-4 and 1e-2: scaled, stretched along one axis or noisy."""
    blocks = []
    for scale in (1e-9, 1e-4, 1e-2):
        for k in range(n):
            rot, err = random_rotation(rng), scale * rng.uniform(0.5, 1.5)
            kind = k % 4
            if kind == 0:
                blocks.append(rot * math.sqrt(1.0 + err / math.sqrt(3.0)))
            elif kind == 1:
                blocks.append(rot * (1.0 + rng.choice([-1.0, 1.0]) * err) ** (1.0 / 3.0))
            elif kind == 2:
                blocks.append(rot @ np.diag([1.0 + err, 1.0, 1.0]))
            else:
                blocks.append(rot + err * rng.standard_normal((3, 3)))
    return blocks


class TestOneRule:
    def test_float_and_stack_forms_give_the_same_bits(self, rotation_cases):
        rng = np.random.default_rng(22)
        extremes = []
        for value in (1e200, -1e200, 1e-300, math.nan, math.inf, -math.inf):
            for index in ((0, 0), (1, 2), (2, 1)):
                block = random_rotation(rng)
                block[index] = value
                extremes.append(block)
        extremes += [np.full((3, 3), 1e200), np.diag([1e200, -1e200, 1e200]), np.full((3, 3), 1e-300)]
        blocks = ([m[:3, :3] for m in screen_cases(rotation_cases).values()]
                  + near_tolerance_blocks(rng, 2000) + extremes)
        # strided 3x3 blocks of a 4x4 stack, as the callers pass them
        poses = np.zeros((len(blocks), 4, 4))
        poses[:, :3, :3] = blocks
        stack = poses[:, :3, :3]
        drift, det = bevkit.geometry.rotation_error(stack)
        floats = np.array([bevkit.geometry.rotation_error(stack[k]) for k in range(len(stack))])
        assert drift.tobytes() == floats[:, 0].tobytes() and det.tobytes() == floats[:, 1].tobytes()
        oracle = np.array([reference_rotation_error(block) for block in stack])
        assert oracle.tobytes() == floats.tobytes()
        assert np.isnan(drift).any() and np.isinf(drift).any()
        assert 0 < np.count_nonzero(drift <= 1e-9) < len(drift)

    def test_pose3_verdicts_follow_the_float_rule(self, rotation_cases):
        seen = set()
        for name, m in screen_cases(rotation_cases).items():
            want = verdict(reference_rigid_verdict, m)
            assert verdict(lambda x: Pose3(x), m) == want, name
            assert verdict(check_rigid, np.stack([np.eye(4), m])) == (want and (want[0], f"pose 1: {want[1]}")), name
            seen.add(want and want[1])
        assert len(seen) == 5  # accepted, and the four refusals

    def test_numpy_forms_agree_away_from_the_tolerances(self, rotation_cases):
        # numpy's Gram norm and LU det, as every judge read them before the rule was
        # written once, may differ from the rule in the last bits: the verdicts agree
        # wherever the drift and |det - 1| are more than 2e-15 from 1e-9 and from 1e-4
        rng = np.random.default_rng(23)
        k = np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]])
        blocks = [r for r in rotation_cases.values() if np.isfinite(r).all()] + near_tolerance_blocks(rng, 1000)
        kinds, skipped = set(), 0
        for block in blocks:
            drift, det = bevkit.geometry.rotation_error(block)
            if min(abs(x - tol) for x in (drift, abs(det - 1.0)) for tol in (1e-9, 1e-4)) <= 2e-15:
                skipped += 1
                continue
            m = rigid(block)
            assert verdict(lambda x: Pose3(x), m) == verdict(reference_check_rigid_matrix, m)
            e = m[:3]
            assert verdict(CameraModel, k, e) == verdict(reference_check_extrinsics, e)
            try:
                parsed = parse_kitti_poses(" ".join(f"{v:.17g}" for v in e.ravel()) + "\n").poses[0]
                got = "kept" if np.array_equal(parsed, m) else "repaired"
            except ParseError:
                got = "refused"
            assert got == reference_kitti_line(m[:3, :3])
            kinds.add(got)
        # the fixture's cases a few ulps from 1e-4 and 1e-9 are the ones skipped
        assert kinds == {"kept", "repaired", "refused"} and skipped < 30


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(8)
        p = random_pose3(rng)
        assert np.array_equal(compose(Pose3(np.eye(4)), p).matrix, p.matrix)

    def test_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b, c = (random_pose3(rng) for _ in range(3))
            left = compose(compose(a, b), c).matrix
            right = compose(a, compose(b, c)).matrix
            assert np.max(np.abs(left - right)) < 1e-12

    def test_z_rotations_add(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            t1, t2 = rng.uniform(-math.pi, math.pi, 2)
            combined = compose(pose3(rot_z(t1), np.zeros(3)), pose3(rot_z(t2), np.zeros(3)))
            yaw = pose3_to_pose2(combined).theta
            assert abs(wrap_angle(yaw - wrap_angle(t1 + t2))) < 1e-12

    def test_long_chain_stays_valid(self):
        # five thousand products must not leak drift past the type invariant
        rng = np.random.default_rng(12)
        acc = Pose3(np.eye(4))
        step = pose3(rot_z(0.01), np.array([0.02, 0.0, 0.0]))
        for _ in range(5000):
            acc = compose(acc, step)
        r = acc.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9

    def test_proper_rotation_projects(self):
        rng = np.random.default_rng(13)
        r = random_rotation(rng)
        noisy = r + 1e-3 * rng.standard_normal((3, 3))
        fixed, _ = proper_rotation(noisy)
        assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) < 1e-12
        assert np.linalg.det(fixed) > 0


class TestFitSimilarity:
    def test_weighted_2d_fit_ignores_zero_weight_outliers(self):
        rng = np.random.default_rng(20)
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        src = rng.uniform(-20.0, 20.0, (200, 2))
        dst = src @ rot.T + np.array([3.0, -1.5])
        weights = rng.uniform(0.5, 2.0, 200)
        dst[:40] += rng.uniform(-50.0, 50.0, (40, 2))
        weights[:40] = 0.0
        r, t, scale, sigma = fit_similarity(src, dst, weights)
        assert np.max(np.abs(r - rot)) < 1e-12
        assert np.max(np.abs(t - [3.0, -1.5])) < 1e-12
        assert scale == 1.0
        assert sigma.shape == (2,) and sigma[0] >= sigma[1] > 0.0

    @pytest.mark.parametrize("weights", [np.zeros(5), np.array([1.0, -1.0, 0.0, 0.0, 0.0]), np.full(5, math.nan),
                                         np.full(5, 1e308)], ids=["zero", "zero-sum", "nan", "inf-sum"])
    def test_weights_without_a_positive_finite_sum_refused(self, weights):
        # a zero sum divided into NaN centroids, with a numpy warning
        src = np.random.default_rng(24).uniform(-5.0, 5.0, (5, 3))
        with pytest.raises(DegenerateInputError, match="^weights must sum to a finite number > 0, got "):
            fit_similarity(src, src, weights)

    def test_sim3_fit_recovers_scale(self):
        rng = np.random.default_rng(21)
        rot = random_rotation(rng)
        src = rng.uniform(-5.0, 5.0, (50, 3))
        dst = 2.5 * src @ rot.T + np.array([1.0, 2.0, 3.0])
        r, t, scale, _ = fit_similarity(src, dst, with_scale=True)
        assert abs(scale - 2.5) < 1e-12
        assert np.max(np.abs(r - rot)) < 1e-12
        assert np.max(np.abs(t - [1.0, 2.0, 3.0])) < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_sim3_fits_keep_the_bits_of_the_plain_variance(self, seed):
        # the former formula: trace(R^T cov) over sum_i w_i |src_i - src_c|^2, both as Python floats
        rng = np.random.default_rng(300 + seed)
        d, n = (2, 3)[seed % 2], int(rng.integers(3, 60))
        src = rng.uniform(-10.0, 10.0, (n, d)) * 10.0 ** rng.uniform(-3, 3)
        dst = rng.uniform(0.1, 5.0) * src @ random_rotation(rng)[:d, :d].T + rng.normal(size=(n, d))
        weights = None if seed < 2 else rng.uniform(0.0, 3.0, n)
        rot, t, scale, _ = fit_similarity(src, dst, weights, with_scale=True)
        w = (np.ones(n) if weights is None else weights)[:, None]
        src_c, dst_c = (w * src).sum(axis=0) / w.sum(), (w * dst).sum(axis=0) / w.sum()
        p = src - src_c
        want = float(np.sum(rot * ((w * (dst - dst_c)).T @ p))) / float((w * p * p).sum())
        assert scale == want and np.array_equal(t, dst_c - want * rot @ src_c)

    @pytest.mark.parametrize("spread, factor", [(1e200, 1e-200), (1e-200, 1e200), (1e155, 1e-3)],
                             ids=["overflow", "underflow", "overflow-near-the-limit"])
    def test_a_spread_whose_squares_leave_the_float_range_keeps_its_scale(self, spread, factor):
        # sum_i |p_i|^2 is 2 * spread^2: past the float range it overflowed, with a warning, or
        # rounded to zero, and the scale read 0; a numpy warning fails the test under the suite's settings
        src = np.array([[0.0], [spread], [-spread]])
        rot, t, scale, _ = fit_similarity(src, src * factor, with_scale=True)
        assert rot.tolist() == [[1.0]] and t.tolist() == [0.0]
        assert abs(scale / factor - 1.0) < 1e-15

    def test_a_scale_past_the_float_range_is_refused(self):
        src = np.array([[0.0], [1e-200], [-1e-200]])
        with pytest.raises(DegenerateInputError, match="^the scale of the similarity fit leaves the float range$"):
            fit_similarity(src, np.array([[0.0], [1e200], [-1e200]]), with_scale=True)

    def test_a_translation_past_the_float_range_is_refused(self):
        # the scale of 1e300 is finite; scale * R @ src_c overflowed in matmul, with a warning, to -inf
        with pytest.raises(DegenerateInputError, match="^the translation of the similarity fit leaves the float"):
            fit_similarity([[1e10], [1e10 + 1]], [[0.0], [1e300]], with_scale=True)

    @pytest.mark.parametrize("spread", [1e-150, 1e-170, 1e-300])
    @pytest.mark.parametrize("with_scale", [True, False])
    def test_a_covariance_below_the_normal_range_is_rescaled(self, with_scale, spread):
        # 1e-170 m and 1e-300 m apart, every product of the unscaled covariance would round to 0; the
        # fit forms it from the sets scaled below 1 by a power of two
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rot, _, scale, _ = fit_similarity(spread * src, spread * src @ quarter.T, with_scale=with_scale)
        assert np.max(np.abs(rot - quarter)) < 1e-15 and abs(scale - 1.0) < 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_ordinary_fits_keep_the_bits_of_the_unscaled_covariance(self, seed):
        # a power of two scales each centred set exactly: only sigma moves, by 2^-(e_p + e_q)
        rng = np.random.default_rng(320 + seed)
        d, n = (2, 3)[seed % 2], int(rng.integers(3, 60))
        src = rng.uniform(-10.0, 10.0, (n, d)) * 10.0 ** rng.uniform(-3, 3)
        dst = 10.0 ** rng.uniform(-3, 3) * src @ random_rotation(rng)[:d, :d].T + rng.normal(size=(n, d))
        for weights, with_scale in itertools.product((None, rng.uniform(0.0, 3.0, n)), (False, True)):
            rot, t, scale, sigma = fit_similarity(src, dst, weights, with_scale)
            want_rot, want_t, want_scale, want_sigma, e = unscaled_similarity_fit(src, dst, weights, with_scale)
            assert np.array_equal(rot, want_rot) and np.array_equal(t, want_t) and scale == want_scale
            assert np.array_equal(sigma, np.ldexp(want_sigma, -e))

    def test_power_of_two_scales_of_the_sets_keep_the_bits(self):
        # fit_similarity(2^a src, 2^b dst): the same rot and sigma, t times 2^b and scale times 2^(b - a),
        # wherever that scale stays in the normal range
        rng = np.random.default_rng(330)
        src = rng.uniform(-10.0, 10.0, (20, 3))
        dst = 2.5 * src @ random_rotation(rng).T + np.array([1.0, -2.0, 3.0]) + 0.01 * rng.normal(size=(20, 3))
        weights = rng.uniform(0.5, 2.0, 20)
        rot, t, scale, sigma = fit_similarity(src, dst, weights, with_scale=True)
        for a, b in itertools.product((0, 300, -300, 600, -600, 1000, -1000), repeat=2):
            if abs(b - a) > 1000:
                continue
            got = fit_similarity(np.ldexp(src, a), np.ldexp(dst, b), weights, with_scale=True)
            assert np.array_equal(got[0], rot) and np.array_equal(got[3], sigma), (a, b)
            assert np.array_equal(np.ldexp(got[1], -b), t) and math.ldexp(got[2], a - b) == scale, (a, b)

    def test_huge_weights_on_points_below_one_fit_the_quarter_turn(self):
        # each set is scaled by the power of two just above its largest magnitude, 1 here: scaled by 2, the
        # covariance of these weights would pass the float range
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        src = np.array([[0.99, 0.0], [-0.99, 0.0], [0.0, 0.99]])
        rot, _, _, _ = fit_similarity(src, src @ quarter.T, np.array([8e307, 8e307, 1e300]))
        assert np.max(np.abs(rot - quarter)) < 1e-15

    def test_a_point_set_without_spread_has_scale_zero(self):
        src = np.ones((4, 3))
        assert fit_similarity(src, np.random.default_rng(26).normal(size=(4, 3)), with_scale=True)[2] == 0.0

    def test_mirrored_2d_points_give_the_best_proper_rotation(self):
        # the cross-covariance diag(200, -2) makes U V^T a reflection; with
        # more spread along x the best proper rotation is the identity
        src = np.array([[10.0, 1.0], [10.0, -1.0], [-10.0, 1.0], [-10.0, -1.0]])
        dst = src * [1.0, -1.0]
        r, _, _, _ = fit_similarity(src, dst)
        assert np.linalg.det(r) > 0.0
        assert np.max(np.abs(r - np.eye(2))) < 1e-12

    def test_planar_3d_point_set_is_matched_by_a_rotation(self):
        # points in z = 0 mirrored across the x axis: the last singular
        # value is zero, and the proper fit is the half turn about x
        rng = np.random.default_rng(23)
        src = np.column_stack([rng.uniform(-5.0, 5.0, (40, 2)), np.zeros(40)])
        dst = src * [1.0, -1.0, 1.0]
        r, t, _, sigma = fit_similarity(src, dst)
        assert np.linalg.det(r) > 0.0
        assert np.max(np.abs(r - np.diag([1.0, -1.0, -1.0]))) < 1e-12
        assert np.max(np.abs(src @ r.T + t - dst)) < 1e-12
        assert sigma[2] < 1e-12 * sigma[0]


def in_a_fresh_process(call: str) -> str:
    """What ``call`` prints, or raises as "<type>\\n<message>\\n", in a new interpreter that prints every warning.

    LAPACK's SVD of a matrix that holds an inf may never return, so the
    interpreter is killed after 30 s and the test fails on the timeout.
    A warning fails it by its stderr; as an error, it would stop the call
    before the SVD and hide a hang.
    """
    code = ("import numpy as np\n"
            "from bevkit.geometry import fit_similarity, proper_rotation\n"
            f"try:\n    {call}\nexcept Exception as exc:\n    print(type(exc).__name__)\n    print(exc)\n")
    proc = run_fresh_python("-W", "always", "-c", code, timeout=30)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


class TestNoSvdOfANonFiniteMatrix:
    def test_an_overflowing_covariance_is_rescaled(self):
        # the unscaled covariance of +-1e308 points would overflow to inf, on which the SVD may never
        # return; the fit forms it from the centred sets scaled below 1 by a power of two
        src = "np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]])"
        assert in_a_fresh_process(f"rot, t, scale, _ = fit_similarity({src}, {src}); "
                                  "print(rot.tolist() == np.eye(3).tolist(), t.tolist(), scale)") == (
            "True [0.0, 0.0, 0.0] 1.0\n")

    def test_a_centred_set_past_the_float_range_is_refused_in_one_line(self):
        # the centroid's sum overflows, so the centred x coordinates are -inf and NaN
        src = "np.array([[1.7e308, 0.0], [1.7e308, 1.0], [0.0, 0.0]])"
        assert in_a_fresh_process(f"fit_similarity({src}, {src})") == (
            "DegenerateInputError\na centred point set leaves the float range\n")

    def test_a_matrix_holding_an_inf_is_refused_before_the_svd(self):
        assert in_a_fresh_process("proper_rotation(np.diag([np.inf, 1.0, 1.0]))") == (
            "ValueError\nm contains non-finite entries\n")

    def test_finite_extremes_below_the_overflow_still_fit(self):
        src = np.array([[0.0, 0.0, 0.0], [1e150, 0.0, 0.0], [-1e150, 0.0, 1e150]])
        rot, t, _, _ = fit_similarity(src, src)
        assert np.max(np.abs(rot - np.eye(3))) < 1e-12 and np.max(np.abs(t)) < 1e-12 * 1e150


class TestRelativePose:
    def test_self_is_identity(self):
        rng = np.random.default_rng(14)
        p = random_pose3(rng)
        assert np.max(np.abs(relative_pose(p, p).matrix - np.eye(4))) < 1e-12

    def test_from_identity(self):
        rng = np.random.default_rng(15)
        p = random_pose3(rng)
        assert np.max(np.abs(relative_pose(Pose3(np.eye(4)), p).matrix - p.matrix)) < 1e-15

    def test_worked_example(self):
        # anchor at origin facing +x, partner 1 m ahead turned 90 deg left
        a = Pose3(np.eye(4))
        b = pose2_to_pose3(Pose2(math.pi / 2, 1.0, 0.0))
        rel = pose3_to_pose2(relative_pose(a, b))
        assert abs(rel.theta - math.pi / 2) < 1e-15
        assert abs(rel.tx - 1.0) < 1e-15
        assert abs(rel.ty - 0.0) < 1e-15


    def test_equal_to_the_two_pose_form(self):
        # the form relative_pose replaced: the per-frame inverse, the float
        # rule's repair, then every check; half the pairs drift
        rng = np.random.default_rng(16)
        repaired = 0
        for k in range(600):
            spread = 0.9e-9 * (k % 2)
            a, b = (rigid(random_rotation(rng) * math.sqrt(1.0 + rng.uniform(-spread, spread) / math.sqrt(3.0)))
                    for _ in range(2))
            want = reference_relative_pose(Pose3(a), Pose3(b))
            repaired += not np.array_equal(want, reference_invert_rigid(a[None])[0] @ b)
            assert np.array_equal(relative_pose(Pose3(a), Pose3(b)).matrix, want)
        assert 20 < repaired < 280

    def test_bytes_of_the_inline_inverse(self, rotation_cases):
        # relative_pose inverted its frame by hand, [R^T | -R^T t] with R^T negated before the
        # product; invert_rigid gives those bytes for one 4x4 and for a stack, and the products
        # keep them, signed zeros included, of which axis-aligned frames make many
        rng = np.random.default_rng(35)
        axis_aligned = [np.eye(3)[list(order)] * signs for order in itertools.permutations(range(3))
                        for signs in itertools.product((1.0, -1.0), repeat=3)]
        rotations = [*rotation_cases.values(), *axis_aligned, *(random_rotation(rng) for _ in range(200))]
        poses = []
        for r in rotations:
            for t in ((0.0, -0.0, 0.0), (1.5, -0.0, -2.0), rng.uniform(-10.0, 10.0, 3) * 10.0 ** rng.uniform(-6, 4)):
                m = np.eye(4)
                m[:3, :3], m[:3, 3] = r, t
                if verdict(Pose3, m) is None:
                    poses.append(m)
        want = np.stack([rigid_inverse(m) for m in poses])
        assert np.stack([invert_rigid(m) for m in poses]).tobytes() == want.tobytes()
        assert invert_rigid(np.stack(poses)).tobytes() == want.tobytes()
        repaired = 0
        for i, j in rng.integers(0, len(poses), (3000, 2)).tolist():
            m = rigid_inverse(poses[i]) @ poses[j]
            if reference_rotation_error(m[:3, :3])[0] > 1e-9:
                m[:3, :3] = proper_rotation(m[:3, :3])[0]
                repaired += 1
            assert relative_pose(Pose3(poses[i]), Pose3(poses[j])).matrix.tobytes() == m.tobytes(), (i, j)
        assert len(poses) > 600 and repaired > 0

    def test_plain_poses_skip_the_linalg_checks(self, monkeypatch):
        # no verdict reaches for numpy's determinant or norm: not Pose3 or the
        # repair on the products of a rigid drive, nor a refusal of any judge
        gt, _ = synth_trajectory(SynthSpec((MotionPrimitive("arc", 20.0, 2.0, 30.0),)))
        frames = [Pose3(m) for m in gt.poses]
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("det", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        rng = np.random.default_rng(17)
        for i, j in rng.integers(0, len(frames), (1000, 2)).tolist():
            pose3_to_pose2(relative_pose(frames[i], frames[j]))
        bad = rigid(rot_z(0.3) * 2.0)
        with pytest.raises(ValueError, match="orthonormal"):
            Pose3(bad)
        with pytest.raises(ValueError, match="^pose 1: rotation block is not orthonormal"):
            check_rigid(np.stack([np.eye(4), bad]))
        with pytest.raises(InvalidCameraError):
            CameraModel(np.eye(3), bad[:3])
        with pytest.raises(ParseError, match="rotation not orthonormal within 0.0001"):
            parse_kitti_poses(" ".join(map(str, bad[:3].ravel().tolist())) + "\n")
        assert calls == []

    def test_builds_one_pose(self, monkeypatch):
        # a product the judge passes is wrapped as it is; a repaired one goes through Pose3's checks
        plain = Pose3(np.eye(4)), pose2_to_pose3(Pose2(0.3, 1.0, 2.0))
        # each drifts 0.9e-9 from orthonormal, within the tolerance; their product drifts twice that
        drifting = (Pose3(rigid(rot_z(0.3) * math.sqrt(1.0 + 0.9e-9 / math.sqrt(3.0)))),) * 2
        built = []
        check, trusted = Pose3.__post_init__, Pose3._trusted.__func__
        monkeypatch.setattr(Pose3, "__post_init__", lambda self: (built.append("checked"), check(self)))
        monkeypatch.setattr(Pose3, "_trusted",
                            classmethod(lambda cls, m: (built.append("trusted"), trusted(cls, m))[1]))
        for pair, way in ((plain, "trusted"), (drifting, "checked")):
            built.clear()
            pose = relative_pose(*pair)
            assert built == [way] and not pose.matrix.flags.writeable
            assert np.array_equal(pose.matrix, reference_relative_pose(*pair))

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_bench_drive_pairs_equal_the_stack_inverse_form(self, bench_drive, seed):
        # the single-frame [R^T | -R^T t] and the one judge against the stacked
        # inverse and every check, zero signs included, on ground truth and estimate
        gt, est = bench_drive(seed)
        rng = np.random.default_rng(seed)
        for poses in (gt.poses, est.poses):
            frames = [Pose3(m) for m in poses]
            for i, j in rng.integers(0, len(frames), (3000, 2)).tolist():
                got, want = relative_pose(frames[i], frames[j]).matrix, reference_relative_pose(frames[i], frames[j])
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (i, j)

    def test_a_product_the_judge_fails_gets_the_pose3_refusal(self):
        # turned 45 degrees, a translation of 1.5e308 per axis leaves the float range
        b = np.eye(4)
        b[:3, 3] = 1.5e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^pose matrix contains non-finite entries$"):
            relative_pose(Pose3(rigid(rot_z(math.pi / 4))), Pose3(b))

    def test_an_inverse_past_the_float_range_is_refused_without_a_warning(self, capfd):
        # R^T t of a 45 degree pose at (1.7e308, 1.7e308) overflows; the suite's "error"
        # warning filter turns a numpy RuntimeWarning into a failure
        a = np.eye(4)
        a[:3, :3] = rot_z(math.pi / 4)
        a[:2, 3] = 1.7e308
        with pytest.raises(ValueError, match="^pose matrix contains non-finite entries$"):
            relative_pose(Pose3(a), Pose3(np.eye(4)))
        assert capfd.readouterr() == ("", "")


class TestPose2Conversions:
    def test_identity(self):
        assert pose3_to_pose2(Pose3(np.eye(4))) == Pose2(0.0, 0.0, 0.0)
        assert np.array_equal(pose2_to_pose3(Pose2(0.0, 0.0, 0.0)).matrix, np.eye(4))

    def test_pure_rotation(self):
        p = pose3_to_pose2(pose3(rot_z(0.3), np.zeros(3)))
        assert abs(p.theta - 0.3) < 1e-15
        assert p.tx == 0.0 and p.ty == 0.0

    def test_z_dropped(self):
        p = pose3_to_pose2(pose3(np.eye(3), np.array([1.0, 2.0, 3.0])))
        assert p == Pose2(0.0, 1.0, 2.0)

    def test_quarter_turn_matrix(self):
        m = pose2_to_pose3(Pose2(math.pi / 2, 1.0, 0.0)).matrix
        assert abs(m[0, 0]) < 1e-16
        assert abs(m[1, 0] - 1.0) < 1e-16
        assert np.array_equal(m[:3, 3], [1.0, 0.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            p = Pose2(rng.uniform(-math.pi, math.pi), *rng.uniform(-10, 10, 2))
            q = pose3_to_pose2(pose2_to_pose3(p))
            # translations survive bit-exactly; theta within one ulp of pi
            assert q.tx == p.tx and q.ty == p.ty
            assert abs(q.theta - p.theta) < 1e-15

    def test_embedding_equals_rot_z(self):
        rng = np.random.default_rng(17)
        for theta in [0.0, -0.0, math.pi, -math.pi / 2, *rng.uniform(-math.pi, math.pi, 200)]:
            pose = Pose2(theta, rng.normal(), rng.normal())
            want = np.eye(4)
            want[:3, :3] = rot_z(pose.theta)
            want[:2, 3] = (pose.tx, pose.ty)
            assert np.array_equal(pose2_to_pose3(pose).matrix, want)

    def test_theta_wrapped_on_construction(self):
        p = Pose2(3 * math.pi, 0.0, 0.0)
        assert -math.pi < p.theta <= math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose2(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Pose2(0.0, float("inf"), 0.0)


class TestCameraModel:
    def make_extrinsics(self):
        r = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        return np.hstack([r, np.array([[0.0], [0.0], [1.5]])])

    def test_valid_camera(self):
        cam = CameraModel(
            intrinsics=np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]]),
            extrinsics=self.make_extrinsics(),
        )
        assert cam.rotation.shape == (3, 3)
        assert np.array_equal(cam.translation, [0.0, 0.0, 1.5])

    def test_rejects_lower_triangular_entries(self):
        k = np.array([[100.0, 0.0, 64.0], [1e-3, 100.0, 64.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidCameraError):
            CameraModel(intrinsics=k, extrinsics=self.make_extrinsics())

    def test_rejects_nonpositive_diagonal(self):
        k = np.array([[100.0, 0.0, 64.0], [0.0, -100.0, 64.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidCameraError):
            CameraModel(intrinsics=k, extrinsics=self.make_extrinsics())

    def test_rejects_bad_extrinsic_rotation(self):
        e = self.make_extrinsics()
        e[0, 0] = 0.5
        with pytest.raises(InvalidCameraError):
            CameraModel(
                intrinsics=np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]]),
                extrinsics=e,
            )

    def test_extrinsic_verdicts_match_the_scalar_reference(self, rotation_cases):
        k = np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]])
        seen = set()
        for name, rotation in rotation_cases.items():
            e = np.hstack([rotation, [[0.0], [0.0], [1.5]]])
            want = verdict(reference_check_extrinsics, e)
            got = verdict(CameraModel, k, e)
            assert got == want, name
            if got is None:
                assert np.array_equal(CameraModel(k, e).extrinsics, e)
            seen.add(want)
        assert len(seen) == 3

    def test_rejects_wrong_shapes(self):
        with pytest.raises(InvalidCameraError):
            CameraModel(intrinsics=np.eye(4), extrinsics=self.make_extrinsics())
        with pytest.raises(InvalidCameraError):
            CameraModel(intrinsics=np.eye(3), extrinsics=np.eye(4))
