import math

import numpy as np
import pytest

from bevkit.errors import DegenerateGeometryError, DegenerateInputError, ShapeError
from bevkit.flow import (
    FlowField,
    FlowStats,
    construct_flow_gt,
    displacement_at,
    flow_error_map,
    in_grid_mask,
    l1_flow_loss,
    solve_pose_from_flow,
)
from bevkit.geometry import BevGridSpec, Pose2, Pose3, invert_rigid, pose2_to_pose3, pose3_to_pose2
from helpers import compose

GRID = BevGridSpec(128, 128, 0.8)


def compose2(a: Pose2, b: Pose2) -> Pose2:
    return pose3_to_pose2(compose(pose2_to_pose3(a), pose2_to_pose3(b)))


def invert2(p: Pose2) -> Pose2:
    return pose3_to_pose2(Pose3(invert_rigid(pose2_to_pose3(p).matrix[None])[0]))


def random_pose2(rng, max_theta=math.pi / 4, max_t=4.0):
    theta = rng.uniform(-max_theta, max_theta)
    direction = rng.uniform(0, 2 * math.pi)
    radius = rng.uniform(0, max_t)
    return Pose2(theta, radius * math.cos(direction), radius * math.sin(direction))


class TestConstructFlow:
    def test_identity_is_exactly_zero(self):
        flow = construct_flow_gt(Pose2(0.0, 0.0, 0.0), GRID)
        assert np.max(np.abs(flow.data)) == 0.0

    def test_one_cell_forward_is_exact(self):
        flow = construct_flow_gt(Pose2(0.0, 0.8, 0.0), GRID)
        assert np.array_equal(np.unique(flow.data[0]), [0.0])
        assert np.array_equal(np.unique(flow.data[1]), [-1.0])

    def test_rotation_fixes_origin_pixel(self):
        grid = BevGridSpec(128, 128, 0.8, origin_px=(64.0, 64.0))
        flow = construct_flow_gt(Pose2(0.7, 0.0, 0.0), grid)
        assert flow.data[0, 64, 64] == 0.0
        assert flow.data[1, 64, 64] == 0.0

    def test_pure_translation_is_constant(self):
        flow = construct_flow_gt(Pose2(0.0, 1.3, -2.1), GRID)
        assert np.unique(flow.data[0]).size == 1
        assert np.unique(flow.data[1]).size == 1

    def test_pure_rotation_magnitude_grows_linearly(self):
        grid = BevGridSpec(129, 129, 0.8, origin_px=(64.0, 64.0))
        theta = 0.3
        flow = construct_flow_gt(Pose2(theta, 0.0, 0.0), grid)
        mag = np.sqrt(flow.data[0] ** 2 + flow.data[1] ** 2)
        # chord length 2 sin(theta/2) per unit pixel distance from the origin
        k = 2.0 * math.sin(theta / 2.0)
        assert abs(mag[64, 74] - 10.0 * k) < 1e-12
        assert abs(mag[64, 84] - 20.0 * k) < 1e-12
        assert abs(mag[24, 64] - 40.0 * k) < 1e-12

    def test_matches_definition_via_vehicle_round_trip(self):
        # the factored evaluation must agree with the literal construction:
        # displace the vehicle point, map back to pixels, subtract
        from bevkit.geometry import pixel_to_vehicle, vehicle_to_pixel

        rng = np.random.default_rng(21)
        for _ in range(20):
            pose = random_pose2(rng)
            t3 = pose2_to_pose3(pose)
            flow = construct_flow_gt(pose, GRID)
            u = rng.integers(0, 128)
            v = rng.integers(0, 128)
            x, y = pixel_to_vehicle(u, v, GRID)
            moved = t3.matrix @ np.array([x, y, 0.0, 1.0])
            uu, vv = vehicle_to_pixel(moved[0], moved[1], GRID)
            assert abs(flow.data[0, v, u] - (uu - u)) < 1e-12
            assert abs(flow.data[1, v, u] - (vv - v)) < 1e-12

    @pytest.mark.parametrize("pose, grid", [
        (Pose2(3.0, 0.0, 0.0), BevGridSpec(4, 4, 1.0, (-1.5e308, 1.5e308))),  # a product past the float range
        (Pose2(1.0, 0.0, 0.0), BevGridSpec(4, 4, 1.0, (-1.5e308, 1.5e308))),  # a sum past it
        (Pose2(0.0, 1e307, 0.0), BevGridSpec(4, 4, 1e-300)),  # a translation past it in pixels
    ])
    def test_a_component_past_the_float_range_is_refused_without_a_warning(self, pose, grid):
        with pytest.raises(ValueError, match="^displacement_at: a flow component leaves the float range$"):
            construct_flow_gt(pose, grid)

    def test_flow_field_validation(self):
        with pytest.raises(ShapeError):
            FlowField(np.zeros((3, 128, 128)), GRID)
        with pytest.raises(ShapeError):
            FlowField(np.zeros((2, 64, 128)), GRID)
        bad = np.zeros((2, 128, 128))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FlowField(bad, GRID)


class TestSolvePose:
    def test_zero_flow_gives_identity(self):
        pose = solve_pose_from_flow(FlowField(np.zeros((2, 128, 128)), GRID))
        assert abs(pose.theta) < 1e-12
        assert abs(pose.tx) < 1e-12 and abs(pose.ty) < 1e-12

    def test_round_trip_named_case(self):
        pose = Pose2(0.2, 1.0, -0.5)
        rec = solve_pose_from_flow(construct_flow_gt(pose, GRID))
        assert abs(rec.theta - 0.2) < 1e-9
        assert abs(rec.tx - 1.0) < 1e-9
        assert abs(rec.ty + 0.5) < 1e-9

    def test_round_trip_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            pose = random_pose2(rng)
            rec = solve_pose_from_flow(construct_flow_gt(pose, GRID))
            assert abs(rec.theta - pose.theta) < 1e-9
            assert abs(rec.tx - pose.tx) < 1e-9
            assert abs(rec.ty - pose.ty) < 1e-9

    @pytest.mark.parametrize("k", [600, -600, 1000, -1000])
    def test_an_ordinary_flow_is_solved_at_any_finite_resolution(self, k):
        # the unscaled covariance of the vehicle-frame points would leave the float range at 2**600 m/px
        # and have no normal entry at 2**-600 m/px; the fit scales each set below 1 by a power of two
        r = 2.0 ** k
        pose = solve_pose_from_flow(construct_flow_gt(Pose2(0.1, 3 * r, -2 * r), BevGridSpec(16, 16, r)))
        assert abs(pose.theta / 0.1 - 1.0) < 1e-14
        assert abs(pose.tx / (3 * r) - 1.0) < 1e-14 and abs(pose.ty / (-2 * r) - 1.0) < 1e-14

    def test_an_ordinary_flow_is_solved_at_every_decade_of_resolution(self):
        # sigma reads relative to the point sets' magnitudes: as an absolute figure, it fell below the
        # rank tolerance from about 1e-8 to 1e-155 m/px, and the flow was refused there
        for k in range(-300, 301):
            r = 10.0 ** k
            pose = solve_pose_from_flow(construct_flow_gt(Pose2(0.1, 3 * r, -2 * r), BevGridSpec(16, 16, r)))
            assert abs(pose.theta / 0.1 - 1.0) < 1e-14, k
            assert abs(pose.tx / (3 * r) - 1.0) < 1e-14 and abs(pose.ty / (-2 * r) - 1.0) < 1e-14, k

    def test_power_of_two_resolutions_give_the_same_bits(self):
        solved = set()
        for k in (0, 300, -300, 600, -600, 1000, -1000):
            r = 2.0 ** k
            pose = solve_pose_from_flow(construct_flow_gt(Pose2(0.1, 3 * r, -2 * r), BevGridSpec(16, 16, r)))
            solved.add((pose.theta, math.ldexp(pose.tx, -k), math.ldexp(pose.ty, -k)))
        assert len(solved) == 1, solved

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(23)
        flow = construct_flow_gt(Pose2(0.1, 0.5, 0.2), GRID)
        w = rng.uniform(0.1, 2.0, size=(128, 128))
        a = solve_pose_from_flow(flow, w)
        b = solve_pose_from_flow(flow, 3.7 * w)
        assert abs(a.theta - b.theta) < 1e-12
        assert abs(a.tx - b.tx) < 1e-12
        assert abs(a.ty - b.ty) < 1e-12

    def test_uniform_weights_of_any_scale_solve_alike(self):
        # the rank test is relative to the weights' sum: an absolute one refused uniform weights of 1e-20
        grid = BevGridSpec(16, 16, 0.8)
        flow = construct_flow_gt(Pose2(0.1, 0.5, 0.2), grid)
        want = solve_pose_from_flow(flow)
        for scale in (1e-300, 1e-20, 1e-14, 1e100, 1e300):
            pose = solve_pose_from_flow(flow, np.full(grid.shape, scale))
            assert abs(pose.theta - want.theta) < 1e-15 and abs(pose.tx - want.tx) < 1e-14, scale
            assert abs(pose.ty - want.ty) < 1e-14, scale

    def test_weighted_solve_honors_weights(self):
        # corrupt half the field; zero weights there must hide the damage
        pose = Pose2(0.15, 0.7, -0.3)
        flow = construct_flow_gt(pose, GRID)
        data = np.array(flow.data)
        data[:, :, 64:] += 5.0
        w = np.ones((128, 128))
        w[:, 64:] = 0.0
        rec = solve_pose_from_flow(FlowField(data, GRID), w)
        assert abs(rec.theta - pose.theta) < 1e-9
        assert abs(rec.tx - pose.tx) < 1e-9
        assert abs(rec.ty - pose.ty) < 1e-9

    def test_too_few_weighted_pixels(self):
        w = np.zeros((128, 128))
        w[0, 0] = 1.0
        with pytest.raises(DegenerateInputError):
            solve_pose_from_flow(FlowField(np.zeros((2, 128, 128)), GRID), w)

    def test_negative_weights_rejected(self):
        w = np.ones((128, 128))
        w[3, 3] = -1.0
        with pytest.raises(ValueError):
            solve_pose_from_flow(FlowField(np.zeros((2, 128, 128)), GRID), w)

    def test_collapsed_targets_are_degenerate(self):
        # two weighted pixels whose displaced locations coincide: the
        # cross-covariance vanishes and no unique rotation exists, at any resolution
        data = np.zeros((2, 2, 2))
        data[0, 0, 1] = -1.0  # pixel (u=1, v=0) lands on (0, 0)
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        for resolution_m in (1.0, 1e-100):
            with pytest.raises(DegenerateGeometryError):
                solve_pose_from_flow(FlowField(data, BevGridSpec(2, 2, resolution_m)), w)


class TestFlowAlgebra:
    def test_composition_consistency(self):
        # applying t1 then t2 equals the single motion compose(t2, t1);
        # the second flow is evaluated at the t1-displaced real location
        rng = np.random.default_rng(24)
        vs, us = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
        for _ in range(10):
            t1 = random_pose2(rng, max_theta=0.5, max_t=3.0)
            t2 = random_pose2(rng, max_theta=0.5, max_t=3.0)
            du1, dv1 = displacement_at(t1, GRID, us, vs)
            du2, dv2 = displacement_at(t2, GRID, us + du1, vs + dv1)
            du12, dv12 = displacement_at(compose2(t2, t1), GRID, us, vs)
            assert np.max(np.abs(du12 - (du1 + du2))) < 1e-9
            assert np.max(np.abs(dv12 - (dv1 + dv2))) < 1e-9

    def test_inversion_consistency(self):
        # the inverse motion's flow at the displaced location undoes the flow
        rng = np.random.default_rng(25)
        vs, us = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
        for _ in range(10):
            t = random_pose2(rng, max_theta=0.6, max_t=4.0)
            du, dv = displacement_at(t, GRID, us, vs)
            du_inv, dv_inv = displacement_at(invert2(t), GRID, us + du, vs + dv)
            assert np.max(np.abs(du_inv + du)) < 1e-9
            assert np.max(np.abs(dv_inv + dv)) < 1e-9


class TestErrorMapAndLoss:
    def test_identical_flows(self):
        flow = construct_flow_gt(Pose2(0.1, 1.0, 0.0), GRID)
        epe, stats = flow_error_map(flow, flow)
        assert np.max(epe) == 0.0
        assert stats.mean_epe == 0.0

    def test_three_four_five(self):
        gt = construct_flow_gt(Pose2(0.05, 0.3, -0.2), GRID)
        pred = FlowField(gt.data + np.array([3.0, 4.0])[:, None, None], GRID)
        epe, stats = flow_error_map(pred, gt)
        assert np.max(np.abs(epe - 5.0)) < 1e-12
        assert abs(stats.mean_epe - 5.0) < 1e-12
        assert abs(stats.max_epe - 5.0) < 1e-12

    def test_frac_below_is_strict_and_monotone(self):
        half = 128 * 128 // 2
        epe = np.concatenate([np.full(half, 0.3), np.full(half, 0.5)]).reshape(128, 128)
        stats = FlowStats(epe)
        assert stats.frac_below(0.4) == 0.5
        assert stats.frac_below(0.3) == 0.0  # strictly below
        assert stats.frac_below(0.6) == 1.0
        taus = np.linspace(0.0, 1.0, 21)
        fracs = [stats.frac_below(t) for t in taus]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))

    def test_grid_mismatch(self):
        small = BevGridSpec(64, 64, 0.8)
        with pytest.raises(ShapeError):
            flow_error_map(
                FlowField(np.zeros((2, 128, 128)), GRID),
                FlowField(np.zeros((2, 64, 64)), small),
            )

    def test_l1_single_pixel_sum(self):
        gt = construct_flow_gt(Pose2(0.0, 0.0, 0.0), GRID)
        data = np.array(gt.data)
        data[0, 5, 7] += 1.0
        data[1, 5, 7] -= 2.0
        pred = FlowField(data, GRID)
        assert abs(l1_flow_loss(pred, gt) - 3.0 / (128 * 128)) < 1e-15

    def test_l1_homogeneity(self):
        rng = np.random.default_rng(26)
        gt = FlowField(rng.standard_normal((2, 16, 16)), BevGridSpec(16, 16, 0.8))
        dev = rng.standard_normal((2, 16, 16))
        g = BevGridSpec(16, 16, 0.8)
        l1 = l1_flow_loss(FlowField(gt.data + dev, g), gt)
        l2 = l1_flow_loss(FlowField(gt.data + 2 * dev, g), gt)
        assert abs(l2 - 2 * l1) < 1e-12

    def test_l1_mask(self):
        gt = construct_flow_gt(Pose2(0.0, 0.0, 0.0), GRID)
        data = np.array(gt.data)
        data[0, 0, 0] = 10.0
        pred = FlowField(data, GRID)
        mask = np.ones((128, 128), dtype=bool)
        mask[0, 0] = False
        assert l1_flow_loss(pred, gt, mask=mask) == 0.0
        with pytest.raises(DegenerateInputError):
            l1_flow_loss(pred, gt, mask=np.zeros((128, 128), dtype=bool))

    def test_difference_past_the_float_range_is_refused_without_a_warning(self):
        g = BevGridSpec(4, 4, 0.8)
        up, down = FlowField(np.full((2, 4, 4), 1e308), g), FlowField(np.full((2, 4, 4), -1e308), g)
        with pytest.raises(ValueError, match="^flow_error_map: an endpoint error leaves the float range$"):
            flow_error_map(up, down)
        with pytest.raises(ValueError, match="^l1_flow_loss leaves the float range$"):
            l1_flow_loss(up, down)

    def test_squares_past_the_float_range_give_the_scaled_length(self):
        g = BevGridSpec(2, 2, 0.8)
        pred = FlowField(np.array([3e300, 4e300])[:, None, None] * np.ones((2, 2, 2)), g)
        epe, stats = flow_error_map(pred, FlowField(np.zeros((2, 2, 2)), g))
        assert np.allclose(epe, 5e300, rtol=1e-15, atol=0.0)
        assert stats.mean_epe == stats.max_epe == epe.max()

    def test_squares_below_the_normal_range_give_the_scaled_length(self):
        g = BevGridSpec(2, 2, 0.8)
        zero = FlowField(np.zeros((2, 2, 2)), g)
        pred = FlowField(np.array([3e-300, 4e-300])[:, None, None] * np.ones((2, 2, 2)), g)
        epe, stats = flow_error_map(pred, zero)
        assert np.allclose(epe, 5e-300, rtol=1e-15, atol=0.0)
        assert stats.mean_epe == stats.max_epe == epe.max()
        # the plain squares of 1e-170 round to zero, which read as a perfect match
        assert flow_error_map(FlowField(np.full((2, 2, 2), 1e-170), g), zero)[1].mean_epe == 1.4142135623730951e-170

    def test_ordinary_maps_keep_the_plain_bits(self):
        rng = np.random.default_rng(37)
        g = BevGridSpec(16, 24, 0.8)
        for scale in 10.0 ** np.arange(-150, 151, 10):
            pred, gt = rng.standard_normal((2, 2, 16, 24)) * scale
            du, dv = pred - gt
            epe, _ = flow_error_map(FlowField(pred, g), FlowField(gt, g))
            assert epe.tobytes() == np.sqrt(du**2 + dv**2).tobytes(), scale

    def test_fields_at_every_scale_give_the_hypot_length(self):
        # 16 equal errors sum exactly (numpy's sum of 64 does not), so a uniform field's mean is its value
        rng = np.random.default_rng(38)
        g = BevGridSpec(4, 4, 0.8)
        zero = FlowField(np.zeros((2, 4, 4)), g)
        for k in range(-300, 308):
            uniform = np.array([0.6, -0.8])[:, None, None] * np.full((2, 4, 4), 10.0 ** k)
            for data in (uniform, rng.uniform(-1.0, 1.0, (2, 4, 4)) * 10.0 ** k):
                epe, stats = flow_error_map(FlowField(data, g), zero)
                ref = np.hypot(data[0], data[1])
                assert np.all(np.abs(epe - ref) <= 4e-16 * ref), k
                if data is uniform:
                    assert np.all(epe == epe[0, 0]) and stats.mean_epe == epe[0, 0], k

    @pytest.mark.parametrize("shape", [(8, 8), (10, 10), (3, 7), (128, 128)])
    @pytest.mark.parametrize("value", [1.5118216247002567, 1e-153, 0.1, 3.3])
    def test_the_mean_of_a_uniform_map_is_its_value(self, shape, value):
        # numpy's pairwise sum of equal values rounds: 0.1 on 128x128 sums to a mean of
        # 0.10000000000000002, above max_epe, so the mean is clamped into [min, max]
        stats = FlowStats(np.full(shape, value))
        assert stats.mean_epe == stats.max_epe == value

    def test_sums_past_the_float_range_give_the_scaled_mean(self):
        g = BevGridSpec(2, 2, 0.8)
        data = np.zeros((2, 2, 2))
        data[0, 0, 0], data[1, 0, 0], data[0, 1, 1] = 1.5e308, 1.5e308, 1e308
        pred, gt = FlowField(data, g), FlowField(np.zeros((2, 2, 2)), g)
        assert l1_flow_loss(pred, gt, mask=np.array([[False, True], [True, True]])) == 1e308 / 3
        with pytest.raises(ValueError, match="^l1_flow_loss leaves the float range$"):
            l1_flow_loss(pred, gt, mask=np.array([[True, False], [False, False]]))
        assert FlowStats(np.full((2, 2), 1.5e308)).mean_epe == 1.5e308


class TestInGridMask:
    def test_identity_keeps_everything(self):
        flow = construct_flow_gt(Pose2(0.0, 0.0, 0.0), GRID)
        assert in_grid_mask(flow).all()

    def test_forward_motion_drops_top_row(self):
        flow = construct_flow_gt(Pose2(0.0, 0.8, 0.0), GRID)
        mask = in_grid_mask(flow)
        assert not mask[0].any()  # row 0 moves to v = -1
        assert mask[1:].all()
