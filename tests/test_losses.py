"""Tests for the supervision loss functions."""

import math

import numpy as np
import pytest

from bevkit.errors import DegenerateInputError, ShapeError
from bevkit.geometry import Pose2
from bevkit.losses import LossWeights, loss_3dof, loss_5dof, loss_total


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert w.alpha == 10.0
        assert w.beta == 10.0
        assert w.lambda1 == 1.0
        assert w.lambda2 == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-1.0)
        with pytest.raises(ValueError):
            LossWeights(lambda2=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(beta=np.inf)


class TestLoss3dof:
    def test_zero_at_match(self):
        p = Pose2(0.3, 1.0, -2.0)
        assert loss_3dof(p, p) == 0.0

    def test_hand_computed_example(self):
        pred = Pose2(0.05, 0.1, 0.2)
        gt = Pose2(0.0, 0.0, 0.0)
        assert abs(loss_3dof(pred, gt, alpha=10.0) - 0.8) < 1e-12

    def test_wrap_at_pi(self):
        # Residual crosses the branch cut: the short way around is 0.02.
        pred = Pose2(np.pi - 0.01, 0.0, 0.0)
        gt = Pose2(-np.pi + 0.01, 0.0, 0.0)
        assert abs(loss_3dof(pred, gt, alpha=10.0) - 0.2) < 1e-12

    def test_invariant_to_full_turns(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            th = rng.uniform(-np.pi, np.pi)
            tx, ty = rng.uniform(-3.0, 3.0, size=2)
            gt = Pose2(rng.uniform(-np.pi, np.pi), 0.0, 0.0)
            base = loss_3dof(Pose2(th, tx, ty), gt)
            shifted = loss_3dof(Pose2(th + 2.0 * np.pi, tx, ty), gt)
            assert abs(shifted - base) < 1e-9

    def test_nonnegative_and_positive_off_match(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            pred = Pose2(*rng.uniform(-1.0, 1.0, size=3))
            gt = Pose2(*rng.uniform(-1.0, 1.0, size=3))
            val = loss_3dof(pred, gt)
            assert val >= 0.0
            if pred != gt:
                assert val > 0.0

    def test_alpha_scales_rotation_term_only(self):
        pred = Pose2(0.1, 0.0, 0.0)
        gt = Pose2(0.0, 0.0, 0.0)
        assert abs(loss_3dof(pred, gt, alpha=0.0)) < 1e-15
        assert abs(loss_3dof(pred, gt, alpha=20.0) - 2.0) < 1e-12


class TestLoss5dof:
    def test_zero_at_match(self):
        rng = np.random.default_rng(63)
        t = rng.normal(size=3)
        r = random_rotation(rng)
        assert loss_5dof(t, r, t, r) == 0.0

    def test_scale_free_same_direction(self):
        rng = np.random.default_rng(64)
        t = rng.normal(size=3)
        r = random_rotation(rng)
        assert loss_5dof(2.0 * t, r, t, r) == 0.0

    def test_half_turn_rotation_example(self):
        # Rotating the prediction 180 degrees about z changes the
        # Frobenius term by sqrt(8), scaled by beta.
        t = np.array([1.0, 0.0, 0.0])
        r_gt = np.eye(3)
        r_pred = np.diag([-1.0, -1.0, 1.0])
        val = loss_5dof(t, r_pred, t, r_gt, beta=10.0)
        assert abs(val - 10.0 * np.sqrt(8.0)) < 1e-12

    def test_exact_invariance_power_of_two_scales(self):
        # Power-of-two factors scale every component exactly, so the
        # normalized direction is bit-identical and so is the loss.
        rng = np.random.default_rng(65)
        for _ in range(300):
            t_pred = rng.normal(size=3)
            t_gt = rng.normal(size=3)
            r_pred = random_rotation(rng)
            r_gt = random_rotation(rng)
            base = loss_5dof(t_pred, r_pred, t_gt, r_gt)
            c = 2.0 ** rng.integers(-8, 9)
            assert loss_5dof(c * t_pred, r_pred, t_gt, r_gt) == base
            assert loss_5dof(t_pred, r_pred, c * t_gt, r_gt) == base

    def test_near_invariance_arbitrary_scales(self):
        rng = np.random.default_rng(66)
        for _ in range(300):
            t_pred = rng.normal(size=3)
            t_gt = rng.normal(size=3)
            r = random_rotation(rng)
            base = loss_5dof(t_pred, r, t_gt, r)
            c = rng.uniform(0.01, 100.0)
            assert abs(loss_5dof(c * t_pred, r, t_gt, r) - base) < 1e-12

    def test_zero_translation_rejected(self):
        r = np.eye(3)
        with pytest.raises(DegenerateInputError):
            loss_5dof(np.zeros(3), r, np.array([1.0, 0.0, 0.0]), r)
        with pytest.raises(DegenerateInputError):
            loss_5dof(np.array([1.0, 0.0, 0.0]), r, np.zeros(3), r)

    @pytest.mark.parametrize("t_pred, t_gt", [
        ([1e155, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1.7e308, -1.7e308, 0.0], [1.0, -1.0, 0.0]),
        ([3e200, 0.0, 4e200], [3.0, 0.0, 4.0]),
        # squares that round to zero
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, 5e-324, 0.0], [0.0, 1.0, 0.0]),
        # squares that are subnormal: the plain norm of 1e-160 read 9.99994433575849e-161
        ([1e-160, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ], ids=["1e155", "1.7e308", "3-4-5", "1e-200", "subnormal", "subnormal-squares"])
    def test_direction_of_translations_past_the_squared_range(self, t_pred, t_gt):
        # the plain norm overflowed to inf (a loss of 1.0 and a numpy warning)
        # or underflowed to 0 (a zero-norm refusal of a nonzero translation)
        r = np.eye(3)
        assert loss_5dof(np.array(t_pred), r, np.array(t_gt), r) == 0.0
        assert loss_5dof(np.array(t_gt), r, np.array(t_pred), r) == 0.0

    def test_rotation_term_is_the_plain_frobenius_norm(self):
        # the bev_frames digest hashes this loss: ordinary rotations keep their bits
        rng = np.random.default_rng(69)
        t = np.array([0.0, 1.0, 0.0])
        for _ in range(200):
            a, b = random_rotation(rng), random_rotation(rng)
            assert loss_5dof(t, a, t, b, beta=1.0) == float(np.linalg.norm(a - b))

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e307])
    def test_rotation_difference_past_the_squared_range(self, scale):
        # the plain norm overflowed to inf, with a numpy warning
        t = np.array([1.0, 0.0, 0.0])
        loss = loss_5dof(t, scale * np.eye(3), t, np.zeros((3, 3)), beta=1.0)
        assert loss == pytest.approx(scale * math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("rot_pred, rot_gt", [
        (1e308 * np.eye(3), -1e308 * np.eye(3)),  # the difference overflows
        (1.5e308 * np.eye(3), np.zeros((3, 3))),  # its norm does
    ], ids=["difference", "norm"])
    def test_rotation_term_past_the_float_range_refused(self, rot_pred, rot_gt):
        t = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^loss_5dof rotation term \|\|rot_pred - rot_gt\|\|_F leaves the float range$"):
            loss_5dof(t, rot_pred, t, rot_gt)

    def test_shape_checks(self):
        r = np.eye(3)
        t = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            loss_5dof(np.ones(2), r, t, r)
        with pytest.raises(ShapeError):
            loss_5dof(t, np.eye(4), t, r)

    def test_nonnegative(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            val = loss_5dof(
                rng.normal(size=3),
                random_rotation(rng),
                rng.normal(size=3),
                random_rotation(rng),
            )
            assert val >= 0.0


class TestLossTotal:
    def test_zero(self):
        assert loss_total(0.0, 0.0, 0.0) == 0.0

    def test_unit_weights_sum(self):
        assert loss_total(1.0, 2.0, 3.0) == 6.0

    def test_zero_lambdas_reduce_to_3dof(self):
        w = LossWeights(lambda1=0.0, lambda2=0.0)
        assert loss_total(1.7, 42.0, 13.0, w) == 1.7

    def test_linear_in_each_component(self):
        rng = np.random.default_rng(68)
        for _ in range(100):
            l3, l5, lf = rng.uniform(0.0, 5.0, size=3)
            w = LossWeights(
                alpha=rng.uniform(0.0, 20.0),
                beta=rng.uniform(0.0, 20.0),
                lambda1=rng.uniform(0.0, 3.0),
                lambda2=rng.uniform(0.0, 3.0),
            )
            expected = l3 + w.lambda1 * l5 + w.lambda2 * lf
            assert abs(loss_total(l3, l5, lf, w) - expected) < 1e-12
