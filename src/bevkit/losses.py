"""Supervision losses for planar odometry and auxiliary pose/flow heads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .geometry import Pose2, _direction, _scale_safe, wrap_angle
from .text import FINITE, FINITE_AT_LEAST_ZERO, check_arg, check_array


@dataclass(frozen=True)
class LossWeights:
    """Weighting of the loss terms.

    ``alpha`` scales the angular residual inside the planar pose loss,
    ``beta`` scales the rotation residual inside the direction/rotation
    loss, ``lambda1``/``lambda2`` weight the auxiliary and flow terms in
    the total.  All must be nonnegative and finite.
    """

    alpha: float = 10.0
    beta: float = 10.0
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "lambda1", "lambda2"):
            object.__setattr__(self, name, check_arg(name, getattr(self, name), FINITE_AT_LEAST_ZERO))


def loss_3dof(pred: Pose2, gt: Pose2, alpha: float = LossWeights.alpha) -> float:
    """Planar pose loss: |dtx| + |dty| + alpha * |dtheta|.

    The angular residual is wrapped to (-pi, pi] before taking the
    absolute value, so poses that differ by a full turn cost nothing.
    """
    alpha = check_arg("alpha", alpha, FINITE_AT_LEAST_ZERO)
    dtheta = wrap_angle(pred.theta - gt.theta)
    return _finite("loss_3dof", abs(pred.tx - gt.tx) + abs(pred.ty - gt.ty) + alpha * abs(dtheta))


def loss_5dof(
    t_pred: np.ndarray,
    rot_pred: np.ndarray,
    t_gt: np.ndarray,
    rot_gt: np.ndarray,
    beta: float = LossWeights.beta,
) -> float:
    """Scale-free translation direction plus rotation loss.

    Both translations are normalized to unit L2 length, then the loss is
    ||t_pred_hat - t_gt_hat||_1 + beta * ||rot_pred - rot_gt||_F.  The
    translation term is invariant to positive rescaling of either input.

    Raises:
        DegenerateInputError: either translation has zero norm, so no
            direction exists.
        ValueError: the rotation term or the loss leaves the float range.
    """
    beta = check_arg("beta", beta, FINITE_AT_LEAST_ZERO)
    t_pred, t_gt = check_array("t_pred", t_pred, (3,)), check_array("t_gt", t_gt, (3,))
    rot_pred, rot_gt = check_array("rot_pred", rot_pred, (3, 3)), check_array("rot_gt", rot_gt, (3, 3))
    if not (t_pred.any() and t_gt.any()):
        raise DegenerateInputError("translation direction undefined for zero-norm input")
    direction_term = float(np.abs(_direction(t_pred) - _direction(t_gt)).sum())
    with np.errstate(over="ignore"):  # a difference past the float range makes the term inf, refused below
        diff = rot_pred - rot_gt
    rotation_term = _scale_safe(lambda d: float(np.linalg.norm(d)), diff)
    if not rotation_term < math.inf:  # the difference or its norm overflowed
        raise ValueError("loss_5dof rotation term ||rot_pred - rot_gt||_F leaves the float range")
    return _finite("loss_5dof", direction_term + beta * rotation_term)


def _finite(loss: str, value: float) -> float:
    """``value``, or ValueError when the sum that made it left the float range."""
    if not math.isfinite(value):
        raise ValueError(f"{loss} leaves the float range, got {value!r}")
    return value


def loss_total(
    l3dof: float,
    l5dof: float,
    lflow: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """Total loss: l3dof + lambda1 * l5dof + lambda2 * lflow."""
    l3dof, l5dof, lflow = (check_arg(name, value, FINITE) for name, value in zip(("l3dof", "l5dof", "lflow"),
                                                                                  (l3dof, l5dof, lflow)))
    return _finite("loss_total", l3dof + weights.lambda1 * l5dof + weights.lambda2 * lflow)
