"""Supervision losses for planar odometry and auxiliary pose/flow heads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .flow import l1_flow_loss
from .geometry import Pose2, wrap_angle


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
            val = float(getattr(self, name))
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
            object.__setattr__(self, name, val)


def loss_3dof(pred: Pose2, gt: Pose2, alpha: float = 10.0) -> float:
    """Planar pose loss: |dtx| + |dty| + alpha * |dtheta|.

    The angular residual is wrapped to (-pi, pi] before taking the
    absolute value, so poses that differ by a full turn cost nothing.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    dtheta = wrap_angle(pred.theta - gt.theta)
    return float(abs(pred.tx - gt.tx) + abs(pred.ty - gt.ty) + alpha * abs(dtheta))


def loss_5dof(
    t_pred: np.ndarray,
    rot_pred: np.ndarray,
    t_gt: np.ndarray,
    rot_gt: np.ndarray,
    beta: float = 10.0,
) -> float:
    """Scale-free translation direction plus rotation loss.

    Both translations are normalized to unit L2 length, then the loss is
    ||t_pred_hat - t_gt_hat||_1 + beta * ||rot_pred - rot_gt||_F.  The
    translation term is invariant to positive rescaling of either input.

    Raises:
        DegenerateInputError: either translation has zero norm, so no
            direction exists.
    """
    beta = float(beta)
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    t_pred = np.asarray(t_pred, dtype=float)
    t_gt = np.asarray(t_gt, dtype=float)
    rot_pred = np.asarray(rot_pred, dtype=float)
    rot_gt = np.asarray(rot_gt, dtype=float)
    if t_pred.shape != (3,) or t_gt.shape != (3,):
        raise ShapeError("translations must have shape (3,)")
    if rot_pred.shape != (3, 3) or rot_gt.shape != (3, 3):
        raise ShapeError("rotations must be 3x3")
    if not (
        np.all(np.isfinite(t_pred))
        and np.all(np.isfinite(t_gt))
        and np.all(np.isfinite(rot_pred))
        and np.all(np.isfinite(rot_gt))
    ):
        raise ValueError("loss inputs must be finite")
    n_pred = np.linalg.norm(t_pred)
    n_gt = np.linalg.norm(t_gt)
    if n_pred == 0.0 or n_gt == 0.0:
        raise DegenerateInputError("translation direction undefined for zero-norm input")
    direction_term = float(np.abs(t_pred / n_pred - t_gt / n_gt).sum())
    rotation_term = float(np.linalg.norm(rot_pred - rot_gt))
    return direction_term + beta * rotation_term


def loss_total(
    l3dof: float,
    l5dof: float,
    lflow: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """Total loss: l3dof + lambda1 * l5dof + lambda2 * lflow."""
    for name, val in (("l3dof", l3dof), ("l5dof", l5dof), ("lflow", lflow)):
        if not math.isfinite(float(val)):
            raise ValueError(f"{name} must be finite, got {val}")
    return float(l3dof) + weights.lambda1 * float(l5dof) + weights.lambda2 * float(lflow)


__all__ = [
    "LossWeights",
    "loss_3dof",
    "loss_5dof",
    "loss_total",
    "l1_flow_loss",
]
