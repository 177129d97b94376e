"""Dense BEV optical flow induced by planar ego-motion, and its inverse.

The forward direction turns a relative planar pose into the flow field a
perfect BEV feature matcher would observe; the inverse recovers the pose
from a (possibly noisy, possibly weighted) flow field in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvt1 import read_bvt1, write_bvt1
from .errors import DegenerateGeometryError, DegenerateInputError, ShapeError
from .geometry import BevGridSpec, Pose2, _scale_safe, fit_similarity, pixel_to_vehicle
from .text import AT_LEAST_ZERO, check_arg, check_array

# The weighted cross-covariance of the point correspondences is considered
# rank zero, and the rotation fit hopeless, when its largest singular value
# falls below this times the weights' sum.  fit_similarity forms it over each
# centred set scaled below 1 by a power of two, so the test is relative to the
# sets' magnitudes and to the weights, and judges alike at every grid
# resolution and every scale of the weights.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class FlowField:
    """A dense BEV flow field: data[0] = du, data[1] = dv, shape (2, H, W).

    Stored as float64; the grid gives the metric interpretation.
    """

    data: np.ndarray
    grid: BevGridSpec

    def __post_init__(self):
        object.__setattr__(self, "data", check_array("flow data", self.data, (2, *self.grid.shape)))


class FlowStats:
    """Summary statistics over an (H, W) endpoint-error map."""

    def __init__(self, epe: np.ndarray):
        self._epe = epe = check_array("epe", epe, ("H", "W")).ravel()
        self.max_epe = float(epe.max())
        # clamped into [min, max]: numpy's pairwise sum of equal values can round a uniform map's mean off its value
        self.mean_epe = min(max(_scale_safe(lambda e: float(e.mean()), epe), float(epe.min())), self.max_epe)

    def frac_below(self, threshold_px: float) -> float:
        """Fraction of pixels with endpoint error strictly below the threshold, a number >= 0."""
        threshold_px = check_arg("threshold_px", threshold_px, AT_LEAST_ZERO)
        return float(np.count_nonzero(self._epe < threshold_px) / self._epe.size)


def displacement_at(t_rel: Pose2, grid: BevGridSpec, u, v):
    """Flow (du, dv) induced by ``t_rel`` at pixel coordinates (u, v).

    Accepts scalars or arrays.  Algebraically this carries the pixel into
    the vehicle frame, applies the motion, and projects back, but it is
    evaluated in factored pixel-space form

        du = sin(theta) * b + (cos(theta) - 1) * a + ty / r
        dv = (1 - cos(theta)) * b + sin(theta) * a - tx / r

    with a = u - o_x, b = o_y - v, so that zero motion produces exactly
    zero flow with no rounding residue.  A component that leaves the float
    range raises ValueError.
    """
    u = check_array("u", u, None)
    v = check_array("v", v, None)
    o_x, o_y = grid.origin_px
    r = grid.resolution_m
    c = math.cos(t_rel.theta)
    s = math.sin(t_rel.theta)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        a = u - o_x
        b = o_y - v
        du = s * b + (c - 1.0) * a + t_rel.ty / r
        dv = (1.0 - c) * b + s * a - t_rel.tx / r
    if not (np.isfinite(du).all() and np.isfinite(dv).all()):
        raise ValueError("displacement_at: a flow component leaves the float range")
    return du, dv


def _pixel_lattice(grid: BevGridSpec):
    """Row and column coordinates (vs, us) of every pixel, each (H, W) float."""
    rows, cols = np.arange(grid.height_px, dtype=float), np.arange(grid.width_px, dtype=float)
    return np.meshgrid(rows, cols, indexing="ij")


def construct_flow_gt(t_rel: Pose2, grid: BevGridSpec) -> FlowField:
    """Dense ground-truth flow for a relative planar motion on the grid."""
    vs, us = _pixel_lattice(grid)
    du, dv = displacement_at(t_rel, grid, us, vs)
    return FlowField(np.stack([du, dv]), grid)


def in_grid_mask(flow: FlowField) -> np.ndarray:
    """Boolean mask of pixels whose displaced location stays on the grid.

    A displaced location (u + du, v + dv) counts as on-grid when it lies
    within the pixel-center lattice, i.e. 0 <= u' <= W-1 and 0 <= v' <= H-1.
    """
    grid = flow.grid
    vs, us = _pixel_lattice(grid)
    u_new = us + flow.data[0]
    v_new = vs + flow.data[1]
    return (
        (u_new >= 0.0)
        & (u_new <= grid.width_px - 1.0)
        & (v_new >= 0.0)
        & (v_new <= grid.height_px - 1.0)
    )


def solve_pose_from_flow(flow: FlowField, weights: np.ndarray | None = None) -> Pose2:
    """Recover the planar motion that best explains a BEV flow field.

    Solves the weighted least-squares problem over vehicle-frame point
    correspondences (source pixel, source pixel + flow) for a rotation
    plus translation with :func:`bevkit.geometry.fit_similarity`.

    Args:
        flow: dense flow field on a BEV grid.
        weights: optional per-pixel nonnegative weights, shape (H, W).
            Omitted means uniform.

    Raises:
        DegenerateInputError: fewer than two pixels carry positive weight.
        DegenerateGeometryError: the weighted point set is effectively a
            single location, so the rotation is unconstrained: the largest
            singular value of the cross-covariance, relative to the
            magnitudes of the two centred sets, is at most ``_RANK_TOL``
            times the weights' sum, whatever the grid's resolution.
    """
    grid = flow.grid
    if weights is None:
        wts = np.ones(grid.shape)
    else:
        wts = check_array("weights", weights, grid.shape)
        if np.any(wts < 0.0):
            raise ValueError("weights must be nonnegative")
    if np.count_nonzero(wts > 0.0) < 2:
        raise DegenerateInputError("need at least two pixels with positive weight")

    vs, us = _pixel_lattice(grid)
    src = np.stack(pixel_to_vehicle(us, vs, grid), axis=-1).reshape(-1, 2)
    dst = np.stack(pixel_to_vehicle(us + flow.data[0], vs + flow.data[1], grid), axis=-1).reshape(-1, 2)
    rot, t, _, sigma = fit_similarity(src, dst, wts.reshape(-1))
    if sigma[0] <= _RANK_TOL * wts.sum():
        raise DegenerateGeometryError("point set is concentrated at one location")
    theta = math.atan2(rot[1, 0], rot[0, 0])
    return Pose2(theta, float(t[0]), float(t[1]))


def _check_same_grid(pred: FlowField, gt: FlowField):
    """Refuse two flows on different grids: equal shapes alone would compare pixels of different places or sizes."""
    if pred.grid != gt.grid:
        raise ShapeError(f"flows lie on different grids: {pred.grid} vs {gt.grid}")


def flow_error_map(pred: FlowField, gt: FlowField):
    """Per-pixel endpoint error between two flow fields plus summary stats.

    Returns (epe, stats) where epe has shape (H, W): each pixel's sqrt(du*du + dv*dv)
    by ``_scale_safe``'s rule, its difference scaled by the power of two just above its own larger component.
    Flows on different grids raise ShapeError; an endpoint error past the float range raises ValueError.
    """
    _check_same_grid(pred, gt)
    with np.errstate(over="ignore"):
        diff = pred.data - gt.data
    epe = _scale_safe(lambda d: np.sqrt((d * d).sum(axis=1)), diff.reshape(2, -1).T, rows=True).reshape(diff.shape[1:])
    if np.isinf(epe).any():
        raise ValueError("flow_error_map: an endpoint error leaves the float range")
    return epe, FlowStats(epe)


def l1_flow_loss(pred: FlowField, gt: FlowField, mask: np.ndarray | None = None) -> float:
    """L1 flow supervision loss: |du_pred - du_gt| + |dv_pred - dv_gt|, averaged over pixels.

    ``mask`` optionally restricts the loss to True pixels, e.g. the in-grid mask for motions that carry
    content off the grid edge.  Flows on different grids raise ShapeError.
    """
    _check_same_grid(pred, gt)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise ValueError(f"mask must be a bool array, got dtype {mask.dtype}")
        if mask.shape != gt.data.shape[1:]:
            raise ShapeError(f"mask shape {mask.shape} does not match flow {gt.data.shape[1:]}")
        if not mask.any():
            raise DegenerateInputError("mask excludes every pixel")

    with np.errstate(over="ignore"):  # a difference past the float range stays inf, refused below
        diff = np.abs(pred.data - gt.data)
    keep = slice(None) if mask is None else mask
    if mask is not None:
        np.copyto(diff, 0.0, where=~mask)  # so the largest magnitude is the largest kept difference
    loss = _scale_safe(lambda d: float(d.sum(axis=0)[keep].mean()), diff)
    if not loss < math.inf:
        raise ValueError("l1_flow_loss leaves the float range")
    return loss


def flow_to_bvt1(flow: FlowField) -> bytes:
    """Encode a flow field's (2, H, W) data as BVT1 bytes."""
    return write_bvt1(flow.data)


def flow_from_bvt1(data: bytes, grid: BevGridSpec) -> FlowField:
    """Decode BVT1 bytes into a flow field on the given grid.

    Raises:
        ShapeError: the tensor is not (2, H, W) for the grid.
    """
    return FlowField(read_bvt1(data), grid)
