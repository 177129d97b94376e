"""Lift-splat projection of image-plane feature maps onto the BEV grid.

Lift multiplies each pixel's feature vector by its categorical depth
distribution, producing one weighted copy per depth bin; splat drops each
copy at the BEV cell under its 3D location and sum-pools collisions.

:func:`project_volume` does both without building the (C, D, H, W) lift
tensor: :func:`build_frustum` places every (depth bin, pixel),
:func:`assign_cells` bins those points into cells, and the per-channel pool
weights each point by ``context[c, hw] * depth[d, hw]`` as it adds it.  The
tests keep the explicit lift and an ``np.add.at`` splat as its bitwise
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import split_run
from .correlation import FeatureMap
from .errors import InvalidCameraError, ShapeError
from .geometry import BevGridSpec, CameraModel, _vehicle_to_pixel
from .text import FLAG, INTEGER, _all_finite, check_arg, check_array

_NORMALIZATION_TOL = 1e-6

_MAX_FRUSTUM_POINTS = 2**25  # most (depth bin, pixel) points build_frustum places: 768 MB of float64


@dataclass(frozen=True)
class DepthDistribution:
    """Per-pixel depth weights of shape (D, H, W) over D bin centers.

    Weights are nonnegative.  When ``normalized`` is set, each pixel's
    weights must sum to 1 within 1e-6.  ``bins`` holds the strictly
    increasing depth bin centers in meters.
    """

    data: np.ndarray
    bins: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "normalized", check_arg("normalized", self.normalized, FLAG))
        d = check_array("depth data", self.data, ("D", "H", "W"))
        bins = check_array("depth bins", self.bins, d.shape[:1])  # one center per depth slice
        if np.any(d < 0.0):
            raise ValueError("depth weights must be nonnegative")
        if np.any(np.diff(bins) <= 0.0):
            raise ValueError("depth bin centers must be strictly increasing")
        if self.normalized:
            sums = d.sum(axis=0)
            if np.any(np.abs(sums - 1.0) > _NORMALIZATION_TOL):
                raise ValueError("normalized depth weights must sum to 1 per pixel within 1e-6")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "bins", bins)


@dataclass(frozen=True)
class SplatAssignment:
    """Frustum-to-cell plan of one camera, bin set, image size and grid.

    ``in_grid`` masks the (D, H, W) frustum points inside the grid, ``cells``
    holds each point's flat cell id ``row * grid W + col`` (``grid H * grid W``,
    one past the last cell, off the grid) and ``dropped`` counts the points off it.
    """

    in_grid: np.ndarray
    cells: np.ndarray
    dropped: int


def build_frustum(camera: CameraModel, bins: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Back-project every (bin, pixel) into the vehicle frame.

    Pixel (h, w) is sampled at its center (w + 0.5, h + 0.5).  The ray
    through the center is scaled so its camera-frame depth (z) equals the
    bin center, then mapped through the rigid extrinsics.  Returns the
    read-only (D, H, W, 3) array of vehicle-frame points.

    Args:
        camera: pinhole model; extrinsics map camera to vehicle frame.
        bins: strictly increasing positive depth bin centers, meters.
        image_size: (H, W) of the feature map being lifted.
    """
    bins = check_array("bins", bins, ("D",))
    if np.any(bins <= 0.0) or np.any(np.diff(bins) <= 0.0):
        raise InvalidCameraError("depth bins must be positive and strictly increasing")
    h, w = (check_arg(f"image_size[{i}]", image_size[i], INTEGER) for i in (0, 1))
    if h < 1 or w < 1:
        raise ShapeError(f"image size must be positive, got {(h, w)}")
    if bins.size * h * w > _MAX_FRUSTUM_POINTS:
        raise ValueError(f"{bins.size} depth bins on a {h}x{w} image exceed {_MAX_FRUSTUM_POINTS} frustum points")
    us, vs = np.meshgrid(np.arange(w, dtype=float) + 0.5, np.arange(h, dtype=float) + 0.5)
    pix = np.stack([us, vs, np.ones_like(us)], axis=-1)
    k_inv = np.linalg.inv(camera.intrinsics)
    rays = np.einsum("ij,hwj->hwi", k_inv, pix)
    # far bins through a short focal length can overflow; the check below refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        pts_cam = bins[:, None, None, None] * rays[None]
        pts_veh = np.einsum("ij,dhwj->dhwi", camera.rotation, pts_cam)
        pts_veh += camera.translation
    if not np.all(np.isfinite(pts_veh)):
        raise ValueError(f"frustum contains non-finite points: {bins.size} depth bins up to {bins[-1]:g} m "
                         f"through intrinsics K = {camera.intrinsics.ravel().tolist()} leave the float range")
    pts_veh.flags.writeable = False
    return pts_veh


def assign_cells(frustum: np.ndarray, grid: BevGridSpec) -> SplatAssignment:
    """Bin every frustum point into a BEV cell by flooring its pixel coords.

    ``frustum`` holds finite vehicle-frame points of shape (D, H, W, 3), as
    :func:`build_frustum` returns them.  Cell (i, j) covers the half-open
    square [j, j+1) x [i, i+1) in (u, v) pixel coordinates, so a point
    exactly on a cell's lower edge belongs to that cell.  Points outside
    the grid are flagged, not clipped.
    """
    return _assign(check_array("frustum", frustum, ("D", "H", "W", 3)), grid)


def _assign(pts: np.ndarray, grid: BevGridSpec) -> SplatAssignment:
    """:func:`assign_cells` on a frustum already checked."""
    u, v = _vehicle_to_pixel(pts[..., 0], pts[..., 1], grid)  # a far point's +-inf is outside the grid
    in_grid = (v >= 0) & (v < grid.height_px) & (u >= 0) & (u < grid.width_px)
    cells = np.full(in_grid.shape, grid.height_px * grid.width_px, dtype=np.int64)
    cells[in_grid] = np.floor(v[in_grid]) * grid.width_px + np.floor(u[in_grid])  # off the grid u or v may be inf
    return SplatAssignment(in_grid, cells, in_grid.size - int(np.count_nonzero(in_grid)))


def project_volume(volume: FeatureMap, depth: DepthDistribution, camera: CameraModel, grid: BevGridSpec):
    """Full image-to-BEV projection: lift ``volume`` by ``depth`` and splat it onto ``grid``.

    Cell (i, j) of channel c sums ``volume[c, h, w] * depth[d, h, w]`` over
    the frustum points (d, h, w) that :func:`assign_cells` puts in it.  The
    (C, D, H, W) lift tensor is never built: per channel, one broadcast
    product weights the depth slabs that hold an in-grid point, and one
    ``np.bincount`` adds their points in (depth, row, column) order, cutting
    off the off-grid bin, so results are bitwise reproducible.  Weights are
    formed in float64 whatever the map's dtype, so a float32 map gives the
    bits of its exact float64 upcast.  The channels are split across one
    thread per usable CPU, each writing its own rows, which leaves the bits
    as they are.  Returns (bev, dropped) with bev a C-contiguous (C, grid H,
    grid W) array and dropped the count of frustum points outside the grid.
    A cell sum past the float range raises ValueError.
    """
    if volume.spatial_shape != depth.data.shape[1:]:
        raise ShapeError(f"features {volume.spatial_shape} and depth {depth.data.shape[1:]} disagree on (H, W)")
    plan = _assign(build_frustum(camera, depth.bins, volume.spatial_shape), grid)
    context = volume.data.reshape(volume.channels, -1)
    slabs = np.flatnonzero(plan.in_grid.any(axis=(1, 2)))
    d0, d1 = (slabs[0], slabs[-1] + 1) if slabs.size else (0, 0)
    cells = plan.cells[d0:d1].reshape(-1)
    scale = depth.data[d0:d1].reshape(d1 - d0, context.shape[1])  # not -1, which an empty slab range leaves open
    n = grid.height_px * grid.width_px
    bev = np.empty((volume.channels, n))

    def channels(cs):
        weights = np.empty(scale.shape)  # one buffer per slice: slices run concurrently
        for c in cs:
            # a float32 row is upcast first, exactly: H*W values, not one per point
            with np.errstate(over="ignore"):  # a weight past the float range is inf: refused below if it is in a cell
                np.multiply(scale, context[c].astype(float, copy=False), out=weights)
            bev[c] = np.bincount(cells, weights.reshape(-1), minlength=n + 1)[:n]

    split_run(channels, volume.channels)
    if not _all_finite(bev):
        raise ValueError("project_volume: a BEV cell sum leaves the float range")
    return bev.reshape(volume.channels, grid.height_px, grid.width_px), plan.dropped
