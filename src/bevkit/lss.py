"""Lift-splat projection of image-plane feature maps onto the BEV grid.

Lift multiplies each pixel's feature vector by its categorical depth
distribution, producing one weighted copy per depth bin; splat drops each
copy at the BEV cell under its 3D location and sum-pools collisions.

:func:`lift` and :func:`splat` are the reference pair.  :func:`project_volume`
gives the same bits without building the (C, D, H, W) lift tensor: it
weights each in-grid point by ``context[c, hw] * depth[d, hw]`` inside the
per-channel pool.  Both pool through the plan that :func:`assign_cells`
returns, so the summation order lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import split_run
from .correlation import FeatureMap
from .errors import InvalidCameraError, ShapeError
from .geometry import BevGridSpec, CameraModel, _xy_to_pixel

_NORMALIZATION_TOL = 1e-6


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
        d = np.array(self.data, dtype=float)
        bins = np.array(self.bins, dtype=float)
        if d.ndim != 3:
            raise ShapeError(f"depth weights must have shape (D, H, W), got {d.shape}")
        if bins.ndim != 1 or bins.shape[0] != d.shape[0]:
            raise ShapeError(
                f"need one bin center per depth slice: {bins.shape} vs D={d.shape[0]}"
            )
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(bins)):
            raise ValueError("depth weights and bins must be finite")
        if np.any(d < 0.0):
            raise ValueError("depth weights must be nonnegative")
        if np.any(np.diff(bins) <= 0.0):
            raise ValueError("depth bin centers must be strictly increasing")
        if self.normalized:
            sums = d.sum(axis=0)
            if np.any(np.abs(sums - 1.0) > _NORMALIZATION_TOL):
                raise ValueError("normalized depth weights must sum to 1 per pixel within 1e-6")
        d.flags.writeable = False
        bins.flags.writeable = False
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "bins", bins)


@dataclass(frozen=True)
class Frustum:
    """Vehicle-frame 3D location of every (depth bin, pixel): (D, H, W, 3)."""

    points: np.ndarray

    def __post_init__(self):
        self._fill(np.array(self.points, dtype=float))

    @classmethod
    def _adopt(cls, points: np.ndarray) -> "Frustum":
        """Check and wrap a fresh float array that no one else holds, without copying it."""
        frustum = object.__new__(cls)
        frustum._fill(points)
        return frustum

    def _fill(self, p: np.ndarray):
        if p.ndim != 4 or p.shape[-1] != 3:
            raise ShapeError(f"frustum points must have shape (D, H, W, 3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("frustum contains non-finite points")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.points.shape[:3]


@dataclass(frozen=True)
class SplatAssignment:
    """Frustum-to-cell plan of one camera, bin set, image size and grid.

    ``rows``, ``cols`` and ``in_grid`` are per-point (D, H, W) arrays.  The
    rest describe only the in-grid points, in (depth, row, column) order:
    ``points`` holds their flat (D, H, W) indices, ``cells`` their flat
    cell ids ``row * grid W + col``, and ``pixels`` their flat image pixel
    index ``hw``.  ``dropped`` counts the points outside the grid.
    """

    rows: np.ndarray
    cols: np.ndarray
    in_grid: np.ndarray
    points: np.ndarray
    cells: np.ndarray
    pixels: np.ndarray
    dropped: int


def build_frustum(camera: CameraModel, bins: np.ndarray, image_size: tuple[int, int]) -> Frustum:
    """Back-project every (bin, pixel) into the vehicle frame.

    Pixel (h, w) is sampled at its center (w + 0.5, h + 0.5).  The ray
    through the center is scaled so its camera-frame depth (z) equals the
    bin center, then mapped through the rigid extrinsics.

    Args:
        camera: pinhole model; extrinsics map camera to vehicle frame.
        bins: strictly increasing positive depth bin centers, meters.
        image_size: (H, W) of the feature map being lifted.
    """
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1 or bins.size < 1:
        raise ShapeError(f"bins must be a nonempty 1-d array, got shape {bins.shape}")
    if np.any(bins <= 0.0) or np.any(np.diff(bins) <= 0.0):
        raise InvalidCameraError("depth bins must be positive and strictly increasing")
    h, w = int(image_size[0]), int(image_size[1])
    if h < 1 or w < 1:
        raise ShapeError(f"image size must be positive, got {(h, w)}")
    us, vs = np.meshgrid(np.arange(w, dtype=float) + 0.5, np.arange(h, dtype=float) + 0.5)
    pix = np.stack([us, vs, np.ones_like(us)], axis=-1)
    k_inv = np.linalg.inv(camera.intrinsics)
    rays = np.einsum("ij,hwj->hwi", k_inv, pix)
    pts_cam = bins[:, None, None, None] * rays[None]
    pts_veh = np.einsum("ij,dhwj->dhwi", camera.rotation, pts_cam)
    pts_veh += camera.translation
    return Frustum._adopt(pts_veh)


def _check_pixels(context: FeatureMap, depth: DepthDistribution):
    if context.spatial_shape != depth.data.shape[1:]:
        raise ShapeError(
            f"features {context.spatial_shape} and depth {depth.data.shape[1:]} disagree on (H, W)"
        )


def lift(context: FeatureMap, depth: DepthDistribution) -> np.ndarray:
    """Outer product of features and depth weights: (C, D, H, W).

    out[c, d, h, w] = context[c, h, w] * depth[d, h, w].
    """
    _check_pixels(context, depth)
    return context.data[:, None, :, :] * depth.data[None, :, :, :]


def assign_cells(frustum: Frustum, grid: BevGridSpec) -> SplatAssignment:
    """Bin every frustum point into a BEV cell by flooring its pixel coords.

    Cell (i, j) covers the half-open square [j, j+1) x [i, i+1) in (u, v)
    pixel coordinates, so a point exactly on a cell's lower edge belongs
    to that cell.  Points outside the grid are flagged, not clipped.
    """
    pts = frustum.points
    u, v = _xy_to_pixel(pts[..., 0], pts[..., 1], grid)
    cols = np.floor(u).astype(np.int64)
    rows = np.floor(v).astype(np.int64)
    in_grid = (
        (rows >= 0)
        & (rows < grid.height_px)
        & (cols >= 0)
        & (cols < grid.width_px)
    )
    points = np.flatnonzero(in_grid)
    cells = rows.ravel()[points] * grid.width_px + cols.ravel()[points]
    pixels = points % (pts.shape[1] * pts.shape[2])
    dropped = int(in_grid.size - points.size)
    return SplatAssignment(rows, cols, in_grid, points, cells, pixels, dropped)


def _pool(plan: SplatAssignment, grid: BevGridSpec, features: np.ndarray, index: np.ndarray, scale=None):
    """Sum-pool ``features[c][index] * scale`` into the plan's cells, per channel c.

    ``index`` and ``scale`` give one entry per in-grid point, in the order
    of ``plan.points``.  One ``np.bincount`` per channel adds the points in
    (depth, row, column) order, so results are bitwise reproducible; the
    channels are split across one thread per usable CPU, each writing its
    own rows, which leaves the bits as they are.
    Returns (bev, dropped) with bev a C-contiguous (C, grid H, grid W) array.
    """
    n = grid.height_px * grid.width_px
    bev = np.empty((features.shape[0], n))

    def channels(cs):
        weights = np.empty(index.size)  # one buffer per slice: slices run concurrently
        for c in cs:
            # every index is in range; mode="clip" skips the buffered bounds check
            np.take(features[c], index, out=weights, mode="clip")
            if scale is not None:
                np.multiply(weights, scale, out=weights)
            bev[c] = np.bincount(plan.cells, weights=weights, minlength=n)

    split_run(channels, features.shape[0])
    return bev.reshape(features.shape[0], grid.height_px, grid.width_px), plan.dropped


def splat(lifted: np.ndarray, frustum: Frustum, grid: BevGridSpec):
    """Sum-pool lifted features into BEV cells.

    Returns (bev, dropped) where bev is a C-contiguous (C, grid H, grid W)
    array and dropped counts the frustum points that fell outside the
    grid.  Points are pooled in (depth, row, column) order, one
    ``np.bincount`` per channel.
    """
    lifted = np.asarray(lifted, dtype=float)
    if lifted.ndim != 4:
        raise ShapeError(f"lifted features must have shape (C, D, H, W), got {lifted.shape}")
    if lifted.shape[1:] != frustum.grid_shape:
        raise ShapeError(
            f"lifted shape {lifted.shape[1:]} does not match frustum {frustum.grid_shape}"
        )
    plan = assign_cells(frustum, grid)
    return _pool(plan, grid, lifted.reshape(lifted.shape[0], -1), plan.points)


def project_volume(volume: FeatureMap, depth: DepthDistribution, camera: CameraModel, grid: BevGridSpec):
    """Full image-to-BEV projection, bitwise equal to ``splat(lift(...))``.

    The (C, D, H, W) lift tensor is never built: each in-grid point's
    weight ``context[c, hw] * depth[d, hw]`` is formed inside the
    per-channel pool, so memory beyond the output stays at a few
    point-sized arrays.  Returns (bev, dropped) exactly as :func:`splat`
    does.
    """
    _check_pixels(volume, depth)
    plan = assign_cells(build_frustum(camera, depth.bins, volume.spatial_shape), grid)
    context = volume.data.reshape(volume.channels, -1)
    return _pool(plan, grid, context, plan.pixels, depth.data.reshape(-1)[plan.points])
