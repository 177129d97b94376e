"""Lift-splat projection of image-plane feature maps onto the BEV grid.

Lift multiplies each pixel's feature vector by its categorical depth
distribution, producing one weighted copy per depth bin; splat drops each
copy at the BEV cell under its 3D location and sum-pools collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import FeatureMap
from .errors import InvalidCameraError, ShapeError
from .geometry import BevGridSpec, CameraModel, vehicle_to_pixel

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

    @property
    def num_bins(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Frustum:
    """Vehicle-frame 3D location of every (depth bin, pixel): (D, H, W, 3)."""

    points: np.ndarray

    def __post_init__(self):
        p = np.array(self.points, dtype=float)
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
    """Per-point BEV cell assignment: integer rows/cols plus an in-grid mask."""

    rows: np.ndarray
    cols: np.ndarray
    in_grid: np.ndarray


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
    pts_veh = np.einsum("ij,dhwj->dhwi", camera.rotation, pts_cam) + camera.translation
    return Frustum(pts_veh)


def lift(context: FeatureMap, depth: DepthDistribution) -> np.ndarray:
    """Outer product of features and depth weights: (C, D, H, W).

    out[c, d, h, w] = context[c, h, w] * depth[d, h, w].
    """
    if context.spatial_shape != depth.data.shape[1:]:
        raise ShapeError(
            f"features {context.spatial_shape} and depth {depth.data.shape[1:]} disagree on (H, W)"
        )
    return context.data[:, None, :, :] * depth.data[None, :, :, :]


def assign_cells(frustum: Frustum, grid: BevGridSpec) -> SplatAssignment:
    """Bin every frustum point into a BEV cell by flooring its pixel coords.

    Cell (i, j) covers the half-open square [j, j+1) x [i, i+1) in (u, v)
    pixel coordinates, so a point exactly on a cell's lower edge belongs
    to that cell.  Points outside the grid are flagged, not clipped.
    """
    pts = frustum.points
    ones = np.ones(pts.shape[:-1] + (1,))
    u, v = vehicle_to_pixel(np.concatenate([pts, ones], axis=-1), grid)
    cols = np.floor(u).astype(np.int64)
    rows = np.floor(v).astype(np.int64)
    in_grid = (
        (rows >= 0)
        & (rows < grid.height_px)
        & (cols >= 0)
        & (cols < grid.width_px)
    )
    return SplatAssignment(rows=rows, cols=cols, in_grid=in_grid)


def splat(lifted: np.ndarray, frustum: Frustum, grid: BevGridSpec):
    """Sum-pool lifted features into BEV cells.

    Each channel is pooled by one ``np.bincount`` over flat cell indices,
    which visits points in (depth, row, column) order, so results are
    bitwise reproducible run to run.  Returns (bev, dropped) where bev is
    a C-contiguous (C, grid H, grid W) array and dropped counts the
    frustum points that fell outside the grid.
    """
    lifted = np.asarray(lifted, dtype=float)
    if lifted.ndim != 4:
        raise ShapeError(f"lifted features must have shape (C, D, H, W), got {lifted.shape}")
    if lifted.shape[1:] != frustum.grid_shape:
        raise ShapeError(
            f"lifted shape {lifted.shape[1:]} does not match frustum {frustum.grid_shape}"
        )
    c = lifted.shape[0]
    asg = assign_cells(frustum, grid)
    keep = asg.in_grid.ravel()
    cells = asg.rows.ravel()[keep] * grid.width_px + asg.cols.ravel()[keep]
    n = grid.height_px * grid.width_px
    bev = np.array([np.bincount(cells, weights=ch[keep], minlength=n) for ch in lifted.reshape(c, -1)])
    dropped = int(keep.size - np.count_nonzero(keep))
    return bev.reshape(c, grid.height_px, grid.width_px), dropped


def project_volume(volume: FeatureMap, depth: DepthDistribution, camera: CameraModel, grid: BevGridSpec):
    """Full image-to-BEV projection: build frustum, lift, splat.

    Returns (bev, dropped) exactly as :func:`splat` does.
    """
    frustum = build_frustum(camera, depth.bins, volume.spatial_shape)
    return splat(lift(volume, depth), frustum, grid)
