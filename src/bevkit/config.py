"""The pipeline configuration: grid, camera, depth bins, radii, sampler and loss settings.

A config file is JSON.  Every section and field is optional and falls
back to the stock configuration; each value passes a field check of
:mod:`bevkit.text`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .geometry import MAX_GRID_CELLS, BevGridSpec, CameraModel
from .losses import LossWeights
from .text import AT_LEAST_ZERO, FINITE_AT_LEAST_ZERO, FINITE_POSITIVE, check_fields, finite_list, integer_in, load_json

# The stock pair-selection thresholds, also the defaults of
# sampler.build_pair_lists.
DEFAULT_WINDOW_S = 60.0
DEFAULT_MAX_DISP_M = 4.0
DEFAULT_LOW_DEG = 15.0
DEFAULT_HIGH_DEG = 45.0


@dataclass(frozen=True)
class SamplerConfig:
    """Thresholds for pair selection."""

    window_s: float = DEFAULT_WINDOW_S
    max_disp_m: float = DEFAULT_MAX_DISP_M
    low_deg: float = DEFAULT_LOW_DEG
    high_deg: float = DEFAULT_HIGH_DEG


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the CLI needs to interpret tensors geometrically."""

    grid: BevGridSpec
    camera: CameraModel
    depth_bins: np.ndarray
    radius_pv: int = 3
    radius_bev: int = 5
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)


def _default_camera() -> CameraModel:
    # forward-looking camera 1.5 m up: optical axis along vehicle +x,
    # image x along -y (left is +y), image y along -z
    k = np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 64.0], [0.0, 0.0, 1.0]])
    r = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    e = np.hstack([r, np.array([[0.0], [0.0], [1.5]])])
    return CameraModel(intrinsics=k, extrinsics=e)


def default_config() -> PipelineConfig:
    """The stock configuration: 128x128 grid at 0.8 m, 64 depth bins."""
    return PipelineConfig(
        grid=BevGridSpec(height_px=128, width_px=128, resolution_m=0.8),
        camera=_default_camera(),
        depth_bins=np.linspace(1.0, 52.2, 64),
    )


# Size cap, checked before anything of that size is allocated.
_MAX_DEPTH_BINS = 1024

# The config root is a table of sections; each section is a table of fields.
_CONFIG = {
    "grid": {"h": integer_in(1, MAX_GRID_CELLS), "w": integer_in(1, MAX_GRID_CELLS),
             "resolution_m": FINITE_POSITIVE, "origin": finite_list(2)},
    "camera": {"K": finite_list(9), "E": finite_list(12)},
    "depth_bins": {"count": integer_in(1, _MAX_DEPTH_BINS), "min_m": FINITE_POSITIVE, "max_m": FINITE_POSITIVE},
    "correlation": {"radius_pv": integer_in(0), "radius_bev": integer_in(0)},
    "sampler": dict.fromkeys(("window_s", "max_disp_m", "low_deg", "high_deg"), AT_LEAST_ZERO),
    "loss_weights": dict.fromkeys(("alpha", "beta", "lambda1", "lambda2"), FINITE_AT_LEAST_ZERO),
}


def parse_config(text: str) -> PipelineConfig:
    """Parse a JSON pipeline config, strictly.

    Every section and field is optional and falls back to the stock
    configuration, but unknown keys anywhere are rejected so typos cannot
    silently change an experiment, and every value must pass its field check.
    """
    doc = check_fields(load_json(text), _CONFIG, "config")
    base = default_config()
    grid, camera, depth_bins = base.grid, base.camera, base.depth_bins
    if "grid" in doc:
        g = doc["grid"]
        h, w = g.get("h", grid.height_px), g.get("w", grid.width_px)
        if h * w > MAX_GRID_CELLS:
            raise ParseError(f"grid.h * grid.w must be at most {MAX_GRID_CELLS} cells, got {h * w}")
        grid = BevGridSpec(h, w, g.get("resolution_m", grid.resolution_m), g.get("origin"))
    if "camera" in doc:
        c = doc["camera"]
        camera = CameraModel(np.reshape(c.get("K", camera.intrinsics), (3, 3)),
                             np.reshape(c.get("E", camera.extrinsics), (3, 4)))
    if "depth_bins" in doc:
        d = doc["depth_bins"]
        depth_bins = np.linspace(
            d.get("min_m", depth_bins[0]), d.get("max_m", depth_bins[-1]), d.get("count", depth_bins.size)
        )
        if np.any(np.diff(depth_bins) <= 0.0):
            raise ParseError("depth bins must be strictly increasing: depth_bins.min_m < max_m")
    sampler = SamplerConfig(**{k: float(v) for k, v in doc.get("sampler", {}).items()})
    if sampler.low_deg > sampler.high_deg:
        raise ParseError(f"need low_deg <= high_deg: sampler.low_deg is {sampler.low_deg:g}, "
                         f"sampler.high_deg {sampler.high_deg:g}")
    weights = LossWeights(**doc.get("loss_weights", {}))
    radii = doc.get("correlation", {})
    return PipelineConfig(grid, camera, depth_bins, **radii, sampler=sampler, loss_weights=weights)
