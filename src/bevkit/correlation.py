"""Local correlation volumes between consecutive feature maps.

A correlation volume scores, for every pixel of frame t, the inner product
of its feature vector with the feature vectors of frame t+1 in a square
neighborhood of displacements.  Out-of-bounds samples contribute zero, as
if the second map were zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_BRANCHES = ("PV", "BEV")


@dataclass(frozen=True)
class FeatureMap:
    """A dense feature map of shape (C, H, W) with optional metadata.

    ``frame`` tags the source frame index, ``branch`` tags which stream
    produced it ("PV" for perspective view, "BEV" for bird's-eye view).
    """

    data: np.ndarray
    frame: int | None = None
    branch: str | None = None

    def __post_init__(self):
        d = np.array(self.data, dtype=float)
        if d.ndim != 3:
            raise ShapeError(f"feature map must have shape (C, H, W), got {d.shape}")
        if min(d.shape) < 1:
            raise ShapeError(f"feature map dimensions must be >= 1, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("feature map contains non-finite entries")
        if self.branch is not None and self.branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.data.shape[1:]


def channel_index(dx: int, dy: int, radius: int) -> int:
    """Channel holding displacement (dx, dy); dy-major layout.

    dx shifts the first spatial axis (rows), dy the second (columns);
    both run -radius..radius inclusive.
    """
    if abs(dx) > radius or abs(dy) > radius:
        raise ValueError(f"displacement ({dx}, {dy}) outside radius {radius}")
    side = 2 * radius + 1
    return (dy + radius) * side + (dx + radius)


def channel_offset(index: int | np.ndarray, radius: int) -> tuple:
    """Inverse of :func:`channel_index`: channel -> (dx, dy).

    ``index`` may be an int or an integer array; (dx, dy) match its type.
    """
    side = 2 * radius + 1
    if np.any((index < 0) | (index >= side * side)):
        raise ValueError(f"channel {index} outside volume with radius {radius}")
    return (index % side - radius, index // side - radius)


@dataclass(frozen=True)
class CorrelationVolume:
    """Correlation scores of shape ((2*radius+1)^2, H, W)."""

    data: np.ndarray
    radius: int

    def __post_init__(self):
        d = np.array(self.data, dtype=float)
        radius = int(self.radius)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        side = 2 * radius + 1
        if d.ndim != 3 or d.shape[0] != side * side:
            raise ShapeError(
                f"volume with radius {radius} must have {side * side} channels, got shape {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("correlation volume contains non-finite entries")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "radius", radius)

    @property
    def side(self) -> int:
        return 2 * self.radius + 1


def local_correlation(
    f_t: FeatureMap,
    f_t1: FeatureMap,
    radius: int,
    normalize: bool = False,
) -> CorrelationVolume:
    """All-pairs local correlation between two feature maps.

    Output channel ``channel_index(dx, dy, radius)`` at pixel (x, y) holds
    sum_c f_t[c, x, y] * f_t1[c, x + dx, y + dy], zero where the shifted
    sample falls outside the map.  ``normalize`` divides by the channel
    count C (off by default: raw inner products).
    """
    if f_t.data.shape != f_t1.data.shape:
        raise ShapeError(
            f"feature maps must share a shape, got {f_t.data.shape} vs {f_t1.data.shape}"
        )
    radius = int(radius)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    c, h, w = f_t.data.shape
    side = 2 * radius + 1
    # Padding past the map size would only add zeros: a shift that misses
    # the map entirely leaves its channel zero.
    ph, pw = min(radius, h), min(radius, w)
    padded = np.pad(f_t1.data, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((side * side, h, w))
    for k in range(side * side):
        dx, dy = channel_offset(k, radius)
        if abs(dx) <= ph and abs(dy) <= pw:
            window = padded[:, ph + dx : ph + dx + h, pw + dy : pw + dy + w]
            out[k] = np.einsum("chw,chw->hw", f_t.data, window)
    if normalize:
        out /= c
    return CorrelationVolume(out, radius)


def concat_volumes(a: CorrelationVolume, b: CorrelationVolume) -> np.ndarray:
    """Stack two volumes along channels (a first), for mixed-radius fusion."""
    if a.data.shape[1:] != b.data.shape[1:]:
        raise ShapeError(
            f"volumes must share spatial shape, got {a.data.shape[1:]} vs {b.data.shape[1:]}"
        )
    return np.concatenate([a.data, b.data], axis=0)


def peak_displacement(volume: CorrelationVolume) -> np.ndarray:
    """Argmax displacement per pixel, shape (2, H, W) holding (dx, dy).

    Ties resolve to the lowest channel index, so an all-equal pixel maps
    to (-radius, -radius).
    """
    dx, dy = channel_offset(np.argmax(volume.data, axis=0), volume.radius)
    return np.stack([dx, dy]).astype(np.int64)
