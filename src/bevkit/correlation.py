"""Local correlation volumes between consecutive feature maps.

A correlation volume scores, for every pixel of frame t, the inner product
of its feature vector with the feature vectors of frame t+1 in a square
neighborhood of displacements.  Out-of-bounds samples contribute zero, as
if the second map were zero-padded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import split_run
from .errors import ShapeError
from .text import FLAG, INTEGER, _all_finite, check_arg, check_array, integer_in

# Largest volume local_correlation builds, in entries (1 GiB of float64).
_MAX_VOLUME_ENTRIES = 2**27


@dataclass(frozen=True)
class FeatureMap:
    """A dense feature map of shape (C, H, W): float32 data stays float32, any other becomes float64."""

    data: np.ndarray

    def __post_init__(self):
        # a C-ordered copy: einsum sums in an order set by the memory layout,
        # so a Fortran-ordered one would give other correlation bits
        object.__setattr__(self, "data", check_array("feature map data", self.data, ("C", "H", "W"),
                                                     keep_float32=True))

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
    dx, dy = check_arg("dx", dx, INTEGER), check_arg("dy", dy, INTEGER)
    radius = check_arg("radius", radius, integer_in(0))
    if abs(dx) > radius or abs(dy) > radius:
        raise ValueError(f"displacement ({dx}, {dy}) outside radius {radius}")
    side = 2 * radius + 1
    return (dy + radius) * side + (dx + radius)


def channel_offset(index: int | np.ndarray, radius: int) -> tuple:
    """Inverse of :func:`channel_index`: channel -> (dx, dy).

    ``index`` may be an int or an array of signed integers, whose type
    (dx, dy) keep; an unsigned array gives int64 offsets.
    """
    radius = check_arg("radius", radius, integer_in(0))
    if not isinstance(index, np.ndarray):
        index = check_arg("index", index, INTEGER)
    elif index.dtype.kind == "u":  # unsigned arithmetic below would wrap around
        index = index.astype(np.int64)
    elif index.dtype.kind != "i":
        raise ValueError(f"index must be an integer array, got dtype {index.dtype}")
    side = 2 * radius + 1
    outside = (index < 0) | (index >= side * side)
    if np.any(outside):  # the first such channel: an array's repr may run over lines
        raise ValueError(f"channel {np.ravel(index)[np.ravel(outside)][0]} outside volume with radius {radius}")
    return (index % side - radius, index // side - radius)


@dataclass(frozen=True)
class CorrelationVolume:
    """Correlation scores of shape ((2*radius+1)^2, H, W); the channel count sets the radius.

    float32 data stays float32, any other becomes float64.
    """

    data: np.ndarray

    def __post_init__(self):
        self._fill(check_array("correlation volume data", self.data, ("C", "H", "W"), keep_float32=True))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "CorrelationVolume":
        """Check and wrap a fresh float (C, H, W) array that no one else holds, without copying it."""
        if not _all_finite(data):  # finite maps: only a correlation sum past its data type's range gets here
            raise ValueError(f"correlation volume data holds a value beyond the {data.dtype} range "
                             f"(max {np.finfo(data.dtype).max:g})")
        data.flags.writeable = False
        volume = object.__new__(cls)
        volume._fill(data)
        return volume

    def _fill(self, d: np.ndarray):
        side = math.isqrt(d.shape[0])
        if side * side != d.shape[0] or side % 2 == 0:
            raise ShapeError(f"channel count {d.shape[0]} is not the square of an odd number; "
                             "a correlation volume has (2r+1)^2 channels")
        object.__setattr__(self, "data", d)

    @property
    def radius(self) -> int:
        return math.isqrt(self.data.shape[0]) // 2


def _extent(d: np.ndarray) -> tuple[tuple[int, int], tuple[int, int]]:
    """Half-open row and column bounds of the cells where any channel of (C, H, W) ``d`` is nonzero.

    An all-zero map gives empty bounds, (0, 0) for both axes.
    """
    cells = d.any(axis=0)
    rows, cols = np.flatnonzero(cells.any(axis=1)), np.flatnonzero(cells.any(axis=0))
    if rows.size == 0:
        return (0, 0), (0, 0)
    return (int(rows[0]), int(rows[-1]) + 1), (int(cols[0]), int(cols[-1]) + 1)


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
    count C (off by default: raw inner products).  Two float32 maps give a
    float32 volume, summed in float32; any other pair gives a float64 one,
    a float32 map of it upcast exactly first.  A float32 sum past the
    float32 range is refused.  Each shift sums only over the pixels where
    both maps can be nonzero, so the cost follows the maps' nonzero
    extent, such as the wedge a lift-splat fills.  The shifts are split
    across one thread per usable CPU; the bits do not depend on how many.
    """
    if f_t.data.shape != f_t1.data.shape:
        raise ShapeError(
            f"feature maps must share a shape, got {f_t.data.shape} vs {f_t1.data.shape}"
        )
    radius = check_arg("radius", radius, integer_in(0))
    normalize = check_arg("normalize", normalize, FLAG)
    c, h, w = f_t.data.shape
    side = 2 * radius + 1
    if side * side * h * w > _MAX_VOLUME_ENTRIES:
        raise ValueError(f"a radius-{radius} volume on {h}x{w} exceeds {_MAX_VOLUME_ENTRIES} entries")
    a, b = f_t.data, f_t1.data
    if a.dtype != b.dtype:
        a, b = a.astype(float, copy=False), b.astype(float, copy=False)
    (xa0, xa1), (ya0, ya1) = _extent(a)
    (xb0, xb1), (yb0, yb1) = _extent(b)
    out = np.zeros((side * side, h, w), a.dtype)
    dxs, dys = (d.tolist() for d in channel_offset(np.arange(side * side), radius))

    def shifts(ks):
        for k in ks:
            dx, dy = dxs[k], dys[k]
            # the output pixels whose own vector and shifted partner can both
            # be nonzero: elsewhere einsum would sum +-0 products to the +0.0
            # that np.zeros already holds.  Every window lies inside f_t1.
            x0, x1 = max(xa0, xb0 - dx), min(xa1, xb1 - dx)
            y0, y1 = max(ya0, yb0 - dy), min(ya1, yb1 - dy)
            if x0 < x1 and y0 < y1:
                window = b[:, x0 + dx : x1 + dx, y0 + dy : y1 + dy]
                # written in place: no per-shift temporary in the thread's malloc arena
                np.einsum("chw,chw->hw", a[:, x0:x1, y0:y1], window, out=out[k, x0:x1, y0:y1])

    # each shift writes its own channel
    split_run(shifts, side * side)
    if normalize:
        out /= c
    return CorrelationVolume._adopt(out)


def concat_volumes(a: CorrelationVolume, b: CorrelationVolume) -> np.ndarray:
    """Stack two volumes along channels (a first), for mixed-radius fusion: float32 when both are float32."""
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
