import numpy as np
import pytest

from bevkit.correlation import (
    CorrelationVolume,
    FeatureMap,
    channel_index,
    channel_offset,
    concat_volumes,
    local_correlation,
    peak_displacement,
)
from bevkit.errors import ShapeError


def brute_force_correlation(f_t: np.ndarray, f_t1: np.ndarray, radius: int) -> np.ndarray:
    """Reference: literal loops over every shift, pixel, and channel."""
    c, h, w = f_t.shape
    side = 2 * radius + 1
    out = np.zeros((side * side, h, w))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            idx = (dy + radius) * side + (dx + radius)
            for x in range(h):
                for y in range(w):
                    xs, ys = x + dx, y + dy
                    if 0 <= xs < h and 0 <= ys < w:
                        acc = 0.0
                        for ch in range(c):
                            acc += f_t[ch, x, y] * f_t1[ch, xs, ys]
                        out[idx, x, y] = acc
    return out


def clipped_correlation(f_t: np.ndarray, f_t1: np.ndarray, radius: int, normalize: bool = False) -> np.ndarray:
    """Reference: the former per-shift loop that clips each shift to the map."""
    c, h, w = f_t.shape
    side = 2 * radius + 1
    out = np.zeros((side * side, h, w))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            x0, x1 = max(0, -dx), min(h, h - dx)
            y0, y1 = max(0, -dy), min(w, w - dy)
            if x0 >= x1 or y0 >= y1:
                continue
            prod = f_t[:, x0:x1, y0:y1] * f_t1[:, x0 + dx : x1 + dx, y0 + dy : y1 + dy]
            out[channel_index(dx, dy, radius), x0:x1, y0:y1] = prod.sum(axis=0)
    if normalize:
        out /= c
    return out


def channel_last(a: np.ndarray) -> np.ndarray:
    """The same (C, H, W) values stored with channels innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


class TestChannelLayout:
    def test_round_trip_all_channels(self):
        for radius in (0, 1, 3, 5):
            side = 2 * radius + 1
            for idx in range(side * side):
                dx, dy = channel_offset(idx, radius)
                assert channel_index(dx, dy, radius) == idx

    def test_layout_is_dy_major(self):
        assert channel_index(-5, -5, 5) == 0
        assert channel_index(5, -5, 5) == 10
        assert channel_index(-5, -4, 5) == 11
        assert channel_index(0, 0, 5) == 60

    def test_out_of_radius_rejected(self):
        with pytest.raises(ValueError):
            channel_index(6, 0, 5)
        with pytest.raises(ValueError):
            channel_offset(121, 5)

    def test_offset_of_index_array(self):
        for radius in (0, 2, 5):
            side = 2 * radius + 1
            idx = np.arange(side * side).reshape(side, side)
            dx, dy = channel_offset(idx, radius)
            assert dx.shape == dy.shape == idx.shape
            for k in idx.ravel():
                assert (dx.ravel()[k], dy.ravel()[k]) == channel_offset(int(k), radius)
        with pytest.raises(ValueError):
            channel_offset(np.array([0, 25]), 2)
        with pytest.raises(ValueError):
            channel_offset(np.array([-1, 3]), 2)


class TestLocalCorrelation:
    def test_zero_shift_self_correlation(self):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((4, 8, 8))
        vol = local_correlation(FeatureMap(f), FeatureMap(f), radius=0)
        assert vol.data.shape == (1, 8, 8)
        assert np.max(np.abs(vol.data[0] - (f ** 2).sum(axis=0))) < 1e-12

    def test_zero_features_give_zero_volume(self):
        rng = np.random.default_rng(32)
        f = np.zeros((3, 8, 8))
        g = rng.standard_normal((3, 8, 8))
        vol = local_correlation(FeatureMap(f), FeatureMap(g), radius=2)
        assert np.max(np.abs(vol.data)) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for radius in (0, 1, 3):
            f = rng.standard_normal((4, 8, 8))
            g = rng.standard_normal((4, 8, 8))
            fast = local_correlation(FeatureMap(f), FeatureMap(g), radius).data
            slow = brute_force_correlation(f, g, radius)
            denom = max(1.0, float(np.abs(slow).max()))
            assert np.max(np.abs(fast - slow)) / denom < 1e-6

    def test_matches_clipped_loop_oracle(self):
        rng = np.random.default_rng(40)
        cases = [((3, 5, 7), 1), ((2, 1, 1), 3), ((4, 2, 9), 4), ((1, 6, 3), 7), ((5, 4, 4), 0)]
        for _ in range(40):
            c, h, w = (int(v) for v in rng.integers(1, 10, size=3))
            cases.append(((c, h, w), int(rng.integers(0, 12))))
        for (c, h, w), radius in cases:
            f = rng.standard_normal((c, h, w)) * rng.uniform(0.1, 100.0)
            g = rng.standard_normal((c, h, w))
            scale = c * np.abs(f).max() * np.abs(g).max()
            for normalize in (False, True):
                fast = local_correlation(FeatureMap(f), FeatureMap(g), radius, normalize).data
                ref = clipped_correlation(f, g, radius, normalize)
                assert fast.shape == ref.shape
                assert np.max(np.abs(fast - ref)) <= 1e-12 * scale

    def test_bytes_independent_of_memory_layout(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((64, 48, 48))
        g = rng.standard_normal((64, 48, 48))
        ref = local_correlation(FeatureMap(f), FeatureMap(g), 3).data
        for a, b in ((channel_last(f), channel_last(g)), (f, channel_last(g)), (channel_last(f), g)):
            assert not (a.flags.c_contiguous and b.flags.c_contiguous)
            vol = local_correlation(FeatureMap(a), FeatureMap(b), 3).data
            assert np.array_equal(vol, ref)

    def test_zero_padding_at_borders(self):
        f = np.ones((1, 4, 4))
        vol = local_correlation(FeatureMap(f), FeatureMap(f), radius=1)
        # shift (dx=-1, dy=-1): top row and left column have no source
        ch = channel_index(-1, -1, 1)
        assert np.array_equal(vol.data[ch, 0, :], np.zeros(4))
        assert np.array_equal(vol.data[ch, :, 0], np.zeros(4))
        assert np.array_equal(vol.data[ch, 1:, 1:], np.ones((3, 3)))

    def test_bilinearity(self):
        rng = np.random.default_rng(34)
        f1 = rng.standard_normal((3, 6, 6))
        f2 = rng.standard_normal((3, 6, 6))
        g = rng.standard_normal((3, 6, 6))
        a = local_correlation(FeatureMap(f1), FeatureMap(g), 2).data
        b = local_correlation(FeatureMap(f2), FeatureMap(g), 2).data
        both = local_correlation(FeatureMap(f1 + 2.0 * f2), FeatureMap(g), 2).data
        assert np.max(np.abs(both - (a + 2.0 * b))) < 1e-12

    def test_normalize_divides_by_channels(self):
        rng = np.random.default_rng(35)
        f = rng.standard_normal((4, 6, 6))
        g = rng.standard_normal((4, 6, 6))
        raw = local_correlation(FeatureMap(f), FeatureMap(g), 1).data
        norm = local_correlation(FeatureMap(f), FeatureMap(g), 1, normalize=True).data
        assert np.max(np.abs(norm - raw / 4.0)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            local_correlation(
                FeatureMap(np.zeros((2, 8, 8))), FeatureMap(np.zeros((3, 8, 8))), 1
            )

    def test_feature_map_validation(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((8, 8)))
        bad = np.zeros((1, 4, 4))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureMap(bad)
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((1, 4, 4)), branch="SIDE")


class TestConcat:
    def test_mixed_radii_channel_count(self):
        rng = np.random.default_rng(36)
        f = rng.standard_normal((2, 8, 8))
        g = rng.standard_normal((2, 8, 8))
        a = local_correlation(FeatureMap(f), FeatureMap(g), 5)
        b = local_correlation(FeatureMap(f), FeatureMap(g), 3)
        stacked = concat_volumes(a, b)
        assert stacked.shape == (121 + 49, 8, 8)

    def test_first_block_reproduces_a(self):
        rng = np.random.default_rng(37)
        f = rng.standard_normal((2, 8, 8))
        g = rng.standard_normal((2, 8, 8))
        a = local_correlation(FeatureMap(f), FeatureMap(g), 2)
        b = local_correlation(FeatureMap(f), FeatureMap(g), 1)
        stacked = concat_volumes(a, b)
        assert np.array_equal(stacked[:25], a.data)
        assert np.array_equal(stacked[25:], b.data)

    def test_spatial_mismatch(self):
        a = CorrelationVolume(np.zeros((9, 8, 8)), 1)
        b = CorrelationVolume(np.zeros((9, 4, 4)), 1)
        with pytest.raises(ShapeError):
            concat_volumes(a, b)

    def test_volume_channel_count_validated(self):
        with pytest.raises(ShapeError):
            CorrelationVolume(np.zeros((8, 4, 4)), 1)


def unit_norm_features(rng, shape):
    """Random nonnegative features with unit per-pixel norm.

    Equal norms make the self-match the strict per-pixel maximum of the
    inner product (Cauchy-Schwarz, equality only for parallel vectors),
    so shifted-copy peak recovery is guaranteed, not just likely.
    """
    f = rng.uniform(0.1, 1.0, size=shape)
    return f / np.linalg.norm(f, axis=0, keepdims=True)


class TestPeakDisplacement:
    def test_zero_radius_is_trivially_zero(self):
        rng = np.random.default_rng(38)
        f = rng.uniform(0.5, 1.5, size=(4, 12, 12))
        vol = local_correlation(FeatureMap(f), FeatureMap(f), 0)
        peaks = peak_displacement(vol)
        assert np.all(peaks == 0)

    def test_identical_normalized_maps_peak_at_zero(self):
        rng = np.random.default_rng(38)
        f = unit_norm_features(rng, (4, 12, 12))
        vol = local_correlation(FeatureMap(f), FeatureMap(f), 2)
        peaks = peak_displacement(vol)
        interior = (slice(2, -2), slice(2, -2))
        assert np.all(peaks[0][interior] == 0)
        assert np.all(peaks[1][interior] == 0)

    def test_shifted_copy_recovered_at_interior(self):
        rng = np.random.default_rng(39)
        radius = 3
        for dx, dy in ((1, 2), (-2, 0), (3, -3)):
            f = unit_norm_features(rng, (4, 16, 16))
            shifted = np.roll(f, shift=(dx, dy), axis=(1, 2))
            vol = local_correlation(FeatureMap(f), FeatureMap(shifted), radius)
            peaks = peak_displacement(vol)
            margin = radius + max(abs(dx), abs(dy))
            interior = (slice(margin, 16 - margin), slice(margin, 16 - margin))
            assert np.all(peaks[0][interior] == dx)
            assert np.all(peaks[1][interior] == dy)

    def test_all_equal_channels_tie_break(self):
        vol = CorrelationVolume(np.ones((25, 4, 4)), 2)
        peaks = peak_displacement(vol)
        assert np.all(peaks[0] == -2)
        assert np.all(peaks[1] == -2)
