import math
import re
import warnings

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
        for a, b in ((channel_last(f), channel_last(g)), (f, channel_last(g)), (channel_last(f), g),
                     (np.asfortranarray(f), np.asfortranarray(g))):
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

    @pytest.mark.parametrize("radius", [2.7, 2.0, np.float64(1.0), True, False, "1", None, -1, np.int64(-3)],
                             ids=["2.7", "2.0", "np-float", "True", "False", "str", "None", "-1", "np-negative"])
    def test_radius_refuses_what_is_not_an_integer_at_least_0(self, radius):
        # int() ran 2.7 at radius 2, and '1' and True at radius 1
        f = FeatureMap(np.ones((1, 3, 3)))
        with pytest.raises(ValueError, match=f"^{re.escape(f'radius must be an integer >= 0, got {radius!r}')}$"):
            local_correlation(f, f, radius)

    @pytest.mark.parametrize("radius", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_radius_takes_numpy_integers(self, radius):
        rng = np.random.default_rng(43)
        f, g = FeatureMap(rng.standard_normal((3, 5, 6))), FeatureMap(rng.standard_normal((3, 5, 6)))
        assert local_correlation(f, g, radius).data.tobytes() == local_correlation(f, g, 2).data.tobytes()

    @pytest.mark.parametrize("channels", [1, 3, 4, 64, 129])
    def test_one_cell_map_centre_channel_ignores_radius(self, channels):
        # on a 1x1 map only shift (0, 0) has a partner; every radius gives it
        # the radius-0 bits and leaves the other channels +0.0
        rng = np.random.default_rng(44)
        f, g = FeatureMap(rng.standard_normal((channels, 1, 1))), FeatureMap(rng.standard_normal((channels, 1, 1)))
        centre = local_correlation(f, g, 0).data
        for radius in (1, 2, 5):
            vol = local_correlation(f, g, radius).data
            k = channel_index(0, 0, radius)
            assert vol[k].tobytes() == centre.tobytes()
            assert np.delete(vol, k, axis=0).tobytes() == np.zeros(((2 * radius + 1) ** 2 - 1, 1, 1)).tobytes()

    @pytest.mark.parametrize("shape, radius", [((1, 128, 128), 45), ((1, 64, 64), 1000), ((2, 1, 1), 10**9)])
    def test_volume_cap_refuses_before_allocating(self, shape, radius, refuse_cheaply):
        f = FeatureMap(np.ones(shape))
        refuse_cheaply(lambda: local_correlation(f, f, radius), ValueError, "exceeds 134217728 entries")

    def test_feature_map_validation(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((8, 8)))
        bad = np.zeros((1, 4, 4))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureMap(bad)


class TestVolumeMemory:
    def test_r5_volume_is_not_copied(self, peak_bytes):
        # C64 on 128x128 at radius 5: a 15.9 MB volume; the two FeatureMap
        # copies (8.4 MB each) and the volume itself peak near 35 MB, as no
        # padded copy of the second map is made; one more copy of the volume
        # would take it to about 51 MB
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((2, 64, 128, 128))
        vol, peak = peak_bytes(lambda: local_correlation(FeatureMap(a), FeatureMap(b), 5))
        assert vol.data.shape == (121, 128, 128) and not vol.data.flags.writeable
        assert peak < 50e6, peak

    def test_finite_volume_whose_sum_overflows_is_kept(self):
        # entries near 1e308 sum past the float range; only the entries' own finiteness counts
        a = np.full((1, 3, 4), 1e154)
        vol = local_correlation(FeatureMap(a), FeatureMap(a), 1)
        with np.errstate(over="ignore"):
            assert np.isinf(vol.data.sum())
        assert np.all(np.isfinite(vol.data)) and vol.data.max() == 1e154 * 1e154
        assert np.array_equal(CorrelationVolume(vol.data).data, vol.data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fill", [0.5, 1e308], ids=["small", "overflowing"])
    def test_non_finite_entry_refused_by_both_constructors(self, bad, fill):
        # the private one adopts volumes local_correlation builds from finite maps, where only a sum
        # past the float range is not finite, so its line names the range
        data = np.full((9, 2, 2), fill)
        data[4, 1, 0] = bad
        with pytest.raises(ValueError, match=r"^correlation volume data contains non-finite entries$"):
            CorrelationVolume(data)
        with pytest.raises(ValueError, match=r"^correlation volume data holds a value beyond the float64 range "
                                             r"\(max 1\.79769e\+308\)$"):
            CorrelationVolume._adopt(data)

    def test_public_constructor_copies(self):
        data = np.zeros((9, 2, 2))
        vol = CorrelationVolume(data)
        data[0, 0, 0] = 1.0
        assert vol.data[0, 0, 0] == 0.0 and data.flags.writeable


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
        a = CorrelationVolume(np.zeros((9, 8, 8)))
        b = CorrelationVolume(np.zeros((9, 4, 4)))
        with pytest.raises(ShapeError):
            concat_volumes(a, b)

    def test_volume_channel_count_validated(self):
        # the channel count must be the square of an odd number, 2r + 1
        for channels in (8, 4, 16, 2):
            with pytest.raises(ShapeError, match=f"channel count {channels} is not the square of an odd number"):
                CorrelationVolume(np.zeros((channels, 4, 4)))
        with pytest.raises(ShapeError, match="must have shape"):
            CorrelationVolume(np.zeros((9, 4)))
        assert [CorrelationVolume(np.zeros((n, 2, 2))).radius for n in (1, 9, 25, 121)] == [0, 1, 2, 5]


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
        vol = CorrelationVolume(np.ones((25, 4, 4)))
        peaks = peak_displacement(vol)
        assert np.all(peaks[0] == -2)
        assert np.all(peaks[1] == -2)


def float32_correlation(f: np.ndarray, g: np.ndarray, radius: int, normalize: bool = False) -> np.ndarray:
    """Reference for two float32 maps: one float32 ``einsum`` per shift over the whole zero-padded map."""
    c, h, w = f.shape
    side = 2 * radius + 1
    ph, pw = min(radius, h), min(radius, w)
    padded = np.pad(g, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((side * side, h, w), np.float32)
    for k in range(side * side):
        dx, dy = channel_offset(k, radius)
        if abs(dx) <= ph and abs(dy) <= pw:
            out[k] = np.einsum("chw,chw->hw", f, padded[:, ph + dx : ph + dx + h, pw + dy : pw + dy + w])
    if normalize:
        out /= np.float32(c)
    return out


def float32_pair(rng, shape, sparse=False):
    """Two float32 maps; ``sparse`` zeroes a band of each, as a lift-splat leaves cells empty."""
    f, g = rng.standard_normal((2, *shape)).astype(np.float32)
    if sparse:
        f[:, : shape[1] // 2] = 0.0
        g[:, :, : shape[2] // 3] = 0.0
    return f, g


class TestFloat32:
    """Two float32 maps correlate in float32; any other pair keeps the float64 bits."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_the_per_shift_float32_einsum(self, cpus, monkeypatch):
        from bevkit import _threads

        monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
        rng = np.random.default_rng(300)
        cases = [((3, 5, 7), 1), ((2, 1, 1), 3), ((4, 2, 9), 4), ((64, 24, 20), 5)]
        cases += [((int(c), int(h), int(w)), int(r)) for c, h, w, r in rng.integers(1, 12, (20, 4))]
        for k, (shape, radius) in enumerate(cases):
            f, g = float32_pair(rng, shape, sparse=k % 3 == 0)
            for normalize in (False, True):
                vol = local_correlation(FeatureMap(f), FeatureMap(g), radius, normalize).data
                assert vol.dtype == np.float32 and not vol.flags.writeable
                assert np.array_equal(vol, float32_correlation(f, g, radius, normalize)), (shape, radius)

    def test_bench_shape_matches_the_per_shift_float32_einsum(self):
        rng = np.random.default_rng(301)
        f, g = float32_pair(rng, (64, 128, 128), sparse=True)
        vol = local_correlation(FeatureMap(f), FeatureMap(g), 5).data
        assert np.array_equal(vol, float32_correlation(f, g, 5))

    def test_bytes_independent_of_memory_layout(self):
        rng = np.random.default_rng(302)
        f, g = float32_pair(rng, (64, 24, 24))
        ref = local_correlation(FeatureMap(f), FeatureMap(g), 3).data
        # Fortran order, channels innermost, and big-endian float32 each become native C-ordered float32
        for a, b in ((np.asfortranarray(f), np.asfortranarray(g)), (channel_last(f), g), (f, g.astype(">f4"))):
            assert not (a.flags.c_contiguous and b.flags.c_contiguous and b.dtype.isnative)
            vol = local_correlation(FeatureMap(a), FeatureMap(b), 3).data
            assert vol.dtype == np.float32 and np.array_equal(vol, ref)

    def test_within_the_float32_summation_bound_of_the_float64_volume(self):
        # |float32 sum - float64 sum| <= C * 2^-24 * sum_c |a b| per entry
        rng = np.random.default_rng(303)
        for shape, radius in (((64, 32, 88), 3), ((64, 128, 128), 5), ((7, 9, 5), 2)):
            f, g = float32_pair(rng, shape)
            f *= rng.uniform(0.01, 100.0, shape[1:]).astype(np.float32)
            narrow = local_correlation(FeatureMap(f), FeatureMap(g), radius).data
            wide = local_correlation(FeatureMap(f.astype(float)), FeatureMap(g.astype(float)), radius).data
            magnitude = local_correlation(FeatureMap(np.abs(f).astype(float)),
                                          FeatureMap(np.abs(g).astype(float)), radius).data
            assert np.all(np.abs(narrow - wide) <= shape[0] * 2.0**-24 * magnitude)

    def test_float64_and_mixed_pairs_keep_the_float64_bits(self):
        rng = np.random.default_rng(304)
        f, g = float32_pair(rng, (5, 9, 11))
        wide = clipped_correlation(f.astype(float), g.astype(float), 2)
        ref = local_correlation(FeatureMap(f.astype(float)), FeatureMap(g.astype(float)), 2).data
        assert ref.dtype == np.float64 and np.max(np.abs(ref - wide)) <= 1e-12 * np.abs(wide).max()
        for a, b in ((f, g.astype(float)), (f.astype(float), g), (f.astype(np.float16), g), (f, g.astype(np.int64))):
            vol = local_correlation(FeatureMap(a), FeatureMap(b), 2).data
            want = local_correlation(FeatureMap(a.astype(float)), FeatureMap(b.astype(float)), 2).data
            assert vol.dtype == np.float64 and np.array_equal(vol, want)

    def test_a_sum_past_the_float32_range_is_refused_in_one_line(self):
        # each product 2^132 = 5.4e39 passes float32's 3.4e38; a mixed pair of the same values is finite
        f = np.full((2, 3, 3), 2.0**66, np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^correlation volume data holds a value beyond the float32 range "
                                                 r"\(max 3\.40282e\+38\)$"):
                local_correlation(FeatureMap(f), FeatureMap(f), 1)
            assert local_correlation(FeatureMap(f.astype(float)), FeatureMap(f), 1).data.max() == 2.0**133

    def test_a_sum_past_the_float64_range_is_refused_in_one_line(self):
        # finite float64 maps whose products pass 1.8e308: the line names the range, not the input
        a = np.random.default_rng(307).standard_normal((3, 6, 6)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^correlation volume data holds a value beyond the float64 range "
                                                 r"\(max 1\.79769e\+308\)$"):
                local_correlation(FeatureMap(a), FeatureMap(a), 1)

    def test_volumes_and_their_concatenation_stay_float32(self):
        rng = np.random.default_rng(305)
        data = rng.standard_normal((9, 4, 5)).astype(np.float32)
        vol = CorrelationVolume(data)
        assert vol.data.dtype == np.float32 and np.array_equal(vol.data, data)
        assert not vol.data.flags.writeable and not np.shares_memory(vol.data, data)
        assert concat_volumes(vol, vol).dtype == np.float32
        assert concat_volumes(vol, CorrelationVolume(data.astype(float))).dtype == np.float64
        assert CorrelationVolume(data.astype(np.float16)).data.dtype == np.float64

    def test_peak_ties_resolve_to_the_lowest_channel(self):
        data = np.zeros((9, 3, 4), np.float32)
        data[[2, 5, 7]] = np.float32(0.5)  # a tie between channels 2, 5 and 7 at every pixel
        data[6, 1, 2] = np.float32(0.75)
        peaks = peak_displacement(CorrelationVolume(data))
        want = np.broadcast_to(np.array(channel_offset(2, 1))[:, None, None], (2, 3, 4)).copy()
        want[:, 1, 2] = channel_offset(6, 1)
        assert peaks.dtype == np.int64 and np.array_equal(peaks, want)
        all_equal = CorrelationVolume(np.ones((25, 2, 2), np.float32))
        assert np.array_equal(peak_displacement(all_equal), np.full((2, 2, 2), -2))

    def test_r5_volume_holds_half_the_bytes(self, peak_bytes):
        # two 4.2 MB float32 maps and the 7.9 MB float32 volume: 16.3 MB, against 35 MB in float64
        rng = np.random.default_rng(306)
        a, b = rng.standard_normal((2, 64, 128, 128)).astype(np.float32)
        vol, peak = peak_bytes(lambda: local_correlation(FeatureMap(a), FeatureMap(b), 5))
        assert vol.data.nbytes == 121 * 128 * 128 * 4
        assert peak < 18e6, peak
