"""Tests for the per-CPU split of correlation shifts and lift-splat channels.

The serial loops that ``local_correlation`` and ``project_volume`` ran before
the split stay here as references; every split result must equal them bit
for bit, whatever the worker count.  The correlation reference still sums
every shift over the whole zero-padded map, so it also pins the bits of the
library's clip to where both maps can be nonzero.  ``project_volume`` must
also equal the test-side lift and ``np.add.at`` splat at every worker count.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from bevkit import _threads
from bevkit.config import default_config
from bevkit.correlation import FeatureMap, channel_offset, local_correlation
from bevkit.lss import DepthDistribution, assign_cells, build_frustum, project_volume
from helpers import add_at_splat, lift


def serial_correlation(f_t, f_t1, radius, normalize=False):
    """Reference: the shift loop of local_correlation on one thread."""
    c, h, w = f_t.data.shape
    side = 2 * radius + 1
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
    return out


def serial_project_volume(volume, depth, camera, grid):
    """Reference: the gathered pool project_volume ran before, on one thread, with one shared buffer.

    It pools only the in-grid points: their flat indices and image pixels
    come from the plan's mask, each channel row is gathered at those
    pixels, weighted by the gathered depth and added by ``np.bincount``.
    """
    plan = assign_cells(build_frustum(camera, depth.bins, volume.spatial_shape), grid)
    points = np.flatnonzero(plan.in_grid)
    pixels = points % np.prod(volume.spatial_shape)
    cells = plan.cells.reshape(-1)[points]
    context = volume.data.reshape(volume.channels, -1)
    scale = depth.data.reshape(-1)[points]
    n = grid.height_px * grid.width_px
    bev = np.empty((volume.channels, n))
    weights = np.empty(pixels.size)
    for c, row in enumerate(context):
        np.take(row, pixels, out=weights, mode="clip")
        np.multiply(weights, scale, out=weights)
        bev[c] = np.bincount(cells, weights=weights, minlength=n)
    return bev.reshape(volume.channels, grid.height_px, grid.width_px), plan.dropped


def bench_inputs(rng, channels=64, image=(32, 88)):
    """A paper-scale sample: C64 D64 32x88 with softmax depth, stock camera and grid."""
    cfg = default_config()
    logits = rng.standard_normal((cfg.depth_bins.size,) + image)
    e = np.exp(logits - logits.max(axis=0))
    return FeatureMap(rng.standard_normal((channels,) + image)), DepthDistribution(e / e.sum(axis=0), cfg.depth_bins), cfg


# 1000 is more workers than any case here has items
@pytest.fixture(params=[1, 2, 3, 1000])
def workers(request, monkeypatch):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: request.param)
    return request.param


CORRELATION_CASES = {
    "one-channel": ((1, 6, 7), 2),
    "radius-0": ((3, 5, 4), 0),
    "radius-at-height": ((2, 3, 9), 3),
    "radius-past-width": ((2, 8, 2), 4),
    "radius-past-both": ((2, 2, 3), 5),
    "one-pixel": ((4, 1, 1), 2),
    "one-pixel-radius-0": ((1, 1, 1), 0),
}


class TestCorrelationSplit:
    @pytest.mark.parametrize("case", CORRELATION_CASES)
    @pytest.mark.parametrize("normalize", [False, True])
    def test_equals_serial_loop(self, workers, case, normalize):
        shape, radius = CORRELATION_CASES[case]
        rng = np.random.default_rng(sum(shape) + radius)
        a, b = FeatureMap(rng.standard_normal(shape)), FeatureMap(rng.standard_normal(shape))
        got = local_correlation(a, b, radius, normalize=normalize)
        assert np.array_equal(got.data, serial_correlation(a, b, radius, normalize))

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_memory_layouts_equal_serial_loop(self, workers, layout):
        rng = np.random.default_rng(80)
        if layout == "fortran":
            a, b = np.asfortranarray(rng.standard_normal((2, 5, 9, 7)))
        else:
            a, b = rng.standard_normal((2, 5, 7, 9)).transpose(0, 1, 3, 2)
        fa, fb = FeatureMap(a), FeatureMap(b)
        for radius in (1, 3):
            got = local_correlation(fa, fb, radius)
            assert np.array_equal(got.data, serial_correlation(fa, fb, radius))
            # and the bytes match those of C-ordered inputs
            ref = local_correlation(FeatureMap(np.ascontiguousarray(a)), FeatureMap(np.ascontiguousarray(b)), radius)
            assert np.array_equal(got.data, ref.data)

    @pytest.mark.parametrize("shape, radius", [((64, 128, 128), 5), ((64, 32, 88), 3)], ids=["bev-r5", "pv-r3"])
    def test_paper_shapes_equal_serial_loop(self, workers, shape, radius):
        # the kernel writes each shift into its output channel; the serial
        # loop assigns a fresh einsum result, and the bits must agree
        rng = np.random.default_rng(82)
        a, b = FeatureMap(rng.standard_normal(shape)), FeatureMap(rng.standard_normal(shape))
        assert np.array_equal(local_correlation(a, b, radius).data, serial_correlation(a, b, radius))

    def test_bench_shape_r5(self, monkeypatch):
        rng = np.random.default_rng(81)
        a, b = FeatureMap(rng.standard_normal((64, 64, 64))), FeatureMap(rng.standard_normal((64, 64, 64)))
        want = serial_correlation(a, b, 5)
        for count in (1, 2, 3, 200):
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            assert np.array_equal(local_correlation(a, b, 5).data, want)


# cells of a 9x11 map that hold random vectors; every other cell is zero
SPARSE_CELLS = {
    "zero": (),
    "top-left": ((0, 0),),
    "top-right": ((0, 10),),
    "bottom-left": ((8, 0),),
    "bottom-right": ((8, 10),),
    "centre": ((4, 5),),
    "row": tuple((3, y) for y in range(11)),
    "column": tuple((x, 7) for x in range(9)),
    "row-part": tuple((8, y) for y in range(2, 6)),
    "dense": tuple((x, y) for x in range(9) for y in range(11)),
}


def sparse_map(rng, cells, channels=6, order="C"):
    d = np.zeros((channels, 9, 11))
    for x, y in cells:
        d[:, x, y] = rng.standard_normal(channels)
    return FeatureMap(np.asarray(d, order=order))


class TestCorrelationClip:
    """local_correlation sums each shift only where both maps can be nonzero; the padded loop sums everywhere."""

    @pytest.mark.parametrize("cells", SPARSE_CELLS)
    def test_sparse_maps_equal_padded_loop(self, workers, cells):
        rng = np.random.default_rng(len(SPARSE_CELLS[cells]))
        a = sparse_map(rng, SPARSE_CELLS[cells])
        for other in SPARSE_CELLS.values():
            b = sparse_map(rng, other)
            for radius in (0, 1, 3):
                for f_t, f_t1 in ((a, b), (b, a)):
                    got = local_correlation(f_t, f_t1, radius)
                    assert got.data.tobytes() == serial_correlation(f_t, f_t1, radius).tobytes()

    @pytest.mark.parametrize("radius", [9, 11, 12], ids=["at-height", "at-width", "past-both"])
    def test_radius_at_or_past_the_map(self, workers, radius):
        rng = np.random.default_rng(radius)
        for first, second in (("top-left", "dense"), ("bottom-right", "top-left"), ("row", "column")):
            a, b = sparse_map(rng, SPARSE_CELLS[first]), sparse_map(rng, SPARSE_CELLS[second])
            for f_t, f_t1 in ((a, b), (b, a)):
                got = local_correlation(f_t, f_t1, radius)
                assert got.data.tobytes() == serial_correlation(f_t, f_t1, radius).tobytes()

    @pytest.mark.parametrize("cells", ["bottom-left", "row", "dense"])
    def test_normalized_sparse_maps_equal_padded_loop(self, workers, cells):
        rng = np.random.default_rng(95)
        a, b = sparse_map(rng, SPARSE_CELLS[cells]), sparse_map(rng, SPARSE_CELLS["column"])
        for f_t, f_t1 in ((a, b), (b, a)):
            got = local_correlation(f_t, f_t1, 2, normalize=True)
            assert got.data.tobytes() == serial_correlation(f_t, f_t1, 2, normalize=True).tobytes()

    @pytest.mark.parametrize("cells", ["top-right", "column", "row-part"])
    def test_fortran_sparse_maps_equal_padded_loop(self, workers, cells):
        rng = np.random.default_rng(91)
        a = sparse_map(rng, SPARSE_CELLS[cells], order="F")
        b = sparse_map(rng, SPARSE_CELLS["dense"], order="F")
        for f_t, f_t1 in ((a, b), (b, a), (a, a)):
            assert local_correlation(f_t, f_t1, 2).data.tobytes() == serial_correlation(f_t, f_t1, 2).tobytes()

    def test_einsum_runs_only_where_both_maps_can_be_nonzero(self, monkeypatch):
        areas = []
        einsum = np.einsum

        def recording(subscripts, a, b, out):
            areas.append(out.size)
            return einsum(subscripts, a, b, out=out)

        monkeypatch.setattr(np, "einsum", recording)
        rng = np.random.default_rng(96)
        zero, dense = sparse_map(rng, ()), sparse_map(rng, SPARSE_CELLS["dense"])
        for f_t, f_t1 in ((zero, dense), (dense, zero), (zero, zero)):
            local_correlation(f_t, f_t1, 2)
        assert areas == []
        # a top-left pixel has partners only at the 9 shifts with dx, dy >= 0
        local_correlation(sparse_map(rng, SPARSE_CELLS["top-left"]), dense, 2)
        assert areas == [1] * 9
        areas.clear()
        # each pixel of a row has a partner in a crossing column at one shift
        local_correlation(sparse_map(rng, SPARSE_CELLS["row"]), sparse_map(rng, SPARSE_CELLS["column"]), 1)
        assert areas == [1] * 9

    def test_lift_splat_outputs_at_paper_shape(self, workers):
        # a front camera fills a wedge of the stock grid, so most of each
        # shift is skipped; the bits are still those of the padded loop
        maps = []
        for seed in (93, 94):
            volume, depth, cfg = bench_inputs(np.random.default_rng(seed))
            maps.append(FeatureMap(project_volume(volume, depth, cfg.camera, cfg.grid)[0]))
        filled = maps[0].data.any(axis=0)
        assert 0 < filled.sum() < 0.5 * filled.size
        for radius in (cfg.radius_bev, 0):
            got = local_correlation(maps[0], maps[1], radius)
            assert got.data.tobytes() == serial_correlation(maps[0], maps[1], radius).tobytes()


class TestPoolSplit:
    @pytest.mark.parametrize("channels", [1, 2, 5])
    def test_project_volume_equals_serial_pool(self, workers, channels):
        volume, depth, cfg = bench_inputs(np.random.default_rng(82 + channels), channels=channels)
        bev, dropped = project_volume(volume, depth, cfg.camera, cfg.grid)
        ref, dropped_ref = serial_project_volume(volume, depth, cfg.camera, cfg.grid)
        assert np.array_equal(bev, ref) and dropped == dropped_ref
        assert bev.flags.c_contiguous and np.count_nonzero(bev[-1]) > 1000

    @pytest.mark.parametrize("channels", [1, 3, 7])
    def test_splat_equals_serial_pool(self, workers, channels):
        # the split pool against the other reference: one np.add.at over the explicit lift
        volume, depth, cfg = bench_inputs(np.random.default_rng(85 + channels), channels=channels)
        frustum = build_frustum(cfg.camera, depth.bins, volume.spatial_shape)
        bev, dropped = project_volume(volume, depth, cfg.camera, cfg.grid)
        ref, dropped_ref = add_at_splat(lift(volume, depth), frustum, cfg.grid)
        assert np.array_equal(bev, ref) and dropped == dropped_ref
        assert np.count_nonzero(bev[-1]) > 1000

    def test_project_volume_at_bench_shape(self, monkeypatch):
        volume, depth, cfg = bench_inputs(np.random.default_rng(88))
        want, dropped_want = serial_project_volume(volume, depth, cfg.camera, cfg.grid)
        for count in (1, 2, 3, 200):
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            bev, dropped = project_volume(volume, depth, cfg.camera, cfg.grid)
            assert np.array_equal(bev, want) and dropped == dropped_want


def test_stress_more_threads_than_cores(monkeypatch):
    # a weights buffer or output slice shared between threads would lose or
    # mix updates here, with threads switching every microsecond
    count = 4 * (os.cpu_count() or 1) + 1
    volume, depth, cfg = bench_inputs(np.random.default_rng(89), channels=3 * count, image=(16, 44))
    rng = np.random.default_rng(90)
    a, b = FeatureMap(rng.standard_normal((8, 24, 24))), FeatureMap(rng.standard_normal((8, 24, 24)))
    want_bev, _ = serial_project_volume(volume, depth, cfg.camera, cfg.grid)
    want_vol = serial_correlation(a, b, 4)
    monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(project_volume(volume, depth, cfg.camera, cfg.grid)[0], want_bev)
            assert np.array_equal(local_correlation(a, b, 4).data, want_vol)
    finally:
        sys.setswitchinterval(interval)


class TestSplitRun:
    def test_interleaved_slices_one_thread_each(self, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 3)
        calls = []
        # all three slices wait for each other, so they run at once on three threads
        barrier = threading.Barrier(3, timeout=10)

        def fn(items):
            barrier.wait()
            calls.append((list(items), threading.get_ident()))

        _threads.split_run(fn, 7)
        assert sorted(items for items, _ in calls) == [[0, 3, 6], [1, 4], [2, 5]]
        assert len({ident for _, ident in calls}) == 3
        assert dict((tuple(items), ident) for items, ident in calls)[(0, 3, 6)] == threading.get_ident()

    @pytest.mark.parametrize("cpus, n, slices", [(1, 5, 1), (8, 3, 3), (8, 1, 1), (4, 0, 1)])
    def test_worker_count_capped_at_items(self, monkeypatch, cpus, n, slices):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
        calls = []
        _threads.split_run(lambda items: calls.append(list(items)), n)
        assert len(calls) == slices
        assert sorted(i for items in calls for i in items) == list(range(n))

    def test_one_cpu_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 1)
        idents = []
        _threads.split_run(lambda items: idents.append(threading.get_ident()), 4)
        assert idents == [threading.get_ident()]

    def test_usable_cpus_follows_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _threads.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _threads.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _threads.usable_cpus() == 1

    def test_other_slice_exception_reaches_caller_after_join(self, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 3)
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        error = ValueError("slice 1 failed")
        finished = []

        def fn(items):
            if items.start == 1:
                raise error
            if items.start == 2:
                time.sleep(0.05)
            finished.append(items.start)

        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            _threads.split_run(fn, 6)
        assert info.value is error
        assert sorted(finished) == [0, 2]
        assert threading.active_count() == before
        assert unhandled == []

    def test_first_slice_in_order_wins(self, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 4)
        errors = {i: KeyError(i) for i in (1, 2, 3)}

        def fn(items):
            # slice 3 raises first, slice 1 last; the caller's slice 0 succeeds
            time.sleep(0.02 * (3 - items.start))
            if items.start:
                raise errors[items.start]

        before = threading.active_count()
        with pytest.raises(KeyError) as info:
            _threads.split_run(fn, 4)
        assert info.value is errors[1]
        assert threading.active_count() == before

    def test_caller_slice_exception_waits_for_the_others(self, monkeypatch):
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
        finished = []

        def fn(items):
            if items.start == 0:
                raise RuntimeError("caller slice failed")
            time.sleep(0.05)
            finished.append(items.start)

        with pytest.raises(RuntimeError, match="caller slice failed"):
            _threads.split_run(fn, 2)
        assert finished == [1]
