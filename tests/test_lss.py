"""Tests for the lift-splat projection onto the BEV grid."""

import numpy as np
import pytest

from bevkit.config import default_config
from bevkit.correlation import FeatureMap
from bevkit.errors import InvalidCameraError, ShapeError
from bevkit.geometry import BevGridSpec, CameraModel, pixel_to_vehicle
from bevkit.lss import DepthDistribution, assign_cells, build_frustum, project_volume
from helpers import add_at_splat, floored_cells, lift, rot_z


def identity_camera(f=100.0, cx=8.0, cy=6.0):
    k = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    e = np.hstack([np.eye(3), np.zeros((3, 1))])
    return CameraModel(k, e)


def forward_camera(f=100.0, cx=4.0, cy=4.0, height=1.5):
    """Camera optical axis along vehicle +x, mounted ``height`` up."""
    k = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    rot = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    e = np.hstack([rot, np.array([[0.0], [0.0], [height]])])
    return CameraModel(k, e)


def normalized_depth(rng, d, h, w, bins=None):
    weights = rng.uniform(0.1, 1.0, size=(d, h, w))
    weights /= weights.sum(axis=0, keepdims=True)
    if bins is None:
        bins = np.linspace(2.0, 2.0 + d - 1, d)
    return DepthDistribution(weights, bins, normalized=True)


def turned_camera(rng, h, w):
    """A forward camera of random focal length, turned about z and moved by up to 2 m."""
    cam = forward_camera(f=float(rng.uniform(3.0, 20.0)), cx=w / 2.0, cy=h / 2.0)
    turned = np.hstack([rot_z(rng.uniform(-np.pi, np.pi)) @ cam.rotation, rng.uniform(-2.0, 2.0, (3, 1))])
    return CameraModel(cam.intrinsics, turned)


def project_row(features, grid, f=100.0, cx=1.0, bins=(2.0,)):
    """project_volume of a one-row (C, W) image under a forward camera, every depth weight 1.

    Pixel w at bin b lies at vehicle x = b, y = (cx - w - 0.5) * b / f.
    """
    features = np.asarray(features, dtype=float)
    depth = DepthDistribution(np.ones((len(bins), 1, features.shape[1])), bins)
    return project_volume(FeatureMap(features[:, None, :]), depth, forward_camera(f=f, cx=cx, cy=0.5), grid)


def assert_matches_reference_pair(volume, depth, camera, grid):
    """project_volume equals the reference pair, add_at_splat(lift(...)), bit for bit."""
    bev, dropped = project_volume(volume, depth, camera, grid)
    assert bev.flags.c_contiguous
    frustum = build_frustum(camera, depth.bins, volume.spatial_shape)
    # channels pool independently, so the reference runs in slices to bound memory
    for c in range(0, volume.channels, 16):
        ref, dropped_ref = add_at_splat(lift(FeatureMap(volume.data[c:c + 16]), depth), frustum, grid)
        assert np.array_equal(bev[c:c + 16], ref)
        assert dropped == dropped_ref
    return bev, dropped


def bench_inputs(rng, channels=64, image=(32, 88)):
    """A paper-scale sample: C64 D64 32x88 with softmax depth, stock camera and grid."""
    cfg = default_config()
    logits = rng.standard_normal((cfg.depth_bins.size,) + image)
    e = np.exp(logits - logits.max(axis=0))
    depth = DepthDistribution(e / e.sum(axis=0), cfg.depth_bins)
    return FeatureMap(rng.standard_normal((channels,) + image)), depth, cfg


class TestDepthDistribution:
    def test_valid(self):
        dd = DepthDistribution(np.ones((3, 2, 2)), [1.0, 2.0, 3.0])
        assert not dd.data.flags.writeable

    def test_negative_weight_rejected(self):
        w = np.ones((2, 2, 2))
        w[1, 0, 0] = -0.1
        with pytest.raises(ValueError):
            DepthDistribution(w, [1.0, 2.0])

    def test_non_finite_rejected(self):
        w = np.ones((2, 2, 2))
        w[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            DepthDistribution(w, [1.0, 2.0])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            DepthDistribution(np.ones((2, 2)), [1.0, 2.0])

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DepthDistribution(np.ones((3, 2, 2)), [1.0, 2.0])

    def test_non_increasing_bins_rejected(self):
        with pytest.raises(ValueError):
            DepthDistribution(np.ones((2, 2, 2)), [2.0, 2.0])

    def test_normalized_flag_checks_sums(self):
        rng = np.random.default_rng(50)
        dd = normalized_depth(rng, 4, 3, 5)
        assert np.allclose(dd.data.sum(axis=0), 1.0)
        bad = rng.uniform(0.1, 1.0, size=(4, 3, 5))
        with pytest.raises(ValueError):
            DepthDistribution(bad, np.arange(1.0, 5.0), normalized=True)

    def test_unnormalized_sums_allowed_without_flag(self):
        DepthDistribution(2.0 * np.ones((2, 2, 2)), [1.0, 2.0])


class TestBuildFrustum:
    def test_identity_extrinsics_geometry(self):
        cam = identity_camera(f=100.0, cx=8.0, cy=6.0)
        bins = np.array([1.0, 2.0, 4.0])
        fr = build_frustum(cam, bins, (12, 16))
        assert fr.shape == (3, 12, 16, 3)
        # Camera depth equals the bin center for every point.
        for d, b in enumerate(bins):
            assert np.allclose(fr[d, :, :, 2], b, rtol=0.0, atol=1e-12)
        # Pixel centers: column w maps to u = w + 0.5.
        d, h, w = 1, 3, 7
        expected = np.array([(7.5 - 8.0) / 100.0, (3.5 - 6.0) / 100.0, 1.0]) * 2.0
        assert np.allclose(fr[d, h, w], expected, atol=1e-12)
        # A principal point on a pixel center puts that column on the axis.
        cam2 = identity_camera(f=100.0, cx=7.5, cy=6.5)
        fr2 = build_frustum(cam2, bins, (12, 16))
        assert np.allclose(fr2[:, :, 7, 0], 0.0, atol=1e-12)
        assert np.allclose(fr2[:, 6, :, 1], 0.0, atol=1e-12)

    def test_rigid_extrinsics_applied(self):
        f, cx, cy = 50.0, 2.0, 2.0
        k = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([0.5, -1.0, 2.0])
        cam = CameraModel(k, np.hstack([rot, t[:, None]]))
        bins = np.array([3.0])
        fr = build_frustum(cam, bins, (4, 4))
        ray = np.array([(1.5 - cx) / f, (0.5 - cy) / f, 1.0]) * 3.0
        assert np.allclose(fr[0, 0, 1], rot @ ray + t, atol=1e-12)

    def test_forward_camera_points_ahead(self):
        cam = forward_camera()
        fr = build_frustum(cam, np.array([2.0, 5.0]), (8, 8))
        # Optical axis becomes vehicle +x; all depths positive ahead.
        assert np.all(fr[..., 0] > 0.0)
        assert np.allclose(fr[0, :, :, 0], 2.0, atol=1e-12)
        assert np.allclose(fr[1, :, :, 0], 5.0, atol=1e-12)

    def test_bad_bins_rejected(self):
        cam = identity_camera()
        with pytest.raises(InvalidCameraError):
            build_frustum(cam, np.array([0.0, 1.0]), (4, 4))
        with pytest.raises(InvalidCameraError):
            build_frustum(cam, np.array([2.0, 1.0]), (4, 4))
        with pytest.raises(InvalidCameraError):
            build_frustum(cam, np.array([-1.0]), (4, 4))
        with pytest.raises(ShapeError):
            build_frustum(cam, np.array([]), (4, 4))

    def test_bad_image_size_rejected(self):
        with pytest.raises(ShapeError):
            build_frustum(identity_camera(), np.array([1.0]), (0, 4))

    def test_frustum_points_read_only_and_public_constructor_copies(self):
        assert not build_frustum(forward_camera(), np.array([2.0, 5.0]), (8, 8)).flags.writeable
        # assign_cells reads a caller's own array as it is: no freezing, and no view of it in the plan
        pts = np.zeros((1, 2, 2, 3))
        asg = assign_cells(pts, BevGridSpec(8, 8, 1.0))
        pts[0, 0, 0, 0] = 1.0
        assert pts.flags.writeable
        # every point sits at (u, v) = (3.5, 3.5): row 3, column 3
        assert asg.cells.ravel().tolist() == [3 * 8 + 3] * 4 and np.all(asg.in_grid)

    def test_frustum_validation(self):
        grid = BevGridSpec(8, 8, 1.0)
        for shape in [(2, 3, 4, 2), (2, 3, 3), (1, 2, 2, 2, 3)]:
            with pytest.raises(ShapeError, match=r"^frustum must have shape \(D, H, W, 3\) with D, H, W >= 1, got "):
                assign_cells(np.zeros(shape), grid)
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((1, 2, 2, 3))
            bad[0, 0, 0, 0] = value
            with pytest.raises(ValueError, match="^frustum contains non-finite entries$"):
                assign_cells(bad, grid)
        # far bins through a short focal length overflow; the refusal is the only word of it
        # and names the bins and the intrinsics that leave the float range
        with pytest.raises(ValueError, match=r"frustum contains non-finite points: 2 depth bins up to 1\.7e\+308 m "
                                             r"through intrinsics K = \[0\.01, 0\.0, "):
            build_frustum(forward_camera(f=0.01), np.array([1e300, 1.7e308]), (8, 8))


class TestLift:
    GRID = BevGridSpec(64, 64, 0.8)

    def test_outer_product_values(self):
        # the test-side lift that project_volume is checked against
        rng = np.random.default_rng(51)
        feats = rng.normal(size=(3, 5, 6))
        depth = normalized_depth(rng, 4, 5, 6)
        lifted = lift(FeatureMap(feats), depth)
        assert lifted.shape == (3, 4, 5, 6)
        oracle = np.einsum("chw,dhw->cdhw", feats, depth.data)
        assert np.array_equal(lifted, oracle)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(2, 4, 4))
        b = rng.normal(size=(2, 4, 4))
        depth = normalized_depth(rng, 3, 4, 4)
        cam = forward_camera(f=4.0, cx=2.0, cy=2.0)
        pa, _ = project_volume(FeatureMap(a), depth, cam, self.GRID)
        pb, _ = project_volume(FeatureMap(b), depth, cam, self.GRID)
        pab, _ = project_volume(FeatureMap(a + b), depth, cam, self.GRID)
        assert np.count_nonzero(pab) > 4
        assert np.allclose(pab, pa + pb, rtol=1e-12, atol=1e-12)

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(53)
        feats = FeatureMap(rng.normal(size=(2, 4, 4)))
        depth = normalized_depth(rng, 3, 5, 4)
        with pytest.raises(ShapeError, match=r"features \(4, 4\) and depth \(5, 4\) disagree on \(H, W\)"):
            project_volume(feats, depth, forward_camera(), self.GRID)


class TestAssignCells:
    GRID = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))

    def frustum_of(self, xyz_list):
        return np.array(xyz_list, dtype=float).reshape(1, 1, -1, 3)

    def test_known_cells(self):
        # u = 4 + y, v = 4 - x with resolution 1 and origin (4, 4).
        fr = self.frustum_of(
            [
                [0.0, 0.0, 0.0],   # u=4,   v=4   -> col 4, row 4
                [2.0, -1.5, 0.0],  # u=2.5, v=2   -> col 2, row 2
                [3.9, 3.9, 0.0],   # u=7.9, v=0.1 -> col 7, row 0
            ]
        )
        asg = assign_cells(fr, self.GRID)
        assert asg.cells.shape == asg.in_grid.shape == (1, 1, 3) and asg.cells.dtype == np.int64
        assert asg.cells.ravel().tolist() == [4 * 8 + 4, 2 * 8 + 2, 0 * 8 + 7]
        assert np.all(asg.in_grid)

    def test_lower_edge_belongs_to_cell(self):
        # v exactly 2.0 floors into row 2, not row 1.
        fr = self.frustum_of([[2.0, 0.0, 0.0]])
        asg = assign_cells(fr, self.GRID)
        assert asg.cells.ravel().tolist() == [2 * 8 + 4]

    def test_out_of_grid_flagged(self):
        fr = self.frustum_of(
            [
                [0.0, 4.0, 0.0],    # u=8 -> col 8, outside
                [0.0, -4.01, 0.0],  # u=-0.01 -> col -1, outside
                [-4.01, 0.0, 0.0],  # v=8.01 -> row 8, outside
                [0.0, 0.0, 50.0],   # height is irrelevant to binning
            ]
        )
        asg = assign_cells(fr, self.GRID)
        assert asg.in_grid.ravel().tolist() == [False, False, False, True]
        # an off-grid point carries the id one past the last cell
        assert asg.cells.ravel().tolist() == [64, 64, 64, 4 * 8 + 4]

    @pytest.mark.parametrize("grid", [
        BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0)),
        BevGridSpec(16, 12, 0.3),
        BevGridSpec(10, 20, 0.3, origin_px=(3.25, 8.5)),
        BevGridSpec(128, 128, 0.8),
    ], ids=["res1", "res0.3-centre", "res0.3-off-centre", "stock"])
    def test_matches_homogeneous_route_bitwise(self, grid):
        # the reference keeps the former route's in-grid test on the floored row and column
        rng = np.random.default_rng(62)
        ext = 0.75 * max(grid.shape) * grid.resolution_m
        random_pts = rng.uniform(-ext, ext, size=(3, 5, 7, 3))
        # pixel corners, so every point sits exactly on (or a rounding off) cell edges
        us, vs = np.meshgrid(np.arange(-1, grid.width_px + 2), np.arange(-1, grid.height_px + 2))
        edges = np.stack([*pixel_to_vehicle(us, vs, grid), np.zeros(us.shape)], axis=-1)[None]
        for pts in (random_pts, edges):
            asg = assign_cells(pts, grid)
            cells, in_grid = floored_cells(pts, grid)
            assert np.array_equal(asg.in_grid, in_grid)
            assert np.array_equal(asg.cells[in_grid], cells[in_grid])
            assert np.all(asg.cells[~in_grid] == grid.height_px * grid.width_px)

    def test_plan_gives_the_in_grid_points_in_order(self):
        # the plan once listed the in-grid points' flat indices, cells and pixels; the mask and
        # the per-point cells give each list back, in (depth, row, column) order
        rng = np.random.default_rng(63)
        pts = rng.uniform(-6.0, 6.0, size=(4, 3, 5, 3))
        asg = assign_cells(pts, self.GRID)
        cells, in_grid = floored_cells(pts, self.GRID)
        keep = in_grid.ravel()
        assert 0 < np.count_nonzero(keep) < keep.size
        assert np.array_equal(asg.in_grid, in_grid)
        points = np.flatnonzero(asg.in_grid)
        assert np.array_equal(points, np.arange(keep.size)[keep])
        assert np.array_equal(asg.cells[asg.in_grid], cells.ravel()[keep])
        assert np.array_equal(asg.cells.ravel()[points], cells.ravel()[keep])
        assert np.array_equal(points % 15, np.broadcast_to(np.arange(15), (4, 15)).ravel()[keep])
        assert asg.dropped == keep.size - np.count_nonzero(keep)

    def test_off_grid_points_carry_n_and_the_footprint_counts_each_cell(self):
        # one np.bincount of the plan's cells counts each cell's points; bin n holds the dropped ones
        rng = np.random.default_rng(69)
        grid = BevGridSpec(6, 5, 0.7, origin_px=(2.0, 3.5))
        n = grid.height_px * grid.width_px
        pts = rng.uniform(-4.0, 4.0, size=(3, 4, 6, 3))
        asg = assign_cells(pts, grid)
        assert np.all(asg.cells[~asg.in_grid] == n) and np.all(asg.cells[asg.in_grid] < n)
        counts = np.bincount(asg.cells.ravel(), minlength=n + 1)
        cells, in_grid = floored_cells(pts, grid)
        want = np.zeros(n, dtype=np.int64)
        for cell in cells[in_grid].tolist():
            want[cell] += 1
        assert np.array_equal(counts[:n], want) and 0 < np.count_nonzero(want) < n
        assert counts[n] == asg.dropped > 0 and type(asg.dropped) is int

    @pytest.mark.parametrize("grid, pts, in_grid", [
        (BevGridSpec(8, 8, 1e-320), [[1.0, -1.0, 0.0], [-3.0, 2.0, 0.0], [0.0, 0.0, 0.0]], [False, False, True]),
        (BevGridSpec(8, 8, 1.0), [[1.7e308, 0.0, 0.0], [0.0, -1e19, 0.0], [1e300, 1e300, 0.0]], [False] * 3),
    ], ids=["subnormal-resolution", "far-points"])
    def test_pixel_overflow_is_out_of_grid_without_warnings(self, grid, pts, in_grid):
        # pixel coordinates at inf or past int64; a numpy warning fails the test under the suite's settings
        asg = assign_cells(self.frustum_of(pts), grid)
        assert asg.in_grid.ravel().tolist() == in_grid
        assert asg.dropped == in_grid.count(False)
        assert np.all(asg.cells[~asg.in_grid] == 64)


class TestSplat:
    GRID = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))

    def test_single_points_land_in_cells(self):
        # x = 2 is row 2; y = +0.01 and -0.01 are columns 4 and 3
        bev, dropped = project_row([[2.0, 3.0]], self.GRID, f=100.0, cx=1.0)
        assert bev.shape == (1, 8, 8)
        assert dropped == 0
        assert bev[0, 2, 4] == 2.0
        assert bev[0, 2, 3] == 3.0
        assert bev.sum() == 5.0

    def test_collisions_sum(self):
        # y = -0.01 and -0.03: both in column 3
        bev, dropped = project_row([[2.0, 3.0]], self.GRID, f=100.0, cx=0.0)
        assert bev[0, 2, 3] == 5.0
        assert dropped == 0

    def test_a_cell_sum_past_the_float_range_is_refused_in_one_line(self):
        # the collision above at 1.7e308 a point, then one point weighted 1e300 * 1e10: a numpy warning
        # fails the test under the suite's settings
        refusal = "^project_volume: a BEV cell sum leaves the float range$"
        with pytest.raises(ValueError, match=refusal):
            project_row([[1.7e308, 1.7e308]], self.GRID, f=100.0, cx=0.0)
        depth = DepthDistribution(np.full((1, 1, 2), 1e10), (2.0,))
        with pytest.raises(ValueError, match=refusal):
            project_volume(FeatureMap(np.array([[[1e300, 0.0]]])), depth, forward_camera(cx=1.0, cy=0.5), self.GRID)

    def test_dropped_points_counted_and_excluded(self):
        # y = 0 lands in column 4; y = -20 is far outside
        bev, dropped = project_row([[2.0, 3.0]], self.GRID, f=0.1, cx=0.5)
        assert dropped == 1
        assert bev[0, 2, 4] == 2.0
        assert bev.sum() == 2.0

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(54)
        grid = BevGridSpec(64, 64, 0.8)
        for _ in range(10):
            c, d, h, w = (int(v) for v in rng.integers(1, 7, size=4))
            cam = forward_camera(f=float(rng.uniform(20.0, 100.0)), cx=w / 2.0, cy=h / 2.0)
            depth = DepthDistribution(rng.uniform(0.0, 2.0, size=(d, h, w)), np.linspace(2.0, 10.0, d))
            volume = FeatureMap(rng.uniform(0.0, 2.0, size=(c, h, w)))
            bev, dropped = project_volume(volume, depth, cam, grid)
            assert dropped == 0
            lifted = lift(volume, depth)
            for k in range(c):
                total = lifted[k].sum()
                assert abs(bev[k].sum() - total) <= 1e-12 * max(1.0, abs(total))

    def test_additivity(self):
        # the splat is linear in the lifted values, so in the depth weights too
        rng = np.random.default_rng(55)
        cam = turned_camera(rng, 6, 6)
        volume = FeatureMap(rng.normal(size=(3, 6, 6)))
        bins = np.array([1.0, 2.5])
        d1 = DepthDistribution(rng.uniform(0.0, 1.0, size=(2, 6, 6)), bins)
        d2 = DepthDistribution(rng.uniform(0.0, 1.0, size=(2, 6, 6)), bins)
        b1, _ = project_volume(volume, d1, cam, self.GRID)
        b2, _ = project_volume(volume, d2, cam, self.GRID)
        b12, _ = project_volume(volume, DepthDistribution(d1.data + d2.data, bins), cam, self.GRID)
        assert np.count_nonzero(b12) > 3
        assert np.allclose(b12, b1 + b2, rtol=1e-12, atol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(56)
        cam = turned_camera(rng, 8, 8)
        volume = FeatureMap(rng.normal(size=(2, 8, 8)))
        depth = DepthDistribution(rng.uniform(0.0, 1.0, size=(4, 8, 8)), np.linspace(1.0, 6.0, 4))
        first, d1 = project_volume(volume, depth, cam, self.GRID)
        second, d2 = project_volume(volume, depth, cam, self.GRID)
        assert np.array_equal(first, second)
        assert d1 == d2

    def test_matches_add_at_oracle_bitwise(self):
        rng = np.random.default_rng(61)
        for trial in range(12):
            c, d, h, w = (int(v) for v in rng.integers(1, 7, size=4))
            # The fine grid leaves most points outside; the coarse one piles
            # them onto a few cells, hit many times each.
            grid = BevGridSpec(8, 8, 0.3) if trial % 2 else BevGridSpec(4, 4, 4.0)
            depth = DepthDistribution(10.0 ** rng.uniform(-6, 6, size=(d, h, w)), np.cumsum(rng.uniform(0.2, 3.0, size=d)))
            feats = rng.normal(size=(c, h, w)) * 10.0 ** rng.uniform(-6, 6, size=(c, h, w))
            assert_matches_reference_pair(FeatureMap(feats), depth, turned_camera(rng, h, w), grid)

    def test_all_points_outside_grid(self):
        cam = forward_camera()
        far = CameraModel(cam.intrinsics, np.hstack([cam.rotation, [[50.0], [50.0], [0.0]]]))
        depth = DepthDistribution(np.ones((2, 2, 2)), [1.0, 2.0])
        bev, dropped = project_volume(FeatureMap(np.ones((3, 2, 2))), depth, far, self.GRID)
        assert bev.shape == (3, 8, 8)
        assert dropped == 8
        assert np.array_equal(bev, np.zeros((3, 8, 8)))

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            assign_cells(np.zeros((2, 2, 2)), self.GRID)
        with pytest.raises(ShapeError):
            assign_cells(np.zeros((1, 2, 2, 2)), self.GRID)


class TestProjectVolume:
    GRID = BevGridSpec(64, 64, 0.8)

    def test_matches_composed_stages_bitwise(self):
        rng = np.random.default_rng(57)
        cam = forward_camera()
        feats = rng.normal(size=(3, 8, 8))
        depth = normalized_depth(rng, 5, 8, 8, bins=np.linspace(2.0, 10.0, 5))
        volume = FeatureMap(feats)
        bev, dropped = project_volume(volume, depth, cam, self.GRID)
        fr = build_frustum(cam, depth.bins, (8, 8))
        ref, dropped_ref = add_at_splat(lift(volume, depth), fr, self.GRID)
        assert np.array_equal(bev, ref)
        assert dropped == dropped_ref
        assert bev.flags.c_contiguous

    def test_bench_shape_matches_reference_pair(self):
        volume, depth, cfg = bench_inputs(np.random.default_rng(64))
        _, dropped = assert_matches_reference_pair(volume, depth, cfg.camera, cfg.grid)
        assert 0 < dropped < 64 * 32 * 88

    def test_random_shapes_match_reference_pair(self):
        rng = np.random.default_rng(65)
        grids = [BevGridSpec(8, 8, 1.0), BevGridSpec(12, 9, 0.3, origin_px=(1.5, 10.0)),
                 BevGridSpec(16, 16, 0.3), BevGridSpec(6, 10, 0.8, origin_px=(7.0, 2.0))]
        saw_drops = False
        for trial in range(16):
            c, d, h, w = (int(v) for v in rng.integers(1, 7, size=4))
            cam = turned_camera(rng, h, w)
            bins = np.cumsum(rng.uniform(0.2, 3.0, size=d))
            depth = DepthDistribution(rng.uniform(0.0, 1.0, size=(d, h, w)), bins)
            feats = rng.normal(size=(c, h, w)) * 10.0 ** rng.uniform(-6, 6, size=(c, h, w))
            _, dropped = assert_matches_reference_pair(FeatureMap(feats), depth, cam, grids[trial % 4])
            saw_drops |= dropped > 0
        assert saw_drops

    def test_zero_channel_variance_matches_reference_pair(self):
        rng = np.random.default_rng(66)
        feats = np.broadcast_to(np.array([0.0, 1.0, -0.3, 7.5])[:, None, None], (4, 32, 88))
        _, depth, cfg = bench_inputs(rng, channels=4)
        grid = BevGridSpec(64, 64, 0.3, origin_px=(20.0, 60.0))
        for g in (cfg.grid, grid):
            bev, _ = assert_matches_reference_pair(FeatureMap(feats), depth, cfg.camera, g)
            assert not bev[0].any()

    def test_never_builds_the_lift_tensor(self, peak_bytes):
        # the (C, D, H, W) tensor alone would take 64 * 64 * 32 * 88 * 8 = 92 MB
        volume, depth, cfg = bench_inputs(np.random.default_rng(67))
        (bev, _), peak = peak_bytes(lambda: project_volume(volume, depth, cfg.camera, cfg.grid))
        assert bev.shape == (64, 128, 128)
        assert peak < 48e6

    def test_peak_at_bench_shape_holds_live_arrays_only(self, peak_bytes, monkeypatch):
        # the 8.4 MB output, the 4.3 MB frustum, its two 1.4 MB pixel coordinate maps, the 1.4 MB
        # cell of every point and a slab buffer per thread: measured 13.07 MB on two threads, 17.2 MB
        # when the plan listed the in-grid points, cells and pixels and the pool gathered from them,
        # and 20.1 MB when the plan also kept a floored row and column of every frustum point
        from bevkit import _threads

        monkeypatch.setattr(_threads, "usable_cpus", lambda: 2)
        volume, depth, cfg = bench_inputs(np.random.default_rng(67))
        _, peak = peak_bytes(lambda: project_volume(volume, depth, cfg.camera, cfg.grid))
        assert peak < 13.5e6, f"project_volume peaked at {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_float32_map_gives_the_bits_of_its_float64_upcast(self, cpus, monkeypatch):
        # the map stays float32, but every weight is formed in float64 from its exact upcast
        from bevkit import _threads

        monkeypatch.setattr(_threads, "usable_cpus", lambda: cpus)
        wide, depth, cfg = bench_inputs(np.random.default_rng(68))
        narrow = FeatureMap(wide.data.astype(np.float32))
        assert narrow.data.dtype == np.float32
        want = project_volume(FeatureMap(narrow.data.astype(float)), depth, cfg.camera, cfg.grid)
        bev, dropped = project_volume(narrow, depth, cfg.camera, cfg.grid)
        assert bev.dtype == np.float64 and np.array_equal(bev, want[0]) and dropped == want[1]

    def test_pool_adds_the_slabs_that_hold_an_in_grid_point(self, monkeypatch):
        # at bench shape the 5632 dropped points are exactly the two far slabs, so each
        # channel's np.bincount adds 62 slabs of 2816 points, not all 64
        from bevkit import _threads

        monkeypatch.setattr(_threads, "usable_cpus", lambda: 1)
        volume, depth, cfg = bench_inputs(np.random.default_rng(70), channels=3)
        held = assign_cells(build_frustum(cfg.camera, depth.bins, (32, 88)), cfg.grid).in_grid.any(axis=(1, 2))
        assert held[:62].all() and not held[62:].any()
        n, calls, bincount = 128 * 128, [], np.bincount

        def spy(x, weights=None, minlength=0):
            calls.append((x.size, weights.size, minlength))
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", spy)
        bev, dropped = project_volume(volume, depth, cfg.camera, cfg.grid)
        monkeypatch.setattr(np, "bincount", bincount)
        assert calls == [(62 * 2816, 62 * 2816, n + 1)] * 3
        assert dropped == 5632 == 2 * 2816 and type(dropped) is int
        assert_matches_reference_pair(volume, depth, cfg.camera, cfg.grid)

    def test_pool_skips_near_and_far_slabs_off_the_grid(self, monkeypatch):
        # a camera 6 m behind an 8 m grid: bins at x = -5 and 6, 14 m are off it, -2 and 2 m in it
        calls, bincount = [], np.bincount

        def spy(x, weights=None, minlength=0):
            calls.append(x.size)
            return bincount(x, weights, minlength)

        cam = forward_camera(f=20.0, cx=1.5, cy=1.0)
        cam = CameraModel(cam.intrinsics, np.hstack([cam.rotation, [[-6.0], [0.0], [1.5]]]))
        grid = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))
        rng = np.random.default_rng(71)
        volume = FeatureMap(rng.normal(size=(2, 2, 3)))
        depth = DepthDistribution(rng.uniform(0.0, 1.0, size=(5, 2, 3)), [1.0, 4.0, 8.0, 12.0, 20.0])
        monkeypatch.setattr(np, "bincount", spy)
        bev, dropped = project_volume(volume, depth, cam, grid)
        monkeypatch.setattr(np, "bincount", bincount)
        assert calls == [2 * 6] * 2 and dropped == 3 * 6
        assert np.count_nonzero(bev) > 4
        assert_matches_reference_pair(volume, depth, cam, grid)

    def test_an_off_grid_weight_past_the_float_range_is_cut_off_silently(self):
        # pixel 0 lands in cell (2, 4); pixels 1 and 2, at y = -20 and -40 m, share its slab off the
        # grid, where their weights overflow to +inf and -inf and their bin sums to NaN
        import warnings

        grid = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))
        cam = forward_camera(f=0.1, cx=0.5, cy=0.5)
        depth = DepthDistribution(np.array([[[1.0, 1e10, 1e10]]]), (2.0,))
        huge = FeatureMap(np.array([[[2.0, 1e300, -1e300]], [[3.0, 1e300, 1e300]]]))
        tame = FeatureMap(np.array([[[2.0, 0.0, 0.0]], [[3.0, 0.0, 0.0]]]))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            bev, dropped = project_volume(huge, depth, cam, grid)
        want, _ = project_volume(tame, depth, cam, grid)
        assert dropped == 2 and bev[0, 2, 4] == 2.0 and bev[1, 2, 4] == 3.0
        assert bev.tobytes() == want.tobytes()

    def test_channel_concat_equivalence(self):
        rng = np.random.default_rng(58)
        cam = forward_camera()
        feats = rng.normal(size=(5, 8, 8))
        depth = normalized_depth(rng, 4, 8, 8, bins=np.linspace(2.0, 8.0, 4))
        whole, _ = project_volume(FeatureMap(feats), depth, cam, self.GRID)
        head, _ = project_volume(FeatureMap(feats[:2]), depth, cam, self.GRID)
        tail, _ = project_volume(FeatureMap(feats[2:]), depth, cam, self.GRID)
        assert np.array_equal(whole, np.concatenate([head, tail], axis=0))

    def test_normalized_depth_conserves_feature_mass(self):
        # Forward camera with short range: every frustum point lands in
        # the grid, so each channel's BEV mass equals its image mass.
        rng = np.random.default_rng(59)
        cam = forward_camera()
        feats = rng.uniform(0.0, 1.0, size=(3, 8, 8))
        depth = normalized_depth(rng, 5, 8, 8, bins=np.linspace(2.0, 10.0, 5))
        bev, dropped = project_volume(FeatureMap(feats), depth, cam, self.GRID)
        assert dropped == 0
        for c in range(3):
            assert abs(bev[c].sum() - feats[c].sum()) <= 1e-9

    def test_depth_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(60)
        cam = forward_camera()
        feats = FeatureMap(rng.normal(size=(2, 8, 8)))
        depth = normalized_depth(rng, 3, 8, 9)
        with pytest.raises(ShapeError):
            project_volume(feats, depth, cam, self.GRID)
