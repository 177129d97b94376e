"""Tests for the lift-splat projection onto the BEV grid."""

import numpy as np
import pytest

from bevkit.correlation import FeatureMap
from bevkit.errors import InvalidCameraError, ShapeError
from bevkit.geometry import BevGridSpec, CameraModel
from bevkit.lss import (
    DepthDistribution,
    Frustum,
    assign_cells,
    build_frustum,
    lift,
    project_volume,
    splat,
)


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


def add_at_splat(lifted, frustum, grid):
    """Reference: the former splat, one ``np.add.at`` over an (H*W, C) buffer."""
    c = lifted.shape[0]
    asg = assign_cells(frustum, grid)
    keep = asg.in_grid.ravel()
    cells = asg.rows.ravel()[keep] * grid.width_px + asg.cols.ravel()[keep]
    vals = lifted.reshape(c, -1)[:, keep]
    bev_flat = np.zeros((grid.height_px * grid.width_px, c))
    np.add.at(bev_flat, cells, vals.T)
    dropped = int(keep.size - np.count_nonzero(keep))
    return bev_flat.T.reshape(c, grid.height_px, grid.width_px), dropped


class TestDepthDistribution:
    def test_valid(self):
        dd = DepthDistribution(np.ones((3, 2, 2)), [1.0, 2.0, 3.0])
        assert dd.num_bins == 3
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
        assert fr.points.shape == (3, 12, 16, 3)
        # Camera depth equals the bin center for every point.
        for d, b in enumerate(bins):
            assert np.allclose(fr.points[d, :, :, 2], b, rtol=0.0, atol=1e-12)
        # Pixel centers: column w maps to u = w + 0.5.
        d, h, w = 1, 3, 7
        expected = np.array([(7.5 - 8.0) / 100.0, (3.5 - 6.0) / 100.0, 1.0]) * 2.0
        assert np.allclose(fr.points[d, h, w], expected, atol=1e-12)
        # A principal point on a pixel center puts that column on the axis.
        cam2 = identity_camera(f=100.0, cx=7.5, cy=6.5)
        fr2 = build_frustum(cam2, bins, (12, 16))
        assert np.allclose(fr2.points[:, :, 7, 0], 0.0, atol=1e-12)
        assert np.allclose(fr2.points[:, 6, :, 1], 0.0, atol=1e-12)

    def test_rigid_extrinsics_applied(self):
        f, cx, cy = 50.0, 2.0, 2.0
        k = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([0.5, -1.0, 2.0])
        cam = CameraModel(k, np.hstack([rot, t[:, None]]))
        bins = np.array([3.0])
        fr = build_frustum(cam, bins, (4, 4))
        ray = np.array([(1.5 - cx) / f, (0.5 - cy) / f, 1.0]) * 3.0
        assert np.allclose(fr.points[0, 0, 1], rot @ ray + t, atol=1e-12)

    def test_forward_camera_points_ahead(self):
        cam = forward_camera()
        fr = build_frustum(cam, np.array([2.0, 5.0]), (8, 8))
        # Optical axis becomes vehicle +x; all depths positive ahead.
        assert np.all(fr.points[..., 0] > 0.0)
        assert np.allclose(fr.points[0, :, :, 0], 2.0, atol=1e-12)
        assert np.allclose(fr.points[1, :, :, 0], 5.0, atol=1e-12)

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

    def test_frustum_validation(self):
        with pytest.raises(ShapeError):
            Frustum(np.zeros((2, 3, 4, 2)))
        bad = np.zeros((1, 2, 2, 3))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Frustum(bad)


class TestLift:
    def test_outer_product_values(self):
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
        la = lift(FeatureMap(a), depth)
        lb = lift(FeatureMap(b), depth)
        lab = lift(FeatureMap(a + b), depth)
        assert np.allclose(lab, la + lb, rtol=1e-12, atol=1e-12)

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(53)
        feats = FeatureMap(rng.normal(size=(2, 4, 4)))
        depth = normalized_depth(rng, 3, 4, 5)
        with pytest.raises(ShapeError):
            lift(feats, depth)


class TestAssignCells:
    GRID = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))

    def frustum_of(self, xyz_list):
        pts = np.array(xyz_list, dtype=float).reshape(1, 1, -1, 3)
        return Frustum(pts)

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
        assert asg.cols.ravel().tolist() == [4, 2, 7]
        assert asg.rows.ravel().tolist() == [4, 2, 0]
        assert np.all(asg.in_grid)

    def test_lower_edge_belongs_to_cell(self):
        # v exactly 2.0 floors into row 2, not row 1.
        fr = self.frustum_of([[2.0, 0.0, 0.0]])
        asg = assign_cells(fr, self.GRID)
        assert asg.rows.ravel().tolist() == [2]

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


class TestSplat:
    GRID = BevGridSpec(8, 8, 1.0, origin_px=(4.0, 4.0))

    def test_single_points_land_in_cells(self):
        pts = np.array([[[[0.0, 0.0, 0.0], [2.0, -1.5, 0.0]]]])
        fr = Frustum(pts)
        lifted = np.array([[[[2.0, 3.0]]]])
        bev, dropped = splat(lifted, fr, self.GRID)
        assert bev.shape == (1, 8, 8)
        assert dropped == 0
        assert bev[0, 4, 4] == 2.0
        assert bev[0, 2, 2] == 3.0
        assert bev.sum() == 5.0

    def test_collisions_sum(self):
        pts = np.array([[[[0.0, 0.0, 0.0], [-0.1, 0.2, 0.0]]]])  # same cell
        fr = Frustum(pts)
        lifted = np.array([[[[2.0, 3.0]]]])
        bev, dropped = splat(lifted, fr, self.GRID)
        assert bev[0, 4, 4] == 5.0
        assert dropped == 0

    def test_dropped_points_counted_and_excluded(self):
        pts = np.array([[[[0.0, 0.0, 0.0], [0.0, 100.0, 0.0]]]])
        fr = Frustum(pts)
        lifted = np.array([[[[2.0, 3.0]]]])
        bev, dropped = splat(lifted, fr, self.GRID)
        assert dropped == 1
        assert bev.sum() == 2.0

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            pts = rng.uniform(-3.9, 3.9, size=(3, 4, 5, 3))
            fr = Frustum(pts)
            lifted = rng.uniform(0.0, 2.0, size=(2, 3, 4, 5))
            bev, dropped = splat(lifted, fr, self.GRID)
            assert dropped == 0
            for c in range(2):
                total = lifted[c].sum()
                assert abs(bev[c].sum() - total) <= 1e-12 * max(1.0, abs(total))

    def test_additivity(self):
        rng = np.random.default_rng(55)
        pts = rng.uniform(-3.9, 3.9, size=(2, 6, 6, 3))
        fr = Frustum(pts)
        l1 = rng.normal(size=(3, 2, 6, 6))
        l2 = rng.normal(size=(3, 2, 6, 6))
        b1, _ = splat(l1, fr, self.GRID)
        b2, _ = splat(l2, fr, self.GRID)
        b12, _ = splat(l1 + l2, fr, self.GRID)
        assert np.allclose(b12, b1 + b2, rtol=1e-12, atol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(56)
        pts = rng.uniform(-5.0, 5.0, size=(4, 8, 8, 3))
        fr = Frustum(pts)
        lifted = rng.normal(size=(2, 4, 8, 8))
        first, d1 = splat(lifted, fr, self.GRID)
        second, d2 = splat(lifted, fr, self.GRID)
        assert np.array_equal(first, second)
        assert d1 == d2

    def test_matches_add_at_oracle_bitwise(self):
        rng = np.random.default_rng(61)
        for trial in range(12):
            d, h, w = (int(v) for v in rng.integers(1, 7, size=3))
            # The wide spread puts most points outside the 8x8 grid; the
            # narrow one piles them onto a few cells, hit many times each.
            spread = 8.0 if trial % 2 else 1.5
            pts = rng.uniform(-spread, spread, size=(d, h, w, 3))
            fr = Frustum(pts)
            lifted = rng.normal(size=(3, d, h, w)) * 10.0 ** rng.uniform(-6, 6, size=(3, d, h, w))
            bev, dropped = splat(lifted, fr, self.GRID)
            ref, dropped_ref = add_at_splat(lifted, fr, self.GRID)
            assert np.array_equal(bev, ref)
            assert dropped == dropped_ref

    def test_all_points_outside_grid(self):
        fr = Frustum(np.full((2, 2, 2, 3), 50.0))
        bev, dropped = splat(np.ones((3, 2, 2, 2)), fr, self.GRID)
        assert bev.shape == (3, 8, 8)
        assert dropped == 8
        assert np.array_equal(bev, np.zeros((3, 8, 8)))

    def test_shape_checks(self):
        fr = Frustum(np.zeros((1, 2, 2, 3)))
        with pytest.raises(ShapeError):
            splat(np.zeros((2, 2, 2)), fr, self.GRID)
        with pytest.raises(ShapeError):
            splat(np.zeros((1, 2, 2, 2)), fr, self.GRID)


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
        bev_ref, dropped_ref = splat(lift(volume, depth), fr, self.GRID)
        assert np.array_equal(bev, bev_ref)
        assert dropped == dropped_ref
        assert bev.flags.c_contiguous
        oracle, dropped_oracle = add_at_splat(lift(volume, depth), fr, self.GRID)
        assert np.array_equal(bev, oracle)
        assert dropped == dropped_oracle

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
