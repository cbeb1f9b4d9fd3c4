import math

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import numerics as nm
from bevkit import oracles
from bevkit import scene as sc
from bevkit import view_transform as vt
from bevkit.geometry import BEVConfig, CameraParams, DepthBins
from bevkit.layers import conv_init, linear_init
from bevkit.numerics import Tape, Tensor, backward


def make_camera(rng=None, width=16, height=16, name="c"):
    R, t = geo.look_at_pose([0.0, 0.0, 1.5], [4.0, 0.0, 0.5])
    return CameraParams(
        fx=width / 2.0, fy=height / 2.0, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, rotation=R, translation=t, name=name,
    )


def encoder_params(rng, cin=4, cf=6, stride=2):
    return vt.CameraEncoderParams(
        conv1=conv_init(rng, cf, cin, kernel=3, stride=stride, pad=1),
        conv2=conv_init(rng, cf, cf, kernel=3, stride=1, pad=1),
    )


class TestCameraEncode:
    def test_zero_image_zero_feature(self):
        rng = np.random.default_rng(0)
        p = encoder_params(rng)
        out = vt.camera_encode(np.zeros((16, 16, 4)), p)
        assert np.all(out.data == 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        out = vt.camera_encode(np.zeros((64, 64, 4)), encoder_params(rng))
        assert out.shape == (32, 32, 6)

    def test_indivisible_shape_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(nm.DimensionError):
            vt.camera_encode(np.zeros((15, 16, 4)), encoder_params(rng))

    def test_matches_convolution_loop_oracle(self):
        rng = np.random.default_rng(3)
        p = encoder_params(rng)
        img = rng.normal(size=(8, 8, 4))
        out = vt.camera_encode(img, p)
        h1 = oracles.conv2d_oracle(
            img, p.conv1.lin.weight.data, p.conv1.lin.bias.data, 3, 2, 1
        )
        expected = oracles.conv2d_oracle(
            np.maximum(h1, 0.0), p.conv2.lin.weight.data, p.conv2.lin.bias.data, 3, 1, 1
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestUpsample:
    def test_zero_to_zero(self):
        rng = np.random.default_rng(4)
        lin = linear_init(rng, 4 * 3, 6)
        out = vt.upsample_hr(Tensor(np.zeros((8, 8, 6))), lin, factor=2)
        assert out.shape == (16, 16, 3)
        assert np.all(out.data == 0.0)

    def test_matches_transposed_conv_oracle(self):
        rng = np.random.default_rng(5)
        lin = linear_init(rng, 4 * 3, 6)
        feat = rng.normal(size=(4, 5, 6))
        out = vt.upsample_hr(Tensor(feat), lin, factor=2)
        expected = oracles.upsample_oracle(feat, lin.weight.data, lin.bias.data, 2)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def depth_net_params(rng, cf=6, ce=4, ct=5, d=4):
    return vt.DepthNetParams(
        cam_embed=linear_init(rng, ce, 4),
        context=linear_init(rng, ct, cf + ce),
        depth=linear_init(rng, d, cf + ce),
    )


class TestDepthNet:
    def test_distribution_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = depth_net_params(rng)
        ctx, dist = vt.depth_net(Tensor(rng.normal(size=(4, 4, 6))), make_camera(), p)
        assert ctx.shape == (4, 4, 5)
        np.testing.assert_allclose(dist.data.sum(axis=2), 1.0, atol=1e-9)

    def test_zero_everything_gives_uniform(self):
        zero = lambda o, i: nm.LinearParams(Tensor(np.zeros((o, i))), Tensor(np.zeros(o)))
        p = vt.DepthNetParams(cam_embed=zero(4, 4), context=zero(5, 10), depth=zero(4, 10))
        _, dist = vt.depth_net(Tensor(np.zeros((3, 3, 6))), make_camera(), p)
        np.testing.assert_allclose(dist.data, 0.25, atol=1e-12)

    def test_matches_primitive_replay(self):
        rng = np.random.default_rng(7)
        p = depth_net_params(rng)
        cam = make_camera()
        feat = rng.normal(size=(4, 4, 6))
        ctx, dist = vt.depth_net(Tensor(feat), cam, p)
        intr = np.array([cam.fx / cam.width, cam.fy / cam.height,
                         cam.cx / cam.width, cam.cy / cam.height])
        emb = p.cam_embed.weight.data @ intr + p.cam_embed.bias.data
        rows = np.concatenate([feat.reshape(16, 6), np.tile(emb, (16, 1))], axis=1)
        ctx_exp = rows @ p.context.weight.data.T + p.context.bias.data
        logits = rows @ p.depth.weight.data.T + p.depth.bias.data
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        dist_exp = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(ctx.data.reshape(16, 5), ctx_exp, atol=1e-12)
        np.testing.assert_allclose(dist.data.reshape(16, 4), dist_exp, atol=1e-12)


BINS = DepthBins(1.0, 5.0, 4)


class TestDepthGroundTruth:
    def test_single_point(self):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.array([[0.0, 0.0, 2.5, 1.0, 0.0]]))
        gt = vt.depth_ground_truth(pc, cam, BINS, stride=2)
        assert gt.mask.sum() == 1
        py, px = np.argwhere(gt.mask == 1)[0]
        assert gt.onehot[py, px].argmax() == 1  # depth 2.5 -> bin 1
        assert gt.onehot[py, px].sum() == 1.0

    def test_nearest_point_wins(self):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.array([
            [0.0, 0.0, 4.5, 1.0, 0.0],
            [0.0, 0.0, 2.0, 1.0, 0.0],
        ]))
        gt = vt.depth_ground_truth(pc, cam, BINS, stride=2)
        py, px = np.argwhere(gt.mask == 1)[0]
        assert gt.onehot[py, px].argmax() == geo.depth_to_bin(2.0, BINS)

    def test_empty_cloud_all_masked_out(self):
        gt = vt.depth_ground_truth(sc.PointCloud(np.zeros((0, 5))), make_camera(), BINS, 2)
        assert gt.mask.sum() == 0 and gt.onehot.sum() == 0

    def test_out_of_bin_range_point_invalid(self):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.array([[0.0, 0.0, 9.0, 1.0, 0.0]]))
        gt = vt.depth_ground_truth(pc, cam, BINS, stride=2)
        assert gt.mask.sum() == 0


class TestDepthLoss:
    def test_perfect_prediction_near_zero(self):
        onehot = np.zeros((2, 2, 4))
        onehot[..., 1] = 1.0
        gt = vt.DepthGroundTruth(onehot=onehot, mask=np.ones((2, 2)))
        loss = vt.depth_loss_multi([Tensor(onehot)], [gt])
        assert loss.item() <= 4 * 1e-6

    def test_uniform_two_bin_value(self):
        # one valid pixel, D = 2: -(ln 0.5 + ln 0.5) = 2 ln 2
        onehot = np.zeros((1, 1, 2))
        onehot[0, 0, 0] = 1.0
        gt = vt.DepthGroundTruth(onehot=onehot, mask=np.ones((1, 1)))
        dist = Tensor(np.full((1, 1, 2), 0.5))
        loss = vt.depth_loss_multi([dist], [gt])
        assert abs(loss.item() - 2 * math.log(2)) < 1e-9

    def test_all_invalid_gives_zero(self):
        gt = vt.DepthGroundTruth(onehot=np.zeros((2, 2, 4)), mask=np.zeros((2, 2)))
        rng = np.random.default_rng(8)
        dist = nm.softmax(Tensor(rng.normal(size=(2, 2, 4))), axis=2)
        assert vt.depth_loss_multi([dist], [gt]).item() == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        onehot = np.zeros((2, 2, 4))
        for y in range(2):
            for x in range(2):
                onehot[y, x, rng.integers(0, 4)] = 1.0
        gt = vt.DepthGroundTruth(onehot=onehot, mask=np.array([[1.0, 0.0], [1.0, 1.0]]))

        def f(logits):
            return vt.depth_loss_multi([nm.softmax(nm.reshape(logits, (2, 2, 4)), axis=2)], [gt])

        err = nm.finite_diff_check(f, Tensor(rng.normal(size=16)))
        assert err < 1e-4

    def test_two_cameras_pool_by_valid_pixel_count(self):
        rng = np.random.default_rng(12)
        masks = [np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])]
        dists, gts = [], []
        for mask in masks:
            onehot = np.zeros(mask.shape + (4,))
            onehot[..., 2] = 1.0
            dists.append(nm.softmax(Tensor(rng.normal(size=onehot.shape)), axis=2))
            gts.append(vt.DepthGroundTruth(onehot=onehot, mask=mask))
        singles = [vt.depth_loss_multi([d], [g]).item() for d, g in zip(dists, gts)]
        pooled = vt.depth_loss_multi(dists, gts).item()
        assert abs(pooled - (3 * singles[0] + 2 * singles[1]) / 5) < 1e-12

    @pytest.mark.parametrize("dist_hw, mask_hw", [((3, 3), (2, 2)), ((2, 2), (3, 3))])
    def test_shape_mismatch_rejected(self, dist_hw, mask_hw):
        gt = vt.DepthGroundTruth(onehot=np.zeros((2, 2, 4)), mask=np.ones(mask_hw))
        dist = Tensor(np.full(dist_hw + (4,), 0.25))
        with pytest.raises(nm.DimensionError, match="distribution .* vs target .* mask"):
            vt.depth_loss_multi([dist], [gt])


def ray_inputs(rng, n_cams=2, hp=8, wp=8, d=4, ct=3, width=16, height=16):
    cams, ctxs, dists = [], [], []
    for i in range(n_cams):
        yaw = i * np.pi / 3
        R, t = geo.look_at_pose([0, 0, 1.5], [4 * np.cos(yaw), 4 * np.sin(yaw), 0.5])
        cams.append(CameraParams(fx=8, fy=8, cx=8, cy=8, width=width, height=height,
                                 rotation=R, translation=t, name=f"c{i}"))
        ctxs.append(rng.normal(size=(hp, wp, ct)))
        logits = rng.normal(size=(hp, wp, d))
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        dists.append(e / e.sum(axis=2, keepdims=True))
    return cams, ctxs, dists


BEV16 = BEVConfig(-8.0, 8.0, -8.0, 8.0, 16)
BINS8 = DepthBins(0.5, 8.5, 4)


class TestRayStream:
    def test_matches_exhaustive_scatter_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cams, ctxs, dists = ray_inputs(rng)
            out = vt.ray_stream([Tensor(c) for c in ctxs], [Tensor(d) for d in dists],
                                cams, BINS8, BEV16)
            expected = oracles.ray_stream_oracle(ctxs, dists, cams, BINS8, BEV16)
            assert np.max(np.abs(out.data - expected)) < 1e-9

    def test_one_hot_concentration(self):
        rng = np.random.default_rng(10)
        cams, ctxs, dists = ray_inputs(rng, n_cams=1)
        onehot = np.zeros_like(dists[0])
        picks = rng.integers(0, 4, size=(8, 8))
        for y in range(8):
            for x in range(8):
                onehot[y, x, picks[y, x]] = 1.0
        counts = oracles.ray_pixel_cell_counts([onehot], cams[:1], BINS8, BEV16)
        assert max(counts) <= 1

    def test_uniform_distribution_splits_mass(self):
        # camera straight down the x axis; one pixel, bins land in distinct cells
        R, t = geo.look_at_pose([0, 0, 1.0], [8.0, 0.0, 1.0])
        cam = CameraParams(fx=2, fy=2, cx=1, cy=1, width=2, height=2,
                           rotation=R, translation=t)
        ctx = np.zeros((1, 1, 2))
        ctx[0, 0] = [1.0, 2.0]
        dist = np.full((1, 1, 4), 0.25)
        out = vt.ray_stream([Tensor(ctx)], [Tensor(dist)], [cam], BINS8, BEV16)
        cells = np.argwhere(np.abs(out.data).sum(axis=2) > 0)
        assert len(cells) == 4
        for cell in cells:
            np.testing.assert_allclose(out.data[cell[0], cell[1]], [0.25, 0.5], atol=1e-12)

    def test_linearity_in_context_and_distribution(self):
        rng = np.random.default_rng(11)
        cams, ctxs, dists = ray_inputs(rng, n_cams=1)
        base = vt.ray_stream([Tensor(ctxs[0])], [Tensor(dists[0])], cams, BINS8, BEV16)
        scaled_ctx = vt.ray_stream([Tensor(3.0 * ctxs[0])], [Tensor(dists[0])], cams, BINS8, BEV16)
        np.testing.assert_allclose(scaled_ctx.data, 3.0 * base.data, atol=1e-12)
        scaled_dist = vt.ray_stream([Tensor(ctxs[0])], [Tensor(0.5 * dists[0])], cams, BINS8, BEV16)
        np.testing.assert_allclose(scaled_dist.data, 0.5 * base.data, atol=1e-12)

    def test_height_not_matching_width_stride_rejected(self):
        # 16x16 camera over 4x8 features: the width alone gives stride 2
        rng = np.random.default_rng(14)
        cams, ctxs, dists = ray_inputs(rng, n_cams=1, hp=4, wp=8)
        with pytest.raises(nm.DimensionError, match="c0.*16x16.*4x8"):
            vt.ray_stream([Tensor(ctxs[0])], [Tensor(dists[0])], cams, BINS8, BEV16)

    def test_bin_count_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        cams, ctxs, dists = ray_inputs(rng, n_cams=1, d=5)
        with pytest.raises(nm.DimensionError, match=r"c0.*\(8, 8, 5\) over 4 bins"):
            vt.ray_stream([Tensor(ctxs[0])], [Tensor(dists[0])], cams, BINS8, BEV16)

    def test_context_distribution_grid_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        cams, ctxs, dists = ray_inputs(rng, n_cams=1)
        shapes = r"c0: context \(8, 8, 3\) vs distribution \(8, 4, 4\)"
        with pytest.raises(nm.DimensionError, match=shapes):
            vt.ray_stream([Tensor(ctxs[0])], [Tensor(dists[0][:, :4])], cams, BINS8, BEV16)


class TestPointStream:
    def scene_inputs(self, rng, n_pts=60, n_cams=2, chr_=3):
        pts = np.concatenate([
            rng.uniform(-7, 7, size=(n_pts, 2)),
            rng.uniform(0.0, 2.0, size=(n_pts, 1)),
            np.ones((n_pts, 1)),
            np.zeros((n_pts, 1)),
        ], axis=1)
        cams = []
        feats = []
        for i in range(n_cams):
            yaw = i * 2 * np.pi / 3
            R, t = geo.look_at_pose([0, 0, 1.4], [4 * np.cos(yaw), 4 * np.sin(yaw), 0.6])
            cams.append(CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                                     rotation=R, translation=t, name=f"c{i}"))
            feats.append(rng.normal(size=(16, 16, chr_)))
        return sc.PointCloud(pts), cams, feats

    def test_matches_per_point_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            pc, cams, feats = self.scene_inputs(rng)
            out = vt.point_stream(pc, [Tensor(f) for f in feats], cams, BEV16)
            expected = oracles.point_stream_oracle(pc.points, feats, cams, BEV16)
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_single_visible_point_exact_feature(self):
        rng = np.random.default_rng(12)
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        feat = rng.normal(size=(16, 16, 3))
        pc = sc.PointCloud(np.array([[0.5, 0.25, 4.0, 1.0, 0.0]]))
        # identity pose: camera looks along +z; point at z=4 -> pixel (9, 8.5)
        out = vt.point_stream(pc, [Tensor(feat)], [cam], BEV16)
        cell = geo.bev_index(0.5, 0.25, BEV16)
        u = 8 + 8 * 0.5 / 4.0
        v = 8 + 8 * 0.25 / 4.0
        np.testing.assert_allclose(
            out.data[cell[0], cell[1]], feat[int(round(v)), int(round(u))], atol=1e-15
        )

    def test_point_outside_all_views_contributes_nothing(self):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.array([[0.0, 0.0, -3.0, 1.0, 0.0]]))  # behind camera
        out = vt.point_stream(pc, [Tensor(np.ones((16, 16, 2)))], [cam], BEV16)
        assert np.all(out.data == 0.0)


class TestFuseCameraBev:
    def test_zeros_to_zeros(self):
        rng = np.random.default_rng(14)
        p = vt.BevFuseParams(
            conv1=conv_init(rng, 6, 5, 3, 1, 1), conv2=conv_init(rng, 6, 6, 3, 1, 1)
        )
        out = vt.fuse_camera_bev(Tensor(np.zeros((16, 16, 3))), Tensor(np.zeros((16, 16, 2))), p)
        assert out.shape == (16, 16, 6)
        assert np.all(out.data == 0.0)

    def test_matches_conv_oracle(self):
        rng = np.random.default_rng(15)
        p = vt.BevFuseParams(
            conv1=conv_init(rng, 6, 5, 3, 1, 1), conv2=conv_init(rng, 6, 6, 3, 1, 1)
        )
        a = rng.normal(size=(8, 8, 3))
        b = rng.normal(size=(8, 8, 2))
        out = vt.fuse_camera_bev(Tensor(a), Tensor(b), p)
        merged = np.concatenate([a, b], axis=2)
        h1 = oracles.conv2d_oracle(merged, p.conv1.lin.weight.data, p.conv1.lin.bias.data, 3, 1, 1)
        expected = oracles.conv2d_oracle(np.maximum(h1, 0), p.conv2.lin.weight.data, p.conv2.lin.bias.data, 3, 1, 1)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        p = vt.BevFuseParams(
            conv1=conv_init(rng, 6, 5, 3, 1, 1), conv2=conv_init(rng, 6, 6, 3, 1, 1)
        )
        with pytest.raises(nm.DimensionError):
            vt.fuse_camera_bev(Tensor(np.zeros((16, 16, 3))), Tensor(np.zeros((8, 8, 2))), p)


def test_sparsity_point_bev_at_most_ray_bev():
    """On default synthetic scenes the point stream fills no more cells than
    the ray stream (it only writes where LiDAR lands)."""
    from bevkit.geometry import desk_bev_config, desk_depth_bins

    bev = desk_bev_config()
    bins = desk_depth_bins()
    rng = np.random.default_rng(17)
    for seed in range(3):
        scene = sc.generate_scene(5, bev, seed=seed)
        pc = sc.lidar_scan(scene, sc.default_lidar_origin(), 128, sc.default_elevations(8))
        cams = sc.default_rig(width=32, height=32)
        ctxs, dists, feats = [], [], []
        for cam in cams:
            ctxs.append(Tensor(rng.normal(size=(16, 16, 3))))
            logits = rng.normal(size=(16, 16, bins.count))
            e = np.exp(logits - logits.max(axis=2, keepdims=True))
            dists.append(Tensor(e / e.sum(axis=2, keepdims=True)))
            feats.append(Tensor(rng.normal(size=(32, 32, 3))))
        ray = vt.ray_stream(ctxs, dists, cams, bins, bev)
        point = vt.point_stream(pc, feats, cams, bev)
        ray_cells = int((np.abs(ray.data).sum(axis=2) > 1e-12).sum())
        point_cells = int((np.abs(point.data).sum(axis=2) > 1e-12).sum())
        assert point_cells <= ray_cells


def test_ray_stream_gradients_flow():
    rng = np.random.default_rng(18)
    cams, ctxs, dists = ray_inputs(rng, n_cams=1)
    ctx_t, dist_t = Tensor(ctxs[0]), Tensor(dists[0])
    with Tape() as tape:
        out = vt.ray_stream([ctx_t], [dist_t], cams, BINS8, BEV16)
        loss = nm.sum(nm.mul(out, out))
        backward(tape, loss)
    assert np.any(tape.grad(ctx_t).data != 0)
    assert np.any(tape.grad(dist_t).data != 0)
