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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        img = np.zeros((16, 16, 4))
        img[3, 5, 1] = bad
        with pytest.raises(nm.NumericError, match=r"camera_encode: image \(16, 16, 4\) contains NaN or Inf"):
            vt.camera_encode(img, encoder_params(np.random.default_rng(4)))

    def test_image_is_a_constant_on_the_tape(self):
        rng = np.random.default_rng(5)
        p = encoder_params(rng)
        img = rng.normal(size=(8, 8, 4))
        with Tape() as tape:
            out = vt.camera_encode(img, p)
            backward(tape, nm.sum(out))
        params = (p.conv1.lin.weight, p.conv1.lin.bias, p.conv2.lin.weight, p.conv2.lin.bias)
        assert tape.nodes[0].input_ids == (params[0].id, params[1].id)
        assert set(tape.gradients) == {t.id for t in params}
        with Tape() as ref:
            backward(ref, nm.sum(vt.camera_encode(Tensor(img), p)))
        for t in params:
            assert np.array_equal(tape.grad(t).data, ref.grad(t).data)

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

    def test_intrinsics_are_a_constant_on_the_tape(self):
        rng = np.random.default_rng(8)
        p = depth_net_params(rng)
        feat = Tensor(rng.normal(size=(4, 4, 6)))
        with Tape() as tape:
            vt.depth_net(feat, make_camera(), p)
        produced = {n.output_id for n in tape.nodes}
        leaves = {i for n in tape.nodes for i in n.input_ids} - produced
        params = {t.id for lin in (p.cam_embed, p.context, p.depth) for t in (lin.weight, lin.bias)}
        (tiling,) = leaves - params - {feat.id}
        assert [n.input_ids[0] for n in tape.nodes if n.op == "matmul"] == [tiling]
        assert params <= leaves


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
        assert gt.onehot[py, px].argmax() == 1  # the nearer depth 2.0 -> bin 1

    def test_empty_cloud_all_masked_out(self):
        gt = vt.depth_ground_truth(sc.PointCloud(np.zeros((0, 5))), make_camera(), BINS, 2)
        assert gt.mask.sum() == 0 and gt.onehot.sum() == 0

    def test_out_of_bin_range_point_invalid(self):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.array([[0.0, 0.0, 9.0, 1.0, 0.0]]))
        gt = vt.depth_ground_truth(pc, cam, BINS, stride=2)
        assert gt.mask.sum() == 0

    def test_stride_not_dividing_image_rejected(self):
        # At stride 3 a 16-pixel row gives 5 feature columns; u = 15.6 would
        # land in column 5 and wrap into the next feature row.
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3), name="front")
        pc = sc.PointCloud(np.array([[7.6 * 2.5 / 8, -7.0 * 2.5 / 8, 2.5, 1.0, 0.0]]))
        with pytest.raises(nm.DimensionError, match="front.*16x16.*stride 3"):
            vt.depth_ground_truth(pc, cam, BINS, stride=3)


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

    def test_matches_oracle_off_axis(self):
        # an eye off the z axis, so a fault in the translation term moves points in x and y
        R, t = geo.look_at_pose([1.0, -0.5, 1.4], [6.0, 1.0, 0.3])
        cam = CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                           rotation=R, translation=t, name="off")
        bins, bev = DepthBins(1.0, 9.0, 8), BEVConfig(-2.0, 8.0, -4.0, 6.0, 10)
        rng = np.random.default_rng(16)
        ctx = rng.normal(size=(8, 8, 3))
        dist = rng.dirichlet(np.ones(8), size=(8, 8))
        out = vt.ray_stream([Tensor(ctx)], [Tensor(dist)], [cam], bins, bev)
        expected = oracles.ray_stream_oracle([ctx], [dist], [cam], bins, bev)
        assert np.any(expected != 0)
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

    def test_no_cameras_rejected(self):
        with pytest.raises(nm.DimensionError, match="ray_stream: no cameras"):
            vt.ray_stream([], [], [], BINS8, BEV16)

    def test_camera_list_lengths_disagree_rejected(self):
        rng = np.random.default_rng(17)
        cams, ctxs, dists = ray_inputs(rng, n_cams=2)
        with pytest.raises(nm.DimensionError,
                           match="ray_stream: .*2 contexts, 2 distributions, 1 cameras"):
            vt.ray_stream([Tensor(c) for c in ctxs], [Tensor(d) for d in dists],
                          cams[:1], BINS8, BEV16)

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
        cell = oracles.bev_index(0.5, 0.25, BEV16)
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

    @pytest.mark.parametrize("rows", [
        np.zeros((0, 5)),  # empty cloud
        [[0.0, 0.0, -3.0, 1.0, 0.0]],  # behind the camera
        [[12.0, 0.0, 20.0, 1.0, 0.0]],  # seen at pixel (12.8, 8), outside the BEV
    ], ids=["empty", "unseen", "out_of_range"])
    def test_no_valid_point_zero_output_and_gradient(self, rows):
        cam = geo.CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                               rotation=np.eye(3), translation=np.zeros(3))
        pc = sc.PointCloud(np.asarray(rows, dtype=np.float64))
        feat = Tensor(np.random.default_rng(17).normal(size=(16, 16, 2)))
        weight = np.random.default_rng(18).normal(size=(16, 16, 2))
        with Tape() as tape:
            out = vt.point_stream(pc, [feat], [cam], BEV16)
            backward(tape, nm.sum(nm.mul(out, weight)))
        assert [node.op for node in tape.nodes] == ["point_stream", "mul_const", "sum"]
        assert out.shape == (16, 16, 2) and np.all(out.data == 0.0)
        assert np.all(tape.grad(feat).data == 0.0)

    def test_no_cameras_rejected(self):
        pc, _, _ = self.scene_inputs(np.random.default_rng(18), n_pts=3)
        with pytest.raises(nm.DimensionError, match="point_stream: no cameras"):
            vt.point_stream(pc, [], [], BEV16)

    def test_more_features_than_cameras_rejected(self):
        pc, cams, feats = self.scene_inputs(np.random.default_rng(19))
        with pytest.raises(nm.DimensionError, match="point_stream: .*2 features, 1 cameras"):
            vt.point_stream(pc, [Tensor(f) for f in feats], cams[:1], BEV16)


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


# --- the fused streams against the op chain they replace ---


def _row_scale(x, w):
    """Row i of x [R, C] times w[i], as a matmul by ones and a mul."""
    tiled = nm.matmul(nm.reshape(w, (w.shape[0], 1)), Tensor(np.ones((1, x.shape[1]))))
    return nm.mul(x, tiled)


def chain_ray_stream(contexts, dists, cams, bins, bev_cfg):
    """ray_stream as gather_rows / row scale / scatter_add / add; (output, kept, samples)."""
    n, c = bev_cfg.n, contexts[0].shape[2]
    total, kept, samples = None, 0, 0
    for ctx, dist, cam in zip(contexts, dists, cams):
        hp, wp, d = dist.shape
        s = cam.width // wp
        u, v = np.meshgrid((np.arange(wp) + 0.5) * s - 0.5, (np.arange(hp) + 0.5) * s - 0.5)
        uv = np.repeat(np.stack([u.ravel(), v.ravel()], axis=1), d, axis=0)
        world = geo.unproject_points(uv, np.tile(bins.centers(), hp * wp), cam)
        gx, gy, ok = geo.bev_indices(world[:, :2], bev_cfg)
        rows = nm.gather_rows(nm.reshape(ctx, (hp * wp, c)), np.repeat(np.arange(hp * wp), d))
        weighted = _row_scale(rows, nm.reshape(dist, (hp * wp * d,)))
        keep = np.flatnonzero(ok)
        contrib = nm.scatter_add(nm.gather_rows(weighted, keep), (gx * n + gy)[keep], n * n)
        total = contrib if total is None else nm.add(total, contrib)
        kept, samples = kept + keep.size, samples + ok.size
    return nm.reshape(total, (n, n, c)), kept, samples


def chain_point_stream(pc, feats, cams, bev_cfg):
    """point_stream as gather_rows / scatter_add / add / row scale; (output, views per point)."""
    n, c, n_pts = bev_cfg.n, feats[0].shape[2], len(pc)
    acc, views = None, np.zeros(n_pts)
    for feat, cam in zip(feats, cams):
        h, w, _ = feat.shape
        uv, depth, _ = geo.project_points(pc.points[:, :3], cam)
        px, py = np.rint(uv[:, 0]).astype(np.int64), np.rint(uv[:, 1]).astype(np.int64)
        ok = (depth > 1e-6) & (px >= 0) & (px < w) & (py >= 0) & (py < h)
        if not ok.any():
            continue
        rows = nm.gather_rows(nm.reshape(feat, (h * w, c)), py[ok] * w + px[ok])
        placed = nm.scatter_add(rows, np.flatnonzero(ok), n_pts)
        acc = placed if acc is None else nm.add(acc, placed)
        views += ok
    per_point = _row_scale(acc, Tensor(np.where(views > 0, 1.0 / np.maximum(views, 1), 0.0)))
    gx, gy, in_range = geo.bev_indices(pc.points[:, :2], bev_cfg)
    valid = np.flatnonzero((views > 0) & in_range)
    cells = gx[valid] * n + gy[valid]
    summed = nm.scatter_add(nm.gather_rows(per_point, valid), cells, n * n)
    counts = np.bincount(cells, minlength=n * n).astype(np.float64)
    meaned = _row_scale(summed, Tensor(np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)))
    return nm.reshape(meaned, (n, n, c)), views


def output_and_grads(stream, inputs, weight):
    """stream(inputs)'s output, the gradient of sum(output * weight) per input, tape nodes."""
    with Tape() as tape:
        out = stream(inputs)
        if isinstance(out, tuple):
            out = out[0]
        nodes = len(tape.nodes)
        backward(tape, nm.sum(nm.mul(out, Tensor(weight))))
    return out.data, [tape.grad(t).data for t in inputs], nodes


# Off-centre, so some bin-centre samples of both ray_inputs cameras leave the grid.
BEV_CROPPED = BEVConfig(-1.0, 6.0, -2.0, 5.0, 7)


class TestRayStreamIsTheOpChain:
    @pytest.mark.parametrize("n_cams", [1, 2])
    def test_output_and_gradients_bit_identical(self, n_cams):
        rng = np.random.default_rng(40 + n_cams)
        cams, ctxs, dists = ray_inputs(rng, n_cams=n_cams)
        inputs = [Tensor(a) for pair in zip(ctxs, dists) for a in pair]
        weight = rng.normal(size=(7, 7, 3))

        def fused(ts):
            return vt.ray_stream(ts[0::2], ts[1::2], cams, BINS8, BEV_CROPPED)

        def chain(ts):
            return chain_ray_stream(ts[0::2], ts[1::2], cams, BINS8, BEV_CROPPED)

        _, kept, samples = chain(inputs)
        assert 0 < kept < samples
        out, grads, nodes = output_and_grads(fused, inputs, weight)
        out_ref, grads_ref, _ = output_and_grads(chain, inputs, weight)
        assert nodes == 1
        assert np.array_equal(out, out_ref)
        assert np.any(out != 0)
        for g, g_ref in zip(grads, grads_ref):
            assert np.array_equal(g, g_ref)
            assert np.any(g != 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_at_detector_scale(self, seed):
        # Two 64x64 cameras, 16 context channels, 16 bins, 32x32 desk BEV. At
        # this size the distribution gradient's channel sum, run as a matmul
        # over the kept samples alone, rounds 1-2 entries differently.
        from bevkit.geometry import desk_bev_config, desk_depth_bins

        bev, bins, cams = desk_bev_config(), desk_depth_bins(), sc.default_rig(64, 64)
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in cams:
            logits = rng.normal(size=(32, 32, bins.count))
            e = np.exp(logits - logits.max(axis=2, keepdims=True))
            dist = e / e.sum(axis=2, keepdims=True)
            inputs += [Tensor(rng.normal(size=(32, 32, 16))), Tensor(dist)]
        weight = rng.normal(size=(bev.n, bev.n, 16))
        out, grads, _ = output_and_grads(
            lambda ts: vt.ray_stream(ts[0::2], ts[1::2], cams, bins, bev), inputs, weight
        )
        out_ref, grads_ref, _ = output_and_grads(
            lambda ts: chain_ray_stream(ts[0::2], ts[1::2], cams, bins, bev), inputs, weight
        )
        assert np.array_equal(out, out_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert np.array_equal(g, g_ref)

    @pytest.mark.parametrize("which", ["context", "distribution"])
    def test_gradient_matches_finite_differences(self, which):
        rng = np.random.default_rng(43)
        cams, ctxs, dists = ray_inputs(rng, n_cams=2, hp=4, wp=4, width=8, height=8)
        weight = Tensor(rng.normal(size=(7, 7, 3)))
        ctx_ts, dist_ts = [Tensor(a) for a in ctxs], [Tensor(a) for a in dists]

        def f(x):
            c = [x, ctx_ts[1]] if which == "context" else ctx_ts
            d = [x, dist_ts[1]] if which == "distribution" else dist_ts
            return nm.sum(nm.mul(vt.ray_stream(c, d, cams, BINS8, BEV_CROPPED), weight))

        x = ctx_ts[0] if which == "context" else dist_ts[0]
        assert nm.finite_diff_check(f, x) < 1e-6

    def test_context_channel_mismatch_names_camera(self):
        rng = np.random.default_rng(44)
        cams, ctxs, dists = ray_inputs(rng, n_cams=2)
        ctxs[1] = np.concatenate([ctxs[1], ctxs[1][..., :1]], axis=2)
        message = "ray_stream: camera c1: context has 4 channels, camera c0's has 3"
        with pytest.raises(nm.DimensionError, match=message):
            vt.ray_stream([Tensor(c) for c in ctxs], [Tensor(d) for d in dists],
                          cams, BINS8, BEV16)


class TestPointStreamIsTheOpChain:
    def inputs(self, rng):
        """Two overlapping cameras plus one facing away from every point."""
        cams, _, _ = ray_inputs(rng, n_cams=2)
        R, t = geo.look_at_pose([0, 0, 1.5], [-4.0, 0.0, 0.5])
        cams.append(CameraParams(fx=8, fy=8, cx=8, cy=8, width=16, height=16,
                                 rotation=R, translation=t, name="back"))
        n_pts = 80
        r, yaw = rng.uniform(1.0, 9.0, n_pts), rng.uniform(-0.4, 1.4, n_pts)
        # Every 8th point 12 m up, above every view.
        z = np.where(np.arange(n_pts) % 8 == 0, 12.0, rng.uniform(0.0, 1.0, n_pts))
        pts = np.stack([r * np.cos(yaw), r * np.sin(yaw), z, np.ones(n_pts), np.zeros(n_pts)],
                       axis=1)
        feats = [Tensor(rng.normal(size=(16, 16, 3))) for _ in cams]
        return sc.PointCloud(pts), cams, feats

    def test_output_and_gradients_bit_identical(self):
        rng = np.random.default_rng(45)
        pc, cams, feats = self.inputs(rng)
        weight = rng.normal(size=(16, 16, 3))
        _, views = chain_point_stream(pc, feats, cams, BEV16)
        assert views.max() == 2 and np.any(views == 0)
        out, grads, nodes = output_and_grads(
            lambda ts: vt.point_stream(pc, ts, cams, BEV16), feats, weight
        )
        out_ref, grads_ref, _ = output_and_grads(
            lambda ts: chain_point_stream(pc, ts, cams, BEV16), feats, weight
        )
        assert nodes == 1
        assert np.array_equal(out, out_ref)
        assert np.any(out != 0)
        for g, g_ref in zip(grads, grads_ref):
            assert np.array_equal(g, g_ref)
        assert np.any(grads[0] != 0) and np.any(grads[1] != 0)
        assert np.all(grads[2] == 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(46)
        pc, cams, feats = self.inputs(rng)
        cams, feats = cams[:2], feats[:2]
        weight = Tensor(rng.normal(size=(16, 16, 3)))

        def f(x):
            return nm.sum(nm.mul(vt.point_stream(pc, [feats[0], x], cams, BEV16), weight))

        assert nm.finite_diff_check(f, feats[1]) < 1e-6

    def test_feature_channel_mismatch_names_camera(self):
        pc, cams, feats = self.inputs(np.random.default_rng(47))
        feats[2] = Tensor(np.zeros((16, 16, 5)))
        with pytest.raises(nm.DimensionError,
                           match="point_stream: camera back: HR feature has 5 channels, "
                                 "camera c0's has 3"):
            vt.point_stream(pc, feats, cams, BEV16)


@pytest.mark.parametrize("placement", ["appended", "interleaved"])
def test_point_stream_ignores_points_outside_the_bev_range(placement):
    """Points off the BEV grid that a camera sees change neither the output nor any
    gradient: point_stream projects only in-range points."""
    rng = np.random.default_rng(50)
    cams, _, _ = ray_inputs(rng, n_cams=2)
    n_in, n_out = 60, 40
    r, yaw = rng.uniform(1.0, 7.5, n_in), rng.uniform(-0.4, 1.4, n_in)
    inside = np.stack([r * np.cos(yaw), r * np.sin(yaw), rng.uniform(0.0, 1.0, n_in),
                       np.ones(n_in), np.zeros(n_in)], axis=1)
    r, yaw = rng.uniform(11.5, 20.0, n_out), rng.uniform(-0.4, 1.4, n_out)
    outside = np.stack([r * np.cos(yaw), r * np.sin(yaw), rng.uniform(0.0, 1.0, n_out),
                        np.ones(n_out), np.zeros(n_out)], axis=1)
    assert not geo.bev_indices(outside[:, :2], BEV16)[2].any()
    seen = [geo.project_points(outside[:, :3], cam)[2] for cam in cams]
    assert all(mask.sum() >= 10 for mask in seen)
    if placement == "appended":
        both = np.concatenate([inside, outside])
    else:
        both = np.insert(outside, np.sort(rng.integers(0, n_out + 1, n_in)), inside, axis=0)
    feats = [Tensor(rng.normal(size=(16, 16, 3))) for _ in cams]
    weight = rng.normal(size=(16, 16, 3))
    out, grads, _ = output_and_grads(
        lambda ts: vt.point_stream(sc.PointCloud(inside), ts, cams, BEV16), feats, weight
    )
    out_both, grads_both, _ = output_and_grads(
        lambda ts: vt.point_stream(sc.PointCloud(both), ts, cams, BEV16), feats, weight
    )
    assert np.any(out != 0) and all(np.any(g != 0) for g in grads)
    assert np.array_equal(out_both, out)
    for g_both, g in zip(grads_both, grads):
        assert np.array_equal(g_both, g)


@pytest.mark.filterwarnings("error")  # numpy's "invalid value encountered in cast" is the fault
def test_point_stream_drops_a_far_point_without_a_cast():
    cam = sc.default_rig(16, 16)[0]
    feat = Tensor(np.random.default_rng(48).normal(size=(16, 16, 3)))
    near = [[3.0, 0.0, 0.5, 1.0, 0.0], [4.0, 0.6, 1.0, 1.0, 0.0], [2.5, -0.4, 0.2, 1.0, 0.0]]
    expected = vt.point_stream(sc.PointCloud(np.array(near)), [feat], [cam], BEV16)
    assert np.any(expected.data != 0.0)
    far = sc.PointCloud(np.array(near + [[0.0, 1e19, 1.0, 1.0, 0.0]]))
    np.testing.assert_array_equal(vt.point_stream(far, [feat], [cam], BEV16).data, expected.data)


def test_depth_net_rejects_a_rank_2_feature():
    p = depth_net_params(np.random.default_rng(49))
    with pytest.raises(nm.DimensionError,
                       match=r"depth_net: camera c: LR feature \(4, 6\) is not \[H, W, C\]"):
        vt.depth_net(Tensor(np.zeros((4, 6))), make_camera(), p)


def test_upsample_hr_rejects_a_rank_2_feature():
    lin = linear_init(np.random.default_rng(50), 4 * 3, 6)
    with pytest.raises(nm.DimensionError,
                       match=r"upsample_hr: LR feature \(8, 6\) is not \[H, W, C\]"):
        vt.upsample_hr(Tensor(np.zeros((8, 6))), lin, factor=2)


def test_depth_loss_multi_rejects_unequal_lists():
    gt = vt.DepthGroundTruth(onehot=np.zeros((2, 2, 4)), mask=np.ones((2, 2)))
    dist = Tensor(np.full((2, 2, 4), 0.25))
    with pytest.raises(nm.DimensionError, match=r"depth_loss_multi: one entry per camera "
                       r"needed, got 2 distributions, 1 targets"):
        vt.depth_loss_multi([dist, dist], [gt])


def test_depth_loss_multi_rejects_empty_lists():
    with pytest.raises(nm.DimensionError,
                       match=r"depth_loss_multi: no cameras \(0 distributions, 0 targets\)"):
        vt.depth_loss_multi([], [])
