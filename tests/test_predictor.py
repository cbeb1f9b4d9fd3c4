import warnings

import numpy as np
import pytest

from bevkit import numerics as nm
from bevkit import oracles
from bevkit import predictor as pr
from bevkit.geometry import BEVConfig
from bevkit.layers import (
    AttentionParams,
    FfnParams,
    attention_init,
    conv_init,
    ffn_init,
    linear_init,
)
from bevkit.numerics import DimensionError, LinearParams, Tensor
from bevkit.scene import ObjectBox


BEV16 = BEVConfig(-8.0, 8.0, -8.0, 8.0, 16)


def zeros_linear(out_dim, in_dim):
    return LinearParams(Tensor(np.zeros((out_dim, in_dim))), Tensor(np.zeros(out_dim)))


def zeros_ffn(out_dim, hidden, in_dim):
    return FfnParams(hidden=zeros_linear(hidden, in_dim), out=zeros_linear(out_dim, hidden))


class TestHeatmapHead:
    def params(self, rng, cin=4, n_cls=3, zero=False):
        if zero:
            return pr.HeatmapParams(
                conv1=pr.Conv2dParams(zeros_linear(6, 9 * cin), 3, 1, 1),
                conv2=pr.Conv2dParams(zeros_linear(n_cls, 9 * 6), 3, 1, 1),
            )
        return pr.HeatmapParams(
            conv1=conv_init(rng, 6, cin, 3, 1, 1),
            conv2=conv_init(rng, n_cls, 6, 3, 1, 1),
        )

    def test_zero_input_zero_params_gives_half(self):
        p = self.params(None, zero=True)
        out = pr.heatmap_head(Tensor(np.zeros((8, 8, 4))), p)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        out = pr.heatmap_head(Tensor(rng.normal(size=(8, 8, 4)) * 5), self.params(rng))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_matches_replay_oracle(self):
        rng = np.random.default_rng(1)
        p = self.params(rng)
        x = rng.normal(size=(8, 8, 4))
        out = pr.heatmap_head(Tensor(x), p)
        h1 = oracles.conv2d_oracle(x, p.conv1.lin.weight.data, p.conv1.lin.bias.data, 3, 1, 1)
        h2 = oracles.conv2d_oracle(np.maximum(h1, 0), p.conv2.lin.weight.data, p.conv2.lin.bias.data, 3, 1, 1)
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-h2)), atol=1e-12)


class TestSelectCandidates:
    def test_single_peak(self):
        h = np.full((8, 8, 3), 0.1)
        h[3, 4, 2] = 0.9
        cands = pr.select_candidates(h, 1)
        assert cands.k == 1
        assert tuple(cands.cells[0]) == (3, 4)
        assert cands.classes[0] == 2
        assert cands.scores[0] == 0.9

    def test_constant_plateau_tie_break(self):
        h = np.full((4, 4, 2), 0.5)
        cands = pr.select_candidates(h, 5)
        assert cands.k == 5
        expected = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
        assert [tuple(c) for c in cands.cells] == expected
        assert np.all(cands.classes == 0)

    def test_matches_bruteforce_scan(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h = rng.uniform(size=(16, 16, 3))
            if seed % 5 == 0:
                h[:] = np.round(h, 1)  # force plateaus
            cands = pr.select_candidates(h, 10)
            expected = oracles.select_candidates_oracle(h, 10)
            got = [(int(gx), int(gy), int(c)) for (gx, gy), c in zip(cands.cells, cands.classes)]
            assert got == expected

    def test_fewer_than_k(self):
        h = np.zeros((3, 3, 1))
        h[1, 1, 0] = 1.0
        cands = pr.select_candidates(h, 9)
        # only strictly-greater-or-equal cells are eligible; the peak dominates
        assert cands.k >= 1
        assert tuple(cands.cells[0]) == (1, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_eligible_cells_match_a_per_cell_loop(self, seed):
        """Every eligible cell (k covers the grid) against an explicit 3x3 neighbour loop,
        on a heatmap quantized to four levels: plateaus, tied neighbours and peaks on the
        border and in the corners."""
        rng = np.random.default_rng(seed)
        h = rng.integers(0, 4, size=(9, 7, 2)).astype(np.float64) / 4.0
        h[0, 0] = h[-1, 3] = h[4, -1] = 1.0
        score = h.max(axis=2)
        expected = set()
        for gx in range(9):
            for gy in range(7):
                around = [score[nx, ny] for nx in range(max(gx - 1, 0), min(gx + 2, 9))
                          for ny in range(max(gy - 1, 0), min(gy + 2, 7))]
                if score[gx, gy] >= max(around):
                    expected.add((gx, gy))
        cands = pr.select_candidates(h, 9 * 7)
        assert {(int(gx), int(gy)) for gx, gy in cands.cells} == expected
        assert {(0, 0), (8, 3), (4, 6)} <= expected and len(expected) < 9 * 7

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(40)
        cands = pr.select_candidates(rng.uniform(size=(16, 16, 3)), 12)
        assert np.all(np.diff(cands.scores) <= 0)


def make_cands(cells, classes, scores):
    return pr.CandidateSet(
        cells=np.asarray(cells, dtype=np.int64),
        classes=np.asarray(classes, dtype=np.int64),
        scores=np.asarray(scores, dtype=np.float64),
    )


class TestDecodeGeneral:
    def dims(self):
        return 16, 16, 8  # X, Y, C

    def test_uniform_bev_gives_equal_rows(self):
        rng = np.random.default_rng(2)
        X, Y, C = self.dims()
        p = pr.DecoderParams(
            class_embed=Tensor(rng.normal(size=(3, C))),
            attn=attention_init(rng, C),
            ffn=ffn_init(rng, C, 16, C),
        )
        b_f = Tensor(np.tile(rng.normal(size=(1, 1, C)), (X, Y, 1)))
        cands = make_cands([[0, 0], [5, 9], [12, 3]], [1, 1, 1], [0.9, 0.8, 0.7])
        out = pr.decode_general(b_f, cands, p)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)
        np.testing.assert_allclose(out.data[0], out.data[2], atol=1e-12)

    def test_delta_peaked_attention_returns_peak_value(self):
        X, Y, C = 4, 4, 4
        # craft: queries are the BEV cell features; keys scaled so the
        # candidate's own cell wins by a logit gap >= 50
        b = np.zeros((X, Y, C))
        for gx in range(X):
            for gy in range(Y):
                b[gx, gy, (gx * Y + gy) % C] = 1.0
        b[2, 2] = 0.0
        b[2, 2, 0] = 30.0  # candidate cell: huge self-similarity
        ident = Tensor(np.eye(C))
        p = pr.DecoderParams(
            class_embed=Tensor(np.zeros((2, C))),
            attn=AttentionParams(
                query=LinearParams(ident, Tensor(np.zeros(C))),
                key=Tensor(np.eye(C) * 10.0),
                value=LinearParams(ident, Tensor(np.zeros(C))),
            ),
            ffn=zeros_ffn(C, 4, C),
        )
        cands = make_cands([[2, 2]], [0], [1.0])

        # silence positional encoding by zeroing: monkey-wise, instead use
        # direct check that attention weight mass is on the peak cell
        out = pr.decode_general(Tensor(b), cands, p)
        peak_value = b[2, 2]
        np.testing.assert_allclose(out.data[0], peak_value, rtol=1e-6, atol=1e-6)

    def test_attention_weights_sum_to_one(self):
        """One-hot memory rows through an identity value map return the weights themselves."""
        rng = np.random.default_rng(3)
        C = 8
        from bevkit.layers import attention

        q = Tensor(rng.normal(size=(5, C)))
        p = attention_init(rng, C)
        p = AttentionParams(p.query, p.key, LinearParams(Tensor(np.eye(C)), Tensor(np.zeros(C))))
        weights = attention(q, Tensor(np.eye(C)), p).data
        assert np.all(weights > 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        X, Y, C = self.dims()
        p = pr.DecoderParams(
            class_embed=Tensor(rng.normal(size=(3, C))),
            attn=attention_init(rng, C),
            ffn=ffn_init(rng, C, 16, C),
        )
        b_f = Tensor(rng.normal(size=(X, Y, C)))
        cells = [[1, 2], [7, 8], [12, 1], [4, 4]]
        classes = [0, 2, 1, 0]
        scores = [0.9, 0.8, 0.7, 0.6]
        out = pr.decode_general(b_f, make_cands(cells, classes, scores), p)
        perm = [2, 0, 3, 1]
        out_p = pr.decode_general(
            b_f,
            pr.CandidateSet(
                cells=np.asarray(cells)[perm],
                classes=np.asarray(classes)[perm],
                scores=np.asarray([1.0, 0.9, 0.8, 0.7]),
            ),
            p,
        )
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)


class TestTaskSpecificFeatures:
    def params(self, rng, c_in=5, c=6, zero=False):
        if zero:
            conv = lambda cout, cin: pr.Conv2dParams(zeros_linear(cout, 9 * cin), 3, 1, 1)
            return pr.TaskFeatureParams(
                cam_conv1=conv(c, c_in), cam_conv2=conv(c, c),
                lidar_conv1=conv(c, c_in), lidar_conv2=conv(c, c),
                attn=AttentionParams(zeros_linear(c, c), Tensor(np.zeros((c, c))), zeros_linear(c, c)),
                ffn_class=zeros_ffn(c, 8, 2 * c), ffn_box=zeros_ffn(c, 8, 2 * c),
            )
        return pr.TaskFeatureParams(
            cam_conv1=conv_init(rng, c, c_in, 3, 1, 1),
            cam_conv2=conv_init(rng, c, c, 3, 1, 1),
            lidar_conv1=conv_init(rng, c, c_in, 3, 1, 1),
            lidar_conv2=conv_init(rng, c, c, 3, 1, 1),
            attn=attention_init(rng, c),
            ffn_class=ffn_init(rng, c, 12, 2 * c),
            ffn_box=ffn_init(rng, c, 12, 2 * c),
        )

    def test_zero_params_zero_outputs(self):
        rng = np.random.default_rng(5)
        p = self.params(rng, zero=True)
        cands = make_cands([[3, 3]], [0], [1.0])
        f_c, f_b = pr.task_specific_features(
            Tensor(rng.normal(size=(8, 8, 5))), Tensor(rng.normal(size=(8, 8, 5))), cands, p
        )
        assert np.all(f_c.data == 0.0) and np.all(f_b.data == 0.0)

    def test_identical_inputs_shared_encoders_give_equal_tokens(self):
        rng = np.random.default_rng(6)
        p = self.params(rng)
        shared = pr.TaskFeatureParams(
            cam_conv1=p.cam_conv1, cam_conv2=p.cam_conv2,
            lidar_conv1=p.cam_conv1, lidar_conv2=p.cam_conv2,
            attn=p.attn, ffn_class=p.ffn_class, ffn_box=p.ffn_box,
        )
        b = Tensor(rng.normal(size=(8, 8, 5)))
        cands = make_cands([[2, 2], [6, 1]], [0, 1], [0.9, 0.8])
        f_c, f_b = pr.task_specific_features(b, b, cands, shared)
        # camera and lidar branches collapse to the same tokens, so the
        # class/box features are a function of duplicated halves
        paired_dim = f_c.shape[1]
        assert f_c.shape == (2, paired_dim) and f_b.shape == (2, paired_dim)

    def test_encoders_run_only_on_the_candidates_receptive_field(self):
        class ShapeTape(nm.Tape):
            def __init__(self):
                super().__init__()
                self.rows = {}

            def record(self, op, inputs, output, saved, vjp):
                super().record(op, inputs, output, saved, vjp)
                self.rows[output.id] = output.shape[0]

        rng = np.random.default_rng(9)
        p = self.params(rng, c_in=4, c=4)
        b_c = Tensor(rng.normal(size=(64, 64, 4)))
        b_l = Tensor(rng.normal(size=(64, 64, 4)))
        cands = make_cands([[0, 0], [30, 41], [63, 12]], [0, 1, 2], [0.9, 0.8, 0.7])
        with ShapeTape() as tape:
            pr.task_specific_features(b_c, b_l, cands, p)
        assert "conv2d" not in {n.op for n in tape.nodes}
        # The only full-grid nodes are the flattening views of the two inputs;
        # every other node holds at most the 9*9 conv1 patch rows per candidate.
        full = [n for n in tape.nodes if tape.rows[n.output_id] == 64 * 64]
        assert sorted(n.input_ids for n in full) == [(b_c.id,), (b_l.id,)]
        assert all(n.op == "reshape" for n in full)
        full_ids = {n.output_id for n in full}
        assert max(rows for out, rows in tape.rows.items() if out not in full_ids) <= 81 * 3

    def test_matches_replay_oracle(self):
        rng = np.random.default_rng(7)
        p = self.params(rng)
        b_c = rng.normal(size=(8, 8, 5))
        b_l = rng.normal(size=(8, 8, 5))
        cands = make_cands([[1, 1], [4, 6]], [0, 2], [0.9, 0.8])
        f_c, f_b = pr.task_specific_features(Tensor(b_c), Tensor(b_l), cands, p)

        def conv2(x, c1, c2):
            h = oracles.conv2d_oracle(x, c1.lin.weight.data, c1.lin.bias.data, 3, 1, 1)
            return oracles.conv2d_oracle(np.maximum(h, 0), c2.lin.weight.data, c2.lin.bias.data, 3, 1, 1)

        enc_c = conv2(b_c, p.cam_conv1, p.cam_conv2)
        enc_l = conv2(b_l, p.lidar_conv1, p.lidar_conv2)
        tokens = np.concatenate([
            enc_c.reshape(64, -1)[[1 * 8 + 1, 4 * 8 + 6]],
            enc_l.reshape(64, -1)[[1 * 8 + 1, 4 * 8 + 6]],
        ])
        q = tokens @ p.attn.query.weight.data.T + p.attn.query.bias.data
        k = tokens @ p.attn.key.data
        v = tokens @ p.attn.value.weight.data.T + p.attn.value.bias.data
        logits = q @ k.T / np.sqrt(q.shape[1])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        updated = tokens + attn @ v
        paired = np.concatenate([updated[:2], updated[2:]], axis=1)

        def ffn_np(x, f):
            h = np.maximum(0, x @ f.hidden.weight.data.T + f.hidden.bias.data)
            return h @ f.out.weight.data.T + f.out.bias.data

        np.testing.assert_allclose(f_c.data, ffn_np(paired, p.ffn_class), atol=1e-12)
        np.testing.assert_allclose(f_b.data, ffn_np(paired, p.ffn_box), atol=1e-12)


class TestFuser:
    def fuser(self, cg=4, cs=3, ones_gamma=False):
        joint = cg + cs
        def const_head(out_dim, value):
            return LinearParams(Tensor(np.zeros((out_dim, joint))), Tensor(np.full(out_dim, value)))
        gamma_val = 1.0 if ones_gamma else 0.0
        out_map = LinearParams(Tensor(np.eye(cs + cg)), Tensor(np.zeros(cs + cg)))
        return pr.FuserParams(
            gamma_s=const_head(cs, gamma_val),
            beta_s=const_head(cs, 0.0),
            gamma_g=const_head(cg, gamma_val),
            beta_g=const_head(cg, 0.0),
            out=out_map,
        )

    def test_modulation_identity(self):
        rng = np.random.default_rng(8)
        f_g = rng.normal(size=(5, 4))
        f_s = rng.normal(size=(5, 3))
        q = pr.task_specific_fuse(Tensor(f_g), Tensor(f_s), self.fuser(ones_gamma=True))
        np.testing.assert_array_equal(q.data, np.concatenate([f_s, f_g], axis=1))

    def test_zero_collapse(self):
        rng = np.random.default_rng(9)
        q = pr.task_specific_fuse(
            Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 3))), self.fuser()
        )
        assert np.all(q.data == 0.0)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(10)
        cg, cs, cq = 4, 3, 6
        p = pr.FuserParams(
            gamma_s=linear_init(rng, cs, cg + cs),
            beta_s=linear_init(rng, cs, cg + cs),
            gamma_g=linear_init(rng, cg, cg + cs),
            beta_g=linear_init(rng, cg, cg + cs),
            out=linear_init(rng, cq, cs + cg),
        )
        f_g = rng.normal(size=(5, cg))
        f_s = rng.normal(size=(5, cs))
        q = pr.task_specific_fuse(Tensor(f_g), Tensor(f_s), p)
        joint = np.concatenate([f_g, f_s], axis=1)
        lin = lambda lp, x: x @ lp.weight.data.T + lp.bias.data
        mod_s = lin(p.gamma_s, joint) * f_s + lin(p.beta_s, joint)
        mod_g = lin(p.gamma_g, joint) * f_g + lin(p.beta_g, joint)
        expected = lin(p.out, np.concatenate([mod_s, mod_g], axis=1))
        np.testing.assert_allclose(q.data, expected, atol=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(11)
        cg, cs = 3, 2
        f_g = Tensor(rng.normal(size=(2, cg)))
        f_s_val = rng.normal(size=(2, cs))
        heads = {
            "gamma_s": linear_init(rng, cs, cg + cs),
            "beta_s": linear_init(rng, cs, cg + cs),
            "gamma_g": linear_init(rng, cg, cg + cs),
            "beta_g": linear_init(rng, cg, cg + cs),
            "out": linear_init(rng, 4, cs + cg),
        }

        def f(w):
            p = pr.FuserParams(
                gamma_s=LinearParams(nm.reshape(w, (cs, cg + cs)), heads["gamma_s"].bias),
                beta_s=heads["beta_s"],
                gamma_g=heads["gamma_g"],
                beta_g=heads["beta_g"],
                out=heads["out"],
            )
            q = pr.task_specific_fuse(f_g, Tensor(f_s_val), p)
            return nm.mean(nm.mul(q, q))

        err = nm.finite_diff_check(f, Tensor(heads["gamma_s"].weight.data.ravel()))
        assert err < 1e-4


class TestHeadsAndDecode:
    def heads(self, rng, c=6, n_cls=3, zero=False):
        if zero:
            return pr.HeadParams(
                classifier=zeros_ffn(n_cls, 8, c), box=zeros_ffn(pr.BOX_DIM, 8, c)
            )
        return pr.HeadParams(
            classifier=ffn_init(rng, n_cls, 8, c), box=ffn_init(rng, pr.BOX_DIM, 8, c)
        )

    def test_zero_params_decode_to_cell_centers_unit_sizes(self):
        rng = np.random.default_rng(12)
        cands = make_cands([[3, 4], [10, 2]], [1, 0], [0.9, 0.8])
        out = pr.subtask_heads(
            Tensor(rng.normal(size=(2, 6))), Tensor(rng.normal(size=(2, 6))),
            self.heads(rng, zero=True), cands, BEV16,
        )
        assert np.all(out.class_logits.data == 0.0)
        for det, cell in zip(pr.decode_detections(out, cands, BEV16), [(3, 4), (10, 2)]):
            cx, cy = BEV16.cell_center(*cell)
            np.testing.assert_allclose(det.center[:2], [cx, cy], atol=1e-12)
            np.testing.assert_allclose(det.size, 1.0, atol=1e-15)
            assert det.yaw == 0.0

    def test_empty_candidates(self):
        rng = np.random.default_rng(13)
        cands = make_cands(np.zeros((0, 2)), [], [])
        out = pr.subtask_heads(
            Tensor(np.zeros((0, 6))), Tensor(np.zeros((0, 6))),
            self.heads(rng), cands, BEV16,
        )
        assert pr.decode_detections(out, cands, BEV16) == []

    @pytest.mark.parametrize("logit_rows, box_rows", [(1, 1), (3, 3), (2, 3), (3, 2)])
    def test_decode_rejects_row_counts_that_disagree(self, logit_rows, box_rows):
        cands = make_cands([[3, 4], [10, 2]], [1, 0], [0.9, 0.8])
        out = pr.HeadOutput(
            Tensor(np.zeros((logit_rows, 3))), Tensor(np.zeros((box_rows, pr.BOX_DIM)))
        )
        with pytest.raises(DimensionError) as err:
            pr.decode_detections(out, cands, BEV16)
        assert f"{logit_rows} class logit and {box_rows} box rows for 2 candidates" in str(err.value)

    def test_matches_replay_oracle(self):
        rng = np.random.default_rng(14)
        p = self.heads(rng)
        q_cls = rng.normal(size=(3, 6))
        q_box = rng.normal(size=(3, 6))
        cands = make_cands([[1, 1], [2, 2], [3, 3]], [0, 1, 2], [0.9, 0.8, 0.7])
        out = pr.subtask_heads(Tensor(q_cls), Tensor(q_box), p, cands, BEV16)

        def ffn_np(x, f):
            h = np.maximum(0, x @ f.hidden.weight.data.T + f.hidden.bias.data)
            return h @ f.out.weight.data.T + f.out.bias.data

        np.testing.assert_allclose(out.class_logits.data, ffn_np(q_cls, p.classifier), atol=1e-12)
        np.testing.assert_allclose(out.boxes.data, ffn_np(q_box, p.box), atol=1e-12)


class TestBoxCodec:
    def test_roundtrip_through_encoding(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            box = ObjectBox(
                center=np.array([rng.uniform(-7, 7), rng.uniform(-7, 7), rng.uniform(0.3, 1.5)]),
                size=rng.uniform(0.5, 3.0, size=3),
                yaw=rng.uniform(-np.pi, np.pi),
                velocity=rng.uniform(-2, 2, size=2),
                class_id=0,
            )
            from bevkit.oracles import bev_index

            cell = bev_index(box.center[0], box.center[1], BEV16)
            enc = pr.encode_box_for_cell(box, cell, BEV16)
            center, size, yaw, vel = pr.decode_box(cell, enc, BEV16)
            np.testing.assert_allclose(center, box.center, atol=1e-9)
            np.testing.assert_allclose(size, box.size, atol=1e-9)
            assert abs(np.arctan2(np.sin(yaw - box.yaw), np.cos(yaw - box.yaw))) < 1e-9
            np.testing.assert_allclose(vel, box.velocity, atol=1e-12)

    def test_rows_equal_single_calls(self):
        rng = np.random.default_rng(18)
        cells = rng.integers(0, 16, size=(12, 2))
        boxes = rng.normal(size=(12, pr.BOX_DIM))
        boxes[4, 6:8] = 0.0  # zero-norm (sin, cos): yaw 0, no division
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = pr.decode_box(cells, boxes, BEV16)
            singles = [pr.decode_box(cell, box, BEV16) for cell, box in zip(cells, boxes)]
        assert [part.shape for part in stacked] == [(12, 3), (12, 3), (12,), (12, 2)]
        for rows, parts in zip(stacked, zip(*singles)):
            assert np.array_equal(rows, np.stack(parts))
        assert stacked[2][4] == 0.0


def test_exact_encodings_score_perfectly():
    """Exact encodings of the ground truth, decoded and scored by the evaluator,
    give a perfect mAP and no translation error."""
    from bevkit import metrics
    from bevkit.oracles import bev_index
    from bevkit.scene import generate_scene

    gt_scenes, det_scenes = [], []
    for seed in range(3):
        boxes = generate_scene(6, BEV16, class_count=4, seed=seed).boxes
        cells = np.array([bev_index(b.center[0], b.center[1], BEV16) for b in boxes])
        logits = np.full((len(boxes), 4), -6.0)
        logits[np.arange(len(boxes)), [b.class_id for b in boxes]] = 6.0
        enc = np.stack([pr.encode_box_for_cell(b, cell, BEV16) for b, cell in zip(boxes, cells)])
        cands = make_cands(cells, [b.class_id for b in boxes], np.linspace(0.9, 0.4, len(boxes)))
        out = pr.HeadOutput(Tensor(logits), Tensor(enc))
        det_scenes.append(pr.decode_detections(out, cands, BEV16))
        gt_scenes.append([metrics.BoxRecord.from_object_box(b) for b in boxes])
    result = metrics.evaluate(det_scenes, gt_scenes, class_count=4)
    assert result.mean_ap == 1.0
    assert result.tp_errors["mATE"] < 1e-9


@pytest.mark.parametrize("cls_rows,box_rows", [(3, 3), (1, 1), (2, 3), (1, 2)])
def test_subtask_heads_reject_query_rows_not_matching_candidates(cls_rows, box_rows):
    rng = np.random.default_rng(19)
    heads = TestHeadsAndDecode().heads(rng)
    cands = make_cands([[3, 4], [10, 2]], [1, 0], [0.9, 0.8])
    message = f"{cls_rows} class and {box_rows} box query rows for 2 candidates"
    with pytest.raises(nm.DimensionError, match=message):
        pr.subtask_heads(
            Tensor(np.zeros((cls_rows, 6))), Tensor(np.zeros((box_rows, 6))), heads, cands, BEV16
        )


def test_oracle_heatmap_end_to_end_centers():
    """Ground-truth-injected heatmap + zero heads puts detections exactly at
    ground-truth cell centers."""
    rng = np.random.default_rng(17)
    boxes = [
        ObjectBox(center=np.array([2.2, -3.1, 0.5]), size=np.array([1.0, 1.0, 1.0]),
                  yaw=0.3, velocity=np.zeros(2), class_id=1),
        ObjectBox(center=np.array([-4.0, 5.0, 0.5]), size=np.array([1.0, 1.0, 1.0]),
                  yaw=-0.2, velocity=np.zeros(2), class_id=0),
    ]
    from bevkit.oracles import bev_index

    heat = np.zeros((16, 16, 3))
    for b in boxes:
        gx, gy = bev_index(b.center[0], b.center[1], BEV16)
        heat[gx, gy, b.class_id] = 1.0
    cands = pr.select_candidates(heat, 2)
    heads = pr.HeadParams(
        classifier=zeros_ffn(3, 4, 6), box=zeros_ffn(pr.BOX_DIM, 4, 6)
    )
    out = pr.subtask_heads(
        Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))), heads, cands, BEV16
    )
    expected_cells = sorted(
        bev_index(b.center[0], b.center[1], BEV16) for b in boxes
    )
    # Records are row-aligned with the candidates, so candidate i's cell is record i's.
    assert sorted(map(tuple, cands.cells.tolist())) == expected_cells
    records = pr.decode_detections(out, cands, BEV16)
    assert len(records) == len(expected_cells)
    for det, cell in zip(records, cands.cells):
        cx, cy = BEV16.cell_center(*cell)
        np.testing.assert_allclose(det.center[:2], [cx, cy], atol=1e-12)


@pytest.mark.parametrize("heatmap, error, message", [
    (np.zeros((4, 4)), DimensionError, r"heatmap must be \[X, Y, N\] .*got \(4, 4\)"),
    (np.zeros((0, 4, 3)), DimensionError, r"got \(0, 4, 3\)"),
    (np.zeros((4, 4, 0)), DimensionError, r"got \(4, 4, 0\)"),
    (np.zeros((2, 4, 4, 3)), DimensionError, r"got \(2, 4, 4, 3\)"),
    (np.where(np.eye(4)[:, :, None], np.nan, 0.5), nm.NumericError, "NaN or Inf"),
    (np.full((4, 4, 2), np.inf), nm.NumericError, "NaN or Inf"),
], ids=["2d", "empty-x", "no-classes", "4d", "nan", "inf"])
def test_select_candidates_rejects_bad_heatmaps_by_name(heatmap, error, message):
    with pytest.raises(error, match=f"select_candidates: .*{message}"):
        pr.select_candidates(heatmap, 3)


@pytest.mark.parametrize("cells, classes, scores, message", [
    (np.zeros((3, 2), np.int64), np.zeros(2, np.int64), np.zeros(3), r"classes \(2,\) and scores \(3,\)"),
    (np.zeros((3, 2), np.int64), np.zeros(3, np.int64), np.zeros(4), r"classes \(3,\) and scores \(4,\)"),
    (np.zeros(3, np.int64), np.zeros(3, np.int64), np.zeros(3), r"integer \[K, 2\], got int64 \(3,\)"),
    (np.zeros((3, 3), np.int64), np.zeros(3, np.int64), np.zeros(3), r"got int64 \(3, 3\)"),
    (np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros(3), r"got float64 \(3, 2\)"),
], ids=["classes-rows", "scores-rows", "1d-cells", "3-wide-cells", "float-cells"])
def test_candidate_set_rejects_mismatched_fields(cells, classes, scores, message):
    with pytest.raises(DimensionError, match=message):
        pr.CandidateSet(cells, classes, scores)


@pytest.mark.parametrize("classes, dtype", [
    (np.array([0.0, 1.5]), "float64"), (np.array([True, False]), "bool"),
], ids=["float", "bool"])
def test_candidate_set_rejects_non_integer_classes(classes, dtype):
    """decode_general used to gather class-embedding row 1 for the class id 1.5."""
    with pytest.raises(DimensionError, match=f"candidate classes must be integer, got {dtype}"):
        pr.CandidateSet(np.array([[0, 0], [1, 1]]), classes, np.array([0.9, 0.5]))


def test_fuse_bev_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"fuse_bev: spatial shapes differ \(4, 4, 2\) vs \(4, 5, 3\)"):
        pr.fuse_bev(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((4, 5, 3))), None)


def test_task_features_error_names_both_shapes():
    cands = make_cands([[1, 1]], [0], [0.9])
    with pytest.raises(DimensionError, match=(
        r"task features: camera and LiDAR BEV shapes differ \(4, 4, 2\) vs \(5, 4, 2\)"
    )):
        pr.task_specific_features(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((5, 4, 2))), cands, None)


@pytest.mark.parametrize("k, message", [
    (0, "must be >= 1, got 0"), (2.5, "must be an integer, not float"),
    (True, "must be an integer, not bool"),
])
def test_select_candidates_rejects_a_k_that_is_not_a_positive_integer(k, message):
    with pytest.raises(ValueError, match=f"select_candidates: k {message}"):
        pr.select_candidates(np.zeros((4, 4, 2)), k)
