import math
import warnings

import numpy as np
import pytest

from bevkit import losses as ls
from bevkit import numerics as nm
from bevkit import oracles
from bevkit import predictor as pr
from bevkit import view_transform as vt
from bevkit.geometry import BEVConfig
from bevkit.layers import PROB_FLOOR, binary_log_loss, ffn_init
from bevkit.numerics import NumericError, Tensor
from bevkit.oracles import bev_index
from bevkit.scene import ObjectBox


BEV16 = BEVConfig(-8.0, 8.0, -8.0, 8.0, 16)


class TestHungarian:
    def test_one_by_one(self):
        res = ls.hungarian_match([[7.0]])
        assert res.pairs == ((0, 0),)
        assert res.total_cost == 7.0
        assert res.unmatched_predictions == () and res.unmatched_ground_truths == ()

    def test_two_by_two_enumerated(self):
        res = ls.hungarian_match([[1.0, 2.0], [2.0, 1.0]])
        assert res.pairs == ((0, 0), (1, 1))
        assert res.total_cost == 2.0

    def test_matches_permutation_oracle_squares(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            m = rng.integers(1, 7)
            n = rng.integers(1, 7)
            cost = rng.uniform(0, 10, size=(m, n))
            res = ls.hungarian_match(cost)
            best_total, best_pairs = oracles.hungarian_oracle(cost)
            assert res.total_cost == best_total, f"trial {trial}"
            assert list(res.pairs) == best_pairs

    def test_lexicographic_tie_break(self):
        # all-equal costs: every assignment is optimal
        res = ls.hungarian_match(np.ones((3, 3)))
        assert res.pairs == ((0, 0), (1, 1), (2, 2))
        # rectangular with ties: prefer earliest predictions and gts
        res = ls.hungarian_match(np.ones((4, 2)))
        assert res.pairs == ((0, 0), (1, 1))
        assert res.unmatched_predictions == (2, 3)

    def test_crafted_tie_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            m = rng.integers(2, 5)
            n = rng.integers(2, 5)
            cost = rng.integers(0, 3, size=(m, n)).astype(float)
            res = ls.hungarian_match(cost)
            best_total, best_pairs = oracles.hungarian_oracle(cost)
            assert res.total_cost == best_total
            assert list(res.pairs) == best_pairs

    @pytest.mark.parametrize(
        "cost, pairs",
        [
            # every reduced cost is 0, but prediction 2 has a nonzero potential
            # and must be matched: (0, 0), (1, 1) is tight and costs 6, not 5
            ([[4, 2], [4, 2], [3, 1]], [(0, 0), (2, 1)]),
            ([[2, 0, 1, 3, 3, 4, 3], [3, 3, 3, 4, 4, 2, 1], [2, 4, 2, 4, 4, 4, 1]],
             [(0, 1), (1, 5), (2, 6)]),
            ([[2, 2, 0, 0, 1, 1, 2], [2, 1, 0, 0, 1, 2, 1], [2, 2, 2, 2, 1, 2, 2],
              [1, 1, 1, 1, 0, 2, 1]],
             [(0, 2), (1, 3), (2, 0), (3, 4)]),
        ],
    )
    def test_rectangular_tie_takes_oracle_pairs(self, cost, pairs):
        cost = np.array(cost, dtype=float)
        best_total, best_pairs = oracles.hungarian_oracle(cost)
        assert best_pairs == pairs
        res = ls.hungarian_match(cost)
        assert list(res.pairs) == pairs
        assert res.total_cost == best_total

    def test_integer_ties_match_oracle_stress(self):
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(1000):
            m, n = rng.integers(1, 8, size=2)
            if min(m, n) > 5:
                continue
            cost = rng.integers(0, 3, size=(m, n)).astype(float)
            res = ls.hungarian_match(cost)
            best_total, best_pairs = oracles.hungarian_oracle(cost)
            assert list(res.pairs) == best_pairs, f"trial {trial}: {cost.tolist()}"
            assert res.total_cost == best_total, f"trial {trial}"
            checked += 1
        assert checked > 900

    def test_float_tie_within_tol_takes_oracle_pairs(self):
        # pair (0, 0) has reduced cost 2.8e-17: tight within tol, not exactly
        cost = np.array([[0.2, 0.1, 0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.3, 0.2, 0.2, 0.7],
                         [0.2, 0.1, 0.3, 0.1, 0.2, 0.3], [0.2, 0.3, 0.7, 0.1, 0.1, 0.3],
                         [0.7, 0.1, 0.3, 0.7, 0.2, 0.1]])
        res = ls.hungarian_match(cost)
        assert res.pairs == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
        assert res.total_cost == oracles.hungarian_oracle(cost)[0]

    def test_float_ties_match_oracle_stress(self):
        vals = np.array([0.1, 0.2, 0.3, 0.7])
        rng = np.random.default_rng(1)
        for trial in range(500):
            m, n = rng.integers(1, 7, size=2)
            cost = vals[rng.integers(0, 4, size=(m, n))]
            res = ls.hungarian_match(cost)
            best_total, best_pairs = oracles.hungarian_oracle(cost)
            assert list(res.pairs) == best_pairs, f"trial {trial}: {cost.tolist()}"
            assert res.total_cost == best_total, f"trial {trial}"

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            ls.hungarian_match([[np.nan]])

    def test_empty_sides(self):
        res = ls.hungarian_match(np.zeros((0, 3)))
        assert res.pairs == () and res.unmatched_ground_truths == (0, 1, 2)

    def test_partial_injection_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m, n = rng.integers(1, 8, size=2)
            res = ls.hungarian_match(rng.normal(size=(m, n)))
            assert len(res.pairs) == min(m, n)
            preds = [p for p, _ in res.pairs]
            gts = [g for _, g in res.pairs]
            assert len(set(preds)) == len(preds)
            assert len(set(gts)) == len(gts)
            assert sorted(preds + list(res.unmatched_predictions)) == list(range(m))
            assert sorted(gts + list(res.unmatched_ground_truths)) == list(range(n))


class TestFocalLoss:
    def test_half_probability_value(self):
        loss = ls.focal_loss(Tensor(np.array([0.5])), np.array([1.0]))
        assert abs(loss.item() - 0.25 * 0.25 * math.log(2)) < 1e-12

    def test_limit_to_zero(self):
        loss = ls.focal_loss(Tensor(np.array([1.0 - 1e-9])), np.array([1.0]))
        assert loss.item() < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(3)
        t = (rng.uniform(size=6) > 0.5).astype(float)

        def f(x):
            return ls.focal_loss(nm.sigmoid(x), t)

        assert nm.finite_diff_check(f, Tensor(rng.normal(size=6))) < 1e-4


class TestL1BoxLoss:
    def test_identical_zero(self):
        b = np.arange(10.0)
        assert ls.l1_box_loss(Tensor(b), b).item() == 0.0

    def test_unit_offset(self):
        b = np.arange(10.0)
        assert ls.l1_box_loss(Tensor(b + 1.0), b).item() == 1.0

    def test_matches_component_loop(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        expected = sum(abs(x - y) for x, y in zip(a, b)) / 10.0
        assert abs(ls.l1_box_loss(Tensor(a), b).item() - expected) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(5)
        target = rng.normal(size=10)
        x0 = rng.normal(size=10)
        # keep away from the kink at pred == target
        x0 = target + np.sign(x0 - target) * (np.abs(x0 - target) + 0.1)
        assert nm.finite_diff_check(lambda x: ls.l1_box_loss(x, target), Tensor(x0)) < 1e-4


def gt_box(x, y, cls=0, yaw=0.0, size=(1.0, 1.0, 1.0), vel=(0.0, 0.0)):
    return ObjectBox(
        center=np.array([x, y, 0.5]), size=np.array(size), yaw=yaw,
        velocity=np.array(vel), class_id=cls,
    )


def head_output_for(boxes, cells, logits_scale=6.0, n_cls=3, jitter=None):
    """Build a HeadOutput whose decoded boxes sit near given boxes."""
    k = len(cells)
    logits = np.full((k, n_cls), -logits_scale)
    enc = np.zeros((k, pr.BOX_DIM))
    for i, (box, cell) in enumerate(zip(boxes, cells)):
        if box is not None:
            logits[i, box.class_id] = logits_scale
            enc[i] = pr.encode_box_for_cell(box, cell, BEV16)
            if jitter is not None:
                enc[i] += jitter[i]
    cands = pr.CandidateSet(
        cells=np.asarray(cells, dtype=np.int64),
        classes=np.argmax(logits, axis=1),
        scores=np.linspace(0.9, 0.5, k),
    )
    return pr.HeadOutput(Tensor(logits), Tensor(enc)), cands


class TestHeadSetLoss:
    def test_no_ground_truth_background_only(self):
        boxes = [gt_box(1.0, 1.0)]
        out, cands = head_output_for(boxes, [bev_index(1.0, 1.0, BEV16)])
        w = ls.LossWeights()
        loss, match = ls.head_set_loss(out, cands, [], BEV16, w)
        assert match.pairs == ()
        probs = 1 / (1 + np.exp(-out.class_logits.data))
        expected_cls = np.mean(-(1 - 0.25) * probs**2 * np.log(np.clip(1 - probs, 1e-7, None)))
        assert abs(loss.item() - w.lam1 * expected_cls) < 1e-9

    def test_perfect_predictions_near_zero(self):
        boxes = [gt_box(1.0, 1.0, cls=0), gt_box(-3.0, 2.0, cls=1)]
        cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
        out, cands = head_output_for(boxes, cells, logits_scale=20.0)
        loss, match = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights())
        assert len(match.pairs) == 2
        assert loss.item() < 1e-3

    def test_crossed_pair_matching(self):
        a, b = gt_box(2.0, 2.0, cls=0), gt_box(-2.0, -2.0, cls=0)
        cells = [bev_index(-2.0, -2.0, BEV16), bev_index(2.0, 2.0, BEV16)]
        # prediction 0 sits on gt b, prediction 1 sits on gt a
        out, cands = head_output_for([b, a], cells)
        _, match = ls.head_set_loss(out, cands, [a, b], BEV16, ls.LossWeights())
        assert set(match.pairs) == {(0, 1), (1, 0)}

    def test_lambda_scaling_linearity(self):
        boxes = [gt_box(1.0, 1.0, cls=0)]
        cells = [bev_index(1.0, 1.0, BEV16)]
        out, cands = head_output_for(boxes, cells, jitter=[np.full(pr.BOX_DIM, 0.2)])
        l1, _ = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights(lam1=1.0, lam2=0.25))
        l2, _ = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights(lam1=3.0, lam2=0.25))
        l_box_only, _ = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights(lam1=0.0, lam2=0.25))
        cls_contrib = l1.item() - l_box_only.item()
        assert abs((l2.item() - l_box_only.item()) - 3.0 * cls_contrib) < 1e-9


class TestHeatmapLoss:
    def test_perfect_heatmap_near_zero(self):
        boxes = [gt_box(1.0, 1.0, cls=0)]
        target = ls.heatmap_target(boxes, BEV16, 3)
        pred = Tensor(np.clip(target, 1e-6, 1 - 1e-6))
        assert ls.heatmap_loss(pred, target).item() < 1e-2

    def test_target_peak_at_center_cell(self):
        boxes = [gt_box(2.2, -3.1, cls=1)]
        target = ls.heatmap_target(boxes, BEV16, 3)
        gx, gy = bev_index(2.2, -3.1, BEV16)
        assert target[gx, gy, 1] == 1.0
        assert target[..., 0].max() == 0.0
        # radius at least one cell: neighbors are positive
        assert target[gx + 1, gy, 1] > 0.0

    def test_boxes_off_the_grid_are_dropped(self):
        crop = BEVConfig(-2.0, 1.5, -1.0, 2.5, 7)
        inside = [gt_box(1.0, -0.4, cls=0)]
        off = [gt_box(2.0, 0.0, cls=1), gt_box(-5.0, 1.0, cls=1), gt_box(1e19, -1e300, cls=1)]
        target = ls.heatmap_target(inside + off, crop, 2)
        assert np.array_equal(target, ls.heatmap_target(inside, crop, 2))
        gx, gy = bev_index(1.0, -0.4, crop)
        assert target[gx, gy, 0] == 1.0 and target[..., 1].max() == 0.0
        assert np.array_equal(ls.heatmap_target([], crop, 2), np.zeros((7, 7, 2)))

    def test_gradient(self):
        boxes = [gt_box(0.8, 0.6, cls=0)]
        target = ls.heatmap_target(boxes, BEV16, 2)

        def f(x):
            return ls.heatmap_loss(nm.sigmoid(nm.reshape(x, (16, 16, 2))), target)

        rng = np.random.default_rng(6)
        assert nm.finite_diff_check(f, Tensor(rng.normal(size=16 * 16 * 2))) < 1e-4


class TestTotalLoss:
    def build_perfect(self):
        boxes = [gt_box(1.0, 1.0, cls=0), gt_box(-3.0, 2.0, cls=1)]
        cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
        out, cands = head_output_for(boxes, cells, logits_scale=25.0)
        target = ls.heatmap_target(boxes, BEV16, 3)
        # a perfect heatmap saturates the centers and zeroes every other cell
        heat = Tensor(np.clip((target == 1.0).astype(float), 1e-7, 1 - 1e-7))
        return out, cands, heat, boxes

    def perfect_depth(self):
        """(depth loss, its distribution leaf) of a distribution at its one-hot targets."""
        onehot = np.eye(4)[np.random.default_rng(4).integers(0, 4, size=(2, 3))]
        dist = Tensor(np.clip(onehot, 1e-7, 1 - 1e-7))
        gt = vt.DepthGroundTruth(onehot=onehot, mask=np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
        return vt.depth_loss_multi([dist], [gt]), dist

    def test_perfect_inputs_small_loss(self):
        out, cands, heat, boxes = self.build_perfect()
        depth, _ = self.perfect_depth()
        total, parts = ls.total_loss(out, out, cands, heat, boxes, BEV16, ls.LossWeights(), depth)
        assert total.item() <= 1e-3
        assert list(parts) == ["heatmap", "main", "aux", "depth", "total"]
        assert parts["total"] == total.item()

    def test_zero_weights_zero_gradients(self):
        out, cands, heat, boxes = self.build_perfect()
        w = ls.LossWeights(lam_heat=0.0, lam_box=0.0, lam_depth=0.0)
        with nm.Tape() as tape:
            # aux loss only; the heatmap and depth inputs must receive no gradient
            depth, dist = self.perfect_depth()
            total, _ = ls.total_loss(out, out, cands, heat, boxes, BEV16, w, depth)
            nm.backward(tape, total)
        assert np.all(tape.grad(heat).data == 0.0)
        assert np.all(tape.grad(dist).data == 0.0)

    def test_tape_has_no_leaf_but_its_inputs(self):
        out, cands, heat, boxes = self.build_perfect()
        rng = np.random.default_rng(5)
        dist = Tensor(rng.dirichlet(np.ones(4), size=(2, 3)))
        onehot = np.eye(4)[rng.integers(0, 4, size=(2, 3))]
        gt = vt.DepthGroundTruth(onehot=onehot, mask=np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
        with nm.Tape() as tape:
            depth = vt.depth_loss_multi([dist], [gt])
            ls.total_loss(out, out, cands, heat, boxes, BEV16, ls.LossWeights(), depth=depth)
        inputs = {i for node in tape.nodes for i in node.input_ids}
        leaves = inputs - {node.output_id for node in tape.nodes}
        assert leaves == {heat.id, out.class_logits.id, out.boxes.id, dist.id}

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            ls.LossWeights(lam1=-0.1)


def test_focal_bce_l1_fuser_gradient_suite():
    """Gradient checks for each loss against central differences."""
    rng = np.random.default_rng(7)
    # focal
    t = (rng.uniform(size=8) > 0.4).astype(float)
    assert nm.finite_diff_check(lambda x: ls.focal_loss(nm.sigmoid(x), t), Tensor(rng.normal(size=8))) < 1e-4
    # bce: the depth loss's rule (gamma 0) on its own, through a sigmoid
    target = (rng.uniform(size=6) > 0.5).astype(float)

    def bce(x):
        return binary_log_loss(nm.sigmoid(x), target, 1.0 - target, 0.0)

    assert nm.finite_diff_check(bce, Tensor(rng.normal(size=6))) < 1e-4


class TestVectorisedEncode:
    def test_cells_match_per_cell_calls(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            box = gt_box(
                *rng.uniform(-8.0, 8.0, size=2), cls=1, yaw=rng.uniform(-np.pi, np.pi),
                size=rng.uniform(0.3, 5.0, size=3), vel=rng.normal(size=2),
            )
            cells = rng.integers(0, 16, size=(20, 2))
            stacked = np.stack([pr.encode_box_for_cell(box, cell, BEV16) for cell in cells])
            assert np.array_equal(pr.encode_box_for_cell(box, cells, BEV16), stacked)


class TestMatchEmptySide:
    def test_no_candidates(self):
        none = np.zeros(0, dtype=np.int64)
        cands = pr.CandidateSet(np.zeros((0, 2), dtype=np.int64), none, np.zeros(0))
        out = pr.HeadOutput(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, pr.BOX_DIM))))
        match = ls.match_against_gt(out, cands, [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)], BEV16)
        assert match == ls.MatchResult((), (), (0, 1), 0.0)

    def test_no_ground_truth(self):
        boxes = [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)]
        cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
        out, cands = head_output_for(boxes, cells)
        assert ls.match_against_gt(out, cands, [], BEV16) == ls.MatchResult((), (0, 1), (), 0.0)


class TestCostForAllGroundTruthsAtOnce:
    """match_against_gt's cost and head_set_loss's box targets, against one encode and one
    column per ground truth."""

    @staticmethod
    def loop_cost(out, cands, boxes):
        probs = np.clip(nm._sigmoid(out.class_logits.data), PROB_FLOOR, 1.0 - PROB_FLOOR)
        cost = np.zeros((cands.k, len(boxes)))
        for gi, box in enumerate(boxes):
            p = probs[:, box.class_id]
            cls_cost = -ls.FOCAL_ALPHA * (1.0 - p) ** ls.FOCAL_GAMMA * np.log(p)
            encoded = pr.encode_box_for_cell(box, cands.cells, BEV16)
            cost[:, gi] = cls_cost + np.abs(out.boxes.data - encoded).mean(axis=1)
        return cost

    @staticmethod
    def random_case(rng, k, g, n_cls=3):
        boxes = [
            gt_box(*rng.uniform(-8.0, 8.0, size=2), cls=int(rng.integers(0, n_cls)),
                   yaw=rng.uniform(-np.pi, np.pi), size=rng.uniform(0.3, 5.0, size=3),
                   vel=rng.normal(size=2))
            for _ in range(g)
        ]
        cells = rng.integers(0, 16, size=(k, 2))
        scores = -np.sort(-rng.uniform(size=k))
        cands = pr.CandidateSet(cells, rng.integers(0, n_cls, size=k), scores)
        out = pr.HeadOutput(
            Tensor(rng.normal(scale=3.0, size=(k, n_cls))), Tensor(rng.normal(size=(k, pr.BOX_DIM)))
        )
        return out, cands, boxes

    @pytest.mark.parametrize("k, g", [(12, 5), (7, 1), (3, 6), (9, 0)])
    def test_cost_is_the_per_ground_truth_loop(self, k, g):
        rng = np.random.default_rng(100 * k + g)
        for _ in range(10):
            out, cands, boxes = self.random_case(rng, k, g)
            cost, encoded = ls._cost_and_targets(out, cands, boxes, BEV16)
            assert np.array_equal(cost, self.loop_cost(out, cands, boxes))
            per_box = np.zeros((k, g, pr.BOX_DIM))
            for gi, box in enumerate(boxes):
                per_box[:, gi] = pr.encode_box_for_cell(box, cands.cells, BEV16)
            assert np.array_equal(encoded, per_box)
            assert ls.match_against_gt(out, cands, boxes, BEV16) == ls.hungarian_match(cost)

    def test_zero_ground_truths_give_an_empty_match(self):
        out, cands, _ = self.random_case(np.random.default_rng(3), 6, 0)
        cost, encoded = ls._cost_and_targets(out, cands, [], BEV16)
        assert cost.shape == (6, 0) and encoded.shape == (6, 0, pr.BOX_DIM)
        assert ls.match_against_gt(out, cands, [], BEV16) == ls.MatchResult(
            (), tuple(range(6)), (), 0.0
        )

    def test_box_targets_are_the_matched_pairs_encodings(self):
        out, cands, boxes = self.random_case(np.random.default_rng(4), 8, 4)
        weights = ls.LossWeights()
        loss, match = ls.head_set_loss(out, cands, boxes, BEV16, weights)
        targets = np.zeros(out.class_logits.shape)
        for ki, gi in match.pairs:
            targets[ki, boxes[gi].class_id] = 1.0
        cls_loss = ls.focal_loss(nm.sigmoid(out.class_logits), targets)
        preds = [ki for ki, _ in match.pairs]
        gt_rows = np.stack([
            pr.encode_box_for_cell(boxes[gi], cands.cells[ki], BEV16) for ki, gi in match.pairs
        ])
        box_loss = ls.l1_box_loss(nm.gather_rows(out.boxes, np.array(preds)), gt_rows)
        want = cls_loss.item() * weights.lam1 + box_loss.item() * weights.lam2
        assert len(match.pairs) == 4 and loss.item() == want


class TestVeryNegativeLogits:
    """exp(800) overflows float64; the shared sigmoid never forms it."""

    def test_match_raises_no_warning(self):
        boxes = [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)]
        cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
        out, cands = head_output_for(boxes, cells)
        logits = out.class_logits.data.copy()
        logits[0, 1] = -800.0
        crafted = pr.HeadOutput(Tensor(logits), out.boxes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = ls.match_against_gt(crafted, cands, boxes, BEV16)
        assert match.pairs == ((0, 0), (1, 1))

    def test_subtask_heads_raise_no_warning(self):
        classifier = ffn_init(np.random.default_rng(0), 3, 4, 4)
        bias = Tensor(np.array([-800.0, -900.0, -850.0]))
        classifier = pr.FfnParams(classifier.hidden, nm.LinearParams(classifier.out.weight, bias))
        params = pr.HeadParams(classifier, ffn_init(np.random.default_rng(1), pr.BOX_DIM, 4, 4))
        cands = pr.CandidateSet(np.array([[3, 4], [5, 6]]), np.array([0, 1]), np.array([0.9, 0.5]))
        q = Tensor(np.zeros((2, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pr.subtask_heads(q, q, params, cands, BEV16)
            records = pr.decode_detections(out, cands, BEV16)
        assert [(d.class_id, d.score) for d in records] == [(0, 0.0), (0, 0.0)]


class TestClassIdOutOfRange:
    """A ground-truth class the head cannot score fails with a ValueError naming it."""

    MESSAGE = r"ground-truth box 1: class_id 5 is out of range for 3 classes"

    def setup_method(self):
        boxes = [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)]
        cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
        self.out, self.cands = head_output_for(boxes, cells)
        self.bad = [boxes[0], gt_box(-3.0, 2.0, cls=5)]

    def test_match_against_gt(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            ls.match_against_gt(self.out, self.cands, self.bad, BEV16)

    def test_head_set_loss(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            ls.head_set_loss(self.out, self.cands, self.bad, BEV16, ls.LossWeights())

    def test_heatmap_target(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            ls.heatmap_target(self.bad, BEV16, 3)


def test_head_set_loss_with_no_candidates():
    none = np.zeros(0, dtype=np.int64)
    cands = pr.CandidateSet(np.zeros((0, 2), dtype=np.int64), none, np.zeros(0))
    out = pr.HeadOutput(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, pr.BOX_DIM))))
    loss, match = ls.head_set_loss(
        out, cands, [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)], BEV16, ls.LossWeights()
    )
    assert loss.item() == 0.0
    assert match.pairs == () and match.unmatched_ground_truths == (0, 1)


@pytest.mark.parametrize("field", ["lam1", "lam2", "lam_depth", "lam_heat", "lam_box"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_loss_weights_reject_non_finite_values(field, value):
    """A NaN weight passes the sign check (NaN < 0 is False); this check keeps it off the total."""
    with pytest.raises(ValueError, match=f"LossWeights: {field} must be finite, got {value}"):
        ls.LossWeights(**{field: value})


def test_l1_box_loss_is_one_op_on_the_difference():
    """|d| is d times its constant sign: the difference, one multiply and the mean."""
    rng = np.random.default_rng(3)
    with nm.Tape() as tape:
        ls.l1_box_loss(Tensor(rng.normal(size=(3, 4))), rng.normal(size=(3, 4)))
    assert [node.op for node in tape.nodes] == ["add_const", "mul_const", "mean"]


def loss_inputs():
    """Head outputs off their targets, a soft heatmap and a depth term, so no part is 0."""
    boxes = [gt_box(1.0, 1.0, cls=0), gt_box(-3.0, 2.0, cls=1)]
    cells = [bev_index(b.center[0], b.center[1], BEV16) for b in boxes]
    jitter = np.full((2, pr.BOX_DIM), 0.3)
    out, cands = head_output_for(boxes, cells, logits_scale=1.0, jitter=jitter)
    rng = np.random.default_rng(4)
    heat = Tensor(rng.uniform(0.05, 0.95, size=(16, 16, 3)))
    onehot = np.eye(4)[rng.integers(0, 4, size=(2, 3))]
    gt = vt.DepthGroundTruth(onehot=onehot, mask=np.ones((2, 3)))
    depth = vt.depth_loss_multi([Tensor(rng.dirichlet(np.ones(4), size=(2, 3)))], [gt])
    return out, cands, heat, boxes, depth


@pytest.mark.parametrize("zeroed", ["lam_heat", "lam_box", "lam_depth"])
def test_total_loss_sums_a_zero_weighted_term(zeroed):
    """A zero weight is weighted like any other: its part is listed and the total is the sum."""
    out, cands, heat, boxes, depth = loss_inputs()
    w = ls.LossWeights(**{zeroed: 0.0})
    total, parts = ls.total_loss(out, out, cands, heat, boxes, BEV16, w, depth=depth)
    assert list(parts) == ["heatmap", "main", "aux", "depth", "total"]
    assert all(parts[name] > 0.0 for name in ("heatmap", "main", "aux", "depth"))
    weighted = (
        parts["heatmap"] * w.lam_heat + parts["main"] * w.lam_box + parts["aux"]
        + parts["depth"] * w.lam_depth
    )
    assert total.item() == parts["total"] == weighted


@pytest.mark.parametrize("name, value", [("FOCAL_GAMMA", 0.0), ("FOCAL_ALPHA", 0.5)])
def test_focal_constants_set_both_the_loss_and_the_match(monkeypatch, name, value):
    """head_set_loss trains and matches with the focal alpha and gamma read at call time."""
    out, cands, _, boxes, _ = loss_inputs()
    loss, match = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights())
    monkeypatch.setattr(ls, name, value)
    moved_loss, moved_match = ls.head_set_loss(out, cands, boxes, BEV16, ls.LossWeights())
    assert moved_match.pairs == match.pairs
    assert moved_loss.item() != loss.item()
    assert moved_match.total_cost != match.total_cost


@pytest.mark.parametrize("loss", [
    lambda out, cands, gt: ls.match_against_gt(out, cands, gt, BEV16),
    lambda out, cands, gt: ls.head_set_loss(out, cands, gt, BEV16, ls.LossWeights()),
], ids=["match_against_gt", "head_set_loss"])
@pytest.mark.parametrize("logit_shape, box_shape, message", [
    ((5, 3), (4, pr.BOX_DIM), "5 class logit and 4 box rows for 4 candidates"),
    ((4, 3), (4, 7), r"boxes have shape \(4, 7\), not \[K, BOX_DIM = 10\]"),
], ids=["rows", "width"])
def test_matched_loss_names_bad_head_shapes(loss, logit_shape, box_shape, message):
    boxes = [gt_box(1.0, 1.0), gt_box(-3.0, 2.0, cls=1)]
    _, cands = head_output_for([None] * 4, [[1, 1], [2, 2], [3, 3], [4, 4]])
    out = pr.HeadOutput(Tensor(np.zeros(logit_shape)), Tensor(np.zeros(box_shape)))
    with pytest.raises(nm.DimensionError, match=f"match_against_gt: {message}"):
        loss(out, cands, boxes)
