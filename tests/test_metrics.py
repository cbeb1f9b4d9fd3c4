import json
import math
import warnings

import numpy as np
import pytest

from bevkit import metrics as mt
from bevkit import oracles
from bevkit.metrics import BoxRecord


def rec(x, y, cls=0, score=1.0, size=(1.0, 1.0, 1.0), yaw=0.0, vel=(0.0, 0.0), z=0.5):
    return BoxRecord(
        class_id=cls, score=score, center=np.array([x, y, z]),
        size=np.array(size), yaw=yaw, velocity=np.array(vel),
    )


class TestMatchDetections:
    def test_exact_hit_all_thresholds(self):
        det, gt = rec(1.0, 1.0, score=0.9), rec(1.0, 1.0)
        for thr in mt.DEFAULT_THRESHOLDS:
            tp, pairs = mt.match_detections([det], [gt], thr)
            assert tp.tolist() == [True] and pairs == [(0, 0)]

    def test_distance_thresholds(self):
        det, gt = rec(1.5, 0.0, score=0.9), rec(0.0, 0.0)
        for thr, expected in [(0.5, False), (1.0, False), (2.0, True), (4.0, True)]:
            tp, _ = mt.match_detections([det], [gt], thr)
            assert tp[0] == expected

    def test_higher_score_takes_gt(self):
        d1, d2 = rec(0.1, 0.0, score=0.9), rec(0.0, 0.1, score=0.5)
        tp, _ = mt.match_detections([d1, d2], [rec(0.0, 0.0)], 2.0)
        assert tp.tolist() == [True, False]

    def test_class_must_match(self):
        tp, _ = mt.match_detections([rec(0.0, 0.0, cls=1, score=0.9)], [rec(0.0, 0.0, cls=0)], 4.0)
        assert tp.tolist() == [False]

    def test_requires_sorted_scores(self):
        with pytest.raises(ValueError):
            mt.match_detections([rec(0, 0, score=0.1), rec(0, 0, score=0.9)], [], 1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            nd, ng = rng.integers(0, 8), rng.integers(0, 6)
            dets = sorted(
                (rec(*rng.uniform(-5, 5, 2), cls=int(rng.integers(0, 3)),
                     score=float(rng.uniform())) for _ in range(nd)),
                key=lambda d: -d.score,
            )
            gts = [rec(*rng.uniform(-5, 5, 2), cls=int(rng.integers(0, 3))) for _ in range(ng)]
            thr = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            tp, _ = mt.match_detections(dets, gts, thr)
            expected = oracles.greedy_match_oracle(
                [d.center[:2] for d in dets], [d.class_id for d in dets],
                [d.score for d in dets], [g.center[:2] for g in gts],
                [g.class_id for g in gts], thr,
            )
            assert tp.tolist() == expected, f"trial {trial}"


class TestAveragePrecision:
    def test_perfect(self):
        assert mt.average_precision([True, True, True], 3) == 1.0

    def test_no_detections(self):
        assert mt.average_precision([], 5) == 0.0

    def test_undefined(self):
        assert math.isnan(mt.average_precision([], 0))
        assert mt.average_precision([False], 0) == 0.0

    def test_one_tp_one_fp_hand_integrated(self):
        got = mt.average_precision([True, False], 1)
        expected = oracles.average_precision_oracle([True, False], 1)
        assert abs(got - expected) < 1e-12

    def test_matches_hand_integration_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            flags = (rng.uniform(size=n) > 0.5).tolist()
            num_gt = int(rng.integers(max(1, sum(flags)), 15))
            got = mt.average_precision(flags, num_gt)
            expected = oracles.average_precision_oracle(flags, num_gt)
            assert abs(got - expected) < 1e-12

    def test_adding_tp_never_decreases(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            flags = (rng.uniform(size=n) > 0.5).tolist()
            num_gt = int(rng.integers(sum(flags) + 1, 15))
            base = mt.average_precision(flags, num_gt)
            more = mt.average_precision(flags + [True], num_gt)
            assert more >= base - 1e-12

    def test_trailing_fp_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            flags = (rng.uniform(size=n) > 0.5).tolist()
            num_gt = int(rng.integers(max(1, sum(flags)), 15))
            base = mt.average_precision(flags, num_gt)
            more = mt.average_precision(flags + [False], num_gt)
            assert more <= base + 1e-12


class TestTpErrors:
    def test_perfect_matches_zero(self):
        pairs = [(rec(1, 1), rec(1, 1))]
        errors = mt.tp_error_stats(pairs)
        assert all(v == 0.0 for v in errors.values())

    def test_quarter_turn_orientation(self):
        pairs = [(rec(0, 0, yaw=np.pi / 2), rec(0, 0, yaw=0.0))]
        assert abs(mt.tp_error_stats(pairs)["mAOE"] - np.pi / 2) < 1e-12

    def test_yaw_wraps_to_smallest_gap(self):
        pairs = [(rec(0, 0, yaw=np.pi - 0.1), rec(0, 0, yaw=-np.pi + 0.1))]
        assert abs(mt.tp_error_stats(pairs)["mAOE"] - 0.2) < 1e-12

    def test_double_one_axis_scale(self):
        pairs = [(rec(0, 0, size=(2.0, 1.0, 1.0)), rec(0, 0, size=(1.0, 1.0, 1.0)))]
        assert abs(mt.tp_error_stats(pairs)["mASE"] - 0.5) < 1e-12

    def test_no_matches_maximally_bad(self):
        errors = mt.tp_error_stats([])
        assert all(v == 1.0 for v in errors.values())

    def test_velocity_gap(self):
        pairs = [(rec(0, 0, vel=(3.0, 4.0)), rec(0, 0, vel=(0.0, 0.0)))]
        assert abs(mt.tp_error_stats(pairs)["mAVE"] - 5.0) < 1e-12


class TestNds:
    def test_perfect(self):
        assert mt.nds(1.0, {k: 0.0 for k in mt.ERROR_NAMES}) == 1.0

    def test_floor(self):
        assert mt.nds(0.0, {k: 1.5 for k in mt.ERROR_NAMES}) == 0.0

    def test_direct_formula(self):
        assert abs(mt.nds(0.5, {k: 0.5 for k in mt.ERROR_NAMES}) - 0.5) < 1e-12


class TestEvaluate:
    def test_perfect_detections_exact_ones(self):
        gts = [[rec(1, 1, cls=0), rec(-2, 3, cls=1)], [rec(4, -4, cls=0)]]
        dets = [[rec(1, 1, cls=0, score=0.9), rec(-2, 3, cls=1, score=0.8)],
                [rec(4, -4, cls=0, score=0.95)]]
        result = mt.evaluate(dets, gts, class_count=3)
        assert result.mean_ap == 1.0
        assert result.nds == 1.0
        assert all(v == 0.0 for v in result.tp_errors.values())

    def test_empty_detections(self):
        gts = [[rec(1, 1, cls=0)]]
        result = mt.evaluate([[]], gts, class_count=2)
        assert result.mean_ap == 0.0

    def test_fp_at_4_point_1_meters(self):
        gts = [[rec(0, 0, cls=0)]]
        dets = [[rec(4.1, 0, cls=0, score=0.9)]]
        result = mt.evaluate(dets, gts, class_count=1)
        for thr in mt.DEFAULT_THRESHOLDS:
            assert result.class_ap[0][thr] == 0.0

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            gts = [[rec(*rng.uniform(-6, 6, 2), cls=int(rng.integers(0, 2))) for _ in range(4)]]
            dets = [sorted(
                (rec(*rng.uniform(-6, 6, 2), cls=int(rng.integers(0, 2)),
                     score=float(rng.uniform())) for _ in range(6)),
                key=lambda d: -d.score,
            )]
            result = mt.evaluate(dets, gts, class_count=2)
            for cls in range(2):
                aps = [result.class_ap[cls][t] for t in mt.DEFAULT_THRESHOLDS]
                aps = [a for a in aps if not math.isnan(a)]
                for lo, hi in zip(aps, aps[1:]):
                    assert hi >= lo - 1e-12

    def test_undefined_class_excluded(self):
        gts = [[rec(1, 1, cls=0)]]
        dets = [[rec(1, 1, cls=0, score=0.9)]]
        result = mt.evaluate(dets, gts, class_count=5)
        # classes 1..4 have no gt and no detections: excluded, mAP stays 1.0
        assert result.mean_ap == 1.0

    def test_ground_truth_class_out_of_range_raises(self):
        gts = [[rec(1, 1, cls=0), rec(-2, 3, cls=12)]]
        dets = [[rec(1, 1, cls=0, score=0.9)]]
        with pytest.raises(ValueError, match="scene 0, ground truth 1: class_id 12 is out of range for 10"):
            mt.evaluate(dets, gts, class_count=10)

    def test_detection_class_out_of_range_raises(self):
        gts = [[rec(1, 1, cls=0)], [rec(4, -4, cls=1)]]
        dets = [[rec(1, 1, cls=0, score=0.9)], [rec(4, -4, cls=-1, score=0.8)]]
        with pytest.raises(ValueError, match="scene 1, detection 0: class_id -1 is out of range for 3"):
            mt.evaluate(dets, gts, class_count=3)


def test_report_files(tmp_path):
    gts = [[rec(1, 1, cls=0)]]
    dets = [[rec(1, 1, cls=0, score=0.9)]]
    result = mt.evaluate(dets, gts, class_count=2)
    tsv = tmp_path / "report.tsv"
    js = tmp_path / "report.json"
    mt.write_report(tsv, js, result)
    lines = tsv.read_text().strip().split("\n")
    assert lines[0].startswith("class\tAP@0.5")
    assert len(lines) == 3
    payload = json.loads(js.read_text())
    assert payload["mAP"] == 1.0 and payload["NDS"] == 1.0


class TestAveragePrecisionRecallGrid:
    # k at which np.linspace(0, 1, 101)[k] differs from k / 100.0 by one ulp
    ULP_GRID_STEPS = (35, 41, 47, 57, 69, 70, 82, 83, 94, 95)

    @staticmethod
    def assert_matches_oracle(flags, num_gt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mt.average_precision(flags, num_gt)
        expected = oracles.average_precision_oracle(flags, num_gt)
        assert abs(got - expected) < 1e-12, (flags, num_gt, got, expected)
        assert got <= 1.0

    def test_last_recall_on_grid_point(self):
        T, F = True, False
        self.assert_matches_oracle([T, F, T, T, T, T, T, F, T], 10)
        self.assert_matches_oracle([T] * 7, 10)

    def test_last_recall_on_each_ulp_affected_grid_point(self):
        for k in self.ULP_GRID_STEPS:
            self.assert_matches_oracle([True] * k, 100)
            self.assert_matches_oracle([True, False] + [True] * (k - 1), 100)

    def test_repeated_recall_at_grid_point_takes_last_sample(self):
        # recall holds at 0.2 over precisions 1, 2/3, 1/2; the query at 0.2 takes 1/2
        flags = [True, True, False, False, True]
        self.assert_matches_oracle(flags, 10)

    def test_repeated_first_recall(self):
        # queries below 0.2 take precision[0] = 1, the query at 0.2 takes 1/2
        self.assert_matches_oracle([True, False], 5)
        expected = (9 * 0.9 + 0.4) / 90.0 / 0.9
        assert abs(mt.average_precision([True, False], 5) - expected) < 1e-12

    def test_perfect_ranking_exactly_one(self):
        for num_gt in range(1, 300):
            assert mt.average_precision([True] * num_gt, num_gt) == 1.0, num_gt

    def test_never_above_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            flags = (rng.uniform(size=n) > rng.uniform()).tolist()
            num_gt = int(rng.integers(max(1, sum(flags)), 60))
            self.assert_matches_oracle(flags, num_gt)
