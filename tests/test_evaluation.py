import numpy as np
import pytest

from lcdet.detector import Detection
from lcdet.data import GroundTruthBox
from lcdet.evaluation import (curve, curve_csv, iou_sweep, match, sweep_csv,
                              tp_at_fp_budget)

from conftest import best_assignment_tp


def _det(cx, cy, w, h, score):
    return Detection(box=(cx, cy, w, h), class_id=0, class_prob=1.0,
                     confidence=score, score=score)


def _gt(cx, cy, w, h):
    return GroundTruthBox(cx, cy, w, h)


def test_match_exact_hit():
    dets = [_det(10, 10, 4, 4, 0.9)]
    gts = [_gt(10, 10, 4, 4)]
    assert match(dets, gts, 0.5) == [True]


def test_match_single_gt_single_tp():
    dets = [_det(10, 10, 4, 4, 0.9), _det(10.5, 10, 4, 4, 0.8)]
    gts = [_gt(10, 10, 4, 4)]
    assert match(dets, gts, 0.5) == [True, False]


def test_match_criterion_boundary():
    # overlap engineered to IoU ~ 0.45: TP at 0.4, FP at 0.5
    a = _det(10.0, 10.0, 4.0, 4.0, 0.9)
    g = _gt(11.5, 10.0, 4.0, 4.0)
    from lcdet.detector import iou
    assert 0.4 < iou(a.box, g.box) < 0.5
    assert match([a], [g], 0.4) == [True]
    assert match([a], [g], 0.5) == [False]


def test_match_highest_iou_wins():
    d = _det(10, 10, 4, 4, 0.9)
    near = _gt(10.5, 10, 4, 4)
    exact = _gt(10, 10, 4, 4)
    labels = match([d, _det(10.5, 10, 4, 4, 0.5)], [near, exact], 0.5)
    assert labels == [True, True]  # d takes exact, lower det takes near


def test_match_iou_tie_goes_to_the_first_ground_truth():
    # d sits halfway between two ground truths (IoU 1/3 with each) and takes
    # the first; the exact hit on that one is then left without a partner
    d = _det(12, 10, 4, 4, 0.9)
    g0, g1 = _gt(10, 10, 4, 4), _gt(14, 10, 4, 4)
    assert match([d, _det(10, 10, 4, 4, 0.5)], [g0, g1], 0.3) == [True, False]
    assert match([d, _det(14, 10, 4, 4, 0.5)], [g0, g1], 0.3) == [True, True]


def test_curve_perfect_detector():
    dets = {"a": [_det(10, 10, 4, 4, 0.9)], "b": [_det(5, 5, 2, 2, 0.8)]}
    gts = {"a": [_gt(10, 10, 4, 4)], "b": [_gt(5, 5, 2, 2)]}
    c = curve(dets, gts, 0.5)
    last = c.points[-1]
    assert (last.tp, last.fp) == (2, 0)
    assert last.precision == 1.0 and last.recall == 1.0


def test_curve_empty_detector():
    c = curve({}, {"a": [_gt(1, 1, 2, 2)]}, 0.5)
    assert [(p.tp, p.fp) for p in c.points] == [(0, 0)]


def test_curve_hand_enumerated():
    # scores .9 (TP), .8 (FP), .7 (TP) on two gts
    gts = {"img": [_gt(10, 10, 4, 4), _gt(30, 30, 4, 4)]}
    dets = {"img": [_det(10, 10, 4, 4, 0.9), _det(50, 50, 4, 4, 0.8),
                    _det(30, 30, 4, 4, 0.7)]}
    c = curve(dets, gts, 0.5)
    assert [(p.tp, p.fp) for p in c.points] == [(1, 0), (1, 1), (2, 1)]
    assert c.points[0].threshold == pytest.approx(0.9)
    assert c.points[-1].recall == pytest.approx(1.0)
    assert c.points[-1].precision == pytest.approx(2 / 3)


def test_curve_tp_plus_fn_is_total():
    gts = {"img": [_gt(10, 10, 4, 4), _gt(30, 30, 4, 4), _gt(50, 50, 4, 4)]}
    dets = {"img": [_det(10, 10, 4, 4, 0.9), _det(30, 30, 4, 4, 0.6)]}
    c = curve(dets, gts, 0.5)
    for p in c.points:
        fn = c.total_gt - p.tp
        assert p.tp + fn == c.total_gt
        assert 0.0 <= p.precision <= 1.0
        assert 0.0 <= p.recall <= 1.0


def test_curve_zero_gts_flagged():
    c = curve({"a": [_det(1, 1, 2, 2, 0.5)]}, {"a": []}, 0.5)
    assert c.zero_gt_warning
    assert all(p.recall == 0.0 for p in c.points)


def test_curve_permutation_invariant():
    gts_a = {"a": [_gt(10, 10, 4, 4)], "b": [_gt(5, 5, 2, 2)]}
    dets_a = {"a": [_det(10, 10, 4, 4, 0.7)], "b": [_det(9, 9, 2, 2, 0.9)]}
    gts_b = {k: gts_a[k] for k in reversed(list(gts_a))}
    dets_b = {k: dets_a[k] for k in reversed(list(dets_a))}
    ca, cb = curve(dets_a, gts_a, 0.5), curve(dets_b, gts_b, 0.5)
    assert [(p.threshold, p.tp, p.fp) for p in ca.points] == \
           [(p.threshold, p.tp, p.fp) for p in cb.points]


def test_sweep_monotone_in_criterion(rng):
    gts = {}
    dets = {}
    for i in range(10):
        key = f"img{i}"
        gts[key] = [_gt(rng.uniform(10, 50), rng.uniform(10, 50), 8, 8)]
        g = gts[key][0]
        dets[key] = [_det(g.cx + rng.normal(0, 2), g.cy + rng.normal(0, 2),
                          8 + rng.normal(0, 2), 8 + rng.normal(0, 2),
                          rng.random())]
    rows = iou_sweep(dets, gts, [0.4, 0.5, 0.6])
    rates = [r.tp_rate for r in rows]
    assert rates == sorted(rates, reverse=True)


def test_sweep_single_exact_detection():
    gts = {"a": [_gt(10, 10, 4, 4)]}
    dets = {"a": [_det(10, 10, 4, 4, 0.9)]}
    rows = iou_sweep(dets, gts, [0.3, 0.5, 0.7, 0.9])
    assert all(r.tp_rate == 1.0 for r in rows)


def _labelled(pairs):
    """One image whose matched detections give the (score, is_tp) pairs: each
    TP sits on its own ground truth, each FP far from every box."""
    dets, gts = [], []
    for k, (score, is_tp) in enumerate(pairs):
        x = 10.0 + 20.0 * k
        dets.append(_det(x, 10.0 if is_tp else 100.0, 4, 4, score))
        if is_tp:
            gts.append(_gt(x, 10.0, 4, 4))
    return {"a": dets}, {"a": gts}


def test_tp_at_fp_budget_prefix():
    c = curve(*_labelled([(0.9, True), (0.8, False), (0.7, True), (0.6, False),
                          (0.5, False)]), 0.5)
    tp, fp, thr = tp_at_fp_budget(c, 1)
    assert (tp, fp) == (2, 1)
    assert thr == pytest.approx(0.7)
    tp0, fp0, _ = tp_at_fp_budget(c, 0)
    assert (tp0, fp0) == (1, 0)


def test_fp_budget_never_splits_a_score_tie():
    # threshold 0.5 keeps 2 TP and 2 FP, so a budget of 1 FP stops at 0.9
    dets, gts = _labelled([(0.9, True), (0.5, False), (0.5, False), (0.5, True),
                           (0.2, False)])
    assert tp_at_fp_budget(curve(dets, gts, 0.5), 1) == (1, 0, 0.9)
    (row,) = iou_sweep(dets, gts, [0.5], fp_budget=1)
    assert (row.tp, row.fp, row.threshold) == (1, 0, 0.9)
    (row,) = iou_sweep(dets, gts, [0.5], fp_budget=2)
    assert (row.tp, row.fp, row.threshold) == (2, 2, 0.5)


def test_greedy_equals_exhaustive_on_random_fixtures(rng):
    agree = 0
    for trial in range(50):
        n_det = int(rng.integers(1, 9))
        n_gt = int(rng.integers(1, 9))
        det_boxes = [(rng.uniform(0, 40), rng.uniform(0, 40),
                      rng.uniform(4, 14), rng.uniform(4, 14)) for _ in range(n_det)]
        gt_boxes = [(rng.uniform(0, 40), rng.uniform(0, 40),
                     rng.uniform(4, 14), rng.uniform(4, 14)) for _ in range(n_gt)]
        scores = rng.random(n_det)
        dets = [_det(*b, s) for b, s in zip(det_boxes, scores)]
        gts = [_gt(*b) for b in gt_boxes]
        greedy_tp = sum(match(dets, gts, 0.5))
        oracle_tp = best_assignment_tp(det_boxes, scores, gt_boxes, 0.5)
        assert greedy_tp <= oracle_tp
        agree += greedy_tp == oracle_tp
    assert agree == 50


def test_csv_outputs():
    gts = {"a": [_gt(10, 10, 4, 4)]}
    dets = {"a": [_det(10, 10, 4, 4, 0.75)]}
    c = curve(dets, gts, 0.5)
    text = curve_csv(c)
    assert text.splitlines()[0] == "threshold,tp,fp,precision,recall"
    assert "0.750000,1,0,1.000000,1.000000" in text
    rows = iou_sweep(dets, gts, [0.5])
    assert sweep_csv(rows).splitlines()[1].startswith("0.500,1,")
