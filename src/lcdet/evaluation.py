"""Discrete-score detection evaluation: matching, TP-FP and PR curves, sweeps.

Matching is greedy in descending score order, one ground truth per
detection: the classic benchmark protocol. A detection's TP/FP label only
depends on higher-scored detections, so the full set is matched once and
threshold sweeps just cut prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import Detection, iou
from .errors import ConfigError


@dataclass
class CurvePoint:
    threshold: float
    tp: int
    fp: int
    precision: float
    recall: float


@dataclass
class EvalCurve:
    points: list[CurvePoint]
    iou_criterion: float
    total_gt: int
    zero_gt_warning: bool = False


@dataclass
class SweepRow:
    iou_criterion: float
    tp: int
    fp: int
    tp_rate: float
    threshold: float


def match(dets: list[Detection], gts, iou_criterion: float) -> list[bool]:
    """Label each detection TP/FP against one image's ground truths.

    Detections are visited in descending score (ties keep input order); each
    one takes the unmatched ground truth with the highest IoU if that IoU
    meets the criterion. Returns labels aligned with the input order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    labels = [False] * len(dets)
    for i in order:
        best, best_iou = -1, 0.0
        for g, gt in enumerate(gts):
            if taken[g]:
                continue
            v = iou(dets[i].box, gt.box)
            if v > best_iou:
                best, best_iou = g, v
        if best >= 0 and best_iou >= iou_criterion:
            taken[best] = True
            labels[i] = True
    return labels


def _scored_labels(dets_by_image: dict, gts_by_image: dict, iou_criterion: float):
    """All (score, is_tp) pairs, matched per image, sorted by descending score."""
    pairs = []
    for image_id, gts in gts_by_image.items():
        dets = dets_by_image.get(image_id, [])
        labels = match(dets, gts, iou_criterion)
        pairs += [(d.score, lab) for d, lab in zip(dets, labels)]
    for image_id, dets in dets_by_image.items():
        if image_id not in gts_by_image:  # images with no annotation: all FP
            pairs += [(d.score, False) for d in dets]
    pairs.sort(key=lambda p: -p[0])
    total_gt = sum(len(g) for g in gts_by_image.values())
    return pairs, total_gt


def curve(dets_by_image: dict, gts_by_image: dict, iou_criterion: float) -> EvalCurve:
    """TP-FP / precision-recall curve swept over every distinct score.

    Precision at a point with no retained detections is reported as 1.0
    (no false alarms); recall with zero ground truths is reported as 0 and
    flagged.
    """
    if not 0.0 < iou_criterion < 1.0:
        raise ConfigError(f"IoU criterion must be in (0, 1), got {iou_criterion}")
    pairs, total_gt = _scored_labels(dets_by_image, gts_by_image, iou_criterion)
    warn = total_gt == 0
    points = []
    if not pairs:
        points.append(CurvePoint(float("inf"), 0, 0, 1.0, 0.0))
        return EvalCurve(points, iou_criterion, total_gt, warn)
    tp = fp = 0
    for idx, (score, is_tp) in enumerate(pairs):
        tp += int(is_tp)
        fp += int(not is_tp)
        last_of_score = idx + 1 == len(pairs) or pairs[idx + 1][0] != score
        if last_of_score:
            precision = tp / (tp + fp) if (tp + fp) else 1.0
            recall = tp / total_gt if total_gt else 0.0
            points.append(CurvePoint(float(score), tp, fp, precision, recall))
    return EvalCurve(points, iou_criterion, total_gt, warn)


def tp_at_fp_budget(c: EvalCurve, fp_budget: int):
    """Largest TP count at a curve point with FP <= budget; returns (tp, fp, threshold).

    Only curve points count: a score threshold keeps every detection of a
    group of equal scores or none of them.
    """
    best = (0, 0, float("inf"))
    for p in c.points:
        if p.fp <= fp_budget and p.tp >= best[0]:
            best = (p.tp, p.fp, p.threshold)
    return best


def sweep_rows(curves: list[EvalCurve], fp_budget: int) -> list[SweepRow]:
    """TP rate at a fixed FP budget on each curve."""
    rows = []
    for c in curves:
        tp, fp, thr = tp_at_fp_budget(c, fp_budget)
        rate = tp / c.total_gt if c.total_gt else 0.0
        rows.append(SweepRow(c.iou_criterion, tp, fp, rate, thr))
    return rows


def iou_sweep(dets_by_image: dict, gts_by_image: dict, criteria,
              fp_budget: int | None = None) -> list[SweepRow]:
    """TP rate at a fixed FP budget for each IoU criterion (default budget:
    one false positive per image)."""
    if fp_budget is None:
        fp_budget = len(gts_by_image)
    return sweep_rows([curve(dets_by_image, gts_by_image, c) for c in criteria], fp_budget)


def curve_csv(c: EvalCurve) -> str:
    lines = ["threshold,tp,fp,precision,recall"]
    for p in c.points:
        lines.append(f"{p.threshold:.6f},{p.tp},{p.fp},{p.precision:.6f},{p.recall:.6f}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["iou_criterion,tp,fp,tp_rate,threshold"]
    for r in rows:
        lines.append(f"{r.iou_criterion:.3f},{r.tp},{r.fp},{r.tp_rate:.6f},{r.threshold:.6f}")
    return "\n".join(lines) + "\n"
