"""Grid decoding, IoU, and non-maximum suppression.

The activated output grid is (gh, gw, C + 5K). Per cell, channels [0, C) are
class probabilities; box b then owns channel C+5b (confidence) and channels
C+5b+1..C+5b+4 as raw (x, y, w, h) outputs. x and y are cell-relative center
offsets; w and h are square roots of image-relative extents, so decode
squares them after clamping to [0, 1]. ``head_views`` is the one place that
knows this layout; every other module reads the grid through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_EVAL_SCORE_THRESHOLD = 0.005
DEFAULT_DEMO_SCORE_THRESHOLD = 0.25
DEFAULT_NMS_IOU = 0.5


@dataclass
class Detection:
    box: tuple[float, float, float, float]  # (cx, cy, w, h) in image pixels
    class_id: int
    class_prob: float
    confidence: float
    score: float


def iou(a, b) -> float:
    """Intersection over union of two (cx, cy, w, h) boxes; 0 when union is 0."""
    ax1, ay1 = a[0] - a[2] / 2.0, a[1] - a[3] / 2.0
    ax2, ay2 = a[0] + a[2] / 2.0, a[1] + a[3] / 2.0
    bx1, by1 = b[0] - b[2] / 2.0, b[1] - b[3] / 2.0
    bx2, by2 = b[0] + b[2] / 2.0, b[1] + b[3] / 2.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    if union <= 0.0:
        return 0.0
    return float(inter / union)


def head_views(grid: np.ndarray, num_classes: int, boxes_per_cell: int):
    """Split a (..., C + 5K) head grid into views (classes (..., C), boxes (..., K, 5)).

    The box fields are ordered conf, x, y, sqrt-w, sqrt-h. Writing to either
    view writes to ``grid``.
    """
    c, k = num_classes, boxes_per_cell
    if k < 1 or grid.shape[-1] != c + 5 * k:
        raise ConfigError(f"grid has {grid.shape[-1]} channels, expected C + 5K = {c + 5 * k} "
                          f"for C = {c}, K = {k}")
    # splitting the last axis in two never copies, so both are views
    return grid[..., :c], grid[..., c:].reshape(grid.shape[:-1] + (k, 5))


def decode(grid: np.ndarray, image_dims: tuple[int, int], num_classes: int,
           boxes_per_cell: int, score_threshold: float = DEFAULT_EVAL_SCORE_THRESHOLD
           ) -> list[Detection]:
    """Turn an activated grid into image-space detections.

    Args:
        grid: (gh, gw, C + 5K) activated output.
        image_dims: (width, height) in pixels.
    """
    if grid.ndim != 3:
        raise ConfigError(f"grid must be (gh, gw, C + 5K), got shape {grid.shape}")
    class_probs, boxes = head_views(grid, num_classes, boxes_per_cell)
    gh, gw, _ = grid.shape
    width, height = image_dims
    stride_x = width / gw
    stride_y = height / gh

    class_ids = class_probs.argmax(axis=2)
    best_prob = np.take_along_axis(class_probs, class_ids[:, :, None], axis=2)[:, :, 0]

    dets: list[Detection] = []
    for b in range(boxes_per_cell):
        conf = boxes[:, :, b, 0]
        xy = np.clip(boxes[:, :, b, 1:3], 0.0, 1.0)
        wh = np.clip(boxes[:, :, b, 3:5], 0.0, 1.0) ** 2
        score = conf * best_prob
        keep = np.argwhere(score >= score_threshold)
        for i, j in keep:
            cx = (j + xy[i, j, 0]) * stride_x
            cy = (i + xy[i, j, 1]) * stride_y
            w = wh[i, j, 0] * width
            h = wh[i, j, 1] * height
            dets.append(Detection(
                box=(float(cx), float(cy), float(w), float(h)),
                class_id=int(class_ids[i, j]),
                class_prob=float(best_prob[i, j]),
                confidence=float(conf[i, j]),
                score=float(score[i, j])))
    return dets


def nms(dets: list[Detection], iou_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Greedy per-class suppression; ties between equal scores keep input order."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        d = dets[i]
        ok = True
        for j in kept:
            other = dets[j]
            if other.class_id == d.class_id and iou(other.box, d.box) >= iou_threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


# ---------------------------------------------------------------------------
# emission formats

def detection_to_json(image_id: str, det: Detection) -> str:
    return json.dumps({
        "image_id": image_id,
        "class_id": det.class_id,
        "score": det.score,
        "confidence": det.confidence,
        "class_prob": det.class_prob,
        "box": [det.box[0], det.box[1], det.box[2], det.box[3]],
    }, sort_keys=True)


def write_jsonl(path, dets_by_image: dict[str, list[Detection]]):
    """One JSON object per detection, grouped by image in input order."""
    with open(path, "w") as f:
        for image_id, dets in dets_by_image.items():
            for det in dets:
                f.write(detection_to_json(image_id, det) + "\n")


def read_jsonl(path) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                det = Detection(box=tuple(float(v) for v in rec["box"]),
                                class_id=int(rec["class_id"]),
                                class_prob=float(rec["class_prob"]),
                                confidence=float(rec["confidence"]),
                                score=float(rec["score"]))
                image_id = rec["image_id"]
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise DataError(f"{path}:{lineno}: bad detection record: {e}") from e
            out.setdefault(image_id, []).append(det)
    return out


def fddb_text(image_id: str, dets: list[Detection]) -> str:
    """Submission-style text block: path, count, then left/top/width/height/score."""
    lines = [image_id, str(len(dets))]
    for d in dets:
        cx, cy, w, h = d.box
        lines.append(f"{cx - w / 2:.2f} {cy - h / 2:.2f} {w:.2f} {h:.2f} {d.score:.6f}")
    return "\n".join(lines) + "\n"
