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

from .errors import ConfigError, DataError, parse_json

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
    """Intersection over union of two (cx, cy, w, h) boxes; 0 when union is 0,
    at most 1 (rounded corners can make a box overlap itself by an ulp more
    than its area)."""
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
    return float(min(inter / union, 1.0))


def box_iou(a, b) -> np.ndarray:
    """``iou`` of (..., 4) boxes broadcast against each other, in float64.

    Bitwise equal to ``iou`` on finite boxes: the same corners, overlaps,
    union and division in the same order, and 0 exactly where ``iou``
    returns 0 early (a NaN stays NaN).
    """
    ax, ay, aw, ah = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bx, by, bw, bh = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    iw = np.minimum(ax + aw / 2.0, bx + bw / 2.0) - np.maximum(ax - aw / 2.0, bx - bw / 2.0)
    ih = np.minimum(ay + ah / 2.0, by + bh / 2.0) - np.maximum(ay - ah / 2.0, by - bh / 2.0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    out = np.divide(inter, union, out=np.zeros_like(inter),
                    where=~((iw <= 0.0) | (ih <= 0.0) | (union <= 0.0)))
    return np.minimum(out, 1.0, out=out)


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


def clamp_boxes(raw: np.ndarray) -> np.ndarray:
    """Raw (..., 4) x, y, sqrt-w, sqrt-h outputs clamped to [0, 1], with w and h
    squared, in ``raw``'s dtype: cell-relative centers and image-fraction extents."""
    out = np.clip(raw, 0.0, 1.0)
    out[..., 2:] **= 2
    return out


def decode(grid: np.ndarray, image_dims: tuple[int, int], num_classes: int,
           boxes_per_cell: int, score_threshold: float = DEFAULT_EVAL_SCORE_THRESHOLD
           ) -> list[Detection]:
    """Turn an activated grid into image-space detections, box-major, cells row-major.

    Args:
        grid: (gh, gw, C + 5K) activated output.
        image_dims: (width, height) in pixels.
    """
    if grid.ndim != 3:
        raise ConfigError(f"grid must be (gh, gw, C + 5K), got shape {grid.shape}")
    class_probs, boxes = head_views(grid, num_classes, boxes_per_cell)
    gh, gw, _ = grid.shape
    width, height = image_dims

    class_ids = class_probs.argmax(axis=2)
    best_prob = np.take_along_axis(class_probs, class_ids[:, :, None], axis=2)[:, :, 0]
    score = boxes[..., 0] * best_prob[..., None]
    b, i, j = np.nonzero((score >= score_threshold).transpose(2, 0, 1))
    xywh = clamp_boxes(boxes[i, j, b, 1:])
    fields = ((j + xywh[:, 0]) * (width / gw), (i + xywh[:, 1]) * (height / gh),
              xywh[:, 2] * width, xywh[:, 3] * height, class_ids[i, j], best_prob[i, j],
              boxes[i, j, b, 0], score[i, j, b])
    return [Detection((cx, cy, w, h), c, p, conf, s)
            for cx, cy, w, h, c, p, conf, s in zip(*(f.tolist() for f in fields))]


NMS_BLOCK = 64  # IoU rows built at a time: memory stays O(NMS_BLOCK * n)


def nms(dets: list[Detection], iou_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Greedy per-class suppression; ties between equal scores keep input order.
    A box survives unless a higher survivor of its class has IoU >= the threshold."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    order = np.argsort([-d.score for d in dets], kind="stable")
    boxes = np.array([dets[i].box for i in order], dtype=np.float64).reshape(-1, 4)
    classes = np.array([dets[i].class_id for i in order])
    alive = np.ones(len(dets), dtype=bool)
    for start in range(0, len(dets), NMS_BLOCK):
        rows = slice(start, start + NMS_BLOCK)
        # spare[r, c]: box start + r does not suppress box start + c
        spare = ~(box_iou(boxes[rows, None], boxes[None, start:]) >= iou_threshold)
        spare |= classes[rows, None] != classes[None, start:]
        for r in range(len(spare)):
            if alive[start + r]:
                alive[start + r + 1:] &= spare[r, r + 1:]
    return [dets[i] for i in order[alive]]


# ---------------------------------------------------------------------------
# emission formats

def detection_to_json(image_id: str, det: Detection) -> str:
    return json.dumps({"image_id": image_id, **vars(det)}, sort_keys=True)


def write_jsonl(path, dets_by_image: dict[str, list[Detection]]):
    """One JSON object per detection, grouped by image in input order."""
    with open(path, "w") as f:
        for image_id, dets in dets_by_image.items():
            for det in dets:
                f.write(detection_to_json(image_id, det) + "\n")


def read_jsonl(path) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = parse_json(line, f"{path}:{lineno}")
            try:
                cx, cy, w, h = map(float, rec["box"])  # ValueError unless four values
                det = Detection(box=(cx, cy, w, h),
                                class_id=int(rec["class_id"]),
                                class_prob=float(rec["class_prob"]),
                                confidence=float(rec["confidence"]),
                                score=float(rec["score"]))
                out.setdefault(rec["image_id"], []).append(det)
            except (KeyError, ValueError, TypeError, OverflowError) as e:
                raise DataError(f"{path}:{lineno}: bad detection record: {e}") from e
    return out


def fddb_text(image_id: str, dets: list[Detection]) -> str:
    """Submission-style text block: path, count, then left/top/width/height/score."""
    lines = [image_id, str(len(dets))]
    for d in dets:
        cx, cy, w, h = d.box
        lines.append(f"{cx - w / 2:.2f} {cy - h / 2:.2f} {w:.2f} {h:.2f} {d.score:.6f}")
    return "\n".join(lines) + "\n"
