"""Datasets: the synthetic rectangle generator and on-disk formats.

On disk a dataset is a directory of binary PPM (P6) images plus an
``annotations.json`` mapping image path to a list of
``{"box": [cx, cy, w, h], "class_id": int}`` entries, box in pixels.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .detector import iou
from .errors import DataError, UsageError, finite, json_fields, parse_json


@dataclass
class GroundTruthBox:
    cx: float
    cy: float
    w: float
    h: float
    class_id: int = 0

    @property
    def box(self):
        return (self.cx, self.cy, self.w, self.h)

    @property
    def area(self):
        return self.w * self.h


def synth_dataset(n: int, image_dims: tuple[int, int] = (112, 112), seed: int = 0,
                  augment: bool = False):
    """Generate ``n`` noise images with 1-4 solid rectangles of class 0.

    Rectangle sides are 8%-60% of the matching image side and boxes lie fully
    inside the image. Placement rejection keeps pairwise IoU <= 0.1 so
    rectangles stay visually distinct; a placement that cannot be found after
    20 tries is dropped (at least one box always remains). Rectangles are
    painted largest first, so no ground truth is buried under a later one
    (a small box inside a big one passes the IoU gate; drawing big-first
    keeps every box at least ~80% visible).
    Deterministic for a given seed.
    """
    if n < 1:
        raise UsageError("synthetic dataset needs n >= 1")
    width, height = image_dims
    rng = np.random.default_rng(seed)
    dataset = []
    for _ in range(n):
        img = rng.random((height, width, 3), dtype=np.float32)
        boxes: list[GroundTruthBox] = []
        colors: list[np.ndarray] = []
        want = int(rng.integers(1, 5))
        for _ in range(want):
            for _attempt in range(20):
                w = float(rng.uniform(0.08, 0.60)) * width
                h = float(rng.uniform(0.08, 0.60)) * height
                cx = float(rng.uniform(w / 2, width - w / 2))
                cy = float(rng.uniform(h / 2, height - h / 2))
                cand = (cx, cy, w, h)
                if all(iou(cand, b.box) <= 0.1 for b in boxes):
                    boxes.append(GroundTruthBox(cx, cy, w, h, 0))
                    colors.append(rng.random(3, dtype=np.float32))
                    break
        for idx in sorted(range(len(boxes)), key=lambda i: -boxes[i].area):
            b = boxes[idx]
            x1, y1 = int(round(b.cx - b.w / 2)), int(round(b.cy - b.h / 2))
            x2, y2 = int(round(b.cx + b.w / 2)), int(round(b.cy + b.h / 2))
            img[max(0, y1):y2, max(0, x1):x2] = colors[idx]
        if augment:
            img, boxes = _scale_crop(img, boxes, rng)
        dataset.append((img, boxes))
    return dataset


def _scale_crop(img: np.ndarray, boxes: list[GroundTruthBox], rng) -> tuple:
    """Random +/-20% rescale and recrop to the original size (augmentation)."""
    height, width = img.shape[:2]
    s = float(rng.uniform(0.8, 1.2))
    sh, sw = max(1, int(round(height * s))), max(1, int(round(width * s)))
    ys = np.clip((np.arange(sh) / s).astype(int), 0, height - 1)
    xs = np.clip((np.arange(sw) / s).astype(int), 0, width - 1)
    scaled = img[ys][:, xs]
    if s >= 1.0:
        oy = int(rng.integers(0, sh - height + 1))
        ox = int(rng.integers(0, sw - width + 1))
        out = scaled[oy:oy + height, ox:ox + width]
    else:
        out = np.zeros_like(img)
        oy = -int(rng.integers(0, height - sh + 1))
        ox = -int(rng.integers(0, width - sw + 1))
        out[-oy:-oy + sh, -ox:-ox + sw] = scaled
    kept = []
    for b in boxes:
        cx, cy = b.cx * s - ox, b.cy * s - oy
        if 0 <= cx < width and 0 <= cy < height:
            kept.append(GroundTruthBox(cx, cy, min(b.w * s, width), min(b.h * s, height), b.class_id))
    if not kept:  # keep the image trainable: fall back to the unaugmented sample
        return img, boxes
    return out, kept


# ---------------------------------------------------------------------------
# PPM (P6) image I/O

def write_ppm(path, img: np.ndarray):
    """Write a float image in [0, 1] (or a u8 image) as binary PPM."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"PPM wants (H, W, 3), got {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into float32 [0, 1], shape (H, W, 3)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise DataError(f"{path}: malformed PPM header") from None
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DataError(f"{path}: PPM size {w}x{h} has no pixels")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * 3
    raw = data[pos:pos + need]
    if len(raw) != need:
        raise DataError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return img.astype(np.float32) / 255.0


# ---------------------------------------------------------------------------
# dataset directories

ANNOTATIONS_NAME = "annotations.json"


def write_dataset(dataset, directory):
    """Write (image, boxes) pairs as PPM files plus annotations.json."""
    os.makedirs(directory, exist_ok=True)
    annotations = {}
    for i, (img, boxes) in enumerate(dataset):
        name = f"img_{i:05d}.ppm"
        write_ppm(os.path.join(directory, name), img)
        annotations[name] = [
            {"box": [b.cx, b.cy, b.w, b.h], "class_id": b.class_id} for b in boxes
        ]
    with open(os.path.join(directory, ANNOTATIONS_NAME), "w") as f:
        json.dump(annotations, f, indent=1, sort_keys=True)


_ENTRY_FIELDS = {"box": [finite] * 4, "class_id": int}


def load_annotations(path) -> dict[str, list[GroundTruthBox]]:
    with open(path, "rb") as f:
        raw = parse_json(f.read(), str(path))
    if not isinstance(raw, dict):
        raise DataError(f"{path}: annotations must be a JSON object of box lists")
    out = {}
    for name, entries in raw.items():
        if not isinstance(entries, list):
            raise DataError(f"{path}: entries for {name!r} must be a list")
        fields = [json_fields(e, _ENTRY_FIELDS, f"{path}: entry {i} for {name!r}", {"class_id": 0})
                  for i, e in enumerate(entries)]
        out[name] = [GroundTruthBox(*map(float, f["box"]), f["class_id"]) for f in fields]
    return out


def load_dataset(directory):
    """Read a dataset directory back into (image, boxes) pairs, sorted by name."""
    ann_path = os.path.join(directory, ANNOTATIONS_NAME)
    if not os.path.exists(ann_path):
        raise UsageError(f"{directory}: no {ANNOTATIONS_NAME} found")
    annotations = load_annotations(ann_path)
    dataset = []
    for name in sorted(annotations):
        img = read_ppm(os.path.join(directory, name))
        dataset.append((img, annotations[name]))
    return dataset
