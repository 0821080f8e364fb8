"""Shared fixtures and independent reference implementations.

The oracles here are deliberately written as straight-line loops with their
own IoU/decode logic so they share no code path with the package.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from lcdet.data import GroundTruthBox
from lcdet.model import LayerSpec, NetworkSpec, init_model


def naive_conv2d(x, w, b, stride=1, padding="same"):
    """Triple-loop convolution reference, zero padding, channels-last."""
    h, wd, cin = x.shape
    kh, kw, cin2, cout = w.shape
    assert cin == cin2
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-wd // stride)
        pt = max(0, (oh - 1) * stride + kh - h) // 2
        pl = max(0, (ow - 1) * stride + kw - wd) // 2
    else:
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
        pt = pl = 0
    out = np.zeros((oh, ow, cout), dtype=np.float64)
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(cout):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        iy = oy * stride + dy - pt
                        ix = ox * stride + dx - pl
                        if 0 <= iy < h and 0 <= ix < wd:
                            for ic in range(cin):
                                acc += float(x[iy, ix, ic]) * float(w[dy, dx, ic, oc])
                out[oy, ox, oc] = acc + float(b[oc])
    return out


def naive_iou(a, b):
    ax1, ay1, ax2, ay2 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1, bx2, by2 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def naive_detection_loss(grid, target, lambda_coord, lambda_noobj, num_classes):
    """Straight-line transcription of the five loss sums, own decode and IoU.

    Returns the four parts (coord, obj_conf, noobj_conf, class).
    """
    gh, gw, ch = grid.shape
    c = num_classes
    k = (ch - c) // 5
    eps = 1e-6
    coord = obj_conf = noobj_conf = class_sum = 0.0
    for i in range(gh):
        for j in range(gw):
            has_obj = bool(target.object_mask[i, j])
            responsible = -1
            conf_t = 0.0
            if has_obj:
                tx, ty, tw, th = (float(v) for v in target.boxes[i, j])
                gt = ((j + tx) / gw, (i + ty) / gh, tw, th)
                ious = []
                for bx in range(k):
                    base = c + 5 * bx
                    px = min(max(float(grid[i, j, base + 1]), 0.0), 1.0)
                    py = min(max(float(grid[i, j, base + 2]), 0.0), 1.0)
                    pw = min(max(float(grid[i, j, base + 3]), 0.0), 1.0) ** 2
                    ph = min(max(float(grid[i, j, base + 4]), 0.0), 1.0) ** 2
                    ious.append(naive_iou(((j + px) / gw, (i + py) / gh, pw, ph), gt))
                if max(ious) > 0.0:
                    responsible = ious.index(max(ious))
                    conf_t = max(ious)
                else:
                    dists = []
                    for bx in range(k):
                        base = c + 5 * bx
                        d = ((float(grid[i, j, base + 1]) - tx) ** 2
                             + (float(grid[i, j, base + 2]) - ty) ** 2
                             + (float(grid[i, j, base + 3]) - np.sqrt(tw)) ** 2
                             + (float(grid[i, j, base + 4]) - np.sqrt(th)) ** 2)
                        dists.append(d)
                    responsible = dists.index(min(dists))
                    conf_t = 0.0
            for bx in range(k):
                base = c + 5 * bx
                c_hat = float(grid[i, j, base])
                if bx == responsible:
                    obj_conf += (conf_t - c_hat) ** 2
                else:
                    noobj_conf += lambda_noobj * c_hat ** 2
            if has_obj:
                base = c + 5 * responsible
                tx, ty, tw, th = (float(v) for v in target.boxes[i, j])
                coord += lambda_coord * ((tx - float(grid[i, j, base + 1])) ** 2
                                         + (ty - float(grid[i, j, base + 2])) ** 2)
                w_hat = max(float(grid[i, j, base + 3]), eps)
                h_hat = max(float(grid[i, j, base + 4]), eps)
                coord += lambda_coord * ((np.sqrt(tw) - w_hat) ** 2
                                         + (np.sqrt(th) - h_hat) ** 2)
                for cls in range(c):
                    want = 1.0 if cls == int(target.class_ids[i, j]) else 0.0
                    class_sum += (want - float(grid[i, j, cls])) ** 2
    return coord, obj_conf, noobj_conf, class_sum


def best_assignment_tp(det_boxes, det_scores, gt_boxes, criterion):
    """Exhaustive one-to-one assignment maximizing TP count (matching oracle)."""
    n = len(det_boxes)

    def rec(d, used):
        if d == n:
            return 0
        best = rec(d + 1, used)  # leave detection d unmatched
        for g in range(len(gt_boxes)):
            if used & (1 << g):
                continue
            if naive_iou(det_boxes[d], gt_boxes[g]) >= criterion:
                best = max(best, 1 + rec(d + 1, used | (1 << g)))
        return best

    return rec(0, 0)


def tiny_head_spec(num_classes=1, boxes_per_cell=1, input_channels=3):
    """Smallest legal network: just the detection head (total stride 1)."""
    head = LayerSpec(kind="detection_head", kernel=(1, 1),
                     out_channels=num_classes + 5 * boxes_per_cell,
                     stride=1, padding="same", activation="final")
    return NetworkSpec(layers=[head], num_classes=num_classes,
                       boxes_per_cell=boxes_per_cell,
                       input_channels=input_channels, name="head-only")


def tiny_net_spec(num_classes=1, boxes_per_cell=2):
    """A small conv/pool/head net with total stride 4 for gradient tests."""
    layers = [
        LayerSpec("conv", (3, 3), 6, 1, "same", "relu"),
        LayerSpec("maxpool", (2, 2), None, 2),
        LayerSpec("conv", (3, 3), 8, 1, "same", "relu"),
        LayerSpec("maxpool", (2, 2), None, 2),
        LayerSpec("conv", (3, 3), 8, 1, "same", "relu"),
        LayerSpec("detection_head", (1, 1), num_classes + 5 * boxes_per_cell,
                  1, "same", "final"),
    ]
    return NetworkSpec(layers=layers, num_classes=num_classes,
                       boxes_per_cell=boxes_per_cell, input_channels=3, name="tiny")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_grid_target(rng, gh, gw, num_classes, boxes_per_cell, n_objects):
    """Random activated grid plus a random static target for loss tests."""
    from lcdet.train import GridTarget
    ch = num_classes + 5 * boxes_per_cell
    grid = rng.random((gh, gw, ch))
    mask = np.zeros((gh, gw), dtype=bool)
    boxes = np.zeros((gh, gw, 4), dtype=np.float32)
    class_ids = np.zeros((gh, gw), dtype=np.int32)
    cells = rng.permutation(gh * gw)[:n_objects]
    for cell in cells:
        i, j = divmod(int(cell), gw)
        mask[i, j] = True
        boxes[i, j] = [rng.random(), rng.random(),
                       0.05 + 0.5 * rng.random(), 0.05 + 0.5 * rng.random()]
        class_ids[i, j] = rng.integers(0, num_classes)
    return grid, GridTarget(mask, boxes, class_ids)


def make_gt(cx, cy, w, h, class_id=0):
    return GroundTruthBox(cx, cy, w, h, class_id)


def model_with_header(blob: bytes, header: bytes) -> bytes:
    """The model file ``blob`` with its JSON header bytes replaced by ``header``."""
    n = int.from_bytes(blob[8:12], "little")
    return blob[:8] + len(header).to_bytes(4, "little") + header + blob[12 + n:]


# Parsed JSON for fuzzing readers: every JSON type, NaN and infinities, and an
# integer too large for a float.
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 300), st.just(10 ** 400),
                         st.floats(), st.text(max_size=4))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
