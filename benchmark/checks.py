"""Reference computations and output checks, written apart from lcdet.

Nothing here calls the package's numeric code: the model file is parsed
from FORMATS.md, convolutions are shift-and-accumulate sums in float64 (no
patch matrix), and decode, NMS, IoU, matching and the TP-FP curve are
re-implemented from their documented rules. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

# ---------------------------------------------------------------------------
# model file (FORMATS.md)


def read_model(path):
    """Parse a .lcdet file into (header, [(w, w_range, b) or None per layer])."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"LCDT":
        raise ValueError(f"{path}: bad magic")
    version, hlen = struct.unpack_from("<II", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unknown version {version}")
    header = json.loads(data[12:12 + hlen])
    pos = 12 + hlen

    def record():
        nonlocal pos
        tag, rank = struct.unpack_from("<BI", data, pos)
        pos += 5
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        rng = None
        if tag == 1:
            rng = struct.unpack_from("<2f", data, pos)
            pos += 8
        count = int(np.prod(dims)) if dims else 1
        dtype = np.dtype("<f4") if tag == 0 else np.dtype(np.uint8)
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(dims)
        pos += count * dtype.itemsize + 4  # payload, crc
        return arr, rng

    layers = []
    for layer in header["layers"]:
        if layer["kind"] == "maxpool":
            layers.append(None)
            continue
        w, w_range = record()
        b, _ = record()
        layers.append((w, w_range, b))
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return header, layers


# ---------------------------------------------------------------------------
# float64 reference network


def _same_pad(size, k, stride):
    out = -(-size // stride)
    total = max(0, (out - 1) * stride + k - size)
    return out, total // 2, total - total // 2


def ref_conv(x, w, b, stride=1):
    """Direct 'same' convolution of (H, W, Cin) by (kh, kw, Cin, Cout) in float64."""
    h, wd, _ = x.shape
    kh, kw, _, cout = w.shape
    oh, pt, pb = _same_pad(h, kh, stride)
    ow, pl, pr = _same_pad(wd, kw, stride)
    xp = np.pad(np.asarray(x, dtype=np.float64), ((pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((oh, ow, cout))
    for dy in range(kh):
        for dx in range(kw):
            tap = xp[dy:dy + (oh - 1) * stride + 1:stride, dx:dx + (ow - 1) * stride + 1:stride]
            out += tap @ np.asarray(w[dy, dx], dtype=np.float64)
    return out + np.asarray(b, dtype=np.float64)


def ref_maxpool(x, size, stride):
    """Max pool with trailing partial windows clipped, as in the float path."""
    h, wd, c = x.shape
    oh, ow = -(-h // stride), -(-wd // stride)
    xp = np.full(((oh - 1) * stride + size, (ow - 1) * stride + size, c), -np.inf)
    xp[:h, :wd] = x
    out = np.full((oh, ow, c), -np.inf)
    for dy in range(size):
        for dx in range(size):
            np.maximum(out, xp[dy:dy + (oh - 1) * stride + 1:stride,
                               dx:dx + (ow - 1) * stride + 1:stride], out=out)
    return out


def ref_activation(x, kind):
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.where(x > 0, x, 0.1 * x)
    return x


def ref_head(raw, num_classes, boxes_per_cell):
    """Split output activation: sigmoid confidences, class softmax (sigmoid if C=1)."""
    out = np.array(raw, dtype=np.float64)
    c = num_classes
    if c == 1:
        out[..., 0] = 1.0 / (1.0 + np.exp(-raw[..., 0]))
    else:
        e = np.exp(raw[..., :c] - raw[..., :c].max(axis=-1, keepdims=True))
        out[..., :c] = e / e.sum(axis=-1, keepdims=True)
    for box in range(boxes_per_cell):
        out[..., c + 5 * box] = 1.0 / (1.0 + np.exp(-raw[..., c + 5 * box]))
    return out


def ref_forward(header, layers, image):
    """Activated (gh, gw, C + 5K) grid of a float model, all in float64."""
    x = np.asarray(image, dtype=np.float64)
    for spec, lw in zip(header["layers"], layers):
        if spec["kind"] == "maxpool":
            x = ref_maxpool(x, spec["kernel"][0], spec["stride"])
            continue
        w, _, b = lw
        x = ref_conv(x, w, b, spec["stride"])
        if spec["kind"] != "detection_head":
            x = ref_activation(x, spec["activation"])
    return ref_head(x, header["num_classes"], header["boxes_per_cell"])


def check_float_grid(grid, ref, tol=1e-3):
    """Float32 program grid against the float64 reference: |d| <= tol * (1 + |ref|)."""
    if grid.shape != ref.shape:
        return [f"grid shape {grid.shape} != reference {ref.shape}"]
    err = np.abs(grid.astype(np.float64) - ref) / (1.0 + np.abs(ref))
    if not err.max() <= tol:
        return [f"float grid differs from float64 reference by {err.max():.3g} (tol {tol})"]
    return []


# ---------------------------------------------------------------------------
# 8-bit contracts (README "numeric contracts")


def ref_dequantize(q, lo, hi):
    return lo + np.asarray(q, dtype=np.float64) * ((hi - lo) / 255.0)


def ref_quantize(x, lo, hi):
    """Round half away from zero onto [lo, hi], saturating."""
    span = hi - lo
    if span <= 0:
        return np.zeros(np.shape(x), dtype=np.int64)
    v = (np.asarray(x, dtype=np.float64) - lo) * (255.0 / span)
    return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), 0, 255).astype(np.int64)


def check_qconv_layer(call):
    """One recorded 8-bit conv: output within one byte of quantizing the float64
    conv of its own dequantized operands (activation applied before requant)."""
    x = ref_dequantize(call["x"], *call["x_range"])
    w = ref_dequantize(call["w"], *call["w_range"])
    ref = ref_activation(ref_conv(x, w, call["b"], call["stride"]), call["activation"])
    want = ref_quantize(ref, *call["out_range"])
    got = np.asarray(call["out"], dtype=np.int64)
    if got.shape != want.shape:
        return [f"layer {call['index']}: output shape {got.shape} != {want.shape}"]
    worst = int(np.abs(got - want).max())
    if worst > 1:
        return [f"layer {call['index']}: 8-bit conv is {worst} byte steps from the reference"]
    return []


def check_qpool_layer(call):
    want = ref_maxpool(np.asarray(call["x"], dtype=np.float64), call["size"], call["stride"])
    if not np.array_equal(np.asarray(call["out"], dtype=np.float64), want):
        return [f"layer {call['index']}: 8-bit max pool differs from the reference"]
    return []


def check_weight_roundtrip(float_layers, q_layers, chunk=1 << 20):
    """Every quantized weight is within half a step of its float source."""
    problems = []
    for i, (fl, ql) in enumerate(zip(float_layers, q_layers)):
        if fl is None:
            continue
        w, q, (lo, hi) = fl[0].reshape(-1), ql[0].reshape(-1), ql[1]
        half = (float(hi) - float(lo)) / 510.0
        worst = 0.0
        for s in range(0, w.size, chunk):
            back = ref_dequantize(q[s:s + chunk], float(lo), float(hi))
            worst = max(worst, float(np.abs(back - w[s:s + chunk]).max()))
        if worst > half * (1 + 1e-6) + 1e-12:
            problems.append(f"layer {i}: weight round trip error {worst:.3g} > half step {half:.3g}")
        if not np.array_equal(fl[2], ql[2]):
            problems.append(f"layer {i}: bias changed by quantization")
    return problems


def check_u8_fidelity(float_grid, u8_grid, step, steps=3, share=0.99):
    """At least ``share`` of 8-bit grid elements lie within ``steps`` output steps of float."""
    close = np.abs(u8_grid.astype(np.float64) - float_grid) <= steps * step
    if close.mean() < share:
        return [f"only {close.mean():.4f} of 8-bit grid elements within {steps} steps of float"]
    return []


# ---------------------------------------------------------------------------
# decode, IoU, NMS


def ref_iou(a, b):
    iw = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    ih = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    if iw <= 0 or ih <= 0:
        return 0.0
    union = a[2] * a[3] + b[2] * b[3] - iw * ih
    return iw * ih / union if union > 0 else 0.0


def ref_decode(grid, width, height, num_classes, boxes_per_cell, threshold):
    """Detections as dicts, emitted box-major then row-major like the program."""
    gh, gw, _ = grid.shape
    c = num_classes
    probs = grid[:, :, :c]
    cls = probs.argmax(axis=2)
    best = probs.max(axis=2)
    out = []
    for box in range(boxes_per_cell):
        ch = c + 5 * box
        score = grid[:, :, ch] * best  # same float width as the grid
        for i in range(gh):
            for j in range(gw):
                if not score[i, j] >= grid.dtype.type(threshold):
                    continue
                x, y, w, h = (min(max(float(v), 0.0), 1.0) for v in grid[i, j, ch + 1:ch + 5])
                out.append({"box": [(j + x) * width / gw, (i + y) * height / gh,
                                    w * w * width, h * h * height],
                            "class_id": int(cls[i, j]), "score": float(score[i, j])})
    return out


def ref_nms(dets, iou_threshold):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], i))
    kept = []
    for i in order:
        if all(dets[k]["class_id"] != dets[i]["class_id"]
               or ref_iou(dets[k]["box"], dets[i]["box"]) < iou_threshold for k in kept):
            kept.append(i)
    return [dets[i] for i in kept]


def read_detections(path):
    """detections.jsonl grouped by image_id, file order kept."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                out.setdefault(rec["image_id"], []).append(rec)
    return out


def check_detections(got, want, image_id):
    """CLI detections for one image against the reference decode + NMS."""
    if len(got) != len(want):
        return [f"{image_id}: {len(got)} detections, reference keeps {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if g["class_id"] != w["class_id"] \
                or not math.isclose(g["score"], w["score"], rel_tol=1e-6, abs_tol=1e-9) \
                or not np.allclose(g["box"], w["box"], rtol=1e-5, atol=1e-4):
            return [f"{image_id}: detection {k} differs from the reference decode + NMS"]
    return []


def check_nms_property(dets_by_image, iou_threshold):
    """No two kept detections of one class overlap at the NMS IoU or more."""
    problems = []
    for image_id, dets in dets_by_image.items():
        boxes = np.array([d["box"] for d in dets], dtype=np.float64).reshape(-1, 4)
        cls = np.array([d["class_id"] for d in dets])
        x1, y1 = boxes[:, 0] - boxes[:, 2] / 2, boxes[:, 1] - boxes[:, 3] / 2
        x2, y2 = boxes[:, 0] + boxes[:, 2] / 2, boxes[:, 1] + boxes[:, 3] / 2
        iw = np.clip(np.minimum(x2[:, None], x2) - np.maximum(x1[:, None], x1), 0, None)
        ih = np.clip(np.minimum(y2[:, None], y2) - np.maximum(y1[:, None], y1), 0, None)
        inter = iw * ih
        area = boxes[:, 2] * boxes[:, 3]
        with np.errstate(invalid="ignore", divide="ignore"):
            iou = np.where(inter > 0, inter / (area[:, None] + area - inter), 0.0)
        clash = (iou >= iou_threshold) & (cls[:, None] == cls) & ~np.eye(len(dets), dtype=bool)
        if clash.any():
            a, b = np.argwhere(clash)[0]
            problems.append(f"{image_id}: kept detections {a} and {b} overlap at IoU "
                            f"{iou[a, b]:.3f} >= {iou_threshold}")
    return problems


# ---------------------------------------------------------------------------
# evaluation


def ref_pairs(dets_by_image, gts_by_image, criterion):
    """(score, is_tp) over all detections, greedy per image, by descending score."""
    pairs = []
    for image_id, dets in dets_by_image.items():
        gts = gts_by_image.get(image_id, [])
        taken = [False] * len(gts)
        for i in sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], i)):
            best, best_iou = -1, 0.0
            for g, gt in enumerate(gts):
                v = 0.0 if taken[g] else ref_iou(dets[i]["box"], gt["box"])
                if v > best_iou:
                    best, best_iou = g, v
            hit = best >= 0 and best_iou >= criterion
            if hit:
                taken[best] = True
            pairs.append((dets[i]["score"], hit))
    pairs.sort(key=lambda p: -p[0])
    return pairs


def ref_curve(pairs):
    """[(threshold, tp, fp)], one row per distinct score."""
    rows, tp, fp = [], 0, 0
    for k, (score, hit) in enumerate(pairs):
        tp += hit
        fp += not hit
        if k + 1 == len(pairs) or pairs[k + 1][0] != score:
            rows.append((score, tp, fp))
    return rows


def tie_budget(pairs):
    """An FP budget that ends inside a group of equal scores holding two or more
    false positives, or None when no such group exists."""
    fp = group_fp = 0
    group = None
    for score, hit in pairs:
        if score != group:
            group, group_fp = score, 0
        if not hit:
            if group_fp:
                return fp
            fp += 1
            group_fp += 1
    return None


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_curve_csv(path, ref_rows):
    rows = _read_csv(path)
    if len(rows) != len(ref_rows):
        return [f"{path}: {len(rows)} curve rows, reference has {len(ref_rows)}"]
    for row, (thr, tp, fp) in zip(rows, ref_rows):
        if row["threshold"] != f"{thr:.6f}" or int(row["tp"]) != tp or int(row["fp"]) != fp:
            return [f"{path}: row {row} != reference ({thr:.6f}, {tp} TP, {fp} FP)"]
    return []


def check_sweep_csv(path, ref_curves, budget):
    """Each sweep row keeps FP within budget and is a point of its curve."""
    problems = []
    for row in _read_csv(path):
        crit, tp, fp, thr = float(row["iou_criterion"]), int(row["tp"]), int(row["fp"]), \
            float(row["threshold"])
        if fp > budget:
            problems.append(f"IoU {crit}: sweep row has {fp} FP over the budget {budget}")
            continue
        if math.isinf(thr) and tp == 0 and fp == 0:
            continue
        ref = next((rows for c, rows in ref_curves.items() if abs(c - crit) < 1e-9), None)
        if ref is None:
            problems.append(f"IoU {crit}: no reference curve")
            continue
        points = [(t, f) for s, t, f in ref if abs(s - thr) <= 5e-7]
        if (tp, fp) not in points:
            problems.append(f"IoU {crit}: sweep row ({tp} TP, {fp} FP) at threshold "
                            f"{row['threshold']} is not on the curve there {points}")
    return problems


# ---------------------------------------------------------------------------
# training


def check_loss_csv(path):
    rows = _read_csv(path)
    totals = [float(r["total"]) for r in rows]
    if not totals or not all(math.isfinite(t) for t in totals):
        return [f"{path}: non-finite or missing epoch loss {totals}"]
    if not totals[-1] < totals[0]:
        return [f"{path}: last epoch loss {totals[-1]} is not below the first {totals[0]}"]
    return []


def ref_loss(grid, mask, boxes, class_ids, responsible, conf_target, num_classes,
             lambda_coord=5.0, lambda_noobj=1.0, sqrt_floor=1e-6):
    """The multi-part loss on one activated grid with pinned responsible boxes."""
    c = num_classes
    k = (grid.shape[2] - c) // 5
    conf = grid[:, :, c + 5 * np.arange(k)]
    noobj = (conf ** 2).sum()
    total = 0.0
    for i, j in np.argwhere(mask):
        r = int(responsible[i, j])
        base = c + 5 * r
        x, y, w, h = grid[i, j, base + 1:base + 5]
        tx, ty, tw, th = (float(v) for v in boxes[i, j])
        total += lambda_coord * ((tx - x) ** 2 + (ty - y) ** 2
                                 + (math.sqrt(tw) - max(w, sqrt_floor)) ** 2
                                 + (math.sqrt(th) - max(h, sqrt_floor)) ** 2)
        total += (conf_target[i, j, r] - grid[i, j, base]) ** 2
        noobj -= grid[i, j, base] ** 2
        onehot = np.zeros(c)
        onehot[int(class_ids[i, j])] = 1.0
        total += ((onehot - grid[i, j, :c]) ** 2).sum()
    return float(total + lambda_noobj * noobj)


def check_gradients(layers, grads, loss_of, samples, rel=1e-4, share=0.99, h=1e-5):
    """Analytic gradients against float64 central differences of ``loss_of``.

    ``layers`` holds float64 copies that ``loss_of(layers)`` reads; ``samples``
    is a list of (layer index, 0 for weight / 2 for bias, flat index).
    """
    ok = 0
    worst = ""
    for li, slot, k in samples:
        arr = layers[li][slot].reshape(-1)
        orig = arr[k]
        arr[k] = orig + h
        up = loss_of(layers)
        arr[k] = orig - h
        down = loss_of(layers)
        arr[k] = orig
        fd = (up - down) / (2 * h)
        an = float(grads[li][0 if slot == 0 else 1].reshape(-1)[k])
        if abs(fd - an) <= rel * max(abs(fd), abs(an)) or abs(fd - an) < 1e-9:
            ok += 1
        else:
            worst = f"layer {li} slot {slot} index {k}: analytic {an:.6g} vs FD {fd:.6g}"
    if ok < share * len(samples):
        return [f"only {ok}/{len(samples)} gradient coordinates match finite differences; {worst}"]
    return []
