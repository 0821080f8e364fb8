"""Grid assignment, the multi-part detection loss, gradients, and training.

The loss follows the YOLO-style recipe: an object's cell owns it, exactly
one of the cell's K predicted boxes is *responsible* (highest IoU against
the ground truth, decoded from the current predictions), and the loss sums

- lambda_coord * squared center offsets of the responsible box,
- lambda_coord * squared sqrt-extent errors of the responsible box,
- squared confidence error of the responsible box against its IoU,
- lambda_noobj * squared confidence of every other box,
- squared class-probability error in object cells.

Confidence targets and responsible-box choices are recomputed each step and
treated as constants inside the gradient, so the analytic gradient is the
one the optimizer actually follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import GroundTruthBox
from .detector import iou
from .errors import ConfigError, NumericError, UsageError
from .model import Model, head_activation, layer_activation
from .tensor import LEAKY_SLOPE, activate, col2im, im2col, maxpool2d_batched

SQRT_FLOOR = 1e-6  # lower clamp on raw sqrt-extent outputs inside the loss


@dataclass
class LossConfig:
    lambda_coord: float = 5.0
    lambda_noobj: float = 1.0

    def __post_init__(self):
        if self.lambda_coord < 0 or self.lambda_noobj < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass
class LossParts:
    coord: float
    obj_conf: float
    noobj_conf: float
    class_: float

    @property
    def total(self) -> float:
        return self.coord + self.obj_conf + self.noobj_conf + self.class_


@dataclass
class GridTarget:
    """Static per-image assignment: at most one ground truth per cell."""

    object_mask: np.ndarray  # (gh, gw) bool
    boxes: np.ndarray        # (gh, gw, 4): x, y cell-relative; w, h image fractions
    class_ids: np.ndarray    # (gh, gw) int32
    discarded: int = 0

    @property
    def grid_dims(self):
        return self.object_mask.shape


@dataclass
class ResolvedTargets:
    """Per-step dynamic part of the target: responsible boxes and IoU targets."""

    responsible: np.ndarray  # (gh, gw) int32, -1 in empty cells
    conf_target: np.ndarray  # (gh, gw, K) float


def assign_cells(gts: list[GroundTruthBox], grid_dims: tuple[int, int],
                 image_dims: tuple[int, int]) -> GridTarget:
    """Map each box to the cell holding its center; biggest area wins a cell.

    Ties go to the earliest box in the input list; losers are counted in
    ``discarded``.
    """
    gh, gw = grid_dims
    width, height = image_dims
    sx, sy = width / gw, height / gh
    mask = np.zeros((gh, gw), dtype=bool)
    boxes = np.zeros((gh, gw, 4), dtype=np.float32)
    class_ids = np.zeros((gh, gw), dtype=np.int32)
    areas = np.zeros((gh, gw), dtype=np.float32)
    kept = 0
    for gt in gts:
        j = min(int(gt.cx / sx), gw - 1)
        i = min(int(gt.cy / sy), gh - 1)
        if mask[i, j] and gt.area <= areas[i, j]:
            continue
        if not mask[i, j]:
            kept += 1
        mask[i, j] = True
        areas[i, j] = gt.area
        boxes[i, j] = (gt.cx / sx - j, gt.cy / sy - i, gt.w / width, gt.h / height)
        class_ids[i, j] = gt.class_id
    return GridTarget(mask, boxes, class_ids, discarded=len(gts) - kept)


def _decode_fraction(raw4, i: int, j: int, gh: int, gw: int):
    """Decode one raw box to image-fraction (cx, cy, w, h); IoU is scale-free."""
    x = min(max(float(raw4[0]), 0.0), 1.0)
    y = min(max(float(raw4[1]), 0.0), 1.0)
    w = min(max(float(raw4[2]), 0.0), 1.0) ** 2
    h = min(max(float(raw4[3]), 0.0), 1.0) ** 2
    return ((j + x) / gw, (i + y) / gh, w, h)


def select_responsible(box_preds: np.ndarray, target_box, i: int, j: int,
                       gh: int, gw: int) -> tuple[int, float]:
    """Pick the predictor with the highest IoU against the cell's ground truth.

    All-zero IoUs fall back to the closest box in (x, y, sqrt w, sqrt h)
    space; ties take the lowest index. Returns (index, its IoU).
    """
    tx, ty, tw, th = (float(v) for v in target_box)
    gt_frac = ((j + tx) / gw, (i + ty) / gh, tw, th)
    ious = np.array([iou(_decode_fraction(box_preds[b], i, j, gh, gw), gt_frac)
                     for b in range(len(box_preds))])
    if ious.max() > 0.0:
        idx = int(ious.argmax())
        return idx, float(ious[idx])
    ref = np.array([tx, ty, np.sqrt(tw), np.sqrt(th)])
    d2 = ((box_preds - ref) ** 2).sum(axis=1)
    idx = int(d2.argmin())
    return idx, 0.0


def _box_channels(grid: np.ndarray, c: int, k: int, i: int, j: int) -> np.ndarray:
    cell = grid[i, j]
    return np.stack([cell[c + 5 * b + 1:c + 5 * b + 5] for b in range(k)])


def resolve_targets(grid_act: np.ndarray, target: GridTarget, num_classes: int
                    ) -> ResolvedTargets:
    gh, gw, ch = grid_act.shape
    c = num_classes
    k = (ch - c) // 5
    responsible = np.full((gh, gw), -1, dtype=np.int32)
    conf_target = np.zeros((gh, gw, k), dtype=np.float64)
    for i, j in np.argwhere(target.object_mask):
        preds = _box_channels(grid_act, c, k, i, j)
        idx, best_iou = select_responsible(preds, target.boxes[i, j], i, j, gh, gw)
        responsible[i, j] = idx
        conf_target[i, j, idx] = best_iou
    return ResolvedTargets(responsible, conf_target)


def detection_loss(grid_pred: np.ndarray, target: GridTarget, cfg: LossConfig,
                   num_classes: int, resolved: ResolvedTargets | None = None
                   ) -> LossParts:
    """Evaluate the multi-part loss on one activated prediction grid.

    ``grid_pred`` is the activated output (sigmoid confidences, class
    probabilities, raw coordinates). Passing ``resolved`` pins the dynamic
    targets; otherwise they are computed from the grid.
    """
    if np.isnan(grid_pred).any():
        raise NumericError("NaN in predictions")
    gh, gw, ch = grid_pred.shape
    c = num_classes
    k = (ch - c) // 5
    if c + 5 * k != ch:
        raise ConfigError(f"grid channels {ch} incompatible with {c} classes")
    if target.grid_dims != (gh, gw):
        raise ConfigError(f"target grid {target.grid_dims} != prediction grid {(gh, gw)}")
    if resolved is None:
        resolved = resolve_targets(grid_pred, target, num_classes)

    lam_c, lam_n = cfg.lambda_coord, cfg.lambda_noobj
    conf_channels = c + 5 * np.arange(k)
    conf = grid_pred[:, :, conf_channels].astype(np.float64)

    noobj_sq = float((conf ** 2).sum())
    coord = obj_conf = class_sum = 0.0
    for i, j in np.argwhere(target.object_mask):
        r = int(resolved.responsible[i, j])
        base = c + 5 * r
        x_hat, y_hat, w_hat, h_hat = (float(v) for v in grid_pred[i, j, base + 1:base + 5])
        tx, ty, tw, th = (float(v) for v in target.boxes[i, j])
        coord += lam_c * ((tx - x_hat) ** 2 + (ty - y_hat) ** 2)
        coord += lam_c * ((np.sqrt(tw) - max(w_hat, SQRT_FLOOR)) ** 2
                          + (np.sqrt(th) - max(h_hat, SQRT_FLOOR)) ** 2)
        c_hat = float(grid_pred[i, j, base])
        c_t = float(resolved.conf_target[i, j, r])
        obj_conf += (c_t - c_hat) ** 2
        noobj_sq -= c_hat ** 2
        probs = grid_pred[i, j, :c].astype(np.float64)
        onehot = np.zeros(c)
        onehot[int(target.class_ids[i, j])] = 1.0
        class_sum += float(((onehot - probs) ** 2).sum())
    return LossParts(coord=float(coord), obj_conf=float(obj_conf),
                     noobj_conf=float(lam_n * noobj_sq), class_=float(class_sum))


def loss_grid_gradient(grid_pred: np.ndarray, target: GridTarget, cfg: LossConfig,
                       num_classes: int, resolved: ResolvedTargets) -> np.ndarray:
    """d(loss)/d(activated grid), with the dynamic targets held constant."""
    gh, gw, ch = grid_pred.shape
    c = num_classes
    k = (ch - c) // 5
    lam_c, lam_n = cfg.lambda_coord, cfg.lambda_noobj
    g = np.zeros_like(grid_pred)
    conf_channels = c + 5 * np.arange(k)
    g[:, :, conf_channels] = 2.0 * lam_n * grid_pred[:, :, conf_channels]
    for i, j in np.argwhere(target.object_mask):
        r = int(resolved.responsible[i, j])
        base = c + 5 * r
        c_hat = grid_pred[i, j, base]
        c_t = resolved.conf_target[i, j, r]
        g[i, j, base] = -2.0 * (c_t - c_hat)
        tx, ty, tw, th = (float(v) for v in target.boxes[i, j])
        g[i, j, base + 1] = -2.0 * lam_c * (tx - grid_pred[i, j, base + 1])
        g[i, j, base + 2] = -2.0 * lam_c * (ty - grid_pred[i, j, base + 2])
        w_hat = grid_pred[i, j, base + 3]
        h_hat = grid_pred[i, j, base + 4]
        g[i, j, base + 3] = -2.0 * lam_c * (np.sqrt(tw) - max(w_hat, SQRT_FLOOR)) \
            if w_hat > SQRT_FLOOR else 0.0
        g[i, j, base + 4] = -2.0 * lam_c * (np.sqrt(th) - max(h_hat, SQRT_FLOOR)) \
            if h_hat > SQRT_FLOOR else 0.0
        onehot = np.zeros(c, dtype=grid_pred.dtype)
        onehot[int(target.class_ids[i, j])] = 1.0
        g[i, j, :c] = -2.0 * (onehot - grid_pred[i, j, :c])
    return g


def head_activation_backward(act: np.ndarray, act_grad: np.ndarray,
                             num_classes: int, boxes_per_cell: int) -> np.ndarray:
    """Pull a gradient on the activated grid back through the split activation."""
    c = num_classes
    raw_grad = act_grad.copy()
    if c == 1:
        a = act[..., 0]
        raw_grad[..., 0] = act_grad[..., 0] * a * (1.0 - a)
    else:
        p = act[..., :c]
        dot = (act_grad[..., :c] * p).sum(axis=-1, keepdims=True)
        raw_grad[..., :c] = p * (act_grad[..., :c] - dot)
    for b in range(boxes_per_cell):
        ch = c + 5 * b
        a = act[..., ch]
        raw_grad[..., ch] = act_grad[..., ch] * a * (1.0 - a)
    return raw_grad


# ---------------------------------------------------------------------------
# reverse mode through the network

def _act_derivative(out: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return out > 0
    if kind == "leaky_relu":
        return np.where(out > 0, out.dtype.type(1.0), out.dtype.type(LEAKY_SLOPE))
    return np.ones_like(out)


def _forward_trace(model: Model, xb: np.ndarray):
    """Batched float forward keeping what backward needs; returns raw head."""
    caches = []
    x = xb
    for idx, (layer, lw) in enumerate(zip(model.spec.layers, model.weights)):
        if layer.kind == "maxpool":
            out = maxpool2d_batched(x, layer.kernel[0], layer.stride)
            caches.append({"kind": "maxpool", "x": x, "out": out,
                           "size": layer.kernel[0], "stride": layer.stride})
        else:
            if lw.quantized:
                raise ConfigError("quantization is inference-only; training needs the float model")
            kh, kw, cin, cout = lw.w.shape
            cols, oh, ow = im2col(x, kh, kw, layer.stride, layer.padding)
            pre = cols @ lw.w.reshape(kh * kw * cin, cout)
            pre += lw.b
            pre = pre.reshape(x.shape[0], oh, ow, cout)
            act_kind = layer_activation(layer)
            out = activate(pre, act_kind)
            caches.append({"kind": "conv", "cols": cols, "x_shape": x.shape,
                           "layer": layer, "w": lw.w, "act": act_kind, "out": out})
        if np.isnan(out).any():
            raise NumericError(f"NaN in output of layer {idx} ({layer.kind})")
        x = out
    return x, caches


def _maxpool_backward(cache, gy: np.ndarray) -> np.ndarray:
    """Route each window's gradient to its first maximum in row-major order."""
    x, y, size, stride = cache["x"], cache["out"], cache["size"], cache["stride"]
    n, h, w, c = x.shape
    gx = np.zeros_like(x)
    claimed = None
    for dy in range(size):
        ohv = max(0, -(-(h - dy) // stride))
        if ohv == 0:
            continue
        for dx in range(size):
            owv = max(0, -(-(w - dx) // stride))
            if owv == 0:
                continue
            sl = np.s_[:, dy:dy + (ohv - 1) * stride + 1:stride,
                       dx:dx + (owv - 1) * stride + 1:stride]
            hit = x[sl] == y[:, :ohv, :owv]
            if claimed is None:
                claimed = hit  # offset (0, 0) lies in every window
            else:
                np.greater(hit, claimed[:, :ohv, :owv], out=hit)  # hit and not claimed
                claimed[:, :ohv, :owv] |= hit
            gx[sl] += gy[:, :ohv, :owv] * hit
    return gx


def _backward_trace(model: Model, caches, raw_grad: np.ndarray):
    """Walk the trace in reverse; returns [(dw, db) or None] per layer."""
    grads: list[tuple | None] = [None] * len(caches)
    g = raw_grad
    for idx in range(len(caches) - 1, -1, -1):
        cache = caches[idx]
        if cache["kind"] == "maxpool":
            g = _maxpool_backward(cache, g)
            continue
        layer, w = cache["layer"], cache["w"]
        kh, kw, cin, cout = w.shape
        dpre = g * _act_derivative(cache["out"], cache["act"])
        dpre2 = dpre.reshape(-1, cout)
        dw = (cache["cols"].T @ dpre2).reshape(kh, kw, cin, cout)
        db = dpre2.sum(axis=0)
        grads[idx] = (dw, db)
        if idx == 0:
            break  # nothing consumes the gradient of the input image
        taps = np.matmul(dpre2, w.reshape(kh * kw, cin, cout).transpose(0, 2, 1))
        taps = taps.reshape(kh, kw, -1, cin)
        g = col2im(taps, cache["x_shape"], layer.stride, layer.padding)
    return grads


def _batch_step(model: Model, raw: np.ndarray, caches, targets: list[GridTarget],
                cfg: LossConfig, resolved: list[ResolvedTargets] | None = None):
    """Loss and backward for one batch traced by ``_forward_trace``; the batch
    loss is the mean of the per-image losses. Returns (per-layer grads,
    per-image LossParts)."""
    spec = model.spec
    act = head_activation(raw, spec.num_classes, spec.boxes_per_cell)
    dact = np.zeros_like(act)
    parts = []
    for n, target in enumerate(targets):
        res = resolve_targets(act[n], target, spec.num_classes) if resolved is None \
            else resolved[n]
        parts.append(detection_loss(act[n], target, cfg, spec.num_classes, res))
        dact[n] = loss_grid_gradient(act[n], target, cfg, spec.num_classes, res)
    dact /= len(targets)
    draw = head_activation_backward(act, dact, spec.num_classes, spec.boxes_per_cell)
    return _backward_trace(model, caches, draw), parts


def backward(model: Model, image: np.ndarray, target: GridTarget,
             cfg: LossConfig, resolved: ResolvedTargets | None = None):
    """Analytic gradients of the per-image loss for every weight and bias.

    Returns (grads, parts) where grads aligns with model.weights.
    """
    if model.quantized:
        raise ConfigError("quantization is inference-only; training needs the float model")
    raw, caches = _forward_trace(model, image[None])
    grads, parts = _batch_step(model, raw, caches, [target], cfg,
                               None if resolved is None else [resolved])
    return grads, parts[0]


# ---------------------------------------------------------------------------
# optimizer and loop

@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 24
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_decay_epochs: tuple = (14, 19)  # epochs at whose start lr steps down
    lr_decay_factor: float = 0.25
    checkpoint_path: str | None = None
    log: object = None  # callable(str) or None


class Adam:
    def __init__(self, params: list[np.ndarray], lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def train_loop(model: Model, dataset, cfg: TrainConfig):
    """Train in place; returns per-epoch loss rows.

    Deterministic for a given config seed. A non-finite loss aborts with the
    last finished epoch's checkpoint preserved (when a path is configured).
    """
    if model.quantized:
        raise ConfigError("quantization is inference-only; training needs the float model")
    if not dataset:
        raise UsageError("training dataset is empty")
    spec = model.spec
    h, w = dataset[0][0].shape[:2]
    for img, _ in dataset:
        if img.shape[:2] != (h, w):
            raise ConfigError("all training images must share one resolution")
    from .model import check_resolution
    check_resolution(spec, h, w)
    ts = spec.total_stride
    grid_dims = (h // ts, w // ts)
    targets = [assign_cells(gts, grid_dims, (w, h)) for _, gts in dataset]
    images = [np.asarray(img, dtype=np.float32) for img, _ in dataset]

    flat_params: list[np.ndarray] = []
    for lw in model.weights:
        if lw.w is not None:
            flat_params += [lw.w, lw.b]
    adam = Adam(flat_params, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    rng = np.random.default_rng(cfg.seed)
    history = []

    def save_checkpoint():
        if cfg.checkpoint_path:
            from .model import save_file
            save_file(model, cfg.checkpoint_path)

    for epoch in range(cfg.epochs):
        if epoch in cfg.lr_decay_epochs:
            adam.lr *= cfg.lr_decay_factor
        order = rng.permutation(len(dataset))
        sums = np.zeros(4)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            # the previous step's trace stays alive until this forward returns:
            # freeing a whole step at once lets malloc hand the heap top back to
            # the OS, and every step then faults its buffers in again (3x the
            # page faults and ~10% fewer img/s, measured on the toy profile)
            raw, caches = _forward_trace(model, np.stack([images[i] for i in batch]))
            layer_grads, parts = _batch_step(model, raw, caches,
                                             [targets[i] for i in batch], cfg.loss)
            for p in parts:
                if not np.isfinite(p.total):
                    # leave the last finished epoch's checkpoint untouched
                    raise NumericError(f"training diverged at epoch {epoch}: loss {p.total}")
                sums += (p.coord, p.obj_conf, p.noobj_conf, p.class_)
            flat_grads = []
            for lg in layer_grads:
                if lg is not None:
                    flat_grads += [lg[0], lg[1]]
            adam.step(flat_params, flat_grads)
        avg = sums / len(dataset)
        row = {"epoch": epoch, "total": float(avg.sum()), "coord": float(avg[0]),
               "obj_conf": float(avg[1]), "noobj_conf": float(avg[2]),
               "class": float(avg[3])}
        history.append(row)
        if cfg.log:
            cfg.log(f"epoch {epoch}: loss {row['total']:.4f} "
                    f"(coord {row['coord']:.4f} obj {row['obj_conf']:.4f} "
                    f"noobj {row['noobj_conf']:.4f} class {row['class']:.4f})")
        save_checkpoint()
    return history


def loss_curve_csv(history) -> str:
    lines = ["epoch,total,coord,obj_conf,noobj_conf,class"]
    for row in history:
        lines.append(f"{row['epoch']},{row['total']:.6f},{row['coord']:.6f},"
                     f"{row['obj_conf']:.6f},{row['noobj_conf']:.6f},{row['class']:.6f}")
    return "\n".join(lines) + "\n"
