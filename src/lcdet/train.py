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
from .detector import box_iou, clamp_boxes, head_views
from .errors import ConfigError, NumericError, UsageError
from .model import (Model, check_resolution, head_activation, layer_activation,
                    run_layers, save_file)
from .tensor import LEAKY_SLOPE, col2im, pool_windows

SQRT_FLOOR = 1e-6  # lower clamp on raw sqrt-extent outputs inside the loss
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class LossConfig:
    lambda_coord: float = 5.0
    lambda_noobj: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite(v) and v >= 0 for v in (self.lambda_coord, self.lambda_noobj)):
            raise ConfigError("loss weights must be finite and non-negative")


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
    """Static per-image assignment: at most one ground truth per cell.

    A batch stacks its images' arrays on leading axes (``stack_targets``).
    """

    object_mask: np.ndarray  # (..., gh, gw) bool
    boxes: np.ndarray        # (..., gh, gw, 4): x, y cell-relative; w, h image fractions
    class_ids: np.ndarray    # (..., gh, gw) int32
    discarded: int = 0


@dataclass
class ResolvedTargets:
    """Per-step dynamic part of the target: responsible boxes and IoU targets."""

    responsible: np.ndarray  # (..., gh, gw) int32, -1 in empty cells
    conf_target: np.ndarray  # (..., gh, gw, K) float


def stack_targets(targets: list[GridTarget]) -> GridTarget:
    """The images' targets stacked on a new leading batch axis."""
    return GridTarget(np.stack([t.object_mask for t in targets]),
                      np.stack([t.boxes for t in targets]),
                      np.stack([t.class_ids for t in targets]),
                      discarded=sum(t.discarded for t in targets))


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


def _head_views(grid: np.ndarray, num_classes: int):
    """``head_views`` with K read from the grid's channel count."""
    return head_views(grid, num_classes, (grid.shape[-1] - num_classes) // 5)


def resolve_targets(grid_act: np.ndarray, target: GridTarget, num_classes: int
                    ) -> ResolvedTargets:
    """Responsible box and its IoU target in every object cell of a
    (..., gh, gw, C + 5K) activated grid.

    The responsible box has the highest IoU against the cell's ground truth,
    in image fractions; when every IoU is 0 it is the box closest to the
    ground truth in (x, y, sqrt w, sqrt h) space, with IoU target 0. Ties take
    the lowest index.
    """
    gh, gw = grid_act.shape[-3:-1]
    _, boxes = _head_views(grid_act, num_classes)
    obj = target.object_mask
    cells = np.nonzero(obj)
    raw = boxes[obj][..., 1:]                    # (n, K, 4)
    gt = target.boxes[obj].astype(np.float64)    # (n, 4)
    # the K decoded boxes and the ground truth, in image fractions
    frac = np.concatenate([clamp_boxes(raw.astype(np.float64)), gt[:, None]], axis=1)
    frac[..., 0] = (cells[-1][:, None] + frac[..., 0]) / gw
    frac[..., 1] = (cells[-2][:, None] + frac[..., 1]) / gh
    ious = box_iou(frac[:, :-1], frac[:, -1:])
    best = ious.max(axis=-1)
    ref = np.concatenate([gt[:, :2], np.sqrt(gt[:, 2:])], axis=-1)
    closest = ((raw - ref[:, None]) ** 2).sum(axis=-1).argmin(axis=-1)
    idx = np.where(best > 0.0, ious.argmax(axis=-1), closest)
    responsible = np.full(obj.shape, -1, dtype=np.int32)
    responsible[obj] = idx
    conf_target = np.zeros(boxes.shape[:-1], dtype=np.float64)
    conf_target[cells + (idx,)] = np.where(best > 0.0, best, 0.0)
    return ResolvedTargets(responsible, conf_target)


def _weighted_error(grid_pred: np.ndarray, target: GridTarget, cfg: LossConfig,
                    num_classes: int, resolved: ResolvedTargets):
    """The loss as sum(W * (P - T)^2): returns W, P - T in float64, both shaped
    like the grid, and the index of the responsible boxes' confidences.

    Confidences have weight lambda_noobj and target 0, except the responsible
    box's, which has weight 1 and its IoU target. The responsible box's x, y,
    sqrt-w and sqrt-h have weight lambda_coord, with P's w and h clamped below
    at SQRT_FLOOR. Object cells' class channels have weight 1 and a one-hot
    target. Every other channel has weight 0 and error exactly +0.
    """
    p = grid_pred.astype(np.float64)
    _, p_box = _head_views(p, num_classes)
    np.maximum(p_box[..., 3:], SQRT_FLOOR, out=p_box[..., 3:])
    t = p.copy()
    w = np.zeros_like(p)
    t_cls, t_box = _head_views(t, num_classes)
    w_cls, w_box = _head_views(w, num_classes)
    obj = target.object_mask
    cells = np.nonzero(obj)
    resp = cells + (resolved.responsible[obj],)
    lam_c = cfg.lambda_coord
    t_box[..., 0] = 0.0
    w_box[..., 0] = cfg.lambda_noobj
    w_box[resp] = (1.0, lam_c, lam_c, lam_c, lam_c)
    t_box[resp + (0,)] = resolved.conf_target[resp]
    gt = target.boxes[obj].astype(np.float64)
    t_box[resp + (slice(1, 3),)] = gt[:, :2]
    t_box[resp + (slice(3, 5),)] = np.sqrt(gt[:, 2:])
    w_cls[obj] = 1.0
    t_cls[obj] = 0.0
    t_cls[cells + (target.class_ids[obj],)] = 1.0
    return w, p - t, resp


def detection_loss(grid_pred: np.ndarray, target: GridTarget, cfg: LossConfig,
                   num_classes: int, resolved: ResolvedTargets | None = None
                   ) -> LossParts:
    """Evaluate the multi-part loss on an activated prediction grid.

    ``grid_pred`` is the activated (..., gh, gw, C + 5K) output (sigmoid
    confidences, class probabilities, raw coordinates); leading axes are a
    batch, whose losses are summed. Passing ``resolved`` pins the dynamic
    targets; otherwise they are computed from the grid.
    """
    if np.isnan(grid_pred).any():
        raise NumericError("NaN in predictions")
    _head_views(grid_pred, num_classes)  # rejects a channel count that is not C + 5K
    if target.object_mask.shape != grid_pred.shape[:-1]:
        raise ConfigError(f"target grid {target.object_mask.shape} != "
                          f"prediction grid {grid_pred.shape[:-1]}")
    if resolved is None:
        resolved = resolve_targets(grid_pred, target, num_classes)
    w, err, resp = _weighted_error(grid_pred, target, cfg, num_classes, resolved)
    cls, box = _head_views(w * err * err, num_classes)
    conf = box[..., 0].copy()
    obj_conf = conf[resp].sum()
    conf[resp] = 0.0
    return LossParts(coord=float(box[..., 1:].sum()), obj_conf=float(obj_conf),
                     noobj_conf=float(conf.sum()), class_=float(cls.sum()))


def loss_grid_gradient(grid_pred: np.ndarray, target: GridTarget, cfg: LossConfig,
                       num_classes: int, resolved: ResolvedTargets) -> np.ndarray:
    """d(loss)/d(activated grid), 2 W (P - T), with the dynamic targets held
    constant; a w or h at or below SQRT_FLOOR gets none (the clamp is flat)."""
    w, err, _ = _weighted_error(grid_pred, target, cfg, num_classes, resolved)
    g = 2.0 * w * err
    _, g_box = _head_views(g, num_classes)
    _, p_box = _head_views(grid_pred, num_classes)
    g_box[..., 3:][p_box[..., 3:] <= SQRT_FLOOR] = 0.0
    return g.astype(grid_pred.dtype, copy=False)


def head_activation_backward(act: np.ndarray, act_grad: np.ndarray,
                             num_classes: int, boxes_per_cell: int) -> np.ndarray:
    """Pull a gradient on the activated grid back through the split activation."""
    raw_grad = act_grad.copy()
    a_cls, a_box = head_views(act, num_classes, boxes_per_cell)
    g_cls, g_box = head_views(act_grad, num_classes, boxes_per_cell)
    r_cls, r_box = head_views(raw_grad, num_classes, boxes_per_cell)
    if num_classes == 1:
        r_cls[...] = g_cls * a_cls * (1.0 - a_cls)
    else:
        dot = (g_cls * a_cls).sum(axis=-1, keepdims=True)
        r_cls[...] = a_cls * (g_cls - dot)
    a = a_box[..., 0]
    r_box[..., 0] = g_box[..., 0] * a * (1.0 - a)
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
    """Batched float forward keeping what backward needs; returns the raw head
    and per layer (a pool's input or a conv's input shape, output, conv cols)."""
    if model.quantized:
        raise ConfigError("quantization is inference-only; training needs the float model")
    caches = []

    def keep(i, x, out, cols):
        caches.append((x if cols is None else x.shape, out, cols))
        if np.isnan(out).any():
            raise NumericError(f"NaN in output of layer {i} ({model.spec.layers[i].kind})")

    return run_layers(model, xb, keep), caches


def _maxpool_backward(x: np.ndarray, y: np.ndarray, gy: np.ndarray, layer) -> np.ndarray:
    """Route each window's gradient to its first maximum in row-major order."""
    gx = np.zeros_like(x)
    claimed = None
    for sl, osl in pool_windows(x.shape[1], x.shape[2], layer.kernel[0], layer.stride):
        hit = x[sl] == y[osl]
        if claimed is None:
            claimed = hit  # offset (0, 0) lies in every window
        else:
            np.greater(hit, claimed[osl], out=hit)  # hit and not claimed
            claimed[osl] |= hit
        gx[sl] += gy[osl] * hit
    return gx


def _backward_trace(model: Model, caches, raw_grad: np.ndarray):
    """Walk the trace in reverse; returns [(dw, db) or None] per layer."""
    grads: list[tuple | None] = [None] * len(caches)
    g = raw_grad
    for idx in range(len(caches) - 1, -1, -1):
        layer, w = model.spec.layers[idx], model.weights[idx].w
        x, out, cols = caches[idx]  # x: a pool's input, a conv's input shape
        if layer.kind == "maxpool":
            g = _maxpool_backward(x, out, g, layer)
            continue
        kh, kw, cin, cout = w.shape
        dpre = g * _act_derivative(out, layer_activation(layer))
        dpre2 = dpre.reshape(-1, cout)
        dw = (cols.T @ dpre2).reshape(kh, kw, cin, cout)
        db = dpre2.sum(axis=0)
        grads[idx] = (dw, db)
        if idx == 0:
            break  # nothing consumes the gradient of the input image
        taps = np.matmul(dpre2, w.reshape(kh * kw, cin, cout).transpose(0, 2, 1))
        taps = taps.reshape(kh, kw, -1, cin)
        g = col2im(taps, x, layer.stride, layer.padding)
    return grads


def _batch_step(model: Model, raw: np.ndarray, caches, target: GridTarget,
                cfg: LossConfig, resolved: ResolvedTargets | None = None):
    """Loss and backward for one batch traced by ``_forward_trace``; ``target``
    stacks the batch's targets. The batch loss is the mean of the per-image
    losses. Returns (per-layer grads, LossParts summed over the batch)."""
    spec = model.spec
    act = head_activation(raw, spec.num_classes, spec.boxes_per_cell)
    if resolved is None:
        resolved = resolve_targets(act, target, spec.num_classes)
    parts = detection_loss(act, target, cfg, spec.num_classes, resolved)
    dact = loss_grid_gradient(act, target, cfg, spec.num_classes, resolved)
    dact /= len(act)
    draw = head_activation_backward(act, dact, spec.num_classes, spec.boxes_per_cell)
    return _backward_trace(model, caches, draw), parts


def backward(model: Model, image: np.ndarray, target: GridTarget,
             cfg: LossConfig, resolved: ResolvedTargets | None = None):
    """Analytic gradients of the per-image loss for every weight and bias.

    Returns (grads, parts) where grads aligns with model.weights.
    """
    raw, caches = _forward_trace(model, image[None])
    if resolved is not None:
        resolved = ResolvedTargets(resolved.responsible[None], resolved.conf_target[None])
    return _batch_step(model, raw, caches, stack_targets([target]), cfg, resolved)


# ---------------------------------------------------------------------------
# optimizer and loop

@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 24
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    lr_decay_epochs: tuple = (14, 19)  # epochs at whose start lr steps down
    lr_decay_factor: float = 0.25
    checkpoint_path: str | None = None
    log: object = None  # callable(str) or None


class Adam:
    def __init__(self, params: list[np.ndarray], lr):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    grid_dims = check_resolution(spec, h, w)
    targets = stack_targets([assign_cells(gts, grid_dims, (w, h)) for _, gts in dataset])
    images = [np.asarray(img, dtype=np.float32) for img, _ in dataset]

    flat_params = [p for lw in model.weights if lw.w is not None for p in (lw.w, lw.b)]
    adam = Adam(flat_params, cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    history = []
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
            batch_target = GridTarget(targets.object_mask[batch], targets.boxes[batch],
                                      targets.class_ids[batch])
            layer_grads, parts = _batch_step(model, raw, caches, batch_target, cfg.loss)
            if not np.isfinite(parts.total):
                # leave the last finished epoch's checkpoint untouched
                raise NumericError(f"training diverged at epoch {epoch}: loss {parts.total}")
            sums += (parts.coord, parts.obj_conf, parts.noobj_conf, parts.class_)
            adam.step(flat_params, [g for lg in layer_grads if lg is not None for g in lg])
        avg = sums / len(dataset)
        row = {"epoch": epoch, "total": float(avg.sum()), "coord": float(avg[0]),
               "obj_conf": float(avg[1]), "noobj_conf": float(avg[2]),
               "class": float(avg[3])}
        history.append(row)
        if cfg.log:
            cfg.log(f"epoch {epoch}: loss {row['total']:.4f} "
                    f"(coord {row['coord']:.4f} obj {row['obj_conf']:.4f} "
                    f"noobj {row['noobj_conf']:.4f} class {row['class']:.4f})")
        if cfg.checkpoint_path:
            save_file(model, cfg.checkpoint_path)
    return history


def loss_curve_csv(history) -> str:
    lines = ["epoch,total,coord,obj_conf,noobj_conf,class"]
    for row in history:
        lines.append(f"{row['epoch']},{row['total']:.6f},{row['coord']:.6f},"
                     f"{row['obj_conf']:.6f},{row['noobj_conf']:.6f},{row['class']:.6f}")
    return "\n".join(lines) + "\n"
