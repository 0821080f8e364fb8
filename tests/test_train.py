import numpy as np
import pytest

import lcdet.model as M
import lcdet.train as T
from lcdet.data import GroundTruthBox, synth_dataset
from lcdet.detector import head_views
from lcdet.errors import ConfigError, NumericError

from conftest import (naive_detection_loss, random_grid_target, tiny_head_spec,
                      tiny_net_spec)


# ---------------------------------------------------------------------------
# cell assignment

def test_assign_center_cell():
    gt = GroundTruthBox(224.0, 224.0, 50.0, 50.0)
    target = T.assign_cells([gt], (7, 7), (448, 448))
    assert target.object_mask[3, 3]
    assert target.object_mask.sum() == 1
    x, y, w, h = target.boxes[3, 3]
    assert (x, y) == (pytest.approx(0.5), pytest.approx(0.5))
    assert w == pytest.approx(50 / 448)


def test_assign_largest_area_wins():
    small = GroundTruthBox(100.0, 100.0, 10.0, 10.0)   # area 100
    big = GroundTruthBox(101.0, 101.0, 20.0, 20.0)     # area 400, same cell
    target = T.assign_cells([small, big], (7, 7), (448, 448))
    assert target.discarded == 1
    i, j = 100 * 7 // 448, 100 * 7 // 448
    assert target.boxes[i, j][2] == pytest.approx(20 / 448)


def test_assign_tie_keeps_first():
    a = GroundTruthBox(100.0, 100.0, 10.0, 10.0, class_id=1)
    b = GroundTruthBox(102.0, 102.0, 10.0, 10.0, class_id=2)
    target = T.assign_cells([a, b], (7, 7), (448, 448))
    i, j = 1, 1
    assert target.class_ids[i, j] == 1


def test_assign_empty():
    target = T.assign_cells([], (7, 7), (448, 448))
    assert not target.object_mask.any()
    assert target.discarded == 0


def test_assign_never_two_objects_per_cell(rng):
    for _ in range(20):
        gts = [GroundTruthBox(float(rng.uniform(5, 107)), float(rng.uniform(5, 107)),
                              float(rng.uniform(5, 40)), float(rng.uniform(5, 40)))
               for _ in range(int(rng.integers(1, 8)))]
        target = T.assign_cells(gts, (7, 7), (112, 112))
        assert target.object_mask.sum() + target.discarded == len(gts)


# ---------------------------------------------------------------------------
# responsible box selection

def _resolve_cell(preds, target_box, i, j, gh=7, gw=7):
    """``resolve_targets`` on a grid whose only object cell is (i, j), its K
    boxes holding the raw x, y, sqrt-w, sqrt-h ``preds``; returns
    (responsible index, its IoU target)."""
    k = len(preds)
    grid = np.zeros((gh, gw, 1 + 5 * k))
    _, boxes = head_views(grid, 1, k)
    boxes[i, j, :, 1:] = preds
    mask = np.zeros((gh, gw), dtype=bool)
    mask[i, j] = True
    tboxes = np.zeros((gh, gw, 4), dtype=np.float32)
    tboxes[i, j] = target_box
    res = T.resolve_targets(grid, T.GridTarget(mask, tboxes, np.zeros((gh, gw), np.int32)), 1)
    idx = int(res.responsible[i, j])
    assert (res.responsible[~mask] == -1).all()
    others = res.conf_target.copy()
    others[i, j, idx] = 0.0
    assert not others.any()  # only the responsible box has a confidence target
    return idx, float(res.conf_target[i, j, idx])


def test_responsible_single_box():
    idx, _ = _resolve_cell([[0.1, 0.2, 0.3, 0.4]], (0.5, 0.5, 0.1, 0.1), 0, 0)
    assert idx == 0


def test_responsible_argmax_iou():
    target = (0.5, 0.5, 0.25, 0.25)  # cell-relative center, fraction extents
    good = [0.5, 0.5, 0.5, 0.5]      # decodes to the target box exactly
    bad = [0.5, 0.5, 0.1, 0.1]
    idx, best = _resolve_cell([bad, good], target, 2, 3)
    assert idx == 1
    assert best == pytest.approx(1.0)


def test_responsible_distance_fallback():
    target = (0.5, 0.5, 0.04, 0.04)
    far = [0.9, 0.9, -1.0, -1.0]     # zero-area decode, IoU 0
    near = [0.55, 0.5, -0.1, -0.1]   # zero-area decode, closer in coord space
    idx, best = _resolve_cell([far, near], target, 0, 0)
    assert idx == 1
    assert best == 0.0


def test_responsible_ties_take_the_lowest_index():
    target = (0.5, 0.5, 0.25, 0.25)
    good, bad = [0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.1, 0.1]
    assert _resolve_cell([bad, good, good], target, 4, 1) == (1, 1.0)
    assert _resolve_cell([good, good], target, 4, 1) == (0, 1.0)
    far, near = [0.9, 0.9, -1.0, -1.0], [0.55, 0.5, -0.1, -0.1]  # IoU 0: fallback
    assert _resolve_cell([far, near, near], target, 6, 6) == (1, 0.0)
    assert _resolve_cell([near, near], target, 6, 6) == (0, 0.0)


# ---------------------------------------------------------------------------
# loss

def _perfect_fixture(gh=5, gw=5, c=1, k=3):
    """Grid/target pair whose loss is exactly zero."""
    grid = np.zeros((gh, gw, c + 5 * k), dtype=np.float64)
    mask = np.zeros((gh, gw), dtype=bool)
    boxes = np.zeros((gh, gw, 4), dtype=np.float32)
    class_ids = np.zeros((gh, gw), dtype=np.int32)
    i, j = 2, 3
    mask[i, j] = True
    # dyadic values survive the float32 target store and the sqrt/square
    # round trip exactly, so the loss vanishes term by term
    tx, ty, tw, th = 0.5, 0.25, 0.25, 0.0625
    boxes[i, j] = (tx, ty, tw, th)
    grid[i, j, 0] = 1.0                       # class prob
    grid[i, j, c + 0] = 1.0                   # confidence of box 0
    grid[i, j, c + 1:c + 5] = (tx, ty, np.sqrt(tw), np.sqrt(th))
    return grid, T.GridTarget(mask, boxes, class_ids)


def test_loss_zero_on_perfect_prediction():
    grid, target = _perfect_fixture()
    parts = T.detection_loss(grid, target, T.LossConfig(), num_classes=1)
    assert parts.total == 0.0


def test_loss_noobj_quarter_per_box():
    gh, gw, k = 7, 7, 3
    grid = np.zeros((gh, gw, 1 + 5 * k), dtype=np.float64)
    conf_channels = 1 + 5 * np.arange(k)
    grid[:, :, conf_channels] = 0.5
    target = T.GridTarget(np.zeros((gh, gw), dtype=bool),
                          np.zeros((gh, gw, 4), dtype=np.float32),
                          np.zeros((gh, gw), dtype=np.int32))
    parts = T.detection_loss(grid, target, T.LossConfig(), num_classes=1)
    assert parts.noobj_conf == pytest.approx(0.25 * gh * gw * k)
    assert parts.coord == 0.0 and parts.obj_conf == 0.0 and parts.class_ == 0.0


def test_loss_coord_term_direct():
    grid, target = _perfect_fixture()
    grid[2, 3, 2] += 0.1   # x offset
    grid[2, 3, 3] += 0.1   # y offset
    parts = T.detection_loss(grid, target, T.LossConfig(), num_classes=1)
    assert parts.coord == pytest.approx(5.0 * (0.01 + 0.01), rel=1e-6)


def test_loss_matches_naive_reference(rng):
    cfg = T.LossConfig()
    for trial in range(60):
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        gh, gw = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        grid, target = random_grid_target(rng, gh, gw, c, k,
                                          n_objects=int(rng.integers(0, 5)))
        parts = T.detection_loss(grid, target, cfg, num_classes=c)
        want = naive_detection_loss(grid, target, cfg.lambda_coord,
                                    cfg.lambda_noobj, c)
        got = (parts.coord, parts.obj_conf, parts.noobj_conf, parts.class_)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


def test_loss_lambda_scaling(rng):
    grid, target = random_grid_target(rng, 5, 5, 1, 3, n_objects=3)
    base = T.detection_loss(grid, target, T.LossConfig(5.0, 1.0), 1)
    double = T.detection_loss(grid, target, T.LossConfig(10.0, 1.0), 1)
    assert double.coord == pytest.approx(2 * base.coord, rel=1e-9)
    assert double.obj_conf == base.obj_conf
    assert double.noobj_conf == base.noobj_conf
    assert double.class_ == base.class_


def test_loss_nonnegative(rng):
    for _ in range(20):
        grid, target = random_grid_target(rng, 4, 4, 2, 2, n_objects=2)
        assert T.detection_loss(grid, target, T.LossConfig(), 2).total >= 0.0


@pytest.mark.parametrize("weights", [(-1.0, 1.0), (5.0, float("nan")), (float("nan"), 1.0),
                                     (float("inf"), 1.0)])
def test_loss_config_rejects_weights_that_are_not_finite_and_non_negative(weights):
    with pytest.raises(ConfigError, match="finite and non-negative"):
        T.LossConfig(*weights)


def test_loss_nan_rejected():
    grid, target = _perfect_fixture()
    grid[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        T.detection_loss(grid, target, T.LossConfig(), 1)


def test_noobj_gradient_pushes_confidence_down(rng):
    gh = gw = 4
    k = 2
    grid = rng.random((gh, gw, 1 + 5 * k))
    target = T.GridTarget(np.zeros((gh, gw), dtype=bool),
                          np.zeros((gh, gw, 4), dtype=np.float32),
                          np.zeros((gh, gw), dtype=np.int32))
    resolved = T.resolve_targets(grid, target, 1)
    g = T.loss_grid_gradient(grid, target, T.LossConfig(), 1, resolved)
    for b in range(k):
        ch = 1 + 5 * b
        assert np.all(g[:, :, ch] >= 0.0)          # descent lowers confidence
        assert np.all((g[:, :, ch] == 0.0) == (grid[:, :, ch] == 0.0))


# ---------------------------------------------------------------------------
# gradients

def test_backward_zero_loss_zero_grads():
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=2, input_channels=3)
    model = M.init_model(spec, seed=0)
    tx, ty, tw, th = 0.5, 0.5, 0.25, 0.25
    w = np.zeros((1, 1, 3, 11), dtype=np.float32)
    b = np.zeros(11, dtype=np.float32)
    b[0] = 40.0                      # class prob saturates to 1.0
    b[1] = 40.0                      # box-0 confidence saturates to 1.0
    b[2:6] = (tx, ty, np.sqrt(tw), np.sqrt(th))
    b[6] = -40.0                     # box-1 confidence ~ 0
    model.weights[0].w, model.weights[0].b = w, b
    img = np.full((2, 2, 3), 0.3, dtype=np.float32)
    mask = np.ones((2, 2), dtype=bool)
    boxes = np.tile(np.array([tx, ty, tw, th], dtype=np.float32), (2, 2, 1))
    target = T.GridTarget(mask, boxes, np.zeros((2, 2), dtype=np.int32))
    grads, parts = T.backward(model, img, target, T.LossConfig())
    assert parts.total <= 1e-7
    assert np.abs(grads[0][0]).max() <= 1e-7
    assert np.abs(grads[0][1]).max() <= 1e-7


def test_backward_linear_layer_closed_form():
    # head-only net: coordinate outputs are affine in the input, so the
    # coordinate-channel weight gradient is -2*lambda*(t - pred) * input
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=1, input_channels=3)
    model = M.init_model(spec, seed=1)
    img = np.array([[[0.2, -0.4, 0.9]]], dtype=np.float32)
    target = T.GridTarget(np.ones((1, 1), dtype=bool),
                          np.array([[[0.7, 0.3, 0.2, 0.1]]], dtype=np.float32),
                          np.zeros((1, 1), dtype=np.int32))
    grads, _ = T.backward(model, img, target, T.LossConfig())
    grid = M.forward(model, img)
    lam = 5.0
    for coord_idx, tval in ((2, 0.7), (3, 0.3)):
        pred = grid[0, 0, coord_idx]
        want = -2.0 * lam * (tval - pred) * img[0, 0]
        np.testing.assert_allclose(grads[0][0][0, 0, :, coord_idx], want,
                                   rtol=1e-5, atol=1e-7)
        assert grads[0][1][coord_idx] == pytest.approx(-2.0 * lam * (tval - pred),
                                                       rel=1e-5)


def _to_float64(model):
    for lw in model.weights:
        if lw.w is not None:
            lw.w = lw.w.astype(np.float64)
            lw.b = lw.b.astype(np.float64)


def _loss_of(model, img, target, cfg, resolved):
    raw, _ = T._forward_trace(model, img[None])
    act = M.head_activation(raw[0], model.spec.num_classes, model.spec.boxes_per_cell)
    return T.detection_loss(act, target, cfg, model.spec.num_classes, resolved).total


def test_gradients_match_finite_differences(rng):
    spec = tiny_net_spec()
    model = M.init_model(spec, seed=5)
    _to_float64(model)
    img = rng.random((8, 8, 3))
    gts = [GroundTruthBox(4.0, 5.0, 4.0, 5.0), GroundTruthBox(1.5, 1.5, 2.0, 2.0)]
    target = T.assign_cells(gts, (2, 2), (8, 8))
    cfg = T.LossConfig()

    raw, _ = T._forward_trace(model, img[None])
    act = M.head_activation(raw[0], 1, spec.boxes_per_cell)
    resolved = T.resolve_targets(act, target, 1)
    grads, _ = T.backward(model, img, target, cfg, resolved=resolved)

    h = 1e-3
    checked = ok = 0
    for layer_idx, lg in enumerate(grads):
        if lg is None:
            continue
        w = model.weights[layer_idx].w
        flat = w.reshape(-1)
        for k in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + h
            up = _loss_of(model, img, target, cfg, resolved)
            flat[k] = orig - h
            dn = _loss_of(model, img, target, cfg, resolved)
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            an = lg[0].reshape(-1)[k]
            checked += 1
            if abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) or abs(fd - an) < 1e-8:
                ok += 1
    assert checked >= 40
    assert ok / checked >= 0.95


def test_backward_rejects_quantized():
    from lcdet.quant import calibrate
    model = M.init_model(tiny_net_spec(), seed=0)
    rec = calibrate(model, [np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)])
    qmodel = M.quantize_model(model, rec)
    target = T.assign_cells([], (2, 2), (8, 8))
    with pytest.raises(ConfigError):
        T.backward(qmodel, np.zeros((8, 8, 3), dtype=np.float32), target, T.LossConfig())


# ---------------------------------------------------------------------------
# training loop

def _tiny_dataset(n=8, dims=(16, 16), seed=3):
    return synth_dataset(n, dims, seed=seed)


def test_train_zero_lr_is_identity():
    model = M.init_model(tiny_net_spec(), seed=2)
    before = M.save(model)
    T.train_loop(model, _tiny_dataset(), T.TrainConfig(lr=0.0, epochs=3, seed=0))
    assert M.save(model) == before


def test_train_deterministic():
    blobs = []
    for _ in range(2):
        model = M.init_model(tiny_net_spec(), seed=2)
        T.train_loop(model, _tiny_dataset(), T.TrainConfig(lr=1e-3, epochs=2, seed=9))
        blobs.append(M.save(model))
    assert blobs[0] == blobs[1]


def test_train_loss_decreases_on_fixed_batch():
    model = M.init_model(tiny_net_spec(), seed=2)
    dataset = synth_dataset(8, (48, 48), seed=11)
    cfg = T.TrainConfig(lr=1e-3, batch_size=8, epochs=10, seed=0)
    history = T.train_loop(model, dataset, cfg)
    totals = [row["total"] for row in history]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_train_empty_dataset_rejected():
    model = M.init_model(tiny_net_spec(), seed=0)
    from lcdet.errors import UsageError
    with pytest.raises(UsageError):
        T.train_loop(model, [], T.TrainConfig())


def test_nan_forward_names_layer():
    model = M.init_model(tiny_net_spec(), seed=0)
    model.weights[2].w[0, 0, 0, 0] = np.nan
    target = T.assign_cells([], (2, 2), (8, 8))
    with pytest.raises(NumericError, match="layer 2"):
        T.backward(model, np.ones((8, 8, 3), dtype=np.float32), target, T.LossConfig())


def test_divergence_preserves_last_good_checkpoint(tmp_path):
    model = M.init_model(tiny_net_spec(), seed=2)
    dataset = _tiny_dataset()
    ckpt = tmp_path / "checkpoint.lcdet"
    good_cfg = T.TrainConfig(lr=1e-3, epochs=1, seed=0, lr_decay_epochs=(),
                             checkpoint_path=str(ckpt))
    T.train_loop(model, dataset, good_cfg)
    good_bytes = ckpt.read_bytes()
    model.weights[0].w[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        T.train_loop(model, dataset, good_cfg)
    assert ckpt.read_bytes() == good_bytes


def test_loss_curve_csv_shape():
    rows = [{"epoch": 0, "total": 1.0, "coord": 0.4, "obj_conf": 0.3,
             "noobj_conf": 0.2, "class": 0.1}]
    csv = T.loss_curve_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,total,coord,obj_conf,noobj_conf,class"
    assert lines[1].startswith("0,1.000000,0.400000")


# ---------------------------------------------------------------------------
# synthetic data

def test_synth_deterministic():
    a = synth_dataset(5, (64, 64), seed=7)
    b = synth_dataset(5, (64, 64), seed=7)
    for (ia, ga), (ib, gb) in zip(a, b):
        np.testing.assert_array_equal(ia, ib)
        assert [g.box for g in ga] == [g.box for g in gb]


def test_synth_boxes_inside_and_counted():
    ds = synth_dataset(40, (112, 112), seed=1)
    assert len(ds) == 40
    for img, gts in ds:
        assert img.shape == (112, 112, 3)
        assert 1 <= len(gts) <= 4
        for g in gts:
            assert g.cx - g.w / 2 >= -1e-6
            assert g.cy - g.h / 2 >= -1e-6
            assert g.cx + g.w / 2 <= 112 + 1e-6
            assert g.cy + g.h / 2 <= 112 + 1e-6
            assert 0.08 * 112 <= g.w <= 0.60 * 112 + 1e-6


def test_synth_augment_keeps_centers_inside():
    ds = synth_dataset(10, (64, 64), seed=5, augment=True)
    for img, gts in ds:
        assert img.shape == (64, 64, 3)
        assert len(gts) >= 1
        for g in gts:
            assert 0 <= g.cx < 64 and 0 <= g.cy < 64


# ---------------------------------------------------------------------------
# the loss over a batch, the head gradient, and the pool backward

def test_batched_loss_and_gradient_match_per_image(rng):
    cfg = T.LossConfig()
    for c, k in ((1, 3), (3, 2)):
        pairs = [random_grid_target(rng, 4, 5, c, k, n_objects=int(rng.integers(0, 5)))
                 for _ in range(3)]
        grids = np.stack([g for g, _ in pairs])
        target = T.stack_targets([t for _, t in pairs])
        resolved = T.resolve_targets(grids, target, c)
        parts = T.detection_loss(grids, target, cfg, c, resolved)
        grad = T.loss_grid_gradient(grids, target, cfg, c, resolved)
        want = np.zeros(4)
        for n, (g, t) in enumerate(pairs):
            res = T.resolve_targets(g, t, c)
            np.testing.assert_array_equal(resolved.responsible[n], res.responsible)
            np.testing.assert_array_equal(grad[n], T.loss_grid_gradient(g, t, cfg, c, res))
            p = T.detection_loss(g, t, cfg, c, res)
            want += (p.coord, p.obj_conf, p.noobj_conf, p.class_)
        got = (parts.coord, parts.obj_conf, parts.noobj_conf, parts.class_)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_head_gradient_matches_finite_differences(rng):
    # raw grid -> split activation -> loss, for C > 1 (softmax classes) and a
    # responsible w and h well below SQRT_FLOOR (the clamp passes no gradient)
    from lcdet.detector import head_views
    cfg = T.LossConfig()
    step = 1e-5
    for c in (1, 2, 3):
        for k in (1, 2, 3):
            raw = rng.normal(0.4, 0.8, size=(3, 3, c + 5 * k))
            _, target = random_grid_target(rng, 3, 3, c, k, n_objects=3)
            resolved = T.resolve_targets(M.head_activation(raw, c, k), target, c)
            i, j = np.argwhere(target.object_mask)[0]
            r = resolved.responsible[i, j]
            _, raw_boxes = head_views(raw, c, k)
            raw_boxes[i, j, r, 3] = -0.5
            raw_boxes[i, j, r, 4] = -1e-4

            def loss(x):
                return T.detection_loss(M.head_activation(x, c, k), target, cfg, c,
                                        resolved).total

            act = M.head_activation(raw, c, k)
            analytic = T.head_activation_backward(
                act, T.loss_grid_gradient(act, target, cfg, c, resolved), c, k)
            numeric = np.zeros_like(raw)
            for idx in np.ndindex(raw.shape):
                orig = raw[idx]
                raw[idx] = orig + step
                up = loss(raw)
                raw[idx] = orig - step
                numeric[idx] = (up - loss(raw)) / (2 * step)
                raw[idx] = orig
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)
            _, grad_boxes = head_views(analytic, c, k)
            assert grad_boxes[i, j, r, 3] == 0.0 and grad_boxes[i, j, r, 4] == 0.0


def test_maxpool_backward_routes_to_first_maximum(rng):
    # overlapping (size > stride), gapped (size < stride) and clipped windows;
    # small integer inputs tie often, and integer gradients sum exactly
    from lcdet.tensor import maxpool2d_batched
    for size, stride, h, w in ((2, 2, 7, 5), (3, 2, 7, 8), (3, 1, 5, 6), (2, 3, 8, 7)):
        x = rng.integers(0, 3, size=(2, h, w, 3)).astype(np.float32)
        y = maxpool2d_batched(x, size, stride)
        gy = rng.integers(-4, 5, size=y.shape).astype(np.float32)
        layer = M.LayerSpec(kind="maxpool", kernel=(size, size), stride=stride)
        got = T._maxpool_backward(x, y, gy, layer)
        want = np.zeros_like(x)
        for n, oi, oj, ch in np.ndindex(y.shape):
            win = x[n, oi * stride:oi * stride + size, oj * stride:oj * stride + size, ch]
            assert y[n, oi, oj, ch] == win.max()
            a, b = np.unravel_index(np.argmax(win), win.shape)  # first maximum, row-major
            want[n, oi * stride + a, oj * stride + b, ch] += gy[n, oi, oj, ch]
        assert got.tobytes() == want.tobytes()
