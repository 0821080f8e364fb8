"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The training criterion
dominates the runtime (minutes); everything else finishes in seconds.
"""

import os
import time

import numpy as np
import pytest

import lcdet.evaluation as E
import lcdet.model as M
import lcdet.perfsim as P
import lcdet.train as T
from lcdet.data import synth_dataset
from lcdet.detector import decode, nms
from lcdet.quant import calibrate, dequantize, quantize

from conftest import (best_assignment_tp, naive_detection_loss,
                      random_grid_target)

IMAGE_SIDE = 112
HELD_OUT_SEED = 1007


def _report(num, text):
    print(f"\n[ACCEPTANCE {num:02d}] PASS - {text}")


# ---------------------------------------------------------------------------
# shared trained model (criteria 6 and 7)

@pytest.fixture(scope="module")
def trained_toy():
    spec = M.build_lcdet(M.profile_config("toy"))
    model = M.init_model(spec, seed=7)
    dataset = synth_dataset(2000, (IMAGE_SIDE, IMAGE_SIDE), seed=7)
    start = time.time()
    T.train_loop(model, dataset, T.TrainConfig(seed=7))
    elapsed = time.time() - start
    held_out = synth_dataset(200, (IMAGE_SIDE, IMAGE_SIDE), seed=HELD_OUT_SEED)
    return {"model": model, "train_set": dataset, "held_out": held_out,
            "train_seconds": elapsed}


def _detect_all(model, dataset, mode="float"):
    dets_by, gts_by = {}, {}
    for i, (img, gts) in enumerate(dataset):
        grid = M.forward(model, img, mode=mode)
        dets = nms(decode(grid, (IMAGE_SIDE, IMAGE_SIDE), 1, 3,
                          score_threshold=0.005), 0.5)
        dets_by[str(i)] = dets
        gts_by[str(i)] = gts
    return dets_by, gts_by


# ---------------------------------------------------------------------------

def test_01_quantization_round_trip(rng):
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(1, 4097))
        span = 10.0 ** rng.uniform(-3.0, 3.0)
        center = span * rng.uniform(-2.0, 2.0)
        w = (center + span * (rng.random(n) - 0.5)).astype(np.float32)
        q = quantize(w)
        err = np.abs(dequantize(q) - w).max()
        bound = (q.params.max - q.params.min) / 510.0 + 1e-6
        assert err <= bound
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, f"1000-tensor round trip within (max-min)/510 + 1e-6 in {elapsed:.1f}s")


def test_02_quantized_inference_fidelity(rng):
    start = time.time()
    spec = M.build_lcdet(M.profile_config("toy"))
    model = M.init_model(spec, seed=3)
    calib_images = [rng.random((IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.float32)
                    for _ in range(16)]
    record = calibrate(model, calib_images)
    qmodel = M.quantize_model(model, record)
    step = record.layers[-1].scale
    within = total = 0
    for _ in range(100):
        img = rng.random((IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.float32)
        gq = M.forward(qmodel, img, mode="quantized")
        gf = M.forward(model, img, mode="float")
        err = np.abs(gq - gf)
        within += int((err <= 3.0 * step).sum())
        total += err.size
    elapsed = time.time() - start
    frac = within / total
    assert frac >= 0.99
    assert elapsed < 30.0
    _report(2, f"{frac:.2%} of grid elements within 3 quantization steps in {elapsed:.1f}s")


def test_03_head_size_formulas():
    dims = {"ch_f": 1024, "k": 3, "c": 20, "f_fc1": 4096,
            "w_f": 7, "h_f": 7, "w_o": 7, "h_o": 7,
            "f_w": 3, "f_h": 3, "ch_d1": 256}
    convdet = P.head_params("convdet", dims)
    yldet = P.head_params("yldet", dims)
    assert convdet == 2_439_936
    ratio = yldet / convdet
    assert ratio >= 80.0
    _report(3, f"convdet = {convdet:,d} exactly; dense/conv head ratio {ratio:.1f}x")


def test_04_loss_oracle(rng):
    start = time.time()
    cfg = T.LossConfig()
    for _ in range(500):
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        gh, gw = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        grid, target = random_grid_target(rng, gh, gw, c, k,
                                          n_objects=int(rng.integers(0, 6)))
        parts = T.detection_loss(grid, target, cfg, num_classes=c)
        want = sum(naive_detection_loss(grid, target, cfg.lambda_coord,
                                        cfg.lambda_noobj, c))
        assert parts.total == pytest.approx(want, rel=1e-6, abs=1e-9)

    # exact zero on the perfect-prediction fixture
    grid = np.zeros((3, 3, 1 + 5 * 2))
    mask = np.zeros((3, 3), dtype=bool)
    boxes = np.zeros((3, 3, 4), dtype=np.float32)
    mask[1, 2] = True
    boxes[1, 2] = (0.5, 0.25, 0.25, 0.0625)
    grid[1, 2, 0] = 1.0
    grid[1, 2, 1] = 1.0
    grid[1, 2, 2:6] = (0.5, 0.25, 0.5, 0.25)
    target = T.GridTarget(mask, boxes, np.zeros((3, 3), dtype=np.int32))
    assert T.detection_loss(grid, target, cfg, 1).total == 0.0
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, f"500 random grids match the straight-line loss in {elapsed:.1f}s; "
               "perfect fixture is exactly 0")


def test_05_gradient_check():
    # Frozen fixture: a 32x32 input keeps finite-difference truncation low
    # (the loss is piecewise smooth; large inputs make +/-h straddle
    # relu/pool kinks at some sampled coordinate almost surely).
    rng = np.random.default_rng(99)
    start = time.time()
    side = 32
    spec = M.build_lcdet(M.profile_config("toy"))
    model = M.init_model(spec, seed=5)
    for lw in model.weights:
        if lw.w is not None:
            lw.w = lw.w.astype(np.float64)
            lw.b = lw.b.astype(np.float64)
    img = rng.random((side, side, 3))
    gts = [T.GroundTruthBox(side * 0.35, side * 0.5, side * 0.27, side * 0.21),
           T.GroundTruthBox(side * 0.8, side * 0.18, side * 0.14, side * 0.14)]
    target = T.assign_cells(gts, (side // 16, side // 16), (side, side))
    cfg = T.LossConfig()

    raw, _ = T._forward_trace(model, img[None])
    act = M.head_activation(raw[0], 1, 3)
    resolved = T.resolve_targets(act, target, 1)
    grads, _ = T.backward(model, img, target, cfg, resolved=resolved)

    def loss_now():
        r, _ = T._forward_trace(model, img[None])
        a = M.head_activation(r[0], 1, 3)
        return T.detection_loss(a, target, cfg, 1, resolved).total

    params = [(i, lw.w, grads[i][0]) for i, lw in enumerate(model.weights)
              if lw.w is not None]
    params += [(i, lw.b, grads[i][1]) for i, lw in enumerate(model.weights)
               if lw.w is not None]
    sizes = np.array([p[1].size for p in params], dtype=float)
    h = 1e-3
    ok = 0
    n_samples = 200
    for _ in range(n_samples):
        pi = int(rng.choice(len(params), p=sizes / sizes.sum()))
        _, arr, grad = params[pi]
        k = int(rng.integers(arr.size))
        flat = arr.reshape(-1)
        orig = flat[k]
        flat[k] = orig + h
        up = loss_now()
        flat[k] = orig - h
        dn = loss_now()
        flat[k] = orig
        fd = (up - dn) / (2.0 * h)
        an = grad.reshape(-1)[k]
        if abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) or abs(fd - an) < 1e-9:
            ok += 1
    elapsed = time.time() - start
    assert ok / n_samples >= 0.99
    assert elapsed < 120.0
    _report(5, f"{ok}/{n_samples} coordinates match finite differences in {elapsed:.0f}s")


@pytest.mark.slow
def test_06_desk_scale_training(trained_toy):
    budget = 900.0 * max(1.0, 4.0 / (os.cpu_count() or 1))
    assert trained_toy["train_seconds"] <= budget, \
        f"training took {trained_toy['train_seconds']:.0f}s, budget {budget:.0f}s"
    dets_by, gts_by = _detect_all(trained_toy["model"], trained_toy["held_out"])
    tp = fp = total = 0
    for key, gts in gts_by.items():
        kept = [d for d in dets_by[key] if d.score >= 0.25]
        labels = E.match(kept, gts, 0.5)
        tp += sum(labels)
        fp += len(labels) - sum(labels)
        total += len(gts)
    recall = tp / total
    precision = tp / (tp + fp) if tp + fp else 1.0
    assert recall >= 0.9, f"recall {recall:.3f}"
    assert precision >= 0.8, f"precision {precision:.3f}"
    _report(6, f"trained in {trained_toy['train_seconds']:.0f}s; "
               f"held-out recall {recall:.3f}, precision {precision:.3f}")


@pytest.mark.slow
def test_07_quantized_vs_float_detection_parity(trained_toy, rng):
    model = trained_toy["model"]
    calib_images = [img for img, _ in trained_toy["train_set"][:64]]
    record = calibrate(model, calib_images)
    qmodel = M.quantize_model(model, record)

    dets_f, gts_by = _detect_all(model, trained_toy["held_out"], mode="float")
    dets_q, _ = _detect_all(qmodel, trained_toy["held_out"], mode="quantized")

    budget = len(gts_by)
    rows_f = E.iou_sweep(dets_f, gts_by, [0.4, 0.6], fp_budget=budget)
    rows_q = E.iou_sweep(dets_q, gts_by, [0.4, 0.6], fp_budget=budget)
    rate_f = {r.iou_criterion: r.tp_rate for r in rows_f}
    rate_q = {r.iou_criterion: r.tp_rate for r in rows_q}

    gap = abs(rate_q[0.4] - rate_f[0.4])
    assert gap <= 0.03, f"TP-rate gap at IoU 0.4 is {gap:.3f}"
    drop_f = rate_f[0.4] - rate_f[0.6]
    drop_q = rate_q[0.4] - rate_q[0.6]
    assert drop_q >= drop_f - 1e-9, \
        f"quantized drop {drop_q:.3f} < float drop {drop_f:.3f}"
    _report(7, f"TP rate at IoU 0.4: float {rate_f[0.4]:.3f} vs quantized "
               f"{rate_q[0.4]:.3f}; tightening to 0.6 drops float {drop_f:.3f}, "
               f"quantized {drop_q:.3f}")


def test_08_fully_convolutional(rng):
    spec = M.build_lcdet(M.profile_config("paper"))
    model = M.init_model(spec, seed=0)
    g1 = M.forward(model, rng.random((448, 448, 3), dtype=np.float32))
    assert g1.shape == (7, 7, 16)
    g2 = M.forward(model, rng.random((448, 640, 3), dtype=np.float32))
    assert g2.shape == (7, 10, 16)

    # identical cell vectors decode to boxes offset by exactly the stride
    grid = np.zeros((7, 10, 16), dtype=np.float32)
    vec = np.array([0.9, 0.8, 0.25, 0.75, 0.5, 0.5] + [0.0] * 10, dtype=np.float32)
    grid[2, 3] = vec
    grid[5, 8] = vec
    dets = decode(grid, (640, 448), 1, 3, score_threshold=0.5)
    assert len(dets) == 2
    a, b = sorted(dets, key=lambda d: d.box[0])
    assert b.box[0] - a.box[0] == pytest.approx((8 - 3) * 64)
    assert b.box[1] - a.box[1] == pytest.approx((5 - 2) * 64)
    assert a.box[2:] == pytest.approx(b.box[2:])
    _report(8, "one model: 448x448 -> 7x7 grid, 640x448 -> 10x7 grid; "
               "decode is translation-equivariant")


def test_09_evaluator_oracle(rng):
    from lcdet.detector import Detection
    from lcdet.data import GroundTruthBox

    def det(b, s):
        return Detection(box=b, class_id=0, class_prob=1.0, confidence=s, score=s)

    for _ in range(50):
        n_det = int(rng.integers(1, 9))
        n_gt = int(rng.integers(1, 9))
        det_boxes = [(rng.uniform(0, 40), rng.uniform(0, 40),
                      rng.uniform(4, 14), rng.uniform(4, 14)) for _ in range(n_det)]
        gt_boxes = [(rng.uniform(0, 40), rng.uniform(0, 40),
                     rng.uniform(4, 14), rng.uniform(4, 14)) for _ in range(n_gt)]
        scores = rng.random(n_det)
        dets = [det(b, s) for b, s in zip(det_boxes, scores)]
        gts = [GroundTruthBox(*b) for b in gt_boxes]
        greedy = sum(E.match(dets, gts, 0.5))
        oracle = best_assignment_tp(det_boxes, scores, gt_boxes, 0.5)
        assert greedy == oracle

    # hand-enumerated curve fixtures
    g1 = {"a": [GroundTruthBox(10, 10, 4, 4)], "b": [GroundTruthBox(5, 5, 2, 2)]}
    d1 = {"a": [det((10, 10, 4, 4), 0.9)], "b": [det((5, 5, 2, 2), 0.8)]}
    c1 = E.curve(d1, g1, 0.5)
    assert (c1.points[-1].tp, c1.points[-1].fp) == (2, 0)
    assert c1.points[-1].recall == 1.0 and c1.points[-1].precision == 1.0

    c2 = E.curve({}, g1, 0.5)
    assert [(p.tp, p.fp) for p in c2.points] == [(0, 0)]

    g3 = {"img": [GroundTruthBox(10, 10, 4, 4), GroundTruthBox(30, 30, 4, 4)]}
    d3 = {"img": [det((10, 10, 4, 4), 0.9), det((50, 50, 4, 4), 0.8),
                  det((30, 30, 4, 4), 0.7)]}
    c3 = E.curve(d3, g3, 0.5)
    assert [(p.tp, p.fp) for p in c3.points] == [(1, 0), (1, 1), (2, 1)]
    _report(9, "greedy matching equals the exhaustive oracle on 50 fixtures; "
               "all three curve fixtures reproduced")


def test_10_model_size_law(tmp_path, rng):
    sizes = {}
    for profile, res in (("toy", IMAGE_SIDE), ("paper", 448)):
        spec = M.build_lcdet(M.profile_config(profile))
        model = M.init_model(spec, seed=0)
        record = calibrate(model, [rng.random((res, res, 3), dtype=np.float32)])
        qmodel = M.quantize_model(model, record)
        fpath = tmp_path / f"{profile}.lcdet"
        qpath = tmp_path / f"{profile}_q.lcdet"
        M.save_file(model, fpath)
        M.save_file(qmodel, qpath)
        fsize, qsize = os.path.getsize(fpath), os.path.getsize(qpath)
        assert qsize <= 0.26 * fsize, \
            f"{profile}: {qsize} vs {fsize} ({qsize / fsize:.1%})"
        sizes[profile] = (fsize, qsize)
        os.remove(fpath)
        os.remove(qpath)
    msg = "; ".join(f"{p}: {q / f:.1%} of float ({f / 1e6:.1f} MB -> {q / 1e6:.1f} MB)"
                    for p, (f, q) in sizes.items())
    _report(10, msg)


def test_11_bandwidth_simulator():
    spec = M.build_lcdet(M.profile_config("paper"))
    report = P.analyze(spec, (448, 448))
    compute_rate = 1e12

    sweep_bw = [0.5, 1, 2, 3, 4, 6, 8, 12, 16, 20]
    fps = [P.frame_rate(P.BwScenario(g * 1e9, compute_rate, report, "u8")).fps
           for g in sweep_bw]
    assert all(b >= a for a, b in zip(fps, fps[1:]))

    unlimited = P.frame_rate(P.BwScenario(float("inf"), compute_rate, report, "u8"))
    assert unlimited.fps == unlimited.compute_fps

    res = P.frame_rate(P.BwScenario(4e9, compute_rate, report, "u8"))
    csv_lines = P.bandwidth_csv(res).strip().splitlines()
    layer_total = sum(int(l.split(",")[2]) for l in csv_lines[1:-1])
    declared_total = int(csv_lines[-1].split(",")[2])
    assert layer_total == declared_total == report.total_traffic_bytes("u8")
    _report(11, f"fps monotone over {sweep_bw[0]}-{sweep_bw[-1]} Gbps; "
                f"unlimited-BW fps == compute-bound fps; layer CSV total "
                f"{layer_total:,d} bytes matches summary")
