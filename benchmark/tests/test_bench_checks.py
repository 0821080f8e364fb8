"""Each benchmark check passes a correct output and rejects a planted wrong one.

    python3 -m pytest benchmark/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
from lcdet import model as M  # noqa: E402
from lcdet import quant as Q  # noqa: E402


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """A seeded toy model, its quantized twin and one 32x32 frame."""
    d = tmp_path_factory.mktemp("toy")
    net = M.init_model(M.build_lcdet(M.profile_config("toy")), seed=3)
    image = np.random.default_rng(3).random((32, 32, 3), dtype=np.float32)
    qnet = M.quantize_model(net, Q.calibrate(net, [image]))
    float_path, q_path = str(d / "f.lcdet"), str(d / "q.lcdet")
    M.save_file(net, float_path)
    M.save_file(qnet, q_path)
    return {"net": net, "qnet": qnet, "image": image, "float": float_path, "q": q_path}


def test_model_reader_matches_the_package(toy):
    header, layers = checks.read_model(toy["q"])
    loaded = M.load_file(toy["q"])
    for lw, ours in zip(loaded.weights, layers):
        if lw.w is None:
            assert ours is None
        else:
            assert np.array_equal(lw.w.data, ours[0]) and np.array_equal(lw.b, ours[2])
    assert len(header["calibration"]["layers"]) == len(header["layers"])


def test_float_grid_check_rejects_a_perturbed_element(toy):
    header, layers = checks.read_model(toy["float"])
    ref = checks.ref_forward(header, layers, toy["image"])
    grid = M.forward(toy["net"], toy["image"], "float")
    assert checks.check_float_grid(grid, ref) == []
    grid = grid.copy()
    grid[0, 0, 3] += 0.01
    assert checks.check_float_grid(grid, ref)


def test_qconv_check_rejects_a_perturbed_grid_byte(toy):
    from workloads import record_quantized_layers
    calls = record_quantized_layers(toy["qnet"], toy["image"])
    assert all(checks.check_qpool_layer(c) == [] if "size" in c else checks.check_qconv_layer(c) == []
               for c in calls)
    head = dict(calls[-1])
    out = head["out"].astype(np.int64)
    out[0, 0, 0] = (out[0, 0, 0] + 3) % 256
    head["out"] = out
    assert checks.check_qconv_layer(head)
    pool = dict(calls[1])
    out = pool["out"].copy()
    out[0, 0, 0] ^= 1
    pool["out"] = out
    assert checks.check_qpool_layer(pool)


def test_weight_roundtrip_check_rejects_a_moved_byte(toy):
    _, fl = checks.read_model(toy["float"])
    _, ql = checks.read_model(toy["q"])
    assert checks.check_weight_roundtrip(fl, ql) == []
    w = ql[0][0].copy()
    w.reshape(-1)[5] = (int(w.reshape(-1)[5]) + 1) % 256
    bad = [(w, ql[0][1], ql[0][2])] + ql[1:]
    assert checks.check_weight_roundtrip(fl, bad)


def test_u8_fidelity_check_rejects_a_shifted_grid():
    f = np.zeros((2, 2, 16))
    assert checks.check_u8_fidelity(f, f + 0.05, step=0.02) == []
    assert checks.check_u8_fidelity(f, f + 0.07, step=0.02)


def _grid():
    rng = np.random.default_rng(5)
    grid = rng.random((4, 4, 16)).astype(np.float32)
    grid[..., 0] = 0.9
    return grid


def test_detection_check_rejects_a_flipped_nms_result():
    grid = _grid()
    dets = checks.ref_decode(grid, 64, 64, 1, 3, 0.005)
    kept = checks.ref_nms(dets, 0.5)
    assert 0 < len(kept) < len(dets)
    assert checks.check_detections(kept, kept, "img") == []
    assert checks.check_nms_property({"img": kept}, 0.5) == []
    suppressed = next(d for d in dets if d not in kept)
    flipped = kept[:-1] + [suppressed]
    assert checks.check_detections(flipped, kept, "img")
    assert checks.check_nms_property({"img": kept + [suppressed]}, 0.5)


def test_detection_check_matches_the_package_decode_and_nms():
    from lcdet import detector as D
    grid = _grid()
    ours = checks.ref_nms(checks.ref_decode(grid, 64, 64, 1, 3, 0.005), 0.5)
    theirs = [{"box": list(d.box), "class_id": d.class_id, "score": d.score}
              for d in D.nms(D.decode(grid, (64, 64), 1, 3, 0.005), 0.5)]
    assert checks.check_detections(theirs, ours, "img") == []


def _tied():
    """Three images, one ground truth each; scores tie in groups."""
    gts = {f"i{k}": [{"box": [10.0, 10.0, 8.0, 8.0], "class_id": 0}] for k in range(3)}
    far = [40.0, 40.0, 8.0, 8.0]
    hit = [10.0, 10.0, 8.0, 8.0]
    dets = {
        "i0": [{"box": hit, "class_id": 0, "score": 0.9}, {"box": far, "class_id": 0, "score": 0.5}],
        "i1": [{"box": far, "class_id": 0, "score": 0.5}, {"box": hit, "class_id": 0, "score": 0.5}],
        "i2": [{"box": far, "class_id": 0, "score": 0.5}, {"box": far, "class_id": 0, "score": 0.2}],
    }
    return dets, gts


def _write(path, header, rows):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")
    return str(path)


def test_tie_budget_lands_inside_a_group_of_false_positives():
    dets, gts = _tied()
    pairs = checks.ref_pairs(dets, gts, 0.5)
    assert checks.ref_curve(pairs) == [(0.9, 1, 0), (0.5, 2, 3), (0.2, 2, 4)]
    assert checks.tie_budget(pairs) == 1


def test_curve_check_rejects_a_wrong_row(tmp_path):
    dets, gts = _tied()
    ref = checks.ref_curve(checks.ref_pairs(dets, gts, 0.5))
    head = "threshold,tp,fp,precision,recall"
    good = [(f"{t:.6f}", tp, fp, 0, 0) for t, tp, fp in ref]
    assert checks.check_curve_csv(_write(tmp_path / "good.csv", head, good), ref) == []
    bad = list(good)
    bad[1] = (bad[1][0], 3, bad[1][2], 0, 0)
    assert checks.check_curve_csv(_write(tmp_path / "bad.csv", head, bad), ref)


def test_sweep_check_rejects_a_tie_cut_row(tmp_path):
    dets, gts = _tied()
    curves = {c: checks.ref_curve(checks.ref_pairs(dets, gts, c)) for c in (0.5,)}
    head = "iou_criterion,tp,fp,tp_rate,threshold"
    realizable = [("0.500", 1, 0, 0.333, "0.900000")]
    assert checks.check_sweep_csv(_write(tmp_path / "ok.csv", head, realizable), curves, 1) == []
    # the greedy cut stops after the first tied FP at 0.5: (2 TP, 1 FP) is no curve point
    tie_cut = [("0.500", 2, 1, 0.667, "0.500000")]
    assert checks.check_sweep_csv(_write(tmp_path / "cut.csv", head, tie_cut), curves, 1)
    over = [("0.500", 2, 3, 0.667, "0.500000")]
    assert checks.check_sweep_csv(_write(tmp_path / "over.csv", head, over), curves, 1)


def test_loss_check_rejects_rising_or_non_finite_loss(tmp_path):
    head = "epoch,total,coord,obj_conf,noobj_conf,class"
    assert checks.check_loss_csv(_write(tmp_path / "a.csv", head, [(0, 3, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)])) == []
    assert checks.check_loss_csv(_write(tmp_path / "b.csv", head, [(0, 2, 0, 0, 0, 0), (1, 3, 0, 0, 0, 0)]))
    assert checks.check_loss_csv(_write(tmp_path / "c.csv", head, [(0, 3, 0, 0, 0, 0), (1, "nan", 0, 0, 0, 0)]))


def test_gradient_check_rejects_a_wrong_gradient():
    layers = [[np.array([1.0, -2.0]), None, np.array([0.5])]]

    def loss_of(ls):
        return float((ls[0][0] ** 2).sum() + 3.0 * ls[0][2][0])

    samples = [(0, 0, 0), (0, 0, 1), (0, 2, 0)]
    right = [(np.array([2.0, -4.0]), np.array([3.0]))]
    wrong = [(np.array([2.0, -4.1]), np.array([3.0]))]
    assert checks.check_gradients(layers, right, loss_of, samples) == []
    assert checks.check_gradients(layers, wrong, loss_of, samples)
