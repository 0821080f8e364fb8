import json
import os

import numpy as np
import pytest

import lcdet.model as M
from lcdet.cli import main
from lcdet.data import synth_dataset, write_dataset, write_ppm


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def toy_args():
    # tiny run: 16x16 images through the toy network (stride 16 -> 1x1 grid)
    return ["--synthetic", "6", "--image-size", "32", "--epochs", "1", "--quiet"]


def _train(tmp_path, name, *extra, seed=3):
    out = tmp_path / name
    code = run("train", "--out", out, "--profile", "toy", "--seed", seed,
               "--synthetic", 6, "--image-size", "32", "--epochs", 1,
               "--quiet", *extra)
    assert code == 0
    return out


def test_train_writes_artifacts(tmp_path):
    out = _train(tmp_path, "run")
    assert (out / "model.lcdet").exists()
    assert (out / "checkpoint.lcdet").exists()
    assert (out / "loss.csv").read_text().startswith("epoch,total")
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["lambda_coord"] == 5.0
    assert resolved["lambda_noobj"] == 1.0
    assert resolved["seed"] == 3


def test_train_deterministic_across_runs(tmp_path):
    a = _train(tmp_path, "a", seed=7)
    b = _train(tmp_path, "b", seed=7)
    assert (a / "model.lcdet").read_bytes() == (b / "model.lcdet").read_bytes()


def test_train_zero_lr_keeps_init(tmp_path):
    out = _train(tmp_path, "frozen", "--lr", "0")
    trained = M.load_file(out / "model.lcdet")
    spec = M.build_lcdet(M.profile_config("toy"))
    fresh = M.init_model(spec, seed=3)
    assert M.save(trained) == M.save(fresh)


def test_out_dir_protection(tmp_path):
    out = _train(tmp_path, "run")
    code = run("train", "--out", out, "--synthetic", 2, "--image-size", "32",
               "--epochs", 1, "--quiet")
    assert code == 1  # refusing to overwrite is a usage error
    assert run("train", "--out", out, "--force", "--synthetic", 2,
               "--image-size", "32", "--epochs", 1, "--quiet") == 0


def test_train_needs_data_source(tmp_path):
    assert run("train", "--out", tmp_path / "x", "--quiet", "--epochs", 1) == 1


def _calib_dir(tmp_path, n=4, size=32):
    d = tmp_path / "calib"
    d.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    for i in range(n):
        write_ppm(d / f"c{i}.ppm", rng.random((size, size, 3), dtype=np.float32))
    return d


def test_quantize_flow(tmp_path, capsys):
    out = _train(tmp_path, "float_run")
    calib = _calib_dir(tmp_path)
    qout = tmp_path / "q"
    assert run("quantize", "--model", out / "model.lcdet", "--calib", calib,
               "--out", qout) == 0
    assert (qout / "model_q.lcdet").exists()
    printed = capsys.readouterr().out
    assert "reduction" in printed
    qsize = os.path.getsize(qout / "model_q.lcdet")
    fsize = os.path.getsize(out / "model.lcdet")
    assert qsize <= 0.26 * fsize
    # quantized model loads and carries calibration
    qm = M.load_file(qout / "model_q.lcdet")
    assert qm.quantized and qm.calibration is not None


def test_quantize_empty_calib_dir(tmp_path):
    out = _train(tmp_path, "float_run")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("quantize", "--model", out / "model.lcdet", "--calib", empty,
               "--out", tmp_path / "q") == 1


def test_quantize_already_quantized(tmp_path):
    out = _train(tmp_path, "float_run")
    calib = _calib_dir(tmp_path)
    assert run("quantize", "--model", out / "model.lcdet", "--calib", calib,
               "--out", tmp_path / "q1") == 0
    assert run("quantize", "--model", tmp_path / "q1" / "model_q.lcdet",
               "--calib", calib, "--out", tmp_path / "q2") == 1


def test_infer_deterministic_and_both_modes(tmp_path):
    out = _train(tmp_path, "m")
    calib = _calib_dir(tmp_path)
    run("quantize", "--model", out / "model.lcdet", "--calib", calib,
        "--out", tmp_path / "q")
    img = tmp_path / "img.ppm"
    write_ppm(img, np.random.default_rng(1).random((32, 32, 3), dtype=np.float32))
    assert run("infer", "--model", out / "model.lcdet", "--out", tmp_path / "i1",
               "--score-threshold", "0.0", img) == 0
    assert run("infer", "--model", out / "model.lcdet", "--out", tmp_path / "i2",
               "--score-threshold", "0.0", img) == 0
    a = (tmp_path / "i1" / "detections.jsonl").read_bytes()
    b = (tmp_path / "i2" / "detections.jsonl").read_bytes()
    assert a == b and len(a) > 0
    # quantized mode runs from the quantized file alone
    assert run("infer", "--model", tmp_path / "q" / "model_q.lcdet", "--mode",
               "quantized", "--out", tmp_path / "i3", img) == 0


def test_infer_below_threshold_empty_output(tmp_path):
    out = _train(tmp_path, "m")
    img = tmp_path / "img.ppm"
    write_ppm(img, np.random.default_rng(1).random((32, 32, 3), dtype=np.float32))
    assert run("infer", "--model", out / "model.lcdet", "--out", tmp_path / "i",
               "--score-threshold", "1.0", img) == 0
    assert (tmp_path / "i" / "detections.jsonl").read_text() == ""


def test_infer_fddb_output(tmp_path):
    out = _train(tmp_path, "m")
    img = tmp_path / "img.ppm"
    write_ppm(img, np.random.default_rng(1).random((32, 32, 3), dtype=np.float32))
    assert run("infer", "--model", out / "model.lcdet", "--out", tmp_path / "i",
               "--score-threshold", "0.0", "--fddb", img) == 0
    text = (tmp_path / "i" / "detections_fddb.txt").read_text()
    assert text.splitlines()[0] == str(img)


def test_infer_bad_model_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.lcdet"
    bad.write_bytes(b"JUNKJUNKJUNK")
    img = tmp_path / "img.ppm"
    write_ppm(img, np.zeros((32, 32, 3), dtype=np.float32))
    assert run("infer", "--model", bad, "--out", tmp_path / "i", img) == 2


def test_eval_reproduces_hand_curve(tmp_path, monkeypatch):
    import lcdet.evaluation as E
    passes = []
    scored_labels = E._scored_labels
    monkeypatch.setattr(E, "_scored_labels",
                        lambda *a: passes.append(a[2]) or scored_labels(*a))
    dets = tmp_path / "dets.jsonl"
    lines = []
    for (cx, score) in ((10.0, 0.9), (50.0, 0.8), (30.0, 0.7)):
        lines.append(json.dumps({"image_id": "img", "class_id": 0, "score": score,
                                 "confidence": score, "class_prob": 1.0,
                                 "box": [cx, cx, 4.0, 4.0]}))
    dets.write_text("\n".join(lines) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"img": [
        {"box": [10.0, 10.0, 4.0, 4.0], "class_id": 0},
        {"box": [30.0, 30.0, 4.0, 4.0], "class_id": 0}]}))
    out = tmp_path / "eval"
    assert run("eval", "--detections", dets, "--ground-truth", gt, "--out", out,
               "--iou", "0.5", "--iou-sweep", "0.4,0.5,0.6") == 0
    rows = (out / "curve_iou50.csv").read_text().strip().splitlines()[1:]
    got = [tuple(r.split(",")[1:3]) for r in rows]
    assert got == [("1", "0"), ("1", "1"), ("2", "1")]
    sweep = (out / "iou_sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 4
    rates = [float(r.split(",")[3]) for r in sweep[1:]]
    assert rates == sorted(rates, reverse=True)
    assert (out / "tp_fp.svg").read_text().startswith("<svg")
    assert (out / "curve_iou40.csv").exists() and (out / "curve_iou60.csv").exists()
    assert sorted(passes) == [0.4, 0.5, 0.6]  # one matching pass per distinct criterion


def test_eval_rejects_bad_main_criterion(tmp_path):
    dets = tmp_path / "dets.jsonl"
    dets.write_text("")
    gt = tmp_path / "gt.json"
    gt.write_text("{}")
    assert run("eval", "--detections", dets, "--ground-truth", gt, "--iou", "1.5",
               "--out", tmp_path / "eval") == 2


def _infer_on_dataset(tmp_path):
    """Detections from ``lcdet infer DIR/*.ppm`` and the dataset's annotations."""
    model = _train(tmp_path, "run") / "model.lcdet"
    dataset = tmp_path / "data"
    write_dataset(synth_dataset(3, (32, 32), seed=4), dataset)
    images = sorted(str(p) for p in dataset.glob("*.ppm"))
    out = tmp_path / "inf"
    assert run("infer", "--model", model, "--out", out, "--score-threshold", "0.0",
               *images) == 0
    annotations = json.loads((dataset / "annotations.json").read_text())
    return out / "detections.jsonl", annotations, images


def test_eval_rejects_disjoint_image_ids(tmp_path, capsys):
    dets, annotations, _ = _infer_on_dataset(tmp_path)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(annotations))  # keyed by file name, detections by path
    capsys.readouterr()
    assert run("eval", "--detections", dets, "--ground-truth", gt,
               "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert "share no image id" in err and sorted(annotations)[0] in err


def test_eval_accepts_path_keyed_ground_truth(tmp_path, capsys):
    dets, annotations, images = _infer_on_dataset(tmp_path)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({p: annotations[os.path.basename(p)] for p in images}))
    capsys.readouterr()
    assert run("eval", "--detections", dets, "--ground-truth", gt,
               "--out", tmp_path / "eval") == 0
    total = sum(len(v) for v in annotations.values())
    assert f"total gts {total};" in capsys.readouterr().out


def test_analyze_paper_profile(tmp_path, capsys):
    out = tmp_path / "an"
    assert run("analyze", "--profile", "paper", "--out", out, "--input",
               "448x448", "--bw-sweep", "1,2,3,4,5,6") == 0
    printed = capsys.readouterr().out
    assert "convdet" in printed and "2,439,936" in printed
    rows = (out / "layers.csv").read_text().strip().splitlines()
    last = rows[-1].split(",")
    assert (last[3], last[4], last[5]) == ("7", "7", "16")  # head grid 7x7x16
    heads = json.loads((out / "head_params.json").read_text())
    assert heads["convdet"] == 2439936
    assert heads["yldet"] == 212545536
    fps_rows = (out / "fps_sweep.csv").read_text().strip().splitlines()[1:]
    fps = [float(r.split(",")[1]) for r in fps_rows]
    assert fps == sorted(fps)
    assert (out / "fps_vs_bw.svg").exists()
    assert (out / "layer_bandwidth.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_ops"] > 0


def test_analyze_scenario_file(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"compute_rate": 5e11,
                                    "bandwidths_gbps": [1, 4]}))
    out = tmp_path / "an"
    assert run("analyze", "--profile", "toy", "--out", out,
               "--scenario", scenario) == 0
    rows = (out / "fps_sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["compute_rate"] == 5e11
    assert resolved["bandwidths_gbps"] == [1, 4]


def test_every_subcommand_writes_resolved_config(tmp_path):
    out = _train(tmp_path, "t")
    assert (out / "resolved_config.json").exists()
    calib = _calib_dir(tmp_path)
    run("quantize", "--model", out / "model.lcdet", "--calib", calib,
        "--out", tmp_path / "q")
    assert (tmp_path / "q" / "resolved_config.json").exists()
    img = tmp_path / "img.ppm"
    write_ppm(img, np.zeros((32, 32, 3), dtype=np.float32))
    run("infer", "--model", out / "model.lcdet", "--out", tmp_path / "i", img)
    assert (tmp_path / "i" / "resolved_config.json").exists()
    run("analyze", "--profile", "toy", "--out", tmp_path / "a")
    assert (tmp_path / "a" / "resolved_config.json").exists()
    dets = tmp_path / "d.jsonl"
    dets.write_text("")
    gt = tmp_path / "gt.json"
    gt.write_text("{}")
    run("eval", "--detections", dets, "--ground-truth", gt,
        "--out", tmp_path / "e")
    assert (tmp_path / "e" / "resolved_config.json").exists()


def test_analyze_model_input_required(tmp_path):
    out = _train(tmp_path, "m")
    assert run("analyze", "--model", out / "model.lcdet",
               "--out", tmp_path / "an") == 1  # no default size from a model file
    assert run("analyze", "--model", out / "model.lcdet", "--input", "112x112",
               "--out", tmp_path / "an2") == 0


def test_usage_error_exit_code():
    assert main(["train"]) == 1  # missing --out


def test_threads_flag_is_gone(tmp_path):
    assert run("analyze", "--profile", "toy", "--input", "112x112", "--threads", "1",
               "--out", tmp_path / "an") == 1


def test_train_rejects_backbone_final_activation(tmp_path):
    cfg = M.profile_config("toy")
    cfg["backbone"][0]["activation"] = "final"
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg))
    assert run("train", "--config", path, "--synthetic", 2, "--image-size", 32,
               "--epochs", 1, "--quiet", "--out", tmp_path / "t") == 2


def test_dataset_round_trip_via_cli(tmp_path):
    ds = synth_dataset(4, (32, 32), seed=5)
    ddir = tmp_path / "ds"
    write_dataset(ds, ddir)
    out = tmp_path / "run"
    assert run("train", "--out", out, "--dataset", ddir, "--epochs", 1,
               "--quiet") == 0
    assert (out / "model.lcdet").exists()


def test_error_exit_code_contract():
    from lcdet.errors import DataError, NumericError, UsageError
    assert UsageError("x").exit_code == 1
    assert DataError("x").exit_code == 2
    assert NumericError("x").exit_code == 3


@pytest.mark.parametrize("argv, code", [
    (["infer", "--model", "missing.lcdet", "frame.ppm"], 1),
    (["infer", "--model", "model.lcdet", "missing.ppm"], 1),
    (["train", "--config", "missing.json", "--synthetic", 2, "--quiet"], 1),
    (["analyze", "--profile", "toy", "--scenario", "bad.json"], 2),
    (["eval", "--detections", "missing.jsonl", "--ground-truth", "gt.json"], 1),
])
def test_bad_input_path_is_a_one_line_error(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    M.save_file(M.init_model(M.build_lcdet(M.profile_config("toy"))), "model.lcdet")
    write_ppm("frame.ppm", np.zeros((16, 16, 3), dtype=np.float32))
    (tmp_path / "bad.json").write_text('{"compute_rate": 1e12,')
    (tmp_path / "gt.json").write_text("{}")
    assert run(*argv, "--out", "o") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
