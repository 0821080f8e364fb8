import argparse
import json
import os
import sys

import numpy as np
import pytest

import lcdet.model as M
from lcdet.cli import build_parser, main
from lcdet.data import synth_dataset, write_dataset, write_ppm

from conftest import model_with_header


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
               "--out", tmp_path / "eval") == 1


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
    env_keys = {"nproc", "python", "numpy", "blas", "blas_version", "blas_threads"}
    for sub in (out, *(tmp_path / d for d in "qiae")):
        resolved = json.loads((sub / "resolved_config.json").read_text())
        assert ("seed" in resolved) == (sub == out)  # only train draws random numbers
        env = resolved["environment"]
        assert set(env) == env_keys
        assert env["nproc"] >= 1 and env["numpy"] == np.__version__


@pytest.mark.parametrize("env, recorded", [
    ({"OPENBLAS_NUM_THREADS": "junk", "OMP_NUM_THREADS": "2"}, "junk"),
    ({"OMP_NUM_THREADS": "2"}, "2"),
    ({}, None),
])
def test_resolved_config_records_blas_threads(tmp_path, monkeypatch, env, recorded):
    # the setting as given, never parsed, so a junk value cannot fail a command
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run("analyze", "--profile", "toy", "--out", tmp_path / "a") == 0
    resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
    assert resolved["environment"]["blas_threads"] == recorded


def test_valid_padding_runs_end_to_end(tmp_path, capsys):
    # 32x32 -> a 30x30 valid conv -> a 15x15 grid, not 32 // 2 = 16
    config = tmp_path / "valid.json"
    config.write_text(json.dumps({"convdet_channels": 4, "backbone": [
        {"kind": "conv", "kernel": [3, 3], "out_channels": 4, "padding": "valid"},
        {"kind": "maxpool", "size": 2}]}))
    ds = tmp_path / "ds"
    write_dataset(synth_dataset(4, (32, 32), seed=6), ds)
    images = sorted(str(p) for p in ds.glob("*.ppm"))
    assert run("train", "--config", config, "--dataset", ds, "--epochs", 1, "--quiet",
               "--out", tmp_path / "t") == 0
    assert run("quantize", "--model", tmp_path / "t" / "model.lcdet", "--calib", ds,
               "--out", tmp_path / "q") == 0
    assert run("infer", "--model", tmp_path / "t" / "model.lcdet",
               "--out", tmp_path / "if", *images) == 0
    assert run("infer", "--model", tmp_path / "q" / "model_q.lcdet", "--mode", "quantized",
               "--out", tmp_path / "iq", *images) == 0
    assert run("analyze", "--config", config, "--input", "32x32",
               "--out", tmp_path / "an") == 0
    rows = (tmp_path / "an" / "layers.csv").read_text().splitlines()[1:]
    seen = []
    M.run_layers(M.load_file(tmp_path / "t" / "model.lcdet"), np.zeros((1, 32, 32, 3)),
                 lambda i, x, out, cols: seen.append(out.shape[1:]))
    assert [tuple(map(int, r.split(",")[3:6])) for r in rows] == seen
    assert seen[-1] == (15, 15, 16)


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
    (["analyze", "--profile", "toy", "--bw-sweep", "1,x"], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt.json",
      "--iou-sweep", "0.4,x"], 1),
    (["train", "--synthetic", 2, "--lr-decay-epochs", "1,x", "--quiet"], 1),
    (["analyze", "--profile", "toy", "--scenario", "bw_string.json"], 2),
    (["analyze", "--profile", "toy", "--scenario", "rate_string.json"], 2),
    (["analyze", "--profile", "toy", "--scenario", "bw_strings.json"], 2),
    (["analyze", "--profile", "toy", "--scenario", "bw_zero.json"], 2),
    (["analyze", "--profile", "toy", "--bw-sweep", "0,1"], 1),
    (["analyze", "--profile", "toy", "--compute-rate", "0"], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt.json",
      "--iou-sweep", "0.5,1.5"], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt.json", "--iou", "0"], 1),
    (["infer", "--model", "model.lcdet", "negative.ppm"], 2),
    (["infer", "--model", "model.lcdet", "empty.ppm"], 2),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_list.json"], 2),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_entries.json"], 2),
    (["train", "--config", "convdet_null.json", "--synthetic", 2, "--quiet"], 2),
    (["train", "--config", "backbone_int.json", "--synthetic", 2, "--quiet"], 2),
    (["train", "--config", "classes_str.json", "--synthetic", 2, "--quiet"], 2),
    (["train", "--config", "channels_neg.json", "--synthetic", 2, "--quiet"], 2),
    (["analyze", "--profile", "toy", "--input", "100x100"], 1),
    (["analyze", "--profile", "toy", "--input", "0x0"], 1),
    (["train", "--synthetic", 2, "--image-size", -16, "--quiet"], 1),
    # IoU flags are checked before any input is read: the ground truth is malformed
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_list.json",
      "--iou", "1.5"], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_list.json",
      "--iou-sweep", "0.5,1.5"], 1),
    (["infer", "--model", "model.lcdet", "--nms-iou", "1.5", "negative.ppm"], 1),
    (["train", "--config", "kernel_zero.json", "--synthetic", 2, "--quiet"], 2),
    # numeric train and quantize flags out of range are usage errors
    (["train", "--synthetic", 2, "--image-size", 16, "--batch-size", 0, "--quiet"], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--lr", "nan", "--quiet"], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--epochs", -1, "--quiet"], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--lr-decay-factor", 0, "--quiet"], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--lambda-noobj", "nan", "--quiet"], 1),
    (["quantize", "--model", "model.lcdet", "--calib", "ds", "--calib-limit", -1], 1),
    (["quantize", "--model", "model.lcdet", "--calib", "ds", "--calib-limit", 0], 1),
    # only train draws random numbers
    (["infer", "--model", "model.lcdet", "--seed", 1, "frame.ppm"], 1),
    (["quantize", "--model", "model.lcdet", "--calib", "ds", "--seed", 1], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt.json", "--seed", 1], 1),
    (["analyze", "--profile", "toy", "--seed", 1], 1),
    # the synthetic-data flags would do nothing with a dataset
    (["train", "--dataset", "ds", "--augment", "--epochs", 1, "--quiet"], 1),
    (["train", "--dataset", "ds", "--image-size", 16, "--epochs", 1, "--quiet"], 1),
    # train takes one data source
    (["train", "--synthetic", 2, "--image-size", 16, "--dataset", "ds", "--epochs", 1,
      "--quiet"], 1),
    # every numeric flag is range-checked at parse time
    (["infer", "--model", "model.lcdet", "--score-threshold", "nan", "frame.ppm"], 1),
    (["infer", "--model", "model.lcdet", "--score-threshold", 5, "frame.ppm"], 1),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt.json", "--fp-budget", -3], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--seed", -1, "--epochs", 1, "--quiet"], 1),
    (["train", "--synthetic", 0, "--quiet"], 1),
    (["train", "--synthetic", 0, "--dataset", "ds", "--epochs", 1, "--quiet"], 1),
    (["train", "--synthetic", 2, "--image-size", 16, "--lr-decay-epochs=-1", "--epochs", 1,
      "--quiet"], 1),
    # a scenario file sets what --compute-rate and --bw-sweep set
    (["analyze", "--profile", "toy", "--compute-rate", "2e12", "--scenario", "rate.json"], 1),
    (["analyze", "--profile", "toy", "--bw-sweep", "1,2", "--scenario", "rate.json"], 1),
    # a JSON field the program would not read is a data error
    (["analyze", "--profile", "toy", "--scenario", "bw_typo.json"], 2),
    (["train", "--config", "pool_kernel.json", "--synthetic", 2, "--image-size", 16,
      "--epochs", 1, "--quiet"], 2),
    (["train", "--config", "pool_padding.json", "--synthetic", 2, "--image-size", 16,
      "--epochs", 1, "--quiet"], 2),
    (["train", "--config", "conv_typo.json", "--synthetic", 2, "--image-size", 16,
      "--epochs", 1, "--quiet"], 2),
    (["train", "--config", "top_typo.json", "--synthetic", 2, "--image-size", 16,
      "--epochs", 1, "--quiet"], 2),
    # JSON that does not decode, in any file, is a data error, never a traceback
    (["infer", "--model", "deep.lcdet", "frame.ppm"], 2),
    (["analyze", "--model", "deep.lcdet", "--input", "16x16"], 2),
    (["infer", "--model", "digits.lcdet", "frame.ppm"], 2),
    (["analyze", "--profile", "toy", "--scenario", "deep.json"], 2),
    (["analyze", "--profile", "toy", "--scenario", "digits.json"], 2),
    (["analyze", "--profile", "toy", "--scenario", "bw_huge.json"], 2),
    (["eval", "--detections", "deep.jsonl", "--ground-truth", "gt.json"], 2),
    # ground-truth entries go through a field schema
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_typo.json"], 2),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_class_frac.json"], 2),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_box_str.json"], 2),
    (["eval", "--detections", "dets.jsonl", "--ground-truth", "gt_box_nan.json"], 2),
    # a detection record that cannot be scored
    (["eval", "--detections", "dets_inf_class.jsonl", "--ground-truth", "gt.json"], 2),
    (["eval", "--detections", "dets_list_id.jsonl", "--ground-truth", "gt.json"], 2),
    (["eval", "--detections", "dets_box3.jsonl", "--ground-truth", "gt.json"], 2),
    # a config's input_size is an integer >= 1 or null
    (["train", "--config", "size_zero.json", "--synthetic", 2, "--epochs", 1, "--quiet"], 2),
    (["analyze", "--config", "size_zero.json"], 2),
])
def test_bad_input_path_is_a_one_line_error(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    M.save_file(M.init_model(M.build_lcdet(M.profile_config("toy"))), "model.lcdet")
    write_ppm("frame.ppm", np.zeros((16, 16, 3), dtype=np.float32))
    write_dataset(synth_dataset(2, (16, 16), seed=1), "ds")
    (tmp_path / "bad.json").write_text('{"compute_rate": 1e12,')
    (tmp_path / "bw_string.json").write_text('{"bandwidths_gbps": "ab"}')
    (tmp_path / "rate_string.json").write_text('{"compute_rate": "fast", "bandwidths_gbps": [1]}')
    (tmp_path / "bw_strings.json").write_text('{"bandwidths_gbps": [1, "2"]}')
    (tmp_path / "bw_zero.json").write_text('{"bandwidths_gbps": [0, 1]}')
    (tmp_path / "bw_typo.json").write_text('{"bandwidth_gbps": [1, 2]}')
    (tmp_path / "rate.json").write_text('{"compute_rate": 5e11}')
    (tmp_path / "gt.json").write_text("{}")
    (tmp_path / "dets.jsonl").write_text("")
    (tmp_path / "negative.ppm").write_bytes(b"P6 -3 -1 255\n" + bytes(9))
    (tmp_path / "empty.ppm").write_bytes(b"P6 0 16 255\n")
    (tmp_path / "gt_list.json").write_text("[1, 2]")
    (tmp_path / "gt_entries.json").write_text('{"a": 5}')
    for name, config in (("convdet_null", '{"convdet_channels": null}'),
                         ("backbone_int", '{"backbone": 5}'),
                         ("classes_str", '{"num_classes": "x"}'),
                         ("channels_neg", '{"input_channels": -1}'),
                         ("kernel_zero", '{"backbone": [{"kind": "conv", "kernel": [0, 0], '
                                         '"out_channels": 4}]}'),
                         ("pool_kernel", '{"convdet_channels": 4, "backbone": '
                                         '[{"kind": "maxpool", "kernel": [2, 3]}]}'),
                         ("pool_padding", '{"convdet_channels": 4, "backbone": '
                                          '[{"kind": "maxpool", "padding": "valid"}]}'),
                         ("conv_typo", '{"convdet_channels": 4, "backbone": [{"kind": "conv", '
                                       '"kernel": [3, 3], "out_channels": 4, '
                                       '"activaton": "identity"}]}'),
                         ("top_typo", '{"convdet_channel": 4, "backbone": '
                                      '[{"kind": "maxpool"}]}')):
        (tmp_path / f"{name}.json").write_text(config)
    deep, digits = "[" * 100000 + "]" * 100000, '{"compute_rate": ' + "9" * 5000 + "}"
    good = (tmp_path / "model.lcdet").read_bytes()
    for name, header in (("deep", deep), ("digits", digits)):
        (tmp_path / f"{name}.lcdet").write_bytes(model_with_header(good, header.encode()))
        (tmp_path / f"{name}.json").write_text(header)
    (tmp_path / "deep.jsonl").write_text(deep + "\n")
    (tmp_path / "bw_huge.json").write_text('{"bandwidths_gbps": [1' + "0" * 400 + "]}")
    for name, entry in (("typo", '{"box": [10, 10, 4, 4], "clas_id": 1}'),
                        ("class_frac", '{"box": [10, 10, 4, 4], "class_id": 1.7}'),
                        ("box_str", '{"box": ["5", "5", "2", "2"]}'),
                        ("box_nan", '{"box": [NaN, 10, 4, 4]}')):
        (tmp_path / f"gt_{name}.json").write_text(f'{{"frame.ppm": [{entry}]}}')
    det = {"image_id": "frame.ppm", "box": [8, 8, 4, 4], "class_id": 0, "class_prob": 1.0,
           "confidence": 0.5, "score": 0.5}
    for name, edit in (("inf_class", {"class_id": float("inf")}), ("list_id", {"image_id": [1]}),
                       ("box3", {"box": [8, 8, 4]})):
        (tmp_path / f"dets_{name}.jsonl").write_text(json.dumps({**det, **edit}) + "\n")
    (tmp_path / "size_zero.json").write_text('{"input_size": 0}')
    assert run(*argv, "--out", "o") == code
    printed = capsys.readouterr()
    err = printed.err
    assert "Traceback" not in err and err.startswith("error: ") and err.count("\n") == 1
    assert printed.out == ""
    assert not (tmp_path / "o").exists()


def test_a_field_nested_near_the_recursion_limit_is_a_one_line_error(tmp_path, capsys):
    # the decoder takes nesting up to the recursion limit, so the message that
    # names a bad field must not recurse through its value
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit):
        (tmp_path / "s.json").write_text('{"bandwidths_gbps": ' + "[" * depth + "]" * depth + "}")
        assert run("analyze", "--profile", "toy", "--scenario", tmp_path / "s.json",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_every_numeric_flag_is_range_checked():
    # a bare int or float type lets nan, inf and negative values through
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    bare = [f"{name} {a.option_strings[0]}" for name, p in sub.choices.items()
            for a in p._actions if a.type in (int, float)]
    assert bare == []
