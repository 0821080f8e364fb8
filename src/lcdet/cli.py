"""Command-line surface: train, quantize, infer, eval, analyze.

Conventions shared by every subcommand:

- all outputs go into ``--out`` (never implicitly overwritten; pass --force);
- a ``resolved_config.json`` with every effective option is written next to
  the outputs;
- all randomness flows from ``--seed`` (default 0);
- exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import data, detector, evaluation, perfsim, plot, quant, train
from . import model as model_mod
from .errors import DataError, LCDetError, NumericError, UsageError

DEFAULT_SEED = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _prepare_out(path: str, force: bool) -> str:
    if os.path.exists(path) and os.listdir(path) and not force:
        raise UsageError(f"output directory {path!r} is not empty (use --force)")
    os.makedirs(path, exist_ok=True)
    return path


def _read_input(path: str, what: str, load=None):
    """``load(path)``, or the file's text when ``load`` is None. A path that
    cannot be read is a usage error (exit 1), text that does not decode or
    parse as JSON a data error (exit 2)."""
    try:
        if load is None:
            with open(path) as f:
                return f.read()
        return load(path)
    except OSError as e:
        raise UsageError(f"cannot read {what} {path!r}: {e.strerror or e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{what} {path!r}: {e}") from None


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _write(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _write_resolved(out_dir: str, command: str, options: dict):
    resolved = {"command": command, **options}
    _write(os.path.join(out_dir, "resolved_config.json"),
           json.dumps(resolved, indent=1, sort_keys=True) + "\n")


def _load_network_config(args) -> dict:
    if getattr(args, "config", None):
        return model_mod.parse_config(_read_input(args.config, "config"))
    return model_mod.profile_config(args.profile)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise UsageError(f"--input expects WxH, got {text!r}") from None


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    config = _load_network_config(args)
    spec = model_mod.build_lcdet(config)
    image_size = args.image_size or config.get("input_size", 112)
    if args.synthetic:
        dataset = data.synth_dataset(args.synthetic, (image_size, image_size),
                                     seed=args.seed, augment=args.augment)
    elif args.dataset:
        dataset = _read_input(args.dataset, "dataset", data.load_dataset)
    else:
        raise UsageError("train needs --synthetic N or --dataset DIR")
    out = _prepare_out(args.out, args.force)
    loss_cfg = train.LossConfig(lambda_coord=args.lambda_coord,
                                lambda_noobj=args.lambda_noobj)
    decay_epochs = tuple(int(v) for v in args.lr_decay_epochs.split(",") if v)
    cfg = train.TrainConfig(lr=args.lr, batch_size=args.batch_size,
                            epochs=args.epochs, seed=args.seed, loss=loss_cfg,
                            lr_decay_epochs=decay_epochs,
                            lr_decay_factor=args.lr_decay_factor,
                            checkpoint_path=os.path.join(out, "checkpoint.lcdet"),
                            log=print if not args.quiet else None)
    _write_resolved(out, "train", {
        "profile": getattr(args, "profile", None), "config": args.config,
        "synthetic": args.synthetic, "dataset": args.dataset,
        "image_size": image_size, "seed": args.seed, "lr": args.lr,
        "epochs": args.epochs, "batch_size": args.batch_size,
        "lr_decay_epochs": list(decay_epochs), "lr_decay_factor": args.lr_decay_factor,
        "lambda_coord": loss_cfg.lambda_coord, "lambda_noobj": loss_cfg.lambda_noobj,
        "augment": args.augment, "network": config,
    })
    net = model_mod.init_model(spec, seed=args.seed)
    try:
        history = train.train_loop(net, dataset, cfg)
    except NumericError:
        print("training diverged; last checkpoint kept", file=sys.stderr)
        raise
    _write(os.path.join(out, "loss.csv"), train.loss_curve_csv(history))
    model_mod.save_file(net, os.path.join(out, "model.lcdet"))
    print(f"model written to {os.path.join(out, 'model.lcdet')}")
    return 0


# ---------------------------------------------------------------------------
# quantize

def _calibration_images(directory: str) -> list:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".ppm"))
    return [_read_input(os.path.join(directory, n), "image", data.read_ppm) for n in names]


def cmd_quantize(args) -> int:
    net = _read_input(args.model, "model", model_mod.load_file)
    if net.quantized:
        raise UsageError(f"{args.model} is already quantized")
    images = _read_input(args.calib, "calibration directory", _calibration_images)
    if args.calib_limit:
        images = images[:args.calib_limit]
    if not images:
        raise UsageError(f"calibration directory {args.calib!r} holds no .ppm images")
    out = _prepare_out(args.out, args.force)
    record = quant.calibrate(net, images)
    qnet = model_mod.quantize_model(net, record)
    out_path = os.path.join(out, "model_q.lcdet")
    model_mod.save_file(qnet, out_path)
    _write_resolved(out, "quantize", {
        "model": args.model, "calib": args.calib, "calib_images": len(images),
        "seed": args.seed,
    })
    in_size = os.path.getsize(args.model)
    out_size = os.path.getsize(out_path)
    print(f"quantized model written to {out_path}")
    print(f"size: {in_size} -> {out_size} bytes "
          f"({out_size / in_size:.1%} of float, {in_size / out_size:.2f}x reduction)")
    return 0


# ---------------------------------------------------------------------------
# infer

def cmd_infer(args) -> int:
    net = _read_input(args.model, "model", model_mod.load_file)
    spec = net.spec
    dets_by_image = {}
    for path in args.images:
        img = _read_input(path, "image", data.read_ppm)
        grid = model_mod.forward(net, img, mode=args.mode)
        dets = detector.decode(grid, (img.shape[1], img.shape[0]),
                               spec.num_classes, spec.boxes_per_cell,
                               score_threshold=args.score_threshold)
        dets_by_image[path] = detector.nms(dets, args.nms_iou)
    out = _prepare_out(args.out, args.force)
    detector.write_jsonl(os.path.join(out, "detections.jsonl"), dets_by_image)
    if args.fddb:
        blocks = [detector.fddb_text(p, d) for p, d in dets_by_image.items()]
        _write(os.path.join(out, "detections_fddb.txt"), "".join(blocks))
    _write_resolved(out, "infer", {
        "model": args.model, "images": list(args.images), "mode": args.mode,
        "score_threshold": args.score_threshold, "nms_iou": args.nms_iou,
        "seed": args.seed,
    })
    n = sum(len(d) for d in dets_by_image.values())
    print(f"{n} detections over {len(dets_by_image)} images "
          f"-> {os.path.join(out, 'detections.jsonl')}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    dets = _read_input(args.detections, "detections", detector.read_jsonl)
    gts = _read_input(args.ground_truth, "ground truth", data.load_annotations)
    if dets and gts and not dets.keys() & gts.keys():
        raise DataError(f"detections and ground truth share no image id (detections: "
                        f"{next(iter(dets))!r}, ground truth: {next(iter(gts))!r})")
    criteria = [float(v) for v in args.iou_sweep.split(",")] if args.iou_sweep else []
    out = _prepare_out(args.out, args.force)
    # one matching pass per distinct criterion feeds its curve file, the plots
    # and the sweep rows
    curves = {c: evaluation.curve(dets, gts, c) for c in dict.fromkeys([args.iou, *criteria])}
    for c in curves.values():
        _write(os.path.join(out, f"curve_iou{int(round(c.iou_criterion * 100)):02d}.csv"),
               evaluation.curve_csv(c))
    main_curve = curves[args.iou]
    series = [(f"IoU {c.iou_criterion:.2f}", [(p.fp, p.tp) for p in c.points])
              for c in curves.values()]
    pr_series = [(f"IoU {c.iou_criterion:.2f}", [(p.recall, p.precision) for p in c.points])
                 for c in curves.values()]
    rows = []
    if criteria:
        fp_budget = len(gts) if args.fp_budget is None else args.fp_budget
        rows = evaluation.sweep_rows([curves[c] for c in criteria], fp_budget)
        _write(os.path.join(out, "iou_sweep.csv"), evaluation.sweep_csv(rows))
    _write(os.path.join(out, "tp_fp.svg"),
           plot.render_svg(series, "false positives", "true positives",
                           "TP-FP curve (discrete score)"))
    _write(os.path.join(out, "precision_recall.svg"),
           plot.render_svg(pr_series, "recall", "precision", "Precision-Recall"))
    _write_resolved(out, "eval", {
        "detections": args.detections, "ground_truth": args.ground_truth,
        "iou": args.iou, "iou_sweep": args.iou_sweep, "fp_budget": args.fp_budget,
        "seed": args.seed,
    })
    if main_curve.zero_gt_warning:
        print("warning: zero ground truths; recall reported as 0", file=sys.stderr)
    best = max(main_curve.points, key=lambda p: p.recall)
    print(f"total gts {main_curve.total_gt}; best recall {best.recall:.3f} "
          f"at precision {best.precision:.3f} (IoU {args.iou})")
    for row in rows:
        print(f"iou {row.iou_criterion:.2f}: tp_rate {row.tp_rate:.3f} "
              f"({row.tp} TP at {row.fp} FP)")
    return 0


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    if args.model:
        spec = _read_input(args.model, "model", model_mod.load_file).spec
        input_size = None
    else:
        config = _load_network_config(args)
        spec = model_mod.build_lcdet(config)
        input_size = config.get("input_size")
    if args.input:
        dims = _parse_dims(args.input)
    elif input_size:
        dims = (input_size, input_size)
    else:
        raise UsageError("--input WxH required when the config has no default size")
    scenario_cfg = {"compute_rate": args.compute_rate, "bandwidths_gbps": None}
    if args.scenario:
        loaded = _read_input(args.scenario, "scenario", _read_json)
        if not isinstance(loaded, dict):
            raise DataError(f"scenario {args.scenario!r}: root must be a JSON object")
        scenario_cfg.update(loaded)
    out = _prepare_out(args.out, args.force)
    report = perfsim.analyze(spec, dims)
    _write(os.path.join(out, "layers.csv"), perfsim.report_csv(report))

    heads = perfsim.head_params_report()
    print("detection-head parameter counts (reference dims):")
    for kind in ("rpn", "yldet", "convdet"):
        print(f"  {kind:8s} {heads[kind]:>12,d}")
    print(f"  yldet/convdet ratio: {heads['yldet_over_convdet']:.1f}x")

    if args.bw_sweep:
        scenario_cfg["bandwidths_gbps"] = [float(v) for v in args.bw_sweep.split(",")]

    named = {}
    sweep_rows = []
    if scenario_cfg["bandwidths_gbps"]:
        for gbps in scenario_cfg["bandwidths_gbps"]:
            sc = perfsim.BwScenario(gbps * 1e9, scenario_cfg["compute_rate"],
                                    report, mode=args.mode)
            res = perfsim.frame_rate(sc)
            named[f"{gbps}gbps_{args.mode}"] = res
            sweep_rows.append((gbps, res.fps))
        _write(os.path.join(out, "fps_sweep.csv"), perfsim.fps_sweep_csv(sweep_rows))
        _write(os.path.join(out, "fps_vs_bw.svg"),
               plot.render_svg([(args.mode, sweep_rows)], "DDR bandwidth (Gbps)",
                               "frames per second", "Frame rate vs DDR bandwidth"))
        # layer-wise bandwidth table at the highest swept bandwidth
        top = max(scenario_cfg["bandwidths_gbps"])
        sc = perfsim.BwScenario(top * 1e9, scenario_cfg["compute_rate"], report,
                                mode=args.mode)
        _write(os.path.join(out, "layer_bandwidth.csv"),
               perfsim.bandwidth_csv(perfsim.frame_rate(sc)))
    _write(os.path.join(out, "summary.json"), perfsim.report_summary(report, named))
    heads_path = os.path.join(out, "head_params.json")
    _write(heads_path, json.dumps(heads, indent=1, sort_keys=True) + "\n")
    _write_resolved(out, "analyze", {
        "profile": getattr(args, "profile", None), "config": args.config,
        "model": args.model, "input": list(dims), "mode": args.mode,
        "compute_rate": scenario_cfg["compute_rate"],
        "bandwidths_gbps": scenario_cfg["bandwidths_gbps"], "seed": args.seed,
    })
    print(f"total OPs {report.total_ops:,d}; "
          f"weights {report.total_weight_bytes('float'):,d} B float / "
          f"{report.total_weight_bytes('u8'):,d} B u8; "
          f"peak activations {report.peak_activation_bytes(args.mode):,d} B ({args.mode})")
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcdet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if profile:
            p.add_argument("--profile", default="toy", choices=("toy", "paper"))
            p.add_argument("--config", default=None,
                           help="network config JSON (overrides --profile)")

    p = sub.add_parser("train", help="train a detector")
    common(p)
    p.add_argument("--synthetic", type=int, default=None, metavar="N",
                   help="generate N synthetic rectangle images")
    p.add_argument("--dataset", default=None, help="dataset directory")
    p.add_argument("--image-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=24)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lambda-coord", type=float, default=5.0)
    p.add_argument("--lambda-noobj", type=float, default=1.0)
    p.add_argument("--lr-decay-epochs", default="14,19",
                   help="comma list of epochs where lr steps down (empty to disable)")
    p.add_argument("--lr-decay-factor", type=float, default=0.25)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="calibrate and quantize a float model")
    common(p, profile=False)
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True, help="directory of .ppm calibration images")
    p.add_argument("--calib-limit", type=int, default=None)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("infer", help="run detection on images")
    common(p, profile=False)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="float", choices=("float", "quantized"))
    p.add_argument("--score-threshold", type=float,
                   default=detector.DEFAULT_DEMO_SCORE_THRESHOLD)
    p.add_argument("--nms-iou", type=float, default=detector.DEFAULT_NMS_IOU)
    p.add_argument("--fddb", action="store_true", help="also write submission-style text")
    p.add_argument("images", nargs="+")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    common(p, profile=False)
    p.add_argument("--detections", required=True, help="detections JSON Lines")
    p.add_argument("--ground-truth", required=True, help="annotations JSON")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--iou-sweep", default=None, help="comma list, e.g. 0.4,0.5,0.6")
    p.add_argument("--fp-budget", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="static cost report and frame-rate model")
    common(p)
    p.add_argument("--model", default=None, help="take the network from a model file")
    p.add_argument("--input", default=None, help="input resolution WxH")
    p.add_argument("--mode", default="u8", choices=("float", "u8"))
    p.add_argument("--compute-rate", type=float, default=1e12, help="OPs per second")
    p.add_argument("--bw-sweep", default=None, help="comma list of Gbps values")
    p.add_argument("--scenario", default=None, help="scenario JSON file")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except LCDetError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
