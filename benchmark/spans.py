"""Spans around lcdet's functions, and the per-layer metrics made from them.

``Tracer.install`` replaces each traced function at every name a caller
looks it up under (``lcdet.model.conv2d_batched`` as well as
``lcdet.tensor.conv2d_batched``), so the program runs unchanged while each
call leaves a span: name, start, end, parent span and a little call info.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from collections import defaultdict

import numpy as np


def _conv_ops(args, kwargs, out):
    kh, kw, cin, _ = args[1].shape
    return {"ops": 2 * out.size * kh * kw * cin}


def _qconv_ops(args, kwargs, out):
    kh, kw, cin, _ = args[1].data.shape
    return {"ops": 2 * out.data.size * kh * kw * cin}


def _forward_info(args, kwargs, out):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "float")
    return {"mode": "u8" if mode == "quantized" else mode,
            "dims": (args[1].shape[1], args[1].shape[0]), "spec": args[0].spec}


def _count_out(args, kwargs, out):
    return {"n": len(out)}


def _nms_info(args, kwargs, out):
    return {"n_in": len(args[0]), "n_out": len(out)}


def _cli_info(args, kwargs, out):
    argv = args[0] if args else kwargs["argv"]
    return {"cmd": argv[0]}


# (module, attribute, span name, call-info function)
TRACED = [
    ("tensor", "conv2d_batched", "tensor.conv2d", _conv_ops),
    ("tensor", "im2col", "tensor.im2col", None),
    ("tensor", "col2im", "tensor.col2im", None),
    ("tensor", "maxpool2d_batched", "tensor.maxpool", None),
    ("tensor", "activate", "tensor.activate", None),
    ("quant", "qconv2d", "quant.qconv2d", _qconv_ops),
    ("quant", "qmaxpool2d", "quant.qmaxpool", None),
    ("quant", "quantize_with", "quant.quantize_with", None),
    ("quant", "dequantize", "quant.dequantize", None),
    ("quant", "calibrate", "quant.calibrate", None),
    ("model", "forward", "model.forward", _forward_info),
    ("model", "head_activation", "model.head_activation", None),
    ("model", "quantize_model", "model.quantize_model", None),
    ("model", "save_file", "model.save", None),
    ("model", "load_file", "model.load", None),
    ("detector", "decode", "detector.decode", _count_out),
    ("detector", "nms", "detector.nms", _nms_info),
    ("detector", "write_jsonl", "detector.jsonl", None),
    ("detector", "read_jsonl", "detector.jsonl", None),
    ("evaluation", "match", "evaluation.match", None),
    ("evaluation", "_scored_labels", "evaluation.pass", None),
    ("train", "train_loop", "train.loop", None),
    ("train", "_forward_trace", "train.forward", None),
    ("train", "_backward_trace", "train.backward", None),
    ("train", "_maxpool_backward", "train.pool_backward", None),
    ("train", "resolve_targets", "train.loss", None),
    ("train", "detection_loss", "train.loss", None),
    ("train", "loss_grid_gradient", "train.loss", None),
    ("train", "head_activation_backward", "train.loss", None),
    ("data", "read_ppm", "data.read_ppm", None),
    ("data", "synth_dataset", "data.synth", None),
    ("cli", "main", "cli.main", _cli_info),
]

LOSS_PARTS = ("train.loss", "model.head_activation")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, info]."""

    def __init__(self, lcdet_modules: dict):
        self.modules = lcdet_modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, info_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if info_fn is not None:
                spans[idx][4] = info_fn(args, kwargs, out)
            return out

        return traced

    def install(self):
        wrappers = {}
        for mod, attr, name, info_fn in TRACED:
            fn = getattr(self.modules[mod], attr)
            wrappers[id(fn)] = self._wrap(fn, name, info_fn)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        adam = self.modules["train"].Adam
        self._patches.append((adam, "step", adam.step))
        adam.step = self._wrap(adam.step, "train.adam", None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# derived metrics


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.dur = np.array([s[2] - s[1] for s in spans])
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def self_time(self, i):
        return self.dur[i] - sum(self.dur[c] for c in self.children[i])

    def ids(self, name, parent=None):
        ids = self.by_name.get(name, [])
        if parent is not None:
            ids = [i for i in ids if self.spans[i][3] >= 0
                   and self.spans[self.spans[i][3]][0] == parent]
        return ids

    def total(self, name, parent=None):
        return float(sum(self.dur[i] for i in self.ids(name, parent)))

    def count(self, name, parent=None):
        return len(self.ids(name, parent))


def _per(total, n):
    return total / n if n else 0.0


def network_layers(ix: SpanIndex, analyze):
    """Per network layer time of every forward call, grouped by (mode, dims).

    A float layer is its conv or pool call plus the activation after it;
    an 8-bit layer is its qconv or qmaxpool call.
    """
    layer_calls = {"tensor.conv2d", "tensor.maxpool", "quant.qconv2d", "quant.qmaxpool"}
    groups = {}
    for f in ix.ids("model.forward"):
        info = ix.spans[f][4]
        times, ops = [], []
        for c in ix.children[f]:
            name = ix.spans[c][0]
            if name in layer_calls:
                times.append(ix.dur[c])
            elif name == "tensor.activate" and times:
                times[-1] += ix.dur[c]
        key = (info["mode"], info["dims"])
        if key not in groups:
            report = analyze(info["spec"], info["dims"])
            groups[key] = {"calls": 0, "time": np.zeros(len(times)),
                           "ops": np.array([l.ops for l in report.layers], dtype=float),
                           "labels": [l.label for l in report.layers]}
        g = groups[key]
        g["calls"] += 1
        g["time"] += times
    rows = []
    for (mode, dims), g in sorted(groups.items()):
        measured = g["time"] / g["time"].sum()
        predicted = g["ops"] / g["ops"].sum()
        for i, label in enumerate(g["labels"]):
            ms = 1e3 * g["time"][i] / g["calls"]
            rows.append({"mode": mode, "input": f"{dims[0]}x{dims[1]}", "index": i,
                         "label": label, "calls": g["calls"], "ms": ms,
                         "gop_per_s": g["ops"][i] / (ms * 1e6) if ms > 0 else 0.0,
                         "measured_share": measured[i], "predicted_share": predicted[i]})
    return rows


def layers_csv(rows) -> str:
    out = io.StringIO()
    fields = ["mode", "input", "index", "label", "calls", "ms", "gop_per_s",
              "measured_share", "predicted_share"]
    w = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (f"{v:.6g}" if isinstance(v, float) else v) for k, v in r.items()})
    return out.getvalue()


def per_layer_metrics(spans, setup_spans, analyze) -> tuple[dict, list]:
    """Every per-layer metric of one traced round (``data.synth_s`` from the
    traced set-up), plus the network-layer rows."""
    ix = SpanIndex(spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    conv_s = ix.total("tensor.conv2d")
    conv_ops = sum(ix.spans[i][4]["ops"] for i in ix.ids("tensor.conv2d"))
    put("tensor.conv2d_ms", 1e3 * conv_s, "ms")
    put("tensor.conv_gop_per_s", _per(conv_ops / 1e9, conv_s), "GOP/s")
    put("tensor.im2col_ms", 1e3 * ix.total("tensor.im2col"), "ms")
    put("tensor.col2im_ms", 1e3 * ix.total("tensor.col2im"), "ms")
    put("tensor.maxpool_ms", 1e3 * ix.total("tensor.maxpool"), "ms")

    qconv_s = ix.total("quant.qconv2d")
    qconv_ops = sum(ix.spans[i][4]["ops"] for i in ix.ids("quant.qconv2d"))
    put("quant.qconv2d_ms", 1e3 * qconv_s, "ms")
    put("quant.qconv_gop_per_s", _per(qconv_ops / 1e9, qconv_s), "GOP/s")
    put("quant.qmaxpool_ms", 1e3 * ix.total("quant.qmaxpool"), "ms")
    put("quant.requant_ms", 1e3 * ix.total("quant.quantize_with", "quant.qconv2d"), "ms")
    put("quant.calibrate_s", _per(ix.total("quant.calibrate"), ix.count("quant.calibrate")), "s")

    for mode in ("float", "u8"):
        fw = [i for i in ix.ids("model.forward") if ix.spans[i][4]["mode"] == mode]
        put(f"model.forward_{mode}_self_ms",
            _per(1e3 * sum(ix.self_time(i) for i in fw), len(fw)), "ms")
    for name in ("quantize_model", "save", "load"):
        put(f"model.{name}_s", _per(ix.total(f"model.{name}"), ix.count(f"model.{name}")), "s")

    decoded = sum(ix.spans[i][4]["n"] for i in ix.ids("detector.decode"))
    n_in = sum(ix.spans[i][4]["n_in"] for i in ix.ids("detector.nms"))
    n_out = sum(ix.spans[i][4]["n_out"] for i in ix.ids("detector.nms"))
    put("detector.decode_ms", _per(1e3 * ix.total("detector.decode"), ix.count("detector.decode")), "ms")
    put("detector.nms_ms", _per(1e3 * ix.total("detector.nms"), ix.count("detector.nms")), "ms")
    put("detector.decoded_per_img", _per(decoded, ix.count("detector.decode")), "count")
    put("detector.nms_kept_ratio", _per(n_out, n_in), "ratio")
    put("detector.jsonl_s", _per(ix.total("detector.jsonl"), ix.count("detector.jsonl")), "s")

    evals = [i for i in ix.ids("cli.main") if ix.spans[i][4]["cmd"] == "eval"]
    put("evaluation.match_s", _per(ix.total("evaluation.match"), len(evals)), "s")
    put("evaluation.match_passes", _per(ix.count("evaluation.pass"), len(evals)), "count")

    steps = ix.count("train.adam")
    loop_s = ix.total("train.loop")
    ckpt_s = ix.total("model.save", "train.loop")
    put("train.step_ms", _per(1e3 * (loop_s - ckpt_s), steps), "ms")
    put("train.forward_ms", _per(1e3 * ix.total("train.forward"), steps), "ms")
    put("train.backward_ms", _per(1e3 * ix.total("train.backward"), steps), "ms")
    put("train.pool_backward_ms", _per(1e3 * ix.total("train.pool_backward"), steps), "ms")
    put("train.loss_ms", _per(1e3 * sum(ix.total(n, "train.loop") for n in LOSS_PARTS), steps), "ms")
    put("train.adam_ms", _per(1e3 * ix.total("train.adam"), steps), "ms")
    put("train.checkpoint_s", _per(ckpt_s, ix.count("model.save", "train.loop")), "s")

    put("data.read_ppm_ms", _per(1e3 * ix.total("data.read_ppm"), ix.count("data.read_ppm")), "ms")
    setup = SpanIndex(setup_spans)
    put("data.synth_s", _per(setup.total("data.synth"), setup.count("data.synth")), "s")

    for cmd in ("quantize", "infer", "eval", "train"):
        ids = [i for i in ix.ids("cli.main") if ix.spans[i][4]["cmd"] == cmd]
        put(f"cli.{cmd}_self_s", _per(sum(ix.self_time(i) for i in ids), len(ids)), "s")

    rows = network_layers(ix, analyze)
    for mode in ("float", "u8"):
        gaps = [abs(r["measured_share"] - r["predicted_share"]) for r in rows if r["mode"] == mode]
        put(f"perfsim.share_gap_{mode}", max(gaps, default=0.0), "share")
    return m, rows


def print_layers(rows, file=sys.stderr):
    print(f"{'mode':5} {'input':>8} {'#':>3} {'layer':18} {'ms':>10} {'GOP/s':>8} "
          f"{'measured':>9} {'predicted':>9}", file=file)
    for r in rows:
        print(f"{r['mode']:5} {r['input']:>8} {r['index']:3d} {r['label']:18} {r['ms']:10.3f} "
              f"{r['gop_per_s']:8.3f} {r['measured_share']:9.4f} {r['predicted_share']:9.4f}",
              file=file)
