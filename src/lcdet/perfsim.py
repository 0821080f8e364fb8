"""Static cost model: per-layer OPs, bytes, head-size formulas, and a
DDR-bandwidth-constrained frame-rate estimate.

OP counts treat one multiply-accumulate as 2 operations. Weight byte counts
include biases (kept float32 in both modes); quantized weight tensors cost
1 byte per weight plus an 8-byte range header. The frame-rate model is a
plain roofline min(compute-bound, bandwidth-bound) with per-layer time
shares proportional to OPs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError
from .model import NetworkSpec
from .tensor import _out_and_pad

QUANT_TENSOR_OVERHEAD = 8  # two float32 range values per quantized tensor


def head_params(kind: str, dims: dict) -> int:
    """Exact parameter count for one of the three detection-head designs.

    - ``rpn``:     ch_f * k * (5 + c)
    - ``yldet``:   f_fc1 * (w_f * h_f * ch_f + w_o * h_o * (c + 5k))
    - ``convdet``: f_w * f_h * ch_d1 * (ch_f + (c + 5k))
    """
    d = dims
    try:
        if kind == "rpn":
            return d["ch_f"] * d["k"] * (5 + d["c"])
        if kind == "yldet":
            return d["f_fc1"] * (d["w_f"] * d["h_f"] * d["ch_f"]
                                 + d["w_o"] * d["h_o"] * (d["c"] + 5 * d["k"]))
        if kind == "convdet":
            return d["f_w"] * d["f_h"] * d["ch_d1"] * (d["ch_f"] + d["c"] + 5 * d["k"])
    except KeyError as e:
        raise ConfigError(f"head_params({kind!r}): missing dimension {e.args[0]!r}") from None
    raise ConfigError(f"unknown head kind {kind!r} (rpn, yldet, convdet)")


# Default dimensions for the head-size comparison report: a 7x7x1024 feature
# map, 20 classes, 3 boxes, a 4096-wide first FC layer, and a 3x3x256 conv.
REFERENCE_HEAD_DIMS = {
    "ch_f": 1024, "k": 3, "c": 20, "f_fc1": 4096,
    "w_f": 7, "h_f": 7, "w_o": 7, "h_o": 7,
    "f_w": 3, "f_h": 3, "ch_d1": 256,
}


def head_params_report(dims: dict | None = None) -> dict:
    d = dict(REFERENCE_HEAD_DIMS)
    if dims:
        d.update(dims)
    out = {kind: head_params(kind, d) for kind in ("rpn", "yldet", "convdet")}
    out["yldet_over_convdet"] = out["yldet"] / out["convdet"]
    return out


@dataclass
class LayerCost:
    index: int
    kind: str
    label: str
    out_h: int
    out_w: int
    out_c: int
    ops: int
    weight_bytes_float: int
    weight_bytes_u8: int
    in_act_elems: int
    out_act_elems: int

    def act_bytes(self, mode: str) -> tuple[int, int]:
        per = 4 if mode == "float" else 1
        return self.in_act_elems * per, self.out_act_elems * per

    def weight_bytes(self, mode: str) -> int:
        return self.weight_bytes_float if mode == "float" else self.weight_bytes_u8


@dataclass
class PerfReport:
    layers: list[LayerCost]
    input_dims: tuple[int, int]

    @property
    def total_ops(self) -> int:
        return sum(l.ops for l in self.layers)

    def total_weight_bytes(self, mode: str) -> int:
        return sum(l.weight_bytes(mode) for l in self.layers)

    def total_act_bytes(self, mode: str) -> int:
        return sum(sum(l.act_bytes(mode)) for l in self.layers)

    def total_traffic_bytes(self, mode: str) -> int:
        return self.total_act_bytes(mode) + self.total_weight_bytes(mode)

    def peak_activation_bytes(self, mode: str) -> int:
        # two live buffers: current layer input plus output
        return max(sum(l.act_bytes(mode)) for l in self.layers)


def analyze(spec: NetworkSpec, input_dims: tuple[int, int]) -> PerfReport:
    """Per-layer OPs and byte counts for the given (width, height) input."""
    width, height = input_dims
    h, w, c = height, width, spec.input_channels
    layers = []
    for i, layer in enumerate(spec.layers):
        in_elems = h * w * c
        if layer.kind == "maxpool":
            oh = _out_and_pad(h, layer.kernel[0], layer.stride, "same")[0]
            ow = _out_and_pad(w, layer.kernel[0], layer.stride, "same")[0]
            oc = c
            ops = layer.kernel[0] * layer.kernel[1] * oh * ow * oc
            wf = wq = 0
            label = f"maxpool{layer.kernel[0]}x{layer.kernel[1]}/{layer.stride}"
        else:
            kh, kw = layer.kernel
            oh = _out_and_pad(h, kh, layer.stride, layer.padding)[0]
            ow = _out_and_pad(w, kw, layer.stride, layer.padding)[0]
            oc = layer.out_channels
            ops = 2 * kh * kw * c * oh * ow * oc
            n_weights = kh * kw * c * oc
            wf = 4 * n_weights + 4 * oc
            wq = n_weights + QUANT_TENSOR_OVERHEAD + 4 * oc
            label = f"conv{kh}x{kw}x{oc}/{layer.stride}"
        layers.append(LayerCost(i, layer.kind, label, oh, ow, oc, ops,
                                wf, wq, in_elems, oh * ow * oc))
        h, w, c = oh, ow, oc
    return PerfReport(layers, input_dims)


@dataclass
class BwScenario:
    ddr_bandwidth: float  # bits per second (may be inf)
    compute_rate: float   # OPs per second
    report: PerfReport
    mode: str = "u8"

    def __post_init__(self):
        if self.ddr_bandwidth <= 0 or self.compute_rate <= 0:
            raise ConfigError("bandwidth and compute rate must be positive")
        if self.mode not in ("float", "u8"):
            raise ConfigError(f"unknown mode {self.mode!r}")


@dataclass
class LayerBandwidth:
    index: int
    label: str
    traffic_bytes: int
    time_share: float
    instantaneous_bw: float  # bits per second


@dataclass
class FrameRateResult:
    fps: float
    compute_fps: float
    bandwidth_fps: float
    total_traffic_bytes: int
    layers: list[LayerBandwidth]


def frame_rate(scenario: BwScenario) -> FrameRateResult:
    """Roofline frame rate plus the per-layer instantaneous bandwidth table.

    Per-layer traffic is input activations + output activations + weights;
    each layer's time share within a frame is its OPs fraction, so its
    instantaneous bandwidth is traffic_bits * fps / time_share.
    """
    rep = scenario.report
    total_ops = rep.total_ops
    total_bytes = rep.total_traffic_bytes(scenario.mode)
    compute_fps = scenario.compute_rate / total_ops
    bandwidth_fps = scenario.ddr_bandwidth / (8.0 * total_bytes)
    fps = min(compute_fps, bandwidth_fps)
    layers = []
    for l in rep.layers:
        traffic = sum(l.act_bytes(scenario.mode)) + l.weight_bytes(scenario.mode)
        share = l.ops / total_ops
        inst = traffic * 8.0 * fps / share if share > 0 else float("inf")
        layers.append(LayerBandwidth(l.index, l.label, traffic, share, inst))
    return FrameRateResult(fps, compute_fps, bandwidth_fps, total_bytes, layers)


# ---------------------------------------------------------------------------
# emission

def report_csv(rep: PerfReport) -> str:
    lines = ["index,kind,label,out_h,out_w,out_c,ops,weight_bytes_float,"
             "weight_bytes_u8,in_act_bytes_float,out_act_bytes_float,"
             "in_act_bytes_u8,out_act_bytes_u8"]
    for l in rep.layers:
        inf, outf = l.act_bytes("float")
        inq, outq = l.act_bytes("u8")
        lines.append(f"{l.index},{l.kind},{l.label},{l.out_h},{l.out_w},{l.out_c},"
                     f"{l.ops},{l.weight_bytes_float},{l.weight_bytes_u8},"
                     f"{inf},{outf},{inq},{outq}")
    return "\n".join(lines) + "\n"


def report_summary(rep: PerfReport, scenarios: dict[str, FrameRateResult] | None = None) -> str:
    summary = {
        "input_dims": list(rep.input_dims),
        "total_ops": rep.total_ops,
        "weight_bytes": {m: rep.total_weight_bytes(m) for m in ("float", "u8")},
        "activation_bytes": {m: rep.total_act_bytes(m) for m in ("float", "u8")},
        "traffic_bytes": {m: rep.total_traffic_bytes(m) for m in ("float", "u8")},
        "peak_activation_bytes": {m: rep.peak_activation_bytes(m) for m in ("float", "u8")},
    }
    if scenarios:
        summary["frame_rate"] = {
            name: {"fps": r.fps, "compute_fps": r.compute_fps,
                   "bandwidth_fps": r.bandwidth_fps,
                   "total_traffic_bytes": r.total_traffic_bytes}
            for name, r in scenarios.items()
        }
    return json.dumps(summary, indent=1, sort_keys=True) + "\n"


def bandwidth_csv(result: FrameRateResult) -> str:
    lines = ["index,label,traffic_bytes,time_share,instantaneous_bw_bits_per_s"]
    for l in result.layers:
        lines.append(f"{l.index},{l.label},{l.traffic_bytes},"
                     f"{l.time_share:.8f},{l.instantaneous_bw:.2f}")
    lines.append(f"total,,{result.total_traffic_bytes},1.00000000,")
    return "\n".join(lines) + "\n"


def fps_sweep_csv(rows: list[tuple[float, float]]) -> str:
    lines = ["ddr_bandwidth_gbps,fps"]
    for bw, fps in rows:
        lines.append(f"{bw:.4f},{fps:.6f}")
    return "\n".join(lines) + "\n"
