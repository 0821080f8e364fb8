"""Network description, construction, forward passes, and the model file.

A network is a flat list of layers (conv / maxpool / detection_head) ending
in a detection head with ``C + 5K`` channels, laid out as
``detector.head_views`` describes. The final activation is split: sigmoid on
confidence, softmax over classes (sigmoid when C == 1), identity on
coordinates.

Model files are little-endian binary: magic ``LCDT``, a u32 version, a
JSON-encoded network description, then one record per weight/bias tensor
(dtype tag, dims, optional quantization range, payload, CRC32). The format
is documented in FORMATS.md.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .detector import head_views
from .errors import (BadMagicError, ChecksumError, ConfigError, DataError, ModelFormatError,
                     TruncatedError, VersionError, json_fields, json_is, parse_json)
from .quant import (CalibrationRecord, QuantParams, QuantizedTensor, dequantize,
                    qconv2d, qmaxpool2d, quantize, quantize_with)
from .tensor import _out_and_pad, activate, conv2d_batched, maxpool2d_batched, sigmoid, softmax

MAGIC = b"LCDT"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1

LAYER_KINDS = ("conv", "maxpool", "detection_head")
LAYER_ACTIVATIONS = ("relu", "leaky_relu", "identity", "final")
LAYER_PADDINGS = ("same", "valid")


@dataclass
class LayerSpec:
    kind: str
    kernel: tuple[int, int] = (1, 1)
    out_channels: int | None = None
    stride: int = 1
    padding: str = "same"
    activation: str = "identity"


@dataclass
class NetworkSpec:
    layers: list[LayerSpec]
    num_classes: int
    boxes_per_cell: int
    input_channels: int = 3
    name: str = "custom"

    @property
    def head_channels(self) -> int:
        return self.num_classes + 5 * self.boxes_per_cell

    @property
    def total_stride(self) -> int:
        s = 1
        for layer in self.layers:
            s *= layer.stride
        return s

    def validate(self):
        if min(self.num_classes, self.boxes_per_cell, self.input_channels) < 1:
            raise ConfigError("num_classes, boxes_per_cell and input_channels must be >= 1")
        heads = [i for i, l in enumerate(self.layers) if l.kind == "detection_head"]
        if len(heads) != 1:
            raise ConfigError(f"network must have exactly one detection_head, found {len(heads)}")
        if heads[0] != len(self.layers) - 1:
            raise ConfigError("detection_head must be the last layer")
        head = self.layers[-1]
        if head.out_channels != self.head_channels:
            raise ConfigError(
                f"detection_head has {head.out_channels} channels, "
                f"needs C + 5K = {self.head_channels}")
        for i, layer in enumerate(self.layers):
            if layer.kind not in LAYER_KINDS:
                raise ConfigError(f"layer {i}: unknown kind {layer.kind!r}")
            if layer.kind != "maxpool":
                if layer.out_channels is None or layer.out_channels < 1:
                    raise ConfigError(f"layer {i}: out_channels must be >= 1")
                if layer.activation not in LAYER_ACTIVATIONS:
                    raise ConfigError(f"layer {i}: unknown activation {layer.activation!r}")
                if layer.kind == "detection_head" and layer.activation != "final":
                    raise ConfigError(f"layer {i}: detection_head activation must be "
                                      f"'final', got {layer.activation!r}")
                if layer.kind == "conv" and layer.activation == "final":
                    raise ConfigError(f"layer {i}: activation 'final' is reserved "
                                      "for the detection_head")
            elif (layer.kernel[0] != layer.kernel[1] or layer.padding != "same"
                  or layer.activation != "identity" or layer.out_channels is not None):
                raise ConfigError(f"layer {i}: a maxpool takes a square kernel, 'same' "
                                  "padding, the 'identity' activation and no out_channels")
            if layer.padding not in LAYER_PADDINGS:
                raise ConfigError(f"layer {i}: unknown padding {layer.padding!r}")
            if layer.stride < 1 or min(layer.kernel) < 1:
                raise ConfigError(f"layer {i}: stride and kernel sides must be >= 1")


@dataclass
class LayerWeights:
    """Weights of one layer; ``w`` is float32 or a QuantizedTensor, pools hold nothing."""

    w: np.ndarray | QuantizedTensor | None = None
    b: np.ndarray | None = None

    @property
    def quantized(self) -> bool:
        return isinstance(self.w, QuantizedTensor)


@dataclass
class Model:
    spec: NetworkSpec
    weights: list[LayerWeights]
    calibration: CalibrationRecord | None = None

    @property
    def quantized(self) -> bool:
        return any(lw.quantized for lw in self.weights)


# ---------------------------------------------------------------------------
# construction

_LAYER_FIELDS = {"kind": str, "kernel": [int, int], "out_channels": (int, type(None)),
                 "stride": int, "padding": str, "activation": str}
_NETWORK_FIELDS = {"layers": list, "num_classes": int, "boxes_per_cell": int,
                   "input_channels": int}
_RANGE = [(int, float)] * 2
# a config's fields, all optional; input_size is read by the CLI
_CONFIG_FIELDS = {"name": str, "num_classes": int, "boxes_per_cell": int, "convdet_channels": int,
                  "input_channels": int, "backbone": list,
                  "input_size": lambda v: v is None or json_is(v, int) and v >= 1}
_CONFIG_DEFAULTS = {"name": "custom", "num_classes": 1, "boxes_per_cell": 3, "input_channels": 3,
                    "convdet_channels": 256, "backbone": [], "input_size": None}


def _layer_spec(entry, where: str, defaults: dict | None = None) -> LayerSpec:
    layer = json_fields(entry, _LAYER_FIELDS, where, defaults)
    return LayerSpec(**{**layer, "kernel": tuple(layer["kernel"])})


def _layer_from_dict(entry, index: int) -> LayerSpec:
    """A config backbone layer; the fields it leaves out take their defaults.
    A pool's stride defaults to its size, which the schema checks first."""
    where = f"backbone layer {index}"
    if json_fields(entry, {"kind": str}, where)["kind"] != "maxpool":
        return _layer_spec(entry, where, {"stride": 1, "padding": "same", "activation": "relu"})
    pool = json_fields(entry, {"kind": str, "size": int, "stride": int}, where,
                       {"size": 2, "stride": entry.get("size", 2)})
    return LayerSpec("maxpool", (pool["size"], pool["size"]), stride=pool["stride"])


def build_lcdet(config: dict) -> NetworkSpec:
    """Build the detector: configured backbone plus the two-conv detection head.

    The head is a 3x3 conv (channel count from ``convdet_channels``) with
    ReLU, then a 1x1 conv to C + 5K channels carrying the split final
    activation. C and K come from the config's ``num_classes`` (default 1)
    and ``boxes_per_cell`` (default 3).
    """
    net = json_fields(config, _CONFIG_FIELDS, "config", _CONFIG_DEFAULTS)
    c, k, convdet = net["num_classes"], net["boxes_per_cell"], net["convdet_channels"]
    layers = [_layer_from_dict(entry, i) for i, entry in enumerate(net["backbone"])]
    layers.append(LayerSpec(kind="conv", kernel=(3, 3), out_channels=convdet,
                            stride=1, padding="same", activation="relu"))
    layers.append(LayerSpec(kind="detection_head", kernel=(1, 1),
                            out_channels=c + 5 * k, stride=1, padding="same",
                            activation="final"))
    spec = NetworkSpec(layers=layers, num_classes=c, boxes_per_cell=k,
                       input_channels=net["input_channels"],
                       name=net["name"])
    spec.validate()
    return spec


def _conv(out_ch, kernel=3, stride=1):
    return {"kind": "conv", "kernel": [kernel, kernel], "out_channels": out_ch,
            "stride": stride, "padding": "same", "activation": "relu"}


def _pool():
    return {"kind": "maxpool", "size": 2, "stride": 2}


def profile_config(name: str) -> dict:
    """Built-in network profiles.

    ``toy``: four conv/pool stages, total stride 16, sized for 112x112
    desk-scale experiments. ``paper``: the full-size 24-conv backbone with
    total stride 64 and a 3x3x4096 first head conv (256 is the compact
    preset, reachable via ``convdet_channels``).
    """
    if name == "toy":
        return {
            "name": "toy",
            "input_channels": 3,
            "num_classes": 1,
            "boxes_per_cell": 3,
            "convdet_channels": 64,
            "input_size": 112,
            "backbone": [
                _conv(16), _pool(),
                _conv(32), _pool(),
                _conv(48), _pool(),
                _conv(64), _conv(64), _pool(),
            ],
        }
    if name == "paper":
        backbone = [
            _conv(64, kernel=7, stride=2), _pool(),
            _conv(192), _pool(),
            _conv(128, kernel=1), _conv(256), _conv(256, kernel=1), _conv(512), _pool(),
        ]
        for _ in range(4):
            backbone += [_conv(256, kernel=1), _conv(512)]
        backbone += [_conv(512, kernel=1), _conv(1024), _pool()]
        for _ in range(2):
            backbone += [_conv(512, kernel=1), _conv(1024)]
        backbone += [_conv(1024), _conv(1024, stride=2), _conv(1024), _conv(1024)]
        return {
            "name": "paper",
            "input_channels": 3,
            "num_classes": 1,
            "boxes_per_cell": 3,
            "convdet_channels": 4096,
            "input_size": 448,
            "backbone": backbone,
        }
    raise ConfigError(f"unknown profile {name!r} (available: toy, paper)")


def init_model(spec: NetworkSpec, seed: int = 0) -> Model:
    """He-initialized float model; head coordinate biases start at 0.5."""
    rng = np.random.default_rng(seed)
    weights = []
    in_ch = spec.input_channels
    for layer in spec.layers:
        if layer.kind == "maxpool":
            weights.append(LayerWeights())
            continue
        kh, kw = layer.kernel
        fan_in = kh * kw * in_ch
        b = np.zeros(layer.out_channels, dtype=np.float32)
        if layer.kind == "detection_head":
            w = rng.normal(0.0, 0.01, size=(kh, kw, in_ch, layer.out_channels))
            # centered offsets and a quarter-image size prior; identical
            # box priors let responsibility settle on one predictor early
            _, boxes = head_views(b, spec.num_classes, spec.boxes_per_cell)
            boxes[:, 1:] = 0.5
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(kh, kw, in_ch, layer.out_channels))
        weights.append(LayerWeights(w.astype(np.float32), b))
        in_ch = layer.out_channels
    return Model(spec=spec, weights=weights)


# ---------------------------------------------------------------------------
# forward passes

def layer_shapes(spec: NetworkSpec, height: int, width: int) -> list[tuple[int, int, int]]:
    """(h, w, c) of the input and of every layer's output: the one home of that arithmetic."""
    shapes = [(height, width, spec.input_channels)]
    for i, layer in enumerate(spec.layers):
        h, w, c = shapes[-1]
        (kh, kw), pool = layer.kernel, layer.kind == "maxpool"
        try:
            if pool and kh > min(h, w):
                raise ConfigError(f"pool window {kh} larger than input {h}x{w}")
            shapes.append((_out_and_pad(h, kh, layer.stride, layer.padding)[0],
                           _out_and_pad(w, kw, layer.stride, layer.padding)[0],
                           c if pool else layer.out_channels))
        except ConfigError as e:
            raise ConfigError(f"layer {i} ({layer.kind}): {e}") from e
    return shapes


def check_resolution(spec: NetworkSpec, height: int, width: int) -> tuple[int, int]:
    """The (gh, gw) grid of an input whose sides are multiples of the total stride."""
    ts = spec.total_stride
    if height % ts or width % ts or min(height, width) < ts:
        raise ConfigError(
            f"input {width}x{height} rejected: height and width must be "
            f"positive multiples of the total stride {ts}")
    return layer_shapes(spec, height, width)[-1][:2]


def layer_activation(layer: LayerSpec) -> str:
    """The elementwise activation closing a layer in every forward pass.

    The detection head gets none: its split final activation is applied to
    the dequantized float grid after the layer walk (``head_activation``).
    """
    return "identity" if layer.kind == "detection_head" else layer.activation


def run_layers(model: Model, x, on_layer=None):
    """Walk the layer list once; returns the raw head output.

    ``x`` is a float batch (N, H, W, C), or a QuantizedTensor (H, W, C) for
    the 8-bit path, whose layer outputs are requantized onto the model's
    calibrated ranges. ``on_layer(i, x_in, out, cols)``, when given, sees
    every layer's input and output (after its activation, head before the
    split); ``cols`` is a float conv's im2col columns and None otherwise.
    """
    quantized = isinstance(x, QuantizedTensor)
    for i, (layer, lw) in enumerate(zip(model.spec.layers, model.weights)):
        cols = [] if on_layer is not None and not quantized else None
        try:
            if layer.kind == "maxpool":
                pool = qmaxpool2d if quantized else maxpool2d_batched
                out = pool(x, layer.kernel[0], layer.stride)
            elif lw.quantized != quantized:
                raise ConfigError("float weights in quantized mode; quantize the model first"
                                  if quantized else
                                  "model holds quantized weights; use quantized mode")
            elif quantized:
                out = qconv2d(x, lw.w, lw.b, layer.stride, layer.padding,
                              out_params=model.calibration.layers[i],
                              activation=layer_activation(layer))
            else:
                out = activate(conv2d_batched(x, lw.w, lw.b, layer.stride, layer.padding,
                                              cols), layer_activation(layer))
        except ConfigError as e:
            raise ConfigError(f"layer {i} ({layer.kind}): {e}") from e
        if on_layer is not None:
            on_layer(i, x, out, cols.pop() if cols else None)
        x = out
    return x


def head_activation(raw: np.ndarray, num_classes: int, boxes_per_cell: int) -> np.ndarray:
    """Split final activation: sigmoid confidence, softmax classes, raw coords."""
    out = np.array(raw, copy=True)
    raw_classes, raw_boxes = head_views(raw, num_classes, boxes_per_cell)
    classes, boxes = head_views(out, num_classes, boxes_per_cell)
    classes[...] = (sigmoid(raw_classes) if num_classes == 1
                    else softmax(raw_classes, axis=-1))
    boxes[..., 0] = sigmoid(raw_boxes[..., 0])
    return out


def forward(model: Model, image: np.ndarray, mode: str = "float") -> np.ndarray:
    """Single forward pass producing the activated (gh, gw, C + 5K) grid."""
    spec = model.spec
    if image.ndim != 3 or image.shape[2] != spec.input_channels:
        raise ConfigError(
            f"image must be (H, W, {spec.input_channels}), got {image.shape}")
    check_resolution(spec, image.shape[0], image.shape[1])
    if mode == "float":
        raw = run_layers(model, image[None].astype(np.float32, copy=False))[0]
    elif mode == "quantized":
        calib = model.calibration
        if calib is None:
            raise ConfigError("quantized mode requires a calibration record")
        q = quantize_with(image.astype(np.float32, copy=False), calib.input_range)
        raw = dequantize(run_layers(model, q))
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return head_activation(raw, spec.num_classes, spec.boxes_per_cell)


# ---------------------------------------------------------------------------
# serialization

def _spec_from_dict(d) -> NetworkSpec:
    where = "model header"
    net = json_fields(d, _NETWORK_FIELDS, where)
    layers = [_layer_spec(e, f"{where} layer {i}") for i, e in enumerate(net["layers"])]
    spec = NetworkSpec(**{**net, "layers": layers}, name=str(d.get("name", "custom")))
    spec.validate()
    return spec


def _calibration_from_dict(d, num_layers: int) -> CalibrationRecord:
    where = "model header calibration"
    cal = json_fields(d, {"input": _RANGE, "layers": list}, where)
    for i, r in enumerate(cal["layers"]):
        if not json_is(r, _RANGE):
            raise ConfigError(f"{where}: layers[{i}] is not a [min, max] pair")
    if len(cal["layers"]) != num_layers:
        raise ConfigError(f"{where}: {len(cal['layers'])} layer ranges for {num_layers} layers")
    return CalibrationRecord(QuantParams(*cal["input"]),
                             [QuantParams(*r) for r in cal["layers"]])


def _pack_record(arr: np.ndarray, params: QuantParams | None) -> bytes:
    dims = arr.shape
    if params is None:
        tag, payload = DTYPE_F32, arr.astype("<f4", copy=False).tobytes()
    else:
        tag, payload = DTYPE_U8, arr.astype(np.uint8, copy=False).tobytes()
    head = struct.pack("<BI", tag, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    if params is not None:
        head += struct.pack("<2f", params.min, params.max)
    return head + payload + struct.pack("<I", zlib.crc32(payload))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0:
            raise ModelFormatError(f"negative length {n} at offset {self.pos}")
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_record(r: _Reader, want_rank: int, what: str):
    """A record's dims, flat payload and range (None for float32)."""
    tag, rank = r.unpack("<BI")
    if tag not in (DTYPE_F32, DTYPE_U8):
        raise DataError(f"unknown dtype tag {tag}")
    if rank != want_rank:
        raise DataError(f"{what} record has rank {rank}, expected {want_rank}")
    dims = r.unpack(f"<{rank}I")
    params = None
    if tag == DTYPE_U8:
        lo, hi = r.unpack("<2f")
        params = QuantParams(lo, hi)
    dtype = np.dtype("<f4" if tag == DTYPE_F32 else np.uint8)
    payload = r.take(math.prod(dims) * dtype.itemsize)  # Python ints: no overflow
    (crc,) = r.unpack("<I")
    if zlib.crc32(payload) != crc:
        raise ChecksumError("payload CRC32 mismatch")
    return dims, np.frombuffer(payload, dtype=dtype).copy(), params


def save(model: Model) -> bytes:
    """Serialize a model to bytes; ``load(save(m))`` is bit-identical."""
    header = {**vars(model.spec), "layers": [vars(layer) for layer in model.spec.layers]}
    cal = model.calibration
    header["calibration"] = None if cal is None else {
        "input": [cal.input_range.min, cal.input_range.max],
        "layers": [[p.min, p.max] for p in cal.layers],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(blob)), blob]
    for lw in model.weights:
        if lw.w is None:
            continue
        out.append(_pack_record(lw.w.data, lw.w.params) if lw.quantized
                   else _pack_record(lw.w, None))
        out.append(_pack_record(lw.b, None))
    return b"".join(out)


def load(data: bytes) -> Model:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise VersionError(f"unsupported model file version {version} (expected {VERSION})")
    (blob_len,) = r.unpack("<I")
    header = parse_json(r.take(blob_len), "model header")
    spec = _spec_from_dict(header)
    calibration = None
    if header.get("calibration") is not None:
        calibration = _calibration_from_dict(header["calibration"], len(spec.layers))
    weights = []
    in_ch = spec.input_channels
    for i, layer in enumerate(spec.layers):
        if layer.kind == "maxpool":
            weights.append(LayerWeights())
            continue
        where = f"model layer {i} ({layer.kind})"
        w_dims, w, params = _read_record(r, 4, f"{where}: weight")
        b_dims, b, bparams = _read_record(r, 1, f"{where}: bias")
        if bparams is not None:
            raise DataError("bias records must be float32")
        want = (*layer.kernel, in_ch, layer.out_channels)
        if w_dims != want or b_dims != want[3:]:
            raise DataError(f"{where}: records hold weights {w_dims} "
                            f"and bias {b_dims}, the header says {want} and {want[3:]}")
        w = w.reshape(want)
        lw = LayerWeights(QuantizedTensor(w, params) if params is not None else w, b)
        weights.append(lw)
        in_ch = layer.out_channels
    if r.pos != len(data):
        raise DataError(f"{len(data) - r.pos} trailing bytes after last record")
    return Model(spec=spec, weights=weights, calibration=calibration)


def save_file(model: Model, path):
    with open(path, "wb") as f:
        f.write(save(model))


def load_file(path) -> Model:
    with open(path, "rb") as f:
        return load(f.read())


def quantize_model(model: Model, calibration: CalibrationRecord) -> Model:
    """Quantize every conv weight tensor per-tensor; biases stay float32."""
    if model.quantized:
        raise ConfigError("model is already quantized")
    weights = [LayerWeights() if lw.w is None else LayerWeights(quantize(lw.w), lw.b.copy())
               for lw in model.weights]
    return Model(spec=model.spec, weights=weights, calibration=calibration)
