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
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .detector import head_views
from .errors import (BadMagicError, ChecksumError, ConfigError, DataError,
                     TruncatedError, VersionError)
from .quant import (CalibrationRecord, QuantParams, QuantizedTensor, dequantize,
                    qconv2d, qmaxpool2d, quantize, quantize_with)
from .tensor import activate, conv2d_batched, maxpool2d_batched, sigmoid, softmax

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
        if self.num_classes < 1 or self.boxes_per_cell < 1:
            raise ConfigError("num_classes and boxes_per_cell must be >= 1")
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
            if layer.padding not in LAYER_PADDINGS:
                raise ConfigError(f"layer {i}: unknown padding {layer.padding!r}")
            if layer.stride < 1:
                raise ConfigError(f"layer {i}: stride must be >= 1")


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

def _json_is(value, types) -> bool:
    """isinstance for parsed JSON, where true and false are not numbers; a
    list ``[types]`` asks for a two-element list of them (a kernel, a range)."""
    if isinstance(types, list):
        return (isinstance(value, list) and len(value) == 2
                and all(_json_is(v, types[0]) for v in value))
    return isinstance(value, types) and not isinstance(value, bool)


def _fields(d, schema: dict, where: str) -> dict:
    """The ``schema`` fields of the JSON object ``d``; a ConfigError names the
    first one that is missing or not of its type."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(d).__name__}")
    for key, types in schema.items():
        if key not in d:
            raise ConfigError(f"{where}: missing field {key!r}")
        if not _json_is(d[key], types):
            raise ConfigError(f"{where}: field {key!r} has the wrong type: {d[key]!r:.40}")
    return {key: d[key] for key in schema}


_LAYER_FIELDS = {"kind": str, "kernel": [int], "out_channels": (int, type(None)),
                 "stride": int, "padding": str, "activation": str}
_NETWORK_FIELDS = {"layers": list, "num_classes": int, "boxes_per_cell": int,
                   "input_channels": int}
_RANGE = [(int, float)]


def _layer_spec(entry, where: str) -> LayerSpec:
    layer = _fields(entry, _LAYER_FIELDS, where)
    return LayerSpec(**{**layer, "kernel": tuple(layer["kernel"])})


def _layer_from_dict(entry, index: int) -> LayerSpec:
    """A config backbone layer; the fields it leaves out take their defaults."""
    where = f"backbone layer {index}"
    if _fields(entry, {"kind": str}, where)["kind"] == "maxpool":
        size = entry.get("size", _fields({"kernel": [2, 2], **entry}, {"kernel": [int]},
                                         where)["kernel"][0])
        entry = {"stride": size, **entry, "kernel": [size, size], "out_channels": None,
                 "padding": "same", "activation": "identity"}
    else:
        entry = {"stride": 1, "padding": "same", "activation": "relu", **entry}
    return _layer_spec(entry, where)


def build_lcdet(config: dict) -> NetworkSpec:
    """Build the detector: configured backbone plus the two-conv detection head.

    The head is a 3x3 conv (channel count from ``convdet_channels``) with
    ReLU, then a 1x1 conv to C + 5K channels carrying the split final
    activation. C and K come from the config's ``num_classes`` (default 1)
    and ``boxes_per_cell`` (default 3).
    """
    c = int(config.get("num_classes", 1))
    k = int(config.get("boxes_per_cell", 3))
    layers = [_layer_from_dict(entry, i) for i, entry in enumerate(config.get("backbone", []))]
    convdet = int(config.get("convdet_channels", 256))
    layers.append(LayerSpec(kind="conv", kernel=(3, 3), out_channels=convdet,
                            stride=1, padding="same", activation="relu"))
    layers.append(LayerSpec(kind="detection_head", kernel=(1, 1),
                            out_channels=c + 5 * k, stride=1, padding="same",
                            activation="final"))
    spec = NetworkSpec(layers=layers, num_classes=c, boxes_per_cell=k,
                       input_channels=int(config.get("input_channels", 3)),
                       name=str(config.get("name", "custom")))
    spec.validate()
    return spec


def parse_config(text: str) -> dict:
    try:
        config = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(config, dict):
        raise DataError("config root must be a JSON object")
    return config


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
        if layer.kind == "detection_head":
            w = rng.normal(0.0, 0.01, size=(kh, kw, in_ch, layer.out_channels))
            b = np.zeros(layer.out_channels, dtype=np.float32)
            # centered offsets and a quarter-image size prior; identical
            # box priors let responsibility settle on one predictor early
            _, boxes = head_views(b, spec.num_classes, spec.boxes_per_cell)
            boxes[:, 1:] = 0.5
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(kh, kw, in_ch, layer.out_channels))
            b = np.zeros(layer.out_channels, dtype=np.float32)
        weights.append(LayerWeights(w.astype(np.float32), b))
        in_ch = layer.out_channels
    return Model(spec=spec, weights=weights)


# ---------------------------------------------------------------------------
# forward passes

def check_resolution(spec: NetworkSpec, height: int, width: int):
    ts = spec.total_stride
    if height % ts or width % ts:
        raise ConfigError(
            f"input {width}x{height} rejected: height and width must be "
            f"multiples of the total stride {ts}")


def layer_activation(layer: LayerSpec) -> str:
    """The elementwise activation closing a layer in every forward pass.

    The detection head gets none: its split final activation is applied to
    the dequantized float grid after the layer walk (``head_activation``).
    """
    return "identity" if layer.kind == "detection_head" else layer.activation


def run_layers(model: Model, x, record: list | None = None):
    """Walk the layer list once; returns the raw head output.

    ``x`` is a float batch (N, H, W, C), or a QuantizedTensor (H, W, C) for
    the 8-bit path, whose layer outputs are requantized onto the model's
    calibrated ranges. When ``record`` is a list, every layer's output
    (after its activation, head before the split) is appended to it.
    """
    quantized = isinstance(x, QuantizedTensor)
    for i, (layer, lw) in enumerate(zip(model.spec.layers, model.weights)):
        try:
            if layer.kind == "maxpool":
                pool = qmaxpool2d if quantized else maxpool2d_batched
                x = pool(x, layer.kernel[0], layer.stride)
            elif lw.quantized != quantized:
                raise ConfigError("float weights in quantized mode; quantize the model first"
                                  if quantized else
                                  "model holds quantized weights; use quantized mode")
            elif quantized:
                x = qconv2d(x, lw.w, lw.b, layer.stride, layer.padding,
                            out_params=model.calibration.layers[i],
                            activation=layer_activation(layer))
            else:
                x = activate(conv2d_batched(x, lw.w, lw.b, layer.stride, layer.padding),
                             layer_activation(layer))
        except ConfigError as e:
            raise ConfigError(f"layer {i} ({layer.kind}): {e}") from e
        if record is not None:
            record.append(x)
    return x


def head_activation(raw: np.ndarray, num_classes: int, boxes_per_cell: int) -> np.ndarray:
    """Split final activation: sigmoid confidence, softmax classes, raw coords."""
    out = np.array(raw, copy=True)
    raw_classes, raw_boxes = head_views(raw, num_classes, boxes_per_cell)
    classes, boxes = head_views(out, num_classes, boxes_per_cell)
    if num_classes == 1:
        classes[...] = sigmoid(raw_classes)
    else:
        classes[...] = softmax(raw_classes, axis=-1)
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
        if len(calib.layers) != len(spec.layers):
            raise ConfigError("calibration record does not match the network layer count")
        q = quantize_with(image.astype(np.float32, copy=False), calib.input_range)
        raw = dequantize(run_layers(model, q))
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return head_activation(raw, spec.num_classes, spec.boxes_per_cell)


# ---------------------------------------------------------------------------
# serialization

def _spec_from_dict(d) -> NetworkSpec:
    where = "model header"
    net = _fields(d, _NETWORK_FIELDS, where)
    layers = [_layer_spec(e, f"{where} layer {i}") for i, e in enumerate(net["layers"])]
    spec = NetworkSpec(**{**net, "layers": layers}, name=str(d.get("name", "custom")))
    spec.validate()
    return spec


def _calibration_from_dict(d) -> CalibrationRecord:
    where = "model header calibration"
    cal = _fields(d, {"input": _RANGE, "layers": list}, where)
    for i, r in enumerate(cal["layers"]):
        if not _json_is(r, _RANGE):
            raise ConfigError(f"{where}: layers[{i}] is not a [min, max] pair: {r!r}")
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
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_record(r: _Reader):
    tag, rank = r.unpack("<BI")
    if tag not in (DTYPE_F32, DTYPE_U8):
        raise DataError(f"unknown dtype tag {tag}")
    dims = r.unpack(f"<{rank}I")
    params = None
    if tag == DTYPE_U8:
        lo, hi = r.unpack("<2f")
        params = QuantParams(lo, hi)
    count = int(np.prod(dims)) if dims else 1
    itemsize = 4 if tag == DTYPE_F32 else 1
    payload = r.take(count * itemsize)
    (crc,) = r.unpack("<I")
    if zlib.crc32(payload) != crc:
        raise ChecksumError("payload CRC32 mismatch")
    if tag == DTYPE_F32:
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        return arr, None
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()
    return arr, params


def save(model: Model) -> bytes:
    """Serialize a model to bytes; ``load(save(m))`` is bit-identical."""
    header = {**vars(model.spec), "layers": [vars(layer) for layer in model.spec.layers]}
    if model.calibration is not None:
        header["calibration"] = {
            "input": [model.calibration.input_range.min, model.calibration.input_range.max],
            "layers": [[p.min, p.max] for p in model.calibration.layers],
        }
    else:
        header["calibration"] = None
    blob = json.dumps(header, sort_keys=True).encode()
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(blob)), blob]
    for lw in model.weights:
        if lw.w is None:
            continue
        if isinstance(lw.w, QuantizedTensor):
            out.append(_pack_record(lw.w.data, lw.w.params))
        else:
            out.append(_pack_record(lw.w, None))
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
    try:
        header = json.loads(r.take(blob_len).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"model header is not valid JSON: {e}") from e
    spec = _spec_from_dict(header)
    calibration = None
    if header.get("calibration") is not None:
        calibration = _calibration_from_dict(header["calibration"])
    weights = []
    in_ch = spec.input_channels
    for i, layer in enumerate(spec.layers):
        if layer.kind == "maxpool":
            weights.append(LayerWeights())
            continue
        w, params = _read_record(r)
        b, bparams = _read_record(r)
        if bparams is not None:
            raise DataError("bias records must be float32")
        want = (*layer.kernel, in_ch, layer.out_channels)
        if w.shape != want or b.shape != want[3:]:
            raise DataError(f"model layer {i} ({layer.kind}): records hold weights {w.shape} "
                            f"and bias {b.shape}, the header says {want} and {want[3:]}")
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
    weights = []
    for lw in model.weights:
        if lw.w is None:
            weights.append(LayerWeights())
        else:
            weights.append(LayerWeights(quantize(lw.w), lw.b.copy()))
    return Model(spec=model.spec, weights=weights, calibration=calibration)
