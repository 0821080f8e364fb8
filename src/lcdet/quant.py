"""8-bit affine quantization and the fully fixed-point convolution path.

A float tensor is mapped onto bytes by storing its (min, max) range and
rounding ``255 * (w - min) / (max - min)`` to the nearest integer, ties away
from zero. ``qconv2d`` keeps the whole convolution in integer arithmetic:
u8 inputs and weights multiply into signed integer accumulators (the window
bound makes 32 bits provably sufficient), and the affine offsets, float bias
and activation are folded in exactly once per output element before
requantizing with the calibrated output range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError
from .tensor import _out_and_pad, activate, im2col, maxpool2d_batched

# With u8 operands, products are < 2**16 and a window of up to 2**15 terms
# keeps the accumulator below 2**31: safe even in a 32-bit signed register.
MAX_WINDOW_TERMS = 1 << 15


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor quantization range."""

    min: float
    max: float

    def __post_init__(self):
        if not (self.max >= self.min):
            raise ConfigError(f"quantization range has max {self.max} < min {self.min}")

    @property
    def scale(self) -> float:
        return (self.max - self.min) / 255.0


@dataclass
class QuantizedTensor:
    """u8 payload plus the affine range that maps bytes back to floats."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self):
        if self.data.dtype != np.uint8:
            raise ConfigError(f"quantized payload must be u8, got {self.data.dtype}")


@dataclass
class CalibrationRecord:
    """Activation ranges observed over a calibration set.

    ``layers`` holds one range per layer output in network order; the network
    input gets its own range so images can be quantized on the way in.
    """

    input_range: QuantParams
    layers: list[QuantParams] = field(default_factory=list)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_with(w: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Quantize onto a caller-supplied range; values outside it saturate."""
    w = np.asarray(w)
    span = params.max - params.min
    if span <= 0.0:
        data = np.zeros(w.shape, dtype=np.uint8)
    else:
        v = (w.astype(np.float64) - params.min) * (255.0 / span)
        data = np.clip(_round_half_away(v), 0.0, 255.0).astype(np.uint8)
    return QuantizedTensor(data, params)


def quantize(w: np.ndarray) -> QuantizedTensor:
    """Quantize a tensor onto its own min/max range."""
    w = np.asarray(w)
    if w.size == 0:
        raise ConfigError("cannot quantize an empty tensor")
    return quantize_with(w, QuantParams(float(w.min()), float(w.max())))


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map bytes back to floats: min + q * (max - min) / 255.

    Returned in float64: the reconstruction must stay within half a
    quantization step of the source, and a float32 result would lose that
    guarantee for wide ranges at large magnitudes.
    """
    span = q.params.max - q.params.min
    if span <= 0.0:
        return np.full(q.data.shape, q.params.min, dtype=np.float64)
    return q.params.min + q.data.astype(np.float64) * (span / 255.0)


def qconv2d(input: QuantizedTensor, weights: QuantizedTensor, bias: np.ndarray,
            stride: int = 1, padding: str = "same",
            out_params: QuantParams | None = None,
            activation: str = "identity") -> QuantizedTensor:
    """Fixed-point convolution: integer accumulation, one requantize at the end.

    Zero-padded positions contribute exactly 0.0 (matching the float path),
    which the affine correction accounts for with per-position in-bounds
    counts. Result equals quantizing the float-path conv within one byte step
    (rounding differences only).
    """
    if out_params is None:
        raise ConfigError("quantized convolution requires a calibrated output range")
    if input.data.ndim != 3:
        raise ConfigError(f"expected (H, W, C) quantized input, got rank {input.data.ndim}")
    kh, kw, cin, cout = weights.data.shape
    h, w, c = input.data.shape
    if c != cin:
        raise ConfigError(f"input has {c} channels, kernel expects {cin}")
    if kh * kw * cin > MAX_WINDOW_TERMS:
        raise ConfigError(
            f"window of {kh * kw * cin} terms exceeds the {MAX_WINDOW_TERMS} "
            "accumulator-overflow bound")

    sx, mx = input.params.scale, input.params.min
    sw, mw = weights.params.scale, weights.params.min

    # The window bound keeps every sum below 2**31, so i32 GEMMs are exact.
    cols, oh, ow = im2col(input.data.astype(np.int32)[None], kh, kw, stride, padding)
    wq = weights.data.astype(np.int32).reshape(kh * kw * cin, cout)
    acc = cols @ wq                      # exact integer dot products
    sum_x = cols.sum(axis=1, dtype=np.int64)

    out = (sx * sw) * acc \
        + (sx * mw) * sum_x[:, None] \
        + np.asarray(bias, dtype=np.float64)[None, :]
    if mx != 0.0:
        # Padded kernel taps must contribute exactly zero, not the range
        # offset, so border positions need in-bounds counts.
        _, pt, pb = _out_and_pad(h, kh, stride, padding)
        _, pl, pr = _out_and_pad(w, kw, stride, padding)
        if pt or pb or pl or pr:
            mask, _, _ = im2col(np.ones((1, h, w, 1), dtype=np.int32), kh, kw, stride, padding)
            w_spatial = weights.data.astype(np.int64).sum(axis=2).reshape(kh * kw, cout)
            sum_w = mask.astype(np.int64) @ w_spatial
            n_valid = mask.sum(axis=1, dtype=np.int64) * cin
            out += (mx * sw) * sum_w + (mx * mw) * n_valid[:, None]
        else:
            w_sum = weights.data.astype(np.int64).reshape(-1, cout).sum(axis=0)
            out += (mx * sw) * w_sum + (mx * mw) * (kh * kw * cin)
    out = activate(out, activation)
    return quantize_with(out.reshape(oh, ow, cout), out_params)


def qmaxpool2d(input: QuantizedTensor, size: int, stride: int) -> QuantizedTensor:
    """Max pooling directly on bytes; exact because dequantize is monotone."""
    pooled = maxpool2d_batched(input.data[None], size, stride)[0]
    return QuantizedTensor(pooled, input.params)


class RangeTracker:
    """Running min/max accumulator for one tensor stream."""

    def __init__(self):
        self.lo = np.inf
        self.hi = -np.inf

    def update(self, x: np.ndarray):
        self.lo = min(self.lo, float(x.min()))
        self.hi = max(self.hi, float(x.max()))

    def params(self) -> QuantParams:
        return QuantParams(self.lo, self.hi)


def calibrate(model, images) -> CalibrationRecord:
    """Record per-layer output ranges by running the float model over a set.

    The detection head is recorded before its split output activation (the
    quantized path applies that activation in float after dequantizing).
    """
    from .model import run_layers  # deferred: model imports quant

    images = list(images)
    if not images:
        raise UsageError("calibration needs at least one image")
    input_tracker = RangeTracker()
    layer_trackers: list[RangeTracker] = []
    for image in images:
        input_tracker.update(image)
        outputs: list[np.ndarray] = []
        run_layers(model, image[None].astype(np.float32, copy=False), record=outputs)
        if not layer_trackers:
            layer_trackers = [RangeTracker() for _ in outputs]
        for tracker, out in zip(layer_trackers, outputs):
            tracker.update(out)
    return CalibrationRecord(input_tracker.params(), [t.params() for t in layer_trackers])
