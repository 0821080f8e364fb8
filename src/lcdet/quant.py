"""8-bit affine quantization and the fully fixed-point convolution path.

A float tensor is mapped onto bytes by storing its (min, max) range and
rounding ``255 * (w - min) / (max - min)`` to the nearest integer, ties away
from zero. ``qconv2d`` keeps the whole convolution in integer arithmetic:
u8 inputs and weights multiply into integer window sums, and the affine
offsets, float bias and activation are folded in exactly once per output
element before requantizing with the calibrated output range. The products
are summed exactly in float64 BLAS: every sum is an integer below 2**31, far
under float64's 2**53. The window bound that keeps sums below 2**31 stays
as the 32-bit accumulator contract of an embedded integer target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError
from .tensor import activate, im2col, maxpool2d_batched

# With u8 operands, products are < 2**16 and a window of up to 2**15 terms
# keeps every sum below 2**31: the 32-bit signed accumulator contract of an
# embedded target. Here the sums run in float64 BLAS, exact up to 2**53.
MAX_WINDOW_TERMS = 1 << 15

# Float64 work on large tensors runs in blocks of this many values (512 KB,
# cache-sized): qconv2d casts its u8 weights one block of K-rows at a time,
# each with its own GEMM, instead of building a float64 copy of the whole
# tensor on every call, and quantize_with never holds a float64 copy of a
# whole weight tensor. 2**16 was fastest: a paper-profile 8-bit frame took
# 1.2-1.4x as long with 2**14, 2**18 or 2**20. Every toy layer's K * (cout + 1)
# fits in one block; a toy activation (up to 200,704 values) takes four, which
# requantized no slower than one.
BLOCK_VALUES = 1 << 16


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


def quantize_with(w: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Quantize onto a caller-supplied range; values outside it saturate.

    Every value below 0 saturates to byte 0, so rounding half away from zero
    is ``floor(v + 0.5)`` on every byte that survives. The values pass through
    one float64 buffer of at most ``BLOCK_VALUES`` values; each byte depends on
    its own value only, so the blocks change no byte.
    """
    w = np.asarray(w)
    data = np.zeros(w.shape, dtype=np.uint8)
    span = params.max - params.min
    if span > 0.0:
        flat, out = w.reshape(-1), data.reshape(-1)
        buf = np.empty(min(flat.size, BLOCK_VALUES))
        for k0 in range(0, flat.size, BLOCK_VALUES):
            chunk = flat[k0:k0 + BLOCK_VALUES]
            v = buf[:chunk.size]
            v[...] = chunk
            v -= params.min
            v *= 255.0 / span
            v += 0.5
            out[k0:k0 + BLOCK_VALUES] = np.clip(np.floor(v, out=v), 0.0, 255.0, out=v)
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
    k = kh * kw * cin
    if k > MAX_WINDOW_TERMS:
        raise ConfigError(
            f"window of {k} terms exceeds the {MAX_WINDOW_TERMS} accumulator-overflow bound")

    sx, mx = input.params.scale, input.params.min
    sw, mw = weights.params.scale, weights.params.min

    # Float64 GEMMs give every window sum and, through a column of ones, each
    # window's input sum. The weights are cast one block of K-rows at a time
    # into one buffer that keeps its ones column; every partial sum is an
    # integer below 2**31, so adding the blocks' GEMMs is exact in any order.
    cols, oh, ow = im2col(input.data[None], kh, kw, stride, padding)
    cols = cols.astype(np.float64)
    w2d = weights.data.reshape(k, cout)
    rows = max(1, BLOCK_VALUES // (cout + 1))
    wq = np.ones((min(rows, k), cout + 1))
    for k0 in range(0, k, rows):
        taps = w2d[k0:k0 + rows]
        block = wq[:len(taps)]
        block[:, :cout] = taps
        if k0 == 0:
            acc = cols[:, :rows] @ block
        else:
            acc += cols[:, k0:k0 + rows] @ block
    # dropped before the epilogue, so its float64 arrays can reuse the memory
    del cols
    out = (sx * sw) * acc[:, :cout] \
        + (sx * mw) * acc[:, cout:] \
        + np.asarray(bias, dtype=np.float64)[None, :]
    if mx != 0.0:
        # Padded kernel taps must contribute exactly zero, not the range
        # offset, so each position needs its in-bounds weight sums and
        # term count (the last column), again one exact float64 GEMM.
        mask, _, _ = im2col(np.ones((1, h, w, 1)), kh, kw, stride, padding)
        w_spatial = np.full((kh * kw, cout + 1), float(cin))
        w_spatial[:, :cout] = weights.data.sum(axis=2, dtype=np.int64).reshape(kh * kw, cout)
        sums = mask @ w_spatial
        out += (mx * sw) * sums[:, :cout] + (mx * mw) * sums[:, cout:]
    out = activate(out, activation)
    return quantize_with(out.reshape(oh, ow, cout), out_params)


def qmaxpool2d(input: QuantizedTensor, size: int, stride: int) -> QuantizedTensor:
    """Max pooling directly on bytes; exact because dequantize is monotone."""
    pooled = maxpool2d_batched(input.data[None], size, stride)[0]
    return QuantizedTensor(pooled, input.params)


def calibrate(model, images) -> CalibrationRecord:
    """Record per-layer output ranges by running the float model over a set.

    The detection head is recorded before its split output activation (the
    quantized path applies that activation in float after dequantizing).
    """
    from .model import run_layers  # deferred: model imports quant

    images = list(images)
    if not images:
        raise UsageError("calibration needs at least one image")
    # running min/max of every layer's output; the network input's sit last
    lo = [np.inf] * (len(model.spec.layers) + 1)
    hi = [-np.inf] * len(lo)

    def fold(i, x_in, out, cols):
        lo[i] = min(lo[i], float(out.min()))
        hi[i] = max(hi[i], float(out.max()))

    for image in images:
        fold(-1, None, image, None)
        run_layers(model, image[None].astype(np.float32, copy=False), fold)
    ranges = [QuantParams(a, b) for a, b in zip(lo, hi)]
    return CalibrationRecord(ranges[-1], ranges[:-1])
