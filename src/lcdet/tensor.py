"""Dense float tensor core: convolution, pooling, nonlinearities.

Layout conventions used everywhere in this package:

- activations are channels-last ``(H, W, C)`` row-major, so one spatial
  position's channel vector (one grid cell's predictions) is contiguous;
- convolution weights are ``(kh, kw, in_ch, out_ch)``;
- batched helpers take ``(N, H, W, C)`` and exist so training can push a
  whole minibatch through one GEMM.

All operations are pure functions; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

LEAKY_SLOPE = 0.1


def _out_and_pad(in_size: int, k: int, stride: int, padding: str) -> tuple[int, int, int]:
    """Output size plus (lead, trail) zero padding for one spatial axis.

    ``same`` keeps ceil(in/stride) outputs with the extra padding cell on the
    trailing edge; ``valid`` uses floor((in-k)/stride)+1 with no padding.
    """
    if padding == "valid":
        out = (in_size - k) // stride + 1
        if out < 1:
            raise ConfigError(f"kernel {k} does not fit input extent {in_size} (valid padding)")
        return out, 0, 0
    if padding != "same":
        raise ConfigError(f"unknown padding mode {padding!r}")
    out = -(-in_size // stride)
    total = max(0, (out - 1) * stride + k - in_size)
    lead = total // 2
    return out, lead, total - lead


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: str):
    """Extract convolution patches from a batch.

    Args:
        x: (N, H, W, C) activations.
    Returns:
        (cols, oh, ow) where cols is (N*oh*ow, kh*kw*C) with the patch axis
        ordered (kh, kw, C) to match the weight layout.
    """
    n, h, w, c = x.shape
    oh, pt, pb = _out_and_pad(h, kh, stride, padding)
    ow, pl, pr = _out_and_pad(w, kw, stride, padding)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (N, oh, ow, C, kh, kw)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)
    return np.ascontiguousarray(cols), oh, ow


def col2im(taps: np.ndarray, x_shape, stride: int, padding: str) -> np.ndarray:
    """Scatter-add patch gradients back to input positions (im2col adjoint).

    ``taps`` is (kh, kw, N*oh*ow, C): the gradient of im2col's columns with
    the kernel tap leading, so each tap adds whole rows of ``ow * C`` values.
    """
    kh, kw = taps.shape[:2]
    n, h, w, c = x_shape
    oh, pt, pb = _out_and_pad(h, kh, stride, padding)
    ow, pl, pr = _out_and_pad(w, kw, stride, padding)
    padded = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=taps.dtype)
    taps = taps.reshape(kh, kw, n, oh, ow, c)
    for dy in range(kh):
        for dx in range(kw):
            padded[:, dy:dy + oh * stride:stride, dx:dx + ow * stride:stride, :] += taps[dy, dx]
    return padded[:, pt:pt + h, pl:pl + w, :]


def conv2d_batched(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   stride: int = 1, padding: str = "same",
                   cols: list | None = None) -> np.ndarray:
    """Convolve a batch (N, H, W, Cin) with (kh, kw, Cin, Cout) weights; the
    im2col columns are appended to ``cols`` when it is a list."""
    kh, kw, cin, cout = weights.shape
    if x.ndim != 4:
        raise ConfigError(f"expected rank-4 batch, got rank {x.ndim}")
    if x.shape[3] != cin:
        raise ConfigError(f"input has {x.shape[3]} channels, kernel expects {cin}")
    if bias.shape != (cout,):
        raise ConfigError(f"bias length {bias.shape} does not match {cout} output channels")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    patches, oh, ow = im2col(x, kh, kw, stride, padding)
    if cols is not None:
        cols.append(patches)
    out = patches @ weights.reshape(kh * kw * cin, cout)
    out += bias
    return out.reshape(x.shape[0], oh, ow, cout)


def conv2d(input: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           stride: int = 1, padding: str = "same") -> np.ndarray:
    """2-D convolution of one (H, W, Cin) activation map. Zero padding."""
    if input.ndim != 3:
        raise ConfigError(f"expected (H, W, C) input, got rank {input.ndim}")
    return conv2d_batched(input[None], weights, bias, stride, padding)[0]


def pool_windows(h: int, w: int, size: int, stride: int):
    """Yield ``(in_slice, out_slice)`` per window offset (dy, dx), row-major:
    ``x[in_slice]`` is that offset of every (N, h, w, C) window reaching it,
    aligned with ``out[out_slice]``; clipped trailing windows drop out.
    Needs ``size <= h`` and ``size <= w``."""
    for dy in range(size):
        ohv = -(-(h - dy) // stride)
        for dx in range(size):
            owv = -(-(w - dx) // stride)
            yield (np.s_[:, dy:dy + (ohv - 1) * stride + 1:stride,
                         dx:dx + (owv - 1) * stride + 1:stride],
                   np.s_[:, :ohv, :owv])


def maxpool2d_batched(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Max pooling over (N, H, W, C); trailing partial windows are clipped."""
    n, h, w, c = x.shape
    if size < 1 or stride < 1:
        raise ConfigError(f"pool size/stride must be >= 1, got {size}/{stride}")
    if size > h or size > w:
        raise ConfigError(f"pool window {size} larger than input {h}x{w}")
    fill = -np.inf if x.dtype.kind == "f" else np.iinfo(x.dtype).min
    oh, ow = (_out_and_pad(side, size, stride, "same")[0] for side in (h, w))
    out = np.full((n, oh, ow, c), fill, dtype=x.dtype)
    for sl, osl in pool_windows(h, w, size, stride):
        np.maximum(out[osl], x[sl], out=out[osl])
    return out


def maxpool2d(input: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Max pooling of one (H, W, C) map."""
    if input.ndim != 3:
        raise ConfigError(f"expected (H, W, C) input, got rank {input.ndim}")
    return maxpool2d_batched(input[None], size, stride)[0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=x.dtype if x.dtype.kind == "f" else np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activate(input: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise nonlinearity: relu, leaky_relu (slope 0.1), sigmoid, identity.

    ``identity`` returns ``input`` itself, not a copy.
    """
    if kind == "relu":
        return np.maximum(input, 0)
    if kind == "leaky_relu":
        return np.where(input > 0, input, LEAKY_SLOPE * input)
    if kind == "sigmoid":
        return sigmoid(input)
    if kind == "identity":
        return input
    raise ConfigError(f"unknown activation {kind!r}")


def softmax(input: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction; sums to 1 along ``axis``."""
    x = np.asarray(input)
    if x.shape[axis] < 1:
        raise ConfigError("softmax needs at least one element")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
