import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcdet import quant
from lcdet.errors import ConfigError, UsageError
from lcdet.model import init_model
from lcdet.quant import (BLOCK_VALUES, MAX_WINDOW_TERMS, QuantParams, QuantizedTensor, calibrate,
                         dequantize, qconv2d, qmaxpool2d, quantize, quantize_with)
from lcdet.tensor import activate, conv2d

from conftest import tiny_head_spec, tiny_net_spec


def test_quantize_endpoints():
    w = np.array([-2.0, 0.5, 7.0], dtype=np.float32)
    q = quantize(w)
    assert q.params.min == -2.0 and q.params.max == 7.0
    assert q.data[0] == 0      # element at min
    assert q.data[2] == 255    # element at max


def test_quantize_ties_away_from_zero():
    # 0 in range (-1, 1) lands on 127.5 and rounds up to 128
    q = quantize(np.array([-1.0, 0.0, 1.0], dtype=np.float32))
    assert q.data[1] == 128


def test_dequantize_endpoints():
    p = QuantParams(-3.0, 5.0)
    q = QuantizedTensor(np.array([0, 255], dtype=np.uint8), p)
    out = dequantize(q)
    assert out[0] == pytest.approx(-3.0)
    assert out[1] == pytest.approx(5.0)


def test_dequantize_midpoint():
    q = QuantizedTensor(np.array([128], dtype=np.uint8), QuantParams(-1.0, 1.0))
    assert dequantize(q)[0] == pytest.approx(-1.0 + 128 * 2.0 / 255.0, abs=1e-6)
    assert dequantize(q)[0] == pytest.approx(0.003922, abs=1e-5)


def test_round_trip_bound(rng):
    for _ in range(100):
        n = int(rng.integers(1, 512))
        span = 10.0 ** rng.uniform(-3, 3)
        center = span * rng.uniform(-2, 2)
        w = (center + span * (rng.random(n) - 0.5)).astype(np.float32)
        q = quantize(w)
        back = dequantize(q)
        bound = (q.params.max - q.params.min) / 510.0 + 1e-6
        assert np.abs(back - w).max() <= bound


def test_quantize_monotone(rng):
    w = rng.normal(size=200).astype(np.float32)
    q = quantize(w)
    order = np.argsort(w)
    assert np.all(np.diff(q.data[order].astype(int)) >= 0)


def test_requantize_is_identity_on_bytes(rng):
    w = rng.normal(size=300).astype(np.float32)
    q = quantize(w)
    again = quantize_with(dequantize(q), q.params)
    np.testing.assert_array_equal(q.data, again.data)


def test_constant_tensor():
    w = np.full((4, 4), 2.5, dtype=np.float32)
    q = quantize(w)
    assert np.all(q.data == 0)
    assert q.params.scale == 0.0
    np.testing.assert_array_equal(dequantize(q), w)


def test_quantize_empty_rejected():
    with pytest.raises(ConfigError):
        quantize(np.zeros(0, dtype=np.float32))


def test_qconv_zero_input_identity_kernel():
    # zero bytes with range (0,1) decode to 0.0; conv reduces to the bias
    x = QuantizedTensor(np.zeros((3, 3, 1), dtype=np.uint8), QuantParams(0.0, 1.0))
    w = quantize(np.ones((1, 1, 1, 1), dtype=np.float32))
    bias = np.array([0.7], dtype=np.float32)
    out_params = QuantParams(0.0, 1.0)
    got = qconv2d(x, w, bias, out_params=out_params, activation="relu")
    want = quantize_with(np.full((3, 3, 1), 0.7, dtype=np.float32), out_params)
    np.testing.assert_array_equal(got.data, want.data)


def test_qconv_matches_float_reference(rng):
    x = rng.normal(size=(8, 8, 4)).astype(np.float32)
    w = rng.normal(scale=0.5, size=(3, 3, 4, 6)).astype(np.float32)
    b = rng.normal(scale=0.1, size=6).astype(np.float32)
    xq, wq = quantize(x), quantize(w)
    ref = activate(conv2d(dequantize(xq), dequantize(wq), b, 1, "same"), "relu")
    out_params = QuantParams(float(ref.min()), float(ref.max()))
    got = dequantize(qconv2d(xq, wq, b, 1, "same", out_params, activation="relu"))
    assert np.abs(got - ref).max() <= out_params.scale * 1.5


def test_qconv_two_layer_chain(rng):
    # chained fixed-point layers vs the float chain over the same dequantized
    # operands: only the intermediate requantization may differ (2 steps max)
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = r.normal(size=(6, 6, 3)).astype(np.float32)
        w1 = r.normal(scale=0.4, size=(3, 3, 3, 5)).astype(np.float32)
        b1 = r.normal(scale=0.1, size=5).astype(np.float32)
        w2 = r.normal(scale=0.4, size=(3, 3, 5, 4)).astype(np.float32)
        b2 = r.normal(scale=0.1, size=4).astype(np.float32)
        xq, w1q, w2q = quantize(x), quantize(w1), quantize(w2)

        f1 = activate(conv2d(dequantize(xq), dequantize(w1q), b1), "relu")
        f2 = activate(conv2d(f1, dequantize(w2q), b2), "relu")
        p1 = QuantParams(float(f1.min()), float(f1.max()))
        p2 = QuantParams(float(f2.min()), float(f2.max()))

        q1 = qconv2d(xq, w1q, b1, out_params=p1, activation="relu")
        q2 = qconv2d(q1, w2q, b2, out_params=p2, activation="relu")
        ref = quantize_with(f2, p2)
        assert np.abs(q2.data.astype(int) - ref.data.astype(int)).max() <= 2


def test_qconv_requires_out_params():
    x = QuantizedTensor(np.zeros((2, 2, 1), dtype=np.uint8), QuantParams(0, 1))
    w = quantize(np.ones((1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        qconv2d(x, w, np.zeros(1, dtype=np.float32))


def test_qconv_overflow_bound_enforced():
    cin = 4000  # 3*3*4000 > 2**15
    x = QuantizedTensor(np.zeros((3, 3, cin), dtype=np.uint8), QuantParams(0, 1))
    w = QuantizedTensor(np.zeros((3, 3, cin, 1), dtype=np.uint8), QuantParams(0, 1))
    with pytest.raises(ConfigError):
        qconv2d(x, w, np.zeros(1, dtype=np.float32), out_params=QuantParams(0, 1))


def _half_away_bytes(v):
    """Round half away from zero, then saturate to bytes."""
    return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), 0, 255).astype(np.uint8)


def _int64_qconv(x, w, bias, stride, padding, activation):
    """Reference 8-bit conv before requantization: int64 window sums, one
    kernel tap at a time, with zero padding cancelled by in-bounds weight
    sums and term counts; the float64 epilogue keeps qconv2d's operation
    order, so the result must match it bit for bit."""
    kh, kw, cin, cout = w.data.shape
    h, wd, _ = x.data.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-wd // stride)
        pt = max(0, (oh - 1) * stride + kh - h) // 2
        pl = max(0, (ow - 1) * stride + kw - wd) // 2
    else:
        oh, ow, pt, pl = (h - kh) // stride + 1, (wd - kw) // stride + 1, 0, 0
    xp = np.zeros((pt + h + kh + oh * stride, pl + wd + kw + ow * stride, cin), np.int64)
    xp[pt:pt + h, pl:pl + wd] = x.data
    inside = np.zeros(xp.shape[:2], np.int64)
    inside[pt:pt + h, pl:pl + wd] = 1
    acc = np.zeros((oh, ow, cout), np.int64)
    sum_x = np.zeros((oh, ow), np.int64)
    sum_w = np.zeros((oh, ow, cout), np.int64)
    n_valid = np.zeros((oh, ow), np.int64)
    for dy in range(kh):
        for dx in range(kw):
            win = xp[dy:dy + oh * stride:stride, dx:dx + ow * stride:stride]
            m = inside[dy:dy + oh * stride:stride, dx:dx + ow * stride:stride]
            tap = w.data[dy, dx].astype(np.int64)
            acc += win @ tap
            sum_x += win.sum(axis=2)
            sum_w += m[..., None] * tap.sum(axis=0)
            n_valid += m * cin
    sx, mx = x.params.scale, x.params.min
    sw, mw = w.params.scale, w.params.min
    out = (sx * sw) * acc + (sx * mw) * sum_x[..., None] + np.asarray(bias, np.float64)
    if mx != 0.0:
        out += (mx * sw) * sum_w + (mx * mw) * n_valid[..., None]
    return activate(out, activation)


def _assert_qconv_exact(x, w, bias, stride, padding, activation):
    """qconv2d's bytes equal the int64 reference's, requantized onto the
    output's own range and onto a narrow range around one output, where a
    window sum off by one would move that output by two bytes."""
    ref = _int64_qconv(x, w, bias, stride, padding, activation)
    lo, hi = float(ref.min()), float(ref.max())
    centre = float(ref.flat[ref.size // 2])
    narrow = 255.0 * x.params.scale * w.params.scale / 4
    for out_params in (QuantParams(lo, hi if hi > lo else lo + 1.0),
                       QuantParams(centre - narrow, centre + narrow)):
        want = _half_away_bytes((ref - out_params.min)
                                * (255.0 / (out_params.max - out_params.min)))
        got = qconv2d(x, w, bias, stride, padding, out_params, activation)
        np.testing.assert_array_equal(got.data, want)


def test_qconv_exact_at_the_window_bound():
    # every term 255 * 255: each window sum is 2**15 * 65025, just under 2**31
    cin = MAX_WINDOW_TERMS
    x = QuantizedTensor(np.full((2, 3, cin), 255, np.uint8), QuantParams(-0.25, 0.75))
    w = QuantizedTensor(np.full((1, 1, cin, 2), 255, np.uint8), QuantParams(-1.0, 1.0))
    _assert_qconv_exact(x, w, np.array([0.5, -0.5], np.float32), 1, "same", "identity")


def test_qconv_exact_3x3_near_the_bound_with_border_correction(rng):
    cin = MAX_WINDOW_TERMS // 9  # K = 32760
    x = QuantizedTensor(rng.integers(0, 256, (3, 4, cin), dtype=np.uint8),
                        QuantParams(0.1, 2.3))  # min != 0: padded taps need cancelling
    w = QuantizedTensor(rng.integers(0, 256, (3, 3, cin, 3), dtype=np.uint8),
                        QuantParams(-0.4, 0.7))
    _assert_qconv_exact(x, w, rng.normal(size=3).astype(np.float32), 1, "same", "relu")


_RANGE_MIN = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
_RANGE_SPAN = st.floats(1e-3, 8.0)


def _drawn_qconv_case(data):
    """Random u8 operands, ranges (input min 0 or not), bias, shape, stride,
    padding and activation for one qconv2d call."""
    stride = data.draw(st.integers(1, 3))
    padding = data.draw(st.sampled_from(["same", "valid"]))
    kh, kw = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    least = (kh, kw) if padding == "valid" else (1, 1)
    h, wd = data.draw(st.integers(least[0], 9)), data.draw(st.integers(least[1], 9))
    cin, cout = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    x_lo, w_lo = data.draw(_RANGE_MIN), data.draw(_RANGE_MIN)
    x_span, w_span = data.draw(_RANGE_SPAN), data.draw(_RANGE_SPAN)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = QuantizedTensor(rng.integers(0, 256, (h, wd, cin), dtype=np.uint8),
                        QuantParams(x_lo, x_lo + x_span))
    w = QuantizedTensor(rng.integers(0, 256, (kh, kw, cin, cout), dtype=np.uint8),
                        QuantParams(w_lo, w_lo + w_span))
    bias = rng.normal(size=cout).astype(np.float32)
    activation = data.draw(st.sampled_from(["relu", "leaky_relu", "identity"]))
    return x, w, bias, stride, padding, activation


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_qconv_exact_on_drawn_shapes(data):
    _assert_qconv_exact(*_drawn_qconv_case(data))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_qconv_within_one_byte_of_the_float_path(data):
    # README's contract: quantizing the float conv of the dequantized operands
    # gives the same bytes within one step, on the output's own range and on a
    # drawn narrower one that saturates
    x, w, bias, stride, padding, activation = _drawn_qconv_case(data)
    ref = activate(conv2d(dequantize(x), dequantize(w), bias, stride, padding), activation)
    lo, hi = float(ref.min()), float(ref.max())
    cut = data.draw(st.floats(0.0, 0.45))
    for out_params in (QuantParams(lo, hi if hi > lo else lo + 1.0),
                       QuantParams(lo + cut * (hi - lo), hi - cut * (hi - lo))):
        got = qconv2d(x, w, bias, stride, padding, out_params, activation)
        want = quantize_with(ref, out_params)
        assert np.abs(got.data.astype(int) - want.data.astype(int)).max() <= 1


def test_quantize_with_rounds_ties_away_and_saturates():
    # on the range (0, 255) a value is its own unscaled byte position
    ties = [k + 0.5 for k in range(-3, 258)]
    edges = [-0.0, 0.0, -0.49999999999999994, 0.49999999999999994, -7.0, -1e300,
             254.49999999999997, 255.49999999999997, 256.0, 1e300]
    v = np.array(ties + edges)
    got = quantize_with(v, QuantParams(0.0, 255.0)).data
    np.testing.assert_array_equal(got, _half_away_bytes(v))
    assert list(got[:5]) == [0, 0, 0, 1, 2]          # -2.5 .. 1.5
    assert list(got[256:261]) == [254, 255, 255, 255, 255]  # 253.5 .. 257.5


_FLOATS = st.floats(-1e6, 1e6, width=32)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(st.sampled_from([np.float32, np.float64]), st.integers(1, 48),
                  elements=_FLOATS),
       st.floats(-1e3, 1e3), st.floats(1e-6, 1e4))
def test_quantize_with_equals_half_away_rounding(w, lo, span):
    p = QuantParams(lo, lo + span)
    v = (w.astype(np.float64) - p.min) * (255.0 / (p.max - p.min))
    np.testing.assert_array_equal(quantize_with(w, p).data, _half_away_bytes(v))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 48), elements=st.floats(-2.0**100, 2.0**100, width=32)))
def test_round_trip_within_half_step_on_drawn_floats(w):
    q = quantize(w)
    bound = (q.params.max - q.params.min) / 510.0
    slack = 4 * np.finfo(np.float64).eps * max(abs(q.params.min), abs(q.params.max))
    assert np.abs(dequantize(q) - w).max() <= bound + slack


@pytest.mark.parametrize("x_lo", [0.0, -0.7])  # min != 0 runs the border correction
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_qconv_exact_over_several_weight_blocks(x_lo, data):
    # BLOCK_VALUES shrunk so the K rows split into 3 or more blocks, the last
    # one ragged
    kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cin, cout = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 6))
    k = kh * kw * cin
    ragged = [r for r in range(2, (k - 1) // 2 + 1) if k % r]
    assume(ragged)
    rows = data.draw(st.sampled_from(ragged))
    block = rows * (cout + 1) + data.draw(st.integers(0, cout))
    stride, padding = data.draw(st.integers(1, 2)), data.draw(st.sampled_from(["same", "valid"]))
    h, wd = data.draw(st.integers(kh, 7)), data.draw(st.integers(kw, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = QuantizedTensor(rng.integers(0, 256, (h, wd, cin), dtype=np.uint8),
                        QuantParams(x_lo, x_lo + data.draw(_RANGE_SPAN)))
    w_lo = data.draw(_RANGE_MIN)
    w = QuantizedTensor(rng.integers(0, 256, (kh, kw, cin, cout), dtype=np.uint8),
                        QuantParams(w_lo, w_lo + data.draw(_RANGE_SPAN)))
    bias = rng.normal(size=cout).astype(np.float32)
    activation = data.draw(st.sampled_from(["relu", "identity"]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quant, "BLOCK_VALUES", block)
        assert block // (cout + 1) == rows and -(-k // rows) >= 3 and k % rows
        _assert_qconv_exact(x, w, bias, stride, padding, activation)


def _quantize_one_buffer(w, params):
    """quantize_with before it worked in blocks: one float64 copy of all of w."""
    span = params.max - params.min
    if span <= 0.0:
        return np.zeros(np.shape(w), dtype=np.uint8)
    v = np.array(w, dtype=np.float64)
    v -= params.min
    v *= 255.0 / span
    v += 0.5
    return np.clip(np.floor(v, out=v), 0.0, 255.0, out=v).astype(np.uint8)


@pytest.mark.parametrize("size", [BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1,
                                  2 * BLOCK_VALUES + 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_quantize_with_blocks_equal_one_buffer(size, dtype):
    rng = np.random.default_rng(size)
    # about a third of the values saturate at each end; the ties sit at the
    # block edges, where a wrong block offset would show
    w = rng.normal(0.5, 0.6, size).astype(dtype)
    ties = np.arange(-2, 258) + 0.5
    for at in range(0, size, BLOCK_VALUES):
        w[max(0, at - 130):at + 130] = ties[:len(w[max(0, at - 130):at + 130])] / 255.0
    w[-1], w[0] = 1e30, -1e30
    for params in (QuantParams(0.0, 1.0), QuantParams(0.2, 0.2)):
        want = _quantize_one_buffer(w, params)
        np.testing.assert_array_equal(quantize_with(w, params).data, want)
        # a strided view of a 2-D tensor goes through the same blocks
        w2 = w[:size - size % 3].reshape(3, -1).T
        np.testing.assert_array_equal(quantize_with(w2, params).data,
                                      _quantize_one_buffer(w2, params))


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_float64_copy_of_a_whole_weight_tensor():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 3, 128, 512)).astype(np.float32)  # 589,824 values
    whole = w.size * 8
    assert _peak_bytes(lambda: quantize(w)) < w.size + whole / 4  # u8 result + blocks
    q = quantize(w)
    x = QuantizedTensor(rng.integers(0, 256, (2, 2, 128), dtype=np.uint8), QuantParams(0.1, 1.0))
    assert _peak_bytes(lambda: qconv2d(x, q, np.zeros(512, np.float32),
                                       out_params=QuantParams(-1.0, 1.0))) < whole / 4


def test_qconv_requantizes_through_quantize_with_once(rng, monkeypatch):
    # the benchmark's quant.requant_ms is the time of this nested call
    x = QuantizedTensor(rng.integers(0, 256, (5, 6, 3), dtype=np.uint8), QuantParams(0.1, 0.9))
    w = quantize(rng.normal(size=(3, 3, 3, 4)).astype(np.float32))
    calls = []
    real = quant.quantize_with
    monkeypatch.setattr(quant, "quantize_with",
                        lambda out, params: calls.append(out.shape) or real(out, params))
    for _ in range(2):
        qconv2d(x, w, np.zeros(4, np.float32), out_params=QuantParams(-1.0, 1.0))
    assert calls == [(5, 6, 4), (5, 6, 4)]


def test_qmaxpool_matches_float_pool(rng):
    x = rng.normal(size=(6, 6, 3)).astype(np.float32)
    q = quantize(x)
    from lcdet.tensor import maxpool2d
    got = dequantize(qmaxpool2d(q, 2, 2))
    want = maxpool2d(dequantize(q), 2, 2)
    np.testing.assert_array_equal(got, want)


def test_calibrate_identity_layer_records_input_range(rng):
    # head-only net with an identity 1x1 kernel: output range == input range
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=3, input_channels=16)
    model = init_model(spec, seed=0)
    model.weights[0].w = np.eye(16, dtype=np.float32).reshape(1, 1, 16, 16)
    model.weights[0].b = np.zeros(16, dtype=np.float32)
    img = rng.normal(size=(4, 4, 16)).astype(np.float32)
    rec = calibrate(model, [img])
    assert rec.layers[0].min == pytest.approx(float(img.min()))
    assert rec.layers[0].max == pytest.approx(float(img.max()))


def test_calibrate_running_min_max(rng):
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=3, input_channels=16)
    model = init_model(spec, seed=0)
    model.weights[0].w = np.eye(16, dtype=np.float32).reshape(1, 1, 16, 16)
    model.weights[0].b = np.zeros(16, dtype=np.float32)
    a = np.linspace(0.0, 1.0, 4 * 4 * 16, dtype=np.float32).reshape(4, 4, 16)
    b = np.linspace(-1.0, 2.0, 4 * 4 * 16, dtype=np.float32).reshape(4, 4, 16)
    rec = calibrate(model, [a, b])
    assert rec.layers[0].min == pytest.approx(-1.0)
    assert rec.layers[0].max == pytest.approx(2.0)


def test_calibrate_relu_layer_nonnegative(rng):
    spec = tiny_net_spec()
    model = init_model(spec, seed=3)
    images = [rng.normal(size=(8, 8, 3)).astype(np.float32) for _ in range(3)]
    rec = calibrate(model, images)
    # layer 0 is conv+relu
    assert rec.layers[0].min >= 0.0


def test_calibrate_empty_set_rejected():
    model = init_model(tiny_net_spec(), seed=0)
    with pytest.raises(UsageError):
        calibrate(model, [])
