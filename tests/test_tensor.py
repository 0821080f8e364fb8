import numpy as np
import pytest

from conftest import naive_conv2d
from lcdet.errors import ConfigError
from lcdet.tensor import activate, conv2d, maxpool2d, sigmoid, softmax


def test_conv_identity_kernel():
    x = np.full((1, 1, 1), 3.0, dtype=np.float32)
    w = np.ones((1, 1, 1, 1), dtype=np.float32)
    out = conv2d(x, w, np.zeros(1, dtype=np.float32))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(3.0)


def test_conv_all_ones_valid():
    x = np.ones((3, 3, 1), dtype=np.float32)
    w = np.ones((3, 3, 1, 1), dtype=np.float32)
    out = conv2d(x, w, np.zeros(1, dtype=np.float32), stride=1, padding="valid")
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(9.0)


def test_conv_same_shape_rule():
    x = np.zeros((448, 448, 3), dtype=np.float32)
    w = np.zeros((3, 3, 3, 16), dtype=np.float32)
    out = conv2d(x, w, np.zeros(16, dtype=np.float32), stride=1, padding="same")
    assert out.shape == (448, 448, 16)


def test_conv_identity_1x1_noop_per_channel(rng):
    x = rng.random((5, 6, 4), dtype=np.float32)
    w = np.eye(4, dtype=np.float32).reshape(1, 1, 4, 4)
    out = conv2d(x, w, np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(out, x)


def test_conv_matches_naive_reference(rng):
    for stride, padding in [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")]:
        x = rng.normal(size=(7, 9, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 5)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        got = conv2d(x, w, b, stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv_same_pads_extra_bottom_right(rng):
    # even kernel: total padding is odd, extra cell goes after the data
    x = rng.normal(size=(4, 4, 1)).astype(np.float32)
    w = rng.normal(size=(2, 2, 1, 1)).astype(np.float32)
    b = np.zeros(1, dtype=np.float32)
    got = conv2d(x, w, b, stride=1, padding="same")
    want = naive_conv2d(x, w, b, stride=1, padding="same")
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    # bottom-right output cell sees only the top-left kernel tap
    assert got[3, 3, 0] == pytest.approx(x[3, 3, 0] * w[0, 0, 0, 0], rel=1e-5)


def test_conv_linearity(rng):
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    y = rng.normal(size=(6, 6, 2)).astype(np.float32)
    w = rng.normal(size=(3, 3, 2, 3)).astype(np.float32)
    b0 = np.zeros(3, dtype=np.float32)
    a, c = 1.7, -0.6
    lhs = conv2d(a * x + c * y, w, b0)
    rhs = a * conv2d(x, w, b0) + c * conv2d(y, w, b0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


def test_conv_channel_mismatch_raises():
    x = np.zeros((4, 4, 3), dtype=np.float32)
    w = np.zeros((3, 3, 2, 4), dtype=np.float32)
    with pytest.raises(ConfigError):
        conv2d(x, w, np.zeros(4, dtype=np.float32))


def test_maxpool_basic():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(2, 2, 1)
    out = maxpool2d(x, size=2, stride=2)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 4.0


def test_maxpool_constant_input():
    x = np.full((6, 6, 2), 1.25, dtype=np.float32)
    out = maxpool2d(x, 2, 2)
    assert np.all(out == 1.25)


def test_maxpool_shape_rule():
    x = np.zeros((448, 448, 16), dtype=np.float32)
    assert maxpool2d(x, 2, 2).shape == (224, 224, 16)


def test_maxpool_partial_windows_ignore_out_of_range():
    x = np.arange(25, dtype=np.float32).reshape(5, 5, 1)
    out = maxpool2d(x, size=2, stride=2)
    assert out.shape == (3, 3, 1)
    # last column/row windows are clipped to single cells
    assert out[2, 2, 0] == x[4, 4, 0]


def test_maxpool_window_too_large():
    with pytest.raises(ConfigError):
        maxpool2d(np.zeros((2, 2, 1), dtype=np.float32), size=3, stride=1)


def test_maxpool_bounds_property(rng):
    x = rng.normal(size=(9, 7, 3)).astype(np.float32)
    out = maxpool2d(x, 3, 2)
    assert out.max() <= x.max()
    assert out.min() >= x.min()


def test_activate_relu():
    x = np.array([-2.0, 0.0, 2.0], dtype=np.float32)
    np.testing.assert_array_equal(activate(x, "relu"), [0.0, 0.0, 2.0])


def test_activate_sigmoid_center():
    assert activate(np.zeros(1, dtype=np.float32), "sigmoid")[0] == pytest.approx(0.5)


def test_activate_leaky_slope():
    x = np.array([-10.0], dtype=np.float32)
    assert activate(x, "leaky_relu")[0] == pytest.approx(-1.0)


def test_activate_identity_returns_input(rng):
    x = rng.normal(size=4).astype(np.float32)
    before = x.copy()
    out = activate(x, "identity")
    assert out is x
    np.testing.assert_array_equal(x, before)


def test_sigmoid_extreme_values_stable():
    out = sigmoid(np.array([-200.0, 200.0], dtype=np.float32))
    assert out[0] == pytest.approx(0.0, abs=1e-30)
    assert out[1] == pytest.approx(1.0)
    assert np.isfinite(out).all()


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])


def test_softmax_single_element():
    np.testing.assert_allclose(softmax(np.array([3.7])), [1.0])


def test_softmax_closed_form():
    out = softmax(np.log(np.array([1.0, 3.0])))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-7)


def test_softmax_properties(rng):
    for _ in range(20):
        v = rng.normal(scale=5.0, size=rng.integers(1, 12))
        out = softmax(v)
        assert out.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(out > 0) and np.all(out < 1 + 1e-9)
        shifted = softmax(v + 13.5)
        np.testing.assert_allclose(out, shifted, atol=1e-6)
