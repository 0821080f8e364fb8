import json
import re

import numpy as np
import pytest

import lcdet.model as M
from lcdet.errors import (BadMagicError, ChecksumError, ConfigError, DataError,
                          TruncatedError, VersionError)
from lcdet.quant import calibrate

from conftest import tiny_net_spec


def test_head_channels_single_class():
    spec = M.build_lcdet({**M.profile_config("toy"), "num_classes": 1, "boxes_per_cell": 3})
    assert spec.layers[-1].out_channels == 16


def test_head_channels_multi_class():
    spec = M.build_lcdet({**M.profile_config("toy"), "num_classes": 20, "boxes_per_cell": 3})
    assert spec.layers[-1].out_channels == 35


def test_toy_profile_grid():
    spec = M.build_lcdet(M.profile_config("toy"))
    assert spec.total_stride == 16
    model = M.init_model(spec, seed=0)
    img = np.zeros((112, 112, 3), dtype=np.float32)
    grid = M.forward(model, img)
    assert grid.shape == (7, 7, 16)


def test_paper_profile_stride_and_backbone():
    cfg = M.profile_config("paper")
    spec = M.build_lcdet(cfg)
    assert spec.total_stride == 64
    convs = [l for l in spec.layers if l.kind in ("conv", "detection_head")]
    assert len(convs) == 26  # 24 backbone convs + the two head convs
    assert spec.layers[-2].out_channels == 4096
    assert spec.layers[-1].out_channels == 16


def test_rectangular_input_grid():
    # stride-4 custom net accepts any multiple of 4 and scales the grid
    spec = tiny_net_spec()
    model = M.init_model(spec, seed=0)
    grid = M.forward(model, np.zeros((16, 24, 3), dtype=np.float32))
    assert grid.shape == (4, 6, spec.head_channels)


def test_resolution_rejection_names_multiple():
    spec = M.build_lcdet(M.profile_config("toy"))
    model = M.init_model(spec, seed=0)
    with pytest.raises(ConfigError, match="16"):
        M.forward(model, np.zeros((100, 112, 3), dtype=np.float32))


def test_forward_deterministic():
    spec = tiny_net_spec()
    model = M.init_model(spec, seed=4)
    img = np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)
    a = M.forward(model, img)
    b = M.forward(model, img)
    np.testing.assert_array_equal(a, b)


def test_confidence_channels_in_unit_interval(rng):
    spec = tiny_net_spec(num_classes=1, boxes_per_cell=2)
    model = M.init_model(spec, seed=9)
    grid = M.forward(model, rng.normal(size=(8, 8, 3)).astype(np.float32) * 10)
    for b in range(2):
        conf = grid[:, :, 1 + 5 * b]
        assert np.all(conf >= 0.0) and np.all(conf <= 1.0)


def test_multiclass_head_probs_sum_to_one(rng):
    spec = tiny_net_spec(num_classes=4, boxes_per_cell=2)
    model = M.init_model(spec, seed=2)
    grid = M.forward(model, rng.normal(size=(8, 8, 3)).astype(np.float32))
    np.testing.assert_allclose(grid[:, :, :4].sum(axis=2), 1.0, atol=1e-6)


def test_build_rejects_bad_config():
    cfg = M.profile_config("toy")
    cfg["backbone"][0] = {"kind": "conv"}  # missing kernel/out_channels
    with pytest.raises(ConfigError, match="layer 0"):
        M.build_lcdet(cfg)


@pytest.mark.parametrize("field, value, match", [
    ("activation", "final", "reserved for the detection_head"),
    ("padding", "full", "unknown padding"),
    ("kernel", 3, "field 'kernel'"),
    ("stride", None, "field 'stride'"),
])
def test_build_rejects_layer_no_forward_runs(field, value, match):
    cfg = M.profile_config("toy")
    cfg["backbone"][0][field] = value
    with pytest.raises(ConfigError, match=match):
        M.build_lcdet(cfg)


def test_load_rejects_head_without_final_activation():
    model = M.init_model(M.build_lcdet(M.profile_config("toy")), seed=0)
    model.spec.layers[-1].activation = "identity"
    with pytest.raises(ConfigError, match="'final'"):
        M.load(M.save(model))


def test_parse_config_reports_line():
    with pytest.raises(Exception, match="line"):
        M.parse_config('{\n "backbone": [\n')


# ---------------------------------------------------------------------------
# serialization

def _small_model():
    spec = tiny_net_spec()
    return M.init_model(spec, seed=11)


def test_save_load_round_trip_bit_exact():
    model = _small_model()
    blob = M.save(model)
    again = M.load(blob)
    assert M.save(again) == blob
    for a, b in zip(model.weights, again.weights):
        if a.w is None:
            assert b.w is None
            continue
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)


def _record_size(payload_bytes: int, rank: int, quantized: bool) -> int:
    # tag + rank + dims + optional 2xf32 range + payload + crc32
    return 1 + 4 + 4 * rank + (8 if quantized else 0) + payload_bytes + 4


def test_float_record_size_law():
    from conftest import tiny_head_spec
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=3, input_channels=8)
    model = M.init_model(spec, seed=0)
    blob = M.save(model)
    json_len = int.from_bytes(blob[8:12], "little")
    n = model.weights[0].w.size
    expected = 12 + json_len + _record_size(4 * n, 4, False) + _record_size(4 * 16, 1, False)
    assert len(blob) == expected


def test_quantized_record_size():
    from conftest import tiny_head_spec
    spec = tiny_head_spec(num_classes=1, boxes_per_cell=3, input_channels=8)
    model = M.init_model(spec, seed=0)
    rec = calibrate(model, [np.random.default_rng(0).random((4, 4, 8), dtype=np.float32)])
    qmodel = M.quantize_model(model, rec)
    blob = M.save(qmodel)
    json_len = int.from_bytes(blob[8:12], "little")
    n = model.weights[0].w.size
    # quantized weight payload costs 1 byte per weight + 8 bytes of range
    expected = 12 + json_len + _record_size(n, 4, True) + _record_size(4 * 16, 1, False)
    assert len(blob) == expected


def test_load_bad_magic():
    with pytest.raises(BadMagicError):
        M.load(b"NOPE" + b"\x00" * 32)


def test_load_bad_version():
    blob = bytearray(M.save(_small_model()))
    blob[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(VersionError):
        M.load(bytes(blob))


def test_load_crc_failure():
    blob = bytearray(M.save(_small_model()))
    blob[-20] ^= 0xFF  # flip a payload byte in the last record
    with pytest.raises(ChecksumError):
        M.load(bytes(blob))


def test_load_truncated():
    blob = M.save(_small_model())
    with pytest.raises(TruncatedError):
        M.load(blob[:len(blob) - 10])


def _with_header(blob: bytes, mutate) -> bytes:
    """The model file ``blob`` with its JSON header passed through ``mutate``."""
    n = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + n])
    mutate(header)
    text = json.dumps(header).encode()
    return blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + n:]


_DROP = object()


def _edit(*path, value=_DROP):
    """A header mutation: set the field at ``path`` to ``value``, or delete it."""
    def mutate(header):
        *parents, last = path
        for key in parents:
            header = header[key]
        if value is _DROP:
            del header[last]
        else:
            header[last] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_edit("layers"), "model header: missing field 'layers'"),
    (_edit("layers", value={"kind": "conv"}), "model header: field 'layers'"),
    (_edit("layers", 0, value=7), "model header layer 0: expected a JSON object"),
    (_edit("layers", 0, "stride"), "model header layer 0: missing field 'stride'"),
    (_edit("layers", 0, "stride", value="2"), "model header layer 0: field 'stride'"),
    (_edit("layers", 0, "kernel", value=[3]), "model header layer 0: field 'kernel'"),
    (_edit("layers", 1, "kernel", value=["2", "2"]), "model header layer 1: field 'kernel'"),
    (_edit("layers", 2, "out_channels", value=8.5), "model header layer 2: field 'out_channels'"),
    (_edit("layers", 0, "out_channels", value=None), "layer 0: out_channels must be >= 1"),
    (_edit("layers", 5, "activation"), "model header layer 5: missing field 'activation'"),
    (_edit("num_classes"), "model header: missing field 'num_classes'"),
    (_edit("boxes_per_cell", value=True), "model header: field 'boxes_per_cell'"),
    (_edit("calibration", value=[0, 1]), "model header calibration: expected a JSON object"),
    (_edit("calibration", "input", value=[0]), "model header calibration: field 'input'"),
    (_edit("calibration", "layers"), "model header calibration: missing field 'layers'"),
    (_edit("calibration", "layers", 3, value=[0, "1"]), "model header calibration: layers[3]"),
    (lambda h: h["layers"][0].update(kernel=[5, 5], out_channels=7),
     "model layer 0 (conv): records hold weights (3, 3, 3, 6) and bias (6,), "
     "the header says (5, 5, 3, 7) and (7,)"),
    (_edit("layers", 2, "kernel", value=[1, 1]),
     "model layer 2 (conv): records hold weights (3, 3, 6, 8)"),
])
def test_malformed_header_is_a_data_error(tmp_path, capsys, mutate, message):
    from lcdet.cli import main
    model = _small_model()
    rec = calibrate(model, [np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)])
    path = tmp_path / "bad.lcdet"
    path.write_bytes(_with_header(M.save(M.quantize_model(model, rec)), mutate))
    with pytest.raises(DataError, match=re.escape(message)):
        M.load(path.read_bytes())
    code = main(["analyze", "--model", str(path), "--input", "8x8",
                 "--out", str(tmp_path / "an")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


def test_load_rejects_bias_record_of_wrong_length():
    model = _small_model()
    model.weights[2].b = np.zeros(5, dtype=np.float32)
    with pytest.raises(DataError, match=re.escape(
            "model layer 2 (conv): records hold weights (3, 3, 6, 8) and bias (5,), "
            "the header says (3, 3, 6, 8) and (8,)")):
        M.load(M.save(model))


def test_quantized_forward_close_to_float(rng):
    spec = tiny_net_spec()
    model = M.init_model(spec, seed=21)
    images = [rng.random((8, 8, 3), dtype=np.float32) for _ in range(12)]
    rec = calibrate(model, images)
    qmodel = M.quantize_model(model, rec)
    step = rec.layers[-1].scale
    img = rng.random((8, 8, 3), dtype=np.float32)
    gq = M.forward(qmodel, img, mode="quantized")
    gf = M.forward(model, img, mode="float")
    assert np.abs(gq - gf).max() <= 3.0 * step


def test_quantize_model_twice_rejected():
    model = _small_model()
    rec = calibrate(model, [np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)])
    qmodel = M.quantize_model(model, rec)
    with pytest.raises(ConfigError):
        M.quantize_model(qmodel, rec)


def test_float_mode_on_quantized_model_rejected():
    model = _small_model()
    rec = calibrate(model, [np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)])
    qmodel = M.quantize_model(model, rec)
    with pytest.raises(ConfigError):
        M.forward(qmodel, np.zeros((8, 8, 3), dtype=np.float32), mode="float")
