import functools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lcdet.model as M
from lcdet.errors import (BadMagicError, ChecksumError, ConfigError, DataError,
                          ModelFormatError, TruncatedError, VersionError, parse_json)
from lcdet.perfsim import analyze
from lcdet.quant import calibrate, quantize_with
from lcdet.tensor import im2col, maxpool2d_batched

from conftest import JSON_VALUES, model_with_header, tiny_net_spec


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
        parse_json('{\n "backbone": [\n', "config")


def _spec_or_data_error(text: str):
    """``build_lcdet(parse_json(text))`` either builds a valid spec or raises a
    data error, never anything else."""
    try:
        spec = M.build_lcdet(parse_json(text, "config"))
    except DataError:
        return
    spec.validate()
    assert min(spec.input_channels, spec.total_stride, *spec.layers[0].kernel) >= 1


_CONFIG_KEYS = ["name", "input_channels", "num_classes", "boxes_per_cell", "convdet_channels",
                "input_size", "backbone"]
_LAYER_KEYS = ["kind", "kernel", "out_channels", "stride", "padding", "activation", "size"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_survives_drawn_field_values(data):
    # one to three fields of the toy config, at the top or in a backbone layer,
    # get a drawn JSON value or are dropped
    cfg = M.profile_config("toy")
    places = [cfg, *cfg["backbone"][:3]]
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from(places))
        key = data.draw(st.sampled_from(_CONFIG_KEYS if where is cfg else _LAYER_KEYS))
        if data.draw(st.booleans()):
            where[key] = data.draw(JSON_VALUES)
        else:
            where.pop(key, None)
    _spec_or_data_error(json.dumps(cfg))


@settings(max_examples=200, deadline=None)
@given(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=40),
                 st.sampled_from(["[" * 100000, "1" * 5000, '{"num_classes": ' + "9" * 5000 + "}"])))
def test_config_survives_drawn_documents(text):
    _spec_or_data_error(text)


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
    header = json.loads(blob[12:12 + int.from_bytes(blob[8:12], "little")])
    mutate(header)
    return model_with_header(blob, json.dumps(header).encode())


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
    (_edit("calibration", "layers", 3), "model header calibration: 5 layer ranges for 6 layers"),
    (lambda h: h["calibration"]["layers"].append([0, 1]),
     "model header calibration: 7 layer ranges for 6 layers"),
    (lambda h: h["layers"][0].update(kernel=[5, 5], out_channels=7),
     "model layer 0 (conv): records hold weights (3, 3, 3, 6) and bias (6,), "
     "the header says (5, 5, 3, 7) and (7,)"),
    (_edit("layers", 2, "kernel", value=[1, 1]),
     "model layer 2 (conv): records hold weights (3, 3, 6, 8)"),
    # a pool runs square, 'same' and without an activation; a header may not say otherwise
    (_edit("layers", 1, "kernel", value=[2, 3]), "layer 1: a maxpool takes a square kernel"),
    (_edit("layers", 1, "padding", value="valid"), "layer 1: a maxpool takes a square kernel"),
    (_edit("layers", 1, "activation", value="relu"), "layer 1: a maxpool takes a square kernel"),
    (_edit("layers", 1, "out_channels", value=6), "layer 1: a maxpool takes a square kernel"),
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


def test_load_rejects_a_flipped_record_rank():
    # byte 1378 of a toy float file is the first record's rank: bit 3 makes it
    # 12, and the product of twelve u32 dims once overflowed a numpy integer
    # to a negative length, which read backwards into a struct.error
    blob = bytearray(M.save(M.init_model(M.build_lcdet(M.profile_config("toy")), seed=21)))
    assert blob[1378] == 4
    blob[1378] ^= 1 << 3
    with pytest.raises(DataError, match=re.escape(
            "model layer 0 (conv): weight record has rank 12, expected 4")):
        M.load(bytes(blob))


def test_load_payload_size_does_not_overflow():
    # dims (2**31, 2**31, 2, 1) hold 2**63 values: a numpy int64 product
    # wraps to a negative size
    blob = bytearray(M.save(_small_model()))
    dims_at = 12 + int.from_bytes(blob[8:12], "little") + 5
    blob[dims_at:dims_at + 16] = np.array([2**31, 2**31, 2, 1], "<u4").tobytes()
    with pytest.raises(TruncatedError, match=f"needed {2**65} bytes"):
        M.load(bytes(blob))


def test_reader_rejects_a_negative_length():
    with pytest.raises(ModelFormatError, match="negative length"):
        M._Reader(b"abcd").take(-1)


def _record_heads(blob: bytes, pos: int) -> list[int]:
    """Offsets of every record's tag, rank, dims and range bytes (FORMATS.md)."""
    heads = []
    while pos < len(blob):
        rank = int.from_bytes(blob[pos + 1:pos + 5], "little")
        dims = np.frombuffer(blob[pos + 5:pos + 5 + 4 * rank], "<u4")
        end = pos + 5 + 4 * rank + (8 if blob[pos] == M.DTYPE_U8 else 0)
        heads.extend(range(pos, end))
        pos = end + int(dims.prod()) * (1 if blob[pos] == M.DTYPE_U8 else 4) + 4
    return heads


@functools.cache
def _model_files():
    """A float and a quantized tiny model file, each with its header length and
    the offsets of its record heads."""
    model = _small_model()
    rec = calibrate(model, [np.random.default_rng(0).random((8, 8, 3), dtype=np.float32)])
    files = []
    for blob in (M.save(model), M.save(M.quantize_model(model, rec))):
        n = int.from_bytes(blob[8:12], "little")
        files.append((blob, n, _record_heads(blob, 12 + n)))
    return files


def _load_or_data_error(blob):
    """``load`` either returns a model or raises a data error, never anything else."""
    try:
        M.load(blob)
    except DataError:
        pass


_FILES = st.sampled_from([0, 1]).map(lambda i: _model_files()[i])


@settings(max_examples=300, deadline=None)
@given(_FILES, st.data())
def test_load_survives_single_bit_flips(file, data):
    # half the flips land in the record heads, a few hundred bytes of the file
    blob, _, heads = file
    byte = data.draw(st.one_of(st.integers(0, len(blob) - 1), st.sampled_from(heads)))
    flipped = bytearray(blob)
    flipped[byte] ^= 1 << data.draw(st.integers(0, 7))
    _load_or_data_error(bytes(flipped))


@settings(max_examples=300, deadline=None)
@given(_FILES, st.data())
def test_load_survives_printable_header_edits(file, data):
    blob, n, _ = file
    edited = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        edited[12 + data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0x20, 0x7E))
    _load_or_data_error(bytes(edited))


@settings(max_examples=200, deadline=None)
@given(_FILES, st.data())
def test_load_rejects_every_truncation(file, data):
    blob, _, _ = file
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(TruncatedError):
        M.load(blob[:cut])


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


def _hooked_walk(model, x):
    """``run_layers`` with a hook that records every call; the hook's outputs
    chain into the next layer's input and the last one is the result."""
    calls = []
    raw = M.run_layers(model, x, lambda *call: calls.append(call))
    assert [c[0] for c in calls] == list(range(len(model.spec.layers)))
    assert calls[0][1] is x and calls[-1][2] is raw
    assert all(nxt[1] is call[2] for call, nxt in zip(calls, calls[1:]))
    return raw, calls


def test_run_layers_hook_sees_each_float_layer_with_its_columns(rng):
    model = _small_model()
    x = rng.random((2, 8, 8, 3), dtype=np.float32)
    raw, calls = _hooked_walk(model, x)
    for i, x_in, out, cols in calls:
        layer = model.spec.layers[i]
        if layer.kind == "maxpool":
            assert cols is None
            np.testing.assert_array_equal(
                out, maxpool2d_batched(x_in, layer.kernel[0], layer.stride))
        else:
            want, _, _ = im2col(x_in, *layer.kernel, layer.stride, layer.padding)
            np.testing.assert_array_equal(cols, want)
    np.testing.assert_array_equal(M.run_layers(model, x), raw)


def test_run_layers_hook_gets_no_columns_on_the_8bit_path(rng):
    model = _small_model()
    img = rng.random((8, 8, 3), dtype=np.float32)
    qmodel = M.quantize_model(model, calibrate(model, [img]))
    q = quantize_with(img, qmodel.calibration.input_range)
    raw, calls = _hooked_walk(qmodel, q)
    assert all(cols is None for _, _, _, cols in calls)
    np.testing.assert_array_equal(M.run_layers(qmodel, q).data, raw.data)


@st.composite
def _drawn_network(draw):
    """A config of 1-3 convs (kernel sides 1-7, stride 1-2, same or valid
    padding) and 2-3 pools (size and stride 1-3) in a drawn order."""
    convs = [{"kind": "conv", "kernel": [draw(st.integers(1, 7)), draw(st.integers(1, 7))],
              "out_channels": draw(st.integers(1, 3)), "stride": draw(st.integers(1, 2)),
              "padding": draw(st.sampled_from(["same", "valid"]))}
             for _ in range(draw(st.integers(1, 3)))]
    pools = [{"kind": "maxpool", "size": draw(st.integers(1, 3)),
              "stride": draw(st.integers(1, 3))} for _ in range(draw(st.integers(2, 3)))]
    return {"convdet_channels": 2, "boxes_per_cell": 1,
            "backbone": draw(st.permutations(convs + pools))}


@settings(max_examples=150, deadline=None)
@given(_drawn_network(), st.integers(1, 3), st.integers(1, 3))
def test_layer_shapes_agree_with_the_walk_and_the_cost_model(config, mh, mw):
    spec = M.build_lcdet(config)
    h, w = spec.total_stride * mh, spec.total_stride * mw
    assume(max(h, w) <= 96)
    model = M.init_model(spec, seed=0)
    image = np.random.default_rng(0).random((h, w, 3), dtype=np.float32)
    seen = []
    hook = lambda i, x, out, cols: seen.append(out.shape[1:])  # noqa: E731
    try:
        grid = M.check_resolution(spec, h, w)
    except ConfigError:
        # a valid-padded kernel or a pool window overhangs its input: so must the walk
        with pytest.raises(ConfigError):
            M.run_layers(model, image[None], hook)
        return
    M.run_layers(model, image[None], hook)
    assert M.layer_shapes(spec, h, w) == [(h, w, 3), *seen]
    assert [(l.out_h, l.out_w, l.out_c) for l in analyze(spec, (w, h)).layers] == seen
    assert M.forward(model, image).shape[:2] == grid


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
