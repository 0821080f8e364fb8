import ast
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcdet
from lcdet.cli import main
from lcdet.data import (GroundTruthBox, load_annotations, load_dataset, read_ppm,
                        synth_dataset, write_dataset, write_ppm)
from lcdet.errors import DataError, UsageError, finite, json_is
from lcdet.model import init_model, save

from conftest import JSON_SCALARS, JSON_VALUES, model_with_header, tiny_net_spec


def test_ppm_round_trip(tmp_path, rng):
    img = rng.random((20, 30, 3), dtype=np.float32)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (20, 30, 3)
    # u8 storage quantizes to 1/255 steps
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6


def test_ppm_rejects_wrong_shape(tmp_path):
    with pytest.raises(DataError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.float32))


def test_ppm_reads_comments(tmp_path):
    raw = b"P6\n# a comment\n2 1\n255\n" + bytes(6)
    path = tmp_path / "c.ppm"
    path.write_bytes(raw)
    img = read_ppm(path)
    assert img.shape == (1, 2, 3)


def test_ppm_truncated(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataError, match="truncated"):
        read_ppm(path)


@pytest.mark.parametrize("header", [b"P6 -3 -1 255\n", b"P6 0 5 255\n", b"P6 4 0 255\n"])
def test_ppm_rejects_a_size_without_pixels(tmp_path, header):
    path = tmp_path / "n.ppm"
    path.write_bytes(header + bytes(9))
    with pytest.raises(DataError, match="no pixels"):
        read_ppm(path)


def _read_ppm_or_data_error(path, blob):
    """``read_ppm`` either returns an (H, W, 3) float image or raises a data error."""
    path.write_bytes(blob)
    try:
        img = read_ppm(path)
    except DataError:
        return
    assert img.dtype == np.float32 and img.ndim == 3 and img.shape[2] == 3
    assert min(img.shape) >= 1 and 0.0 <= img.min() <= img.max() <= 1.0


_PPM_JUNK = st.one_of(st.text("0123456789+-_.x#\n", max_size=5), st.just("9" * 5000))
_PPM_SIDE = st.one_of(st.integers(-3, 9).map(str), _PPM_JUNK)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([b"P6", b"P6 ", b"P5", b""]),
       st.tuples(_PPM_SIDE, _PPM_SIDE, st.one_of(st.just("255"), _PPM_JUNK)),
       st.sampled_from([" ", "\n", "\t", " \n# c\n"]), st.binary(max_size=300))
def test_read_ppm_survives_drawn_headers(tmp_path_factory, magic, fields, sep, payload):
    header = magic + sep.join(fields).encode() + sep.encode()
    _read_ppm_or_data_error(tmp_path_factory.getbasetemp() / "drawn.ppm", header + payload)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_ppm_survives_byte_edits_and_truncation(tmp_path_factory, data):
    blob = bytearray(b"P6\n# c\n5 3\n255\n" + bytes(range(45)))
    for _ in range(data.draw(st.integers(0, 3))):
        blob[data.draw(st.integers(0, 20))] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    _read_ppm_or_data_error(tmp_path_factory.getbasetemp() / "edited.ppm", bytes(blob[:cut]))


_BOX_ENTRIES = st.fixed_dictionaries(
    {"box": st.one_of(st.lists(JSON_SCALARS, min_size=3, max_size=5), JSON_VALUES)},
    optional={"class_id": JSON_SCALARS})
_ANNOTATIONS = st.one_of(JSON_VALUES, st.dictionaries(
    st.text(max_size=4), st.one_of(JSON_VALUES, st.lists(st.one_of(_BOX_ENTRIES, JSON_VALUES),
                                                         max_size=4)), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ANNOTATIONS.map(lambda v: json.dumps(v).encode()), st.binary(max_size=60)))
def test_load_annotations_survives_drawn_files(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "ann.json"
    path.write_bytes(blob)
    try:
        out = load_annotations(path)
    except DataError:
        return
    assert all(isinstance(name, str) and all(isinstance(b, GroundTruthBox) for b in boxes)
               for name, boxes in out.items())


_TINY_MODEL = save(init_model(tiny_net_spec(), seed=0))
# each JSON reader: the file drawn bytes go into, and the command that reads it
_JSON_READERS = {
    "model header": ("m.lcdet", lambda blob: model_with_header(_TINY_MODEL, blob),
                     ["analyze", "--model", "{}", "--input", "8x8"]),
    "scenario": ("s.json", lambda blob: blob,
                 ["analyze", "--profile", "toy", "--input", "16x16", "--scenario", "{}"]),
    "detection line": ("d.jsonl", lambda blob: blob + b"\n",
                       ["eval", "--detections", "{}", "--ground-truth", "{gt}"]),
}
_DETECTION = st.fixed_dictionaries(
    {"image_id": JSON_SCALARS, "box": st.one_of(st.lists(JSON_SCALARS, max_size=5), JSON_VALUES),
     **{k: JSON_SCALARS for k in ("class_id", "class_prob", "confidence", "score")}})
_SCENARIO = st.fixed_dictionaries({}, optional={
    "compute_rate": JSON_SCALARS,
    "bandwidths_gbps": st.one_of(st.lists(JSON_SCALARS, max_size=3), JSON_VALUES)})


@pytest.mark.parametrize("reader", list(_JSON_READERS))
@settings(max_examples=150, deadline=None)
@given(blob=st.one_of(st.one_of(JSON_VALUES, _DETECTION, _SCENARIO).map(
    lambda v: json.dumps(v).encode()), st.binary(max_size=60)))
@example(blob=b"[" * 100000 + b"]" * 100000)
@example(blob=b'{"compute_rate": ' + b"9" * 5000 + b"}")
@example(blob=b'{"bandwidths_gbps": [1' + b"0" * 400 + b"]}")
@example(blob=b'{"bandwidths_gbps": [9007199254740992.0]}')  # one plotted value, 2**53
def test_json_readers_survive_drawn_bytes(tmp_path_factory, reader, blob):
    # whatever the bytes, the command succeeds or ends in a data error (exit 2)
    tmp = tmp_path_factory.getbasetemp()
    name, wrap, argv = _JSON_READERS[reader]
    (tmp / name).write_bytes(wrap(blob))
    (tmp / "gt.json").write_text('{"a": [{"box": [8, 8, 4, 4]}]}')
    argv = [a.format(str(tmp / name), gt=tmp / "gt.json") for a in argv]
    assert main([*argv, "--out", str(tmp / "out"), "--force"]) in (0, 2)


@pytest.mark.parametrize("value, ok", [(1, True), (-2.5, True), (True, False), (None, False),
                                       ("1", False), (float("nan"), False),
                                       (float("-inf"), False), (10 ** 400, False)])
def test_finite_is_a_number_a_float64_holds(value, ok):
    assert finite(value) is ok


def test_a_list_kind_is_a_list_of_exactly_those_kinds():
    assert json_is([3, 3], [int, int]) and json_is([1, 0.5], [int, float])
    assert not any(json_is(v, [int, int]) for v in ([3], [3, 3, 3], [3, 3.0], (3, 3), [True, 1]))


def _json_decodes(tree):
    """Calls of ``json.load``/``json.loads`` under ``tree``, and imports of either."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name) and n.func.value.id == "json"
            and n.func.attr in ("load", "loads")
            or isinstance(n, ast.ImportFrom) and n.module == "json"
            and {a.name for a in n.names} & {"load", "loads"}]


def test_json_is_decoded_in_one_function():
    # every JSON input goes through errors.parse_json; a reader that decodes
    # JSON itself would get round its DataError
    outside, inside = [], []
    for path in sorted(pathlib.Path(lcdet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        decoder = [id(n) for f in ast.walk(tree) if path.name == "errors.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "parse_json"
                   for n in _json_decodes(f)]
        inside += decoder
        outside += [f"{path.name}:{n.lineno}" for n in _json_decodes(tree) if id(n) not in decoder]
    assert outside == [] and len(inside) == 1


def test_dataset_round_trip(tmp_path):
    ds = synth_dataset(3, (32, 32), seed=9)
    write_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert len(back) == 3
    for (img_a, gts_a), (img_b, gts_b) in zip(ds, back):
        assert np.abs(img_a - img_b).max() <= 0.5 / 255 + 1e-6
        assert [g.box for g in gts_a] == [tuple(map(pytest.approx, g.box))
                                          for g in gts_b]
        assert [g.class_id for g in gts_a] == [g.class_id for g in gts_b]


def test_load_dataset_missing_annotations(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(UsageError):
        load_dataset(tmp_path / "empty")


def test_annotation_errors_name_the_file(tmp_path):
    bad = tmp_path / "ann.json"
    bad.write_text('{"a.ppm": [{"box": [1, 2, 3]}]}')
    with pytest.raises(DataError, match="a.ppm"):
        load_annotations(bad)
