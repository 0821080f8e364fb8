import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdet.data import (GroundTruthBox, load_annotations, load_dataset, read_ppm,
                        synth_dataset, write_dataset, write_ppm)
from lcdet.errors import DataError, UsageError

from conftest import JSON_SCALARS, JSON_VALUES


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
