import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdet import detector
from lcdet.detector import (Detection, box_iou, decode, fddb_text, iou, nms,
                            read_jsonl, write_jsonl)
from lcdet.errors import ConfigError


def _grid(gh=7, gw=7, c=1, k=3):
    return np.zeros((gh, gw, c + 5 * k), dtype=np.float32)


def test_decode_center_cell():
    g = _grid()
    g[3, 3, 0] = 1.0                      # class prob
    g[3, 3, 1] = 1.0                      # confidence, box 0
    g[3, 3, 2:4] = 0.5                    # x, y
    g[3, 3, 4:6] = 0.5                    # sqrt extents
    dets = decode(g, (448, 448), 1, 3, score_threshold=0.5)
    assert len(dets) == 1
    cx, cy, w, h = dets[0].box
    assert (cx, cy) == (pytest.approx(224.0), pytest.approx(224.0))
    assert w == pytest.approx(0.25 * 448)


def test_decode_full_span_clamp():
    g = _grid()
    g[0, 0, 0] = 1.0
    g[0, 0, 1] = 1.0
    g[0, 0, 4:6] = 7.0  # clamped to 1 before squaring
    d = decode(g, (448, 448), 1, 3, score_threshold=0.5)[0]
    assert d.box[2] == pytest.approx(448.0)
    assert d.box[3] == pytest.approx(448.0)


def test_decode_zero_confidence_empty():
    dets = decode(_grid(), (448, 448), 1, 3, score_threshold=0.01)
    assert dets == []


def test_decode_channel_mismatch():
    with pytest.raises(ConfigError):
        decode(np.zeros((7, 7, 15), dtype=np.float32), (448, 448), 1, 3)


def test_decode_score_is_confidence_times_class_prob():
    g = _grid()
    g[2, 5, 0] = 0.8
    g[2, 5, 1] = 0.5
    d = decode(g, (448, 448), 1, 3, score_threshold=0.1)[0]
    assert d.score == pytest.approx(0.4)
    assert d.confidence == pytest.approx(0.5)
    assert d.class_prob == pytest.approx(0.8)


def test_decode_translation_equivariance():
    g = _grid()
    vec = np.array([0.9, 0.7, 0.3, 0.6, 0.4, 0.5] + [0.0] * 10, dtype=np.float32)
    g[1, 2] = vec
    g[4, 6] = vec
    dets = decode(g, (448, 448), 1, 3, score_threshold=0.3)
    assert len(dets) == 2
    a, b = sorted(dets, key=lambda d: d.box[0])
    assert b.box[0] - a.box[0] == pytest.approx((6 - 2) * 64)
    assert b.box[1] - a.box[1] == pytest.approx((4 - 1) * 64)
    assert a.box[2:] == pytest.approx(b.box[2:])


def _det(cx, cy, w, h, score, class_id=0):
    return Detection(box=(cx, cy, w, h), class_id=class_id,
                     class_prob=1.0, confidence=score, score=score)


def test_iou_identical():
    assert iou((10, 10, 4, 4), (10, 10, 4, 4)) == pytest.approx(1.0)


def test_iou_disjoint():
    assert iou((0, 0, 2, 2), (10, 10, 2, 2)) == 0.0


def test_iou_partial_overlap():
    # corner form (0,0,2,2) and (1,0,3,2): intersection 2, union 6
    a = (1.0, 1.0, 2.0, 2.0)   # center form of (0,0)-(2,2)
    b = (2.0, 1.0, 2.0, 2.0)   # center form of (1,0)-(3,2)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_zero_area():
    assert iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


def test_iou_symmetric(rng):
    for _ in range(50):
        a = tuple(rng.uniform(0, 10, 2)) + tuple(rng.uniform(0.1, 5, 2))
        b = tuple(rng.uniform(0, 10, 2)) + tuple(rng.uniform(0.1, 5, 2))
        assert iou(a, b) == pytest.approx(iou(b, a))
        assert 0.0 <= iou(a, b) <= 1.0


def test_nms_single():
    d = _det(5, 5, 2, 2, 0.9)
    assert nms([d], 0.5) == [d]


def test_nms_identical_boxes():
    hi = _det(5, 5, 2, 2, 0.9)
    lo = _det(5, 5, 2, 2, 0.8)
    assert nms([lo, hi], 0.5) == [hi]


def test_nms_hand_traced():
    a = _det(10, 10, 4, 4, 0.9)
    b = _det(11, 10, 4, 4, 0.8)      # IoU with a ~ 0.6
    c = _det(16, 10, 4, 4, 0.7)      # low IoU with both
    assert iou(a.box, b.box) > 0.5
    assert iou(a.box, c.box) < 0.5 and iou(b.box, c.box) < 0.5
    kept = nms([a, b, c], 0.5)
    assert kept == [a, c]


def test_nms_idempotent_and_pairwise_bound(rng):
    dets = [_det(rng.uniform(0, 20), rng.uniform(0, 20),
                 rng.uniform(1, 6), rng.uniform(1, 6), rng.random())
            for _ in range(30)]
    kept = nms(dets, 0.4)
    assert len(kept) <= len(dets)
    assert nms(kept, 0.4) == kept
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            if a.class_id == b.class_id:
                assert iou(a.box, b.box) < 0.4


def test_nms_is_per_class():
    a = _det(5, 5, 2, 2, 0.9, class_id=0)
    b = _det(5, 5, 2, 2, 0.8, class_id=1)
    assert nms([a, b], 0.5) == [a, b]


# quarter-pixel lattice values make identical boxes, touching edges and zero or
# negative extents common; free floats cover the rest
_coord = st.one_of(st.integers(-40, 40).map(lambda v: v / 4),
                   st.floats(-1e3, 1e3, allow_nan=False))
_extent = st.one_of(st.integers(-8, 40).map(lambda v: v / 4),
                    st.floats(-10.0, 1e3, allow_nan=False))
_box = st.tuples(_coord, _coord, _extent, _extent)


@settings(max_examples=200, deadline=None)
@given(st.lists(_box, min_size=1, max_size=10))
def test_box_iou_bitwise_equals_iou(boxes):
    got = box_iou(np.array(boxes)[:, None], np.array(boxes)[None])
    want = np.array([[iou(a, b) for b in boxes] for a in boxes])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_box, _box)
def test_iou_symmetric_and_in_unit_interval(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0
    assert 0.0 <= iou(a, a) <= 1.0


def test_iou_of_a_box_with_itself_is_at_most_one():
    # rounded corners make this box's self-overlap an ulp larger than its area
    box = (-53.09171902873855, -89.53080457152596, 23.512716806059753, 19.938423466560863)
    assert iou(box, box) == 1.0
    assert box_iou(box, box) == 1.0


def _scalar_nms(dets, iou_threshold):
    """The greedy loop that ``nms`` replaced: one scalar IoU per pair."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        d = dets[i]
        ok = True
        for j in kept:
            other = dets[j]
            if other.class_id == d.class_id and iou(other.box, d.box) >= iou_threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


_lattice_box = st.tuples(*(st.integers(0, 12).map(lambda v: v / 2),) * 2,
                         *(st.integers(0, 8).map(lambda v: v / 2),) * 2)
_dets = st.lists(st.builds(lambda box, cls, score: Detection(box, cls, 1.0, score, score),
                           _lattice_box, st.integers(0, 2),
                           st.sampled_from([0.25, 0.5, 0.75, 1.0])), max_size=40)
_thresholds = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(_dets, _thresholds)
def test_nms_matches_scalar_greedy(dets, threshold):
    want = [id(d) for d in _scalar_nms(dets, threshold)]
    for block in (3, detector.NMS_BLOCK):  # several blocks, and one
        with mock.patch.object(detector, "NMS_BLOCK", block):
            assert [id(d) for d in nms(dets, threshold)] == want


@settings(max_examples=100, deadline=None)
@given(_dets, _thresholds)
def test_nms_idempotent(dets, threshold):
    kept = nms(dets, threshold)
    assert nms(kept, threshold) == kept


def test_nms_memory_stays_below_a_quarter_of_the_iou_matrix():
    rng = np.random.default_rng(7)
    n = 4096
    # jittered copies of 40 separated boxes per class: thousands of candidates,
    # few survivors, so the scalar reference stays quick
    anchors = np.array([(50 + 100 * (a % 8), 50 + 100 * (a // 8), 40, 30) for a in range(40)])
    boxes = anchors[rng.integers(0, 40, n)] + rng.uniform(-1.5, 1.5, (n, 4))
    scores = np.round(rng.random(n), 1)  # many ties
    dets = [Detection(tuple(b.tolist()), int(c), 1.0, float(s), float(s))
            for b, c, s in zip(boxes, rng.integers(0, 3, n), scores)]
    tracemalloc.start()
    try:
        kept = nms(dets, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    assert [id(d) for d in kept] == [id(d) for d in _scalar_nms(dets, 0.5)]


def test_jsonl_round_trip(tmp_path):
    dets = {"img0.ppm": [_det(1, 2, 3, 4, 0.5)],
            "img1.ppm": [_det(5, 6, 7, 8, 0.25), _det(9, 10, 1, 2, 0.75)]}
    path = tmp_path / "dets.jsonl"
    write_jsonl(path, dets)
    back = read_jsonl(path)
    assert back.keys() == dets.keys()
    assert back["img1.ppm"][1].box == dets["img1.ppm"][1].box
    assert back["img1.ppm"][0].score == dets["img1.ppm"][0].score


def test_fddb_text_format():
    text = fddb_text("imgs/a.ppm", [_det(10, 20, 4, 8, 0.5)])
    lines = text.splitlines()
    assert lines[0] == "imgs/a.ppm"
    assert lines[1] == "1"
    left, top, w, h, score = lines[2].split()
    assert float(left) == pytest.approx(8.0)
    assert float(top) == pytest.approx(16.0)
    assert float(w) == pytest.approx(4.0)
    assert float(score) == pytest.approx(0.5)
