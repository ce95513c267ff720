"""Recording / annotation IO and segment extraction."""

import json

import numpy as np
import pytest

from spindlemine.errors import InputError
from spindlemine.signals import (
    Recording,
    SpindleAnnotation,
    extract_segments,
    read_annotations_json,
    read_recording_csv,
    read_segments_json,
    write_segments_json,
)


def make_recording(fs=10.0, n=100, channels=("C3", "C4")):
    data = np.stack([np.arange(n) + 1000 * k for k in range(len(channels))])
    return Recording(sample_rate=fs, channels=tuple(channels), data=data.astype(float))


def test_recording_validation():
    with pytest.raises(InputError):
        Recording(sample_rate=0.0, channels=("C3",), data=np.zeros((1, 5)))
    with pytest.raises(InputError):
        Recording(sample_rate=10.0, channels=("C3", "C3"), data=np.zeros((2, 5)))
    with pytest.raises(InputError):
        Recording(sample_rate=10.0, channels=("C3",), data=np.zeros(5))
    rec = make_recording()
    assert rec.n_samples == 100
    assert rec.duration_s == 10.0
    with pytest.raises(InputError):
        rec.channel("Oz")


def test_extract_index_arithmetic():
    rec = make_recording(fs=10.0, n=100)
    ann = SpindleAnnotation(id="s1", start_s=1.0, end_s=2.5, channel="C3")
    [(got_ann, seg)] = extract_segments(rec, [ann])
    assert got_ann is ann
    # [floor(1.0*10), floor(2.5*10)) = samples 10..24
    assert len(seg) == 15
    assert list(seg) == list(range(10, 25))


def test_extract_whole_channel_and_second_channel():
    rec = make_recording(fs=10.0, n=100)
    whole = SpindleAnnotation(id="w", start_s=0.0, end_s=10.0, channel="C4")
    [(_, seg)] = extract_segments(rec, [whole])
    assert len(seg) == 100
    assert seg[0] == 1000.0


def test_extract_segment_is_a_copy():
    rec = make_recording()
    [(_, seg)] = extract_segments(
        rec, [SpindleAnnotation(id="s", start_s=0.0, end_s=1.0, channel="C3")]
    )
    seg[0] = -1.0
    assert rec.channel("C3")[0] == 0.0


def test_extract_errors_carry_the_annotation_id():
    rec = make_recording(fs=10.0, n=100)
    cases = [
        SpindleAnnotation(id="beyond", start_s=9.0, end_s=11.0, channel="C3"),
        SpindleAnnotation(id="badspan", start_s=2.0, end_s=2.0, channel="C3"),
        SpindleAnnotation(id="negative", start_s=-1.0, end_s=1.0, channel="C3"),
        SpindleAnnotation(id="nochan", start_s=0.0, end_s=1.0, channel="Oz"),
        SpindleAnnotation(id="tiny", start_s=0.01, end_s=0.02, channel="C3"),
    ]
    for ann in cases:
        with pytest.raises(InputError, match=ann.id):
            extract_segments(rec, [ann])


# ---------------------------------------------------------------------------
# recording CSV
# ---------------------------------------------------------------------------


def test_read_recording_with_time_column(tmp_path):
    path = tmp_path / "rec.csv"
    lines = ["time,C3,C4"]
    for i in range(20):
        lines.append(f"{i * 0.25},{float(i)},{float(-i)}")
    path.write_text("\n".join(lines) + "\n")
    rec = read_recording_csv(str(path))
    assert rec.sample_rate == pytest.approx(4.0)
    assert rec.channels == ("C3", "C4")
    assert rec.data.shape == (2, 20)
    assert rec.channel("C4")[3] == -3.0


def test_read_recording_explicit_rate_wins(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("time,C3\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    rec = read_recording_csv(str(path), sample_rate=100.0)
    assert rec.sample_rate == 100.0


def test_read_recording_without_time_column(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("C3\n1.0\n2.0\n")
    rec = read_recording_csv(str(path), sample_rate=50.0)
    assert rec.sample_rate == 50.0 and rec.n_samples == 2
    with pytest.raises(InputError):
        read_recording_csv(str(path))  # no rate available anywhere


def test_read_recording_rejects_garbage(tmp_path):
    nonuniform = tmp_path / "nu.csv"
    nonuniform.write_text("time,C3\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
    with pytest.raises(InputError):
        read_recording_csv(str(nonuniform))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("time,C3\n0.0,1.0\n0.1\n")
    with pytest.raises(InputError):
        read_recording_csv(str(ragged))
    text = tmp_path / "text.csv"
    text.write_text("time,C3\n0.0,high\n")
    with pytest.raises(InputError):
        read_recording_csv(str(text))
    empty = tmp_path / "empty.csv"
    empty.write_text("time,C3\n")
    with pytest.raises(InputError):
        read_recording_csv(str(empty))
    with pytest.raises(InputError):
        read_recording_csv(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_read_recording_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "rec.csv"
    path.write_text(f"time,C3,C4\n0.0,1.0,2.0\n0.5,3.0,{cell}\n1.0,5.0,6.0\n")
    with pytest.raises(InputError) as err:
        read_recording_csv(str(path))
    message = str(err.value)
    assert str(path) in message
    assert "row 3" in message and "'C4'" in message and repr(cell) in message


# ---------------------------------------------------------------------------
# annotations JSON
# ---------------------------------------------------------------------------


def test_read_annotations(tmp_path):
    path = tmp_path / "anns.json"
    path.write_text(json.dumps([
        {"id": "s1", "start_s": 1.0, "end_s": 2.0, "channel": "C3"},
        {"id": "s2", "start_s": 3, "end_s": 4, "channel": "C4"},
    ]))
    anns = read_annotations_json(str(path))
    assert [a.id for a in anns] == ["s1", "s2"]
    assert anns[1].start_s == 3.0 and isinstance(anns[1].start_s, float)


def test_read_annotations_accepts_duration(tmp_path):
    path = tmp_path / "anns.json"
    path.write_text(json.dumps([
        {"id": "s1", "channel": "C3", "start_s": 0.5, "duration_s": 1.0},
        {"id": "s2", "channel": "C3", "start_s": 3.0, "end_s": 4.25},
    ]))
    anns = read_annotations_json(str(path))
    assert [(a.start_s, a.end_s) for a in anns] == [(0.5, 1.5), (3.0, 4.25)]


@pytest.mark.parametrize("ends", [{}, {"end_s": 2.0, "duration_s": 1.0}])
def test_read_annotations_needs_exactly_one_end_key(tmp_path, ends):
    path = tmp_path / "anns.json"
    path.write_text(json.dumps([
        {"id": "s1", "channel": "C3", "start_s": 0.0, "end_s": 1.0},
        {"id": "s2", "channel": "C3", "start_s": 1.0, **ends},
    ]))
    with pytest.raises(InputError) as err:
        read_annotations_json(str(path))
    message = str(err.value)
    assert str(path) in message and "annotation 1" in message
    assert "end_s" in message and "duration_s" in message


def test_read_annotations_errors(tmp_path):
    def check(payload):
        p = tmp_path / "bad.json"
        p.write_text(payload)
        with pytest.raises(InputError):
            read_annotations_json(str(p))

    check("{}")  # not a list
    check("[42]")  # not an object
    check(json.dumps([{"id": "s1", "start_s": 0.0}]))  # missing keys
    check(json.dumps([
        {"id": "dup", "start_s": 0.0, "end_s": 1.0, "channel": "C3"},
        {"id": "dup", "start_s": 2.0, "end_s": 3.0, "channel": "C3"},
    ]))
    check("not json")
    with pytest.raises(InputError):
        read_annotations_json(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# segments JSON
# ---------------------------------------------------------------------------


def test_segments_round_trip(tmp_path):
    rec = make_recording(fs=10.0, n=50)
    anns = [
        SpindleAnnotation(id="a", start_s=0.0, end_s=1.0, channel="C3"),
        SpindleAnnotation(id="b", start_s=2.0, end_s=4.5, channel="C4"),
    ]
    segments = extract_segments(rec, anns)
    path = tmp_path / "segments.json"
    write_segments_json(str(path), segments, rec.sample_rate)
    back = read_segments_json(str(path))
    assert len(back) == 2
    for (ann, samples), (got_ann, fs, got_samples) in zip(segments, back):
        assert got_ann == ann
        assert fs == 10.0
        assert np.array_equal(got_samples, samples)


def test_read_segments_errors(tmp_path):
    p = tmp_path / "seg.json"
    p.write_text(json.dumps([{"id": "s", "start_s": 0.0}]))
    with pytest.raises(InputError):
        read_segments_json(str(p))
    p.write_text("{}")
    with pytest.raises(InputError):
        read_segments_json(str(p))
    with pytest.raises(InputError):
        read_segments_json(str(tmp_path / "missing.json"))
