"""Recording / annotation IO and segment extraction."""

import contextlib
import csv
import json
import os
import re
import signal
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spindlemine import signals
from spindlemine.cli import main
from spindlemine.errors import InputError
from spindlemine.signals import (
    Recording,
    SpindleAnnotation,
    extract_segments,
    read_annotations_json,
    read_recording_csv,
    read_recording_segments,
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
        SpindleAnnotation(id="one-beyond", start_s=9.0, end_s=10.1, channel="C3"),  # 101 samples
        SpindleAnnotation(id="badspan", start_s=2.0, end_s=2.0, channel="C3"),
        SpindleAnnotation(id="negative", start_s=-1.0, end_s=1.0, channel="C3"),
        SpindleAnnotation(id="nochan", start_s=0.0, end_s=1.0, channel="Oz"),
        SpindleAnnotation(id="tiny", start_s=0.01, end_s=0.02, channel="C3"),
        # end * fs overflows to inf, which has no floor
        SpindleAnnotation(id="endless", start_s=0.0, end_s=1e308, channel="C3"),
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


@pytest.mark.parametrize("header", ["time,C3", "C3,C4"])
def test_read_recording_ignores_a_byte_order_mark(tmp_path, header):
    # Excel's "CSV UTF-8" export starts the file with one; with the rate
    # given, it must not make the first column a channel named "\ufefftime"
    # or "\ufeffC3"
    text = (header + "\n0.0,1.0\n0.25,2.0\n0.5,4.0\n").encode()
    recordings = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        rec = read_recording_csv(str(path), sample_rate=100.0)
        recordings.append((rec.sample_rate, rec.channels, rec.data.tolist()))
    assert recordings[0] == recordings[1]


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


@pytest.mark.parametrize("times, rate", [
    (["0", "5e-324"], "inf"),  # 1 / 5e-324 overflows
    (["-1e308", "1e308"], "0.0"),  # the step overflows, so the span does too
    (["-1e308", "0", "1e308"], "0.0"),  # finite steps, an overflowing span
], ids=["tiny-step", "huge-step", "huge-span"])
def test_a_rate_beyond_the_float_range_exits_2_naming_the_file(tmp_path, capsys, times, rate):
    rec, anns = tmp_path / "rec.csv", tmp_path / "anns.json"
    rec.write_text("time,C3\n" + "".join(f"{t},{k}\n" for k, t in enumerate(times)))
    anns.write_text(json.dumps([{"id": "s", "start_s": 0.0, "end_s": 1.0, "channel": "C3"}]))
    want = (f"{rec}: inferred from the time column, "
            f"sample_rate must be finite and positive, got {rate}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(lambda: read_recording_csv(str(rec))) == want
        assert outcome(lambda: read_recording_segments(
            str(rec), [SpindleAnnotation("s", 0.0, 1.0, "C3")])) == want
        assert main(["extract", "--recording", str(rec), "--annotations", str(anns),
                     "--output", str(tmp_path / "out")]) == 2
    assert want in capsys.readouterr().err
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


def oracle_recording_matrix(path):
    """Header and sample matrix by ``csv.reader`` and ``float()``, cell by cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300, -123456789.125,
]

CELLS = st.tuples(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES)),
    st.sampled_from([repr, "{:.17g}".format]),
    st.booleans(),  # quoted
)


@st.composite
def recording_texts(draw, min_rows=2, max_rows=10):
    """CSV text of a random finite recording, and whether it has a time column."""
    n_channels = draw(st.integers(1, 4))
    n_rows = draw(st.integers(min_rows, max_rows))
    has_time = draw(st.booleans())
    dt = draw(st.sampled_from([1 / 256, 0.004, 0.5]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ["time"] * has_time + [f"C{k}" for k in range(n_channels)]
    lines = [",".join(header)]
    for i in range(n_rows):
        cells = [repr(i * dt)] * has_time
        for value, fmt, quoted in draw(st.lists(CELLS, min_size=n_channels,
                                                max_size=n_channels)):
            cells.append(f'"{fmt(value)}"' if quoted else fmt(value))
        lines.append(",".join(cells))
    return newline.join(lines) + newline, has_time


@settings(deadline=None, max_examples=200)
@given(recording_texts())
def test_read_recording_matches_float_oracle(drawn):
    text, has_time = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        rec = read_recording_csv(path, sample_rate=None if has_time else 256.0)
        header, matrix = oracle_recording_matrix(path)
    want = matrix[:, 1:].T if has_time else matrix.T
    assert rec.channels == tuple(header[1:] if has_time else header)
    # bit-identical: equal values, and -0.0 kept apart from 0.0
    assert np.array_equal(rec.data, want)
    assert np.array_equal(np.signbit(rec.data), np.signbit(want))
    if has_time:
        t = matrix[:, 0]
        assert rec.sample_rate == (len(t) - 1) / (t[-1] - t[0])


@pytest.mark.parametrize("bad, problem, column", [
    ("", "has 0 cells, expected 3", None),  # blank line
    ("0.5,1.0", "has 2 cells, expected 3", None),
    ("0.5,1.0,2.0,3.0", "has 4 cells, expected 3", None),
    ("0.5,high,2.0", "non-numeric cell", None),
    ("0.5,1.0,", "non-numeric cell", None),  # empty cell
    ("0.5,1_000,2.0", "non-numeric cell", None),  # float() accepts it, the grammar not
    ("0.5,1.0,nan", "non-finite value 'nan'", "C4"),
    ("0.5,inf,2.0", "non-finite value 'inf'", "C3"),
], ids=["blank", "short", "long", "text", "empty-cell", "underscore", "nan", "inf"])
@pytest.mark.parametrize("row", [2, 4, 6000])  # 6000: past the first locating block
def test_read_recording_locates_the_bad_row(tmp_path, bad, problem, column, row):
    lines = ["time,C3,C4"] + [f"{i / 4},1.0,2.0" for i in range(6001)]
    lines[row - 1] = bad
    path = tmp_path / "rec.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as err:
        read_recording_csv(str(path))
    message = str(err.value)
    assert str(path) in message and problem in message
    assert re.search(rf"\brow {row}\b", message)
    if column is not None:
        assert f"column {column!r}" in message


@pytest.mark.parametrize("body, row", [
    ("0.0,1.0\n0.5,2.0\n\n", 4),
    ("0.0,1.0\n0.5,2.0\n\n\n", 4),
    ("0.0,1.0\r\n0.5,2.0\r\n\r\n", 4),
    ("\n", 2),  # nothing but a blank line
    ("\n\n\n", 2),
])
def test_read_recording_rejects_trailing_blank_lines(tmp_path, body, row):
    path = tmp_path / "rec.csv"
    with open(path, "w", newline="") as fh:
        fh.write("time,C3\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no "input contained no data" warning
        with pytest.raises(InputError) as err:
            read_recording_csv(str(path))
    message = str(err.value)
    assert str(path) in message and f"row {row} has 0 cells, expected 2" in message


def bad_row_message(path):
    with pytest.raises(InputError) as err:
        read_recording_csv(path)
    return str(err.value)


@settings(deadline=None, max_examples=200)
@given(recording_texts(), st.integers(1, 5))
def test_block_size_does_not_change_a_valid_recording(drawn, block):
    # the reader parses the body a block of lines at a time; rows on both
    # sides of a block boundary must land in the same matrix
    text, has_time = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        rate = None if has_time else 256.0
        want = read_recording_csv(path, sample_rate=rate).data
        with mock.patch.object(signals, "_BLOCK", block):
            got = read_recording_csv(path, sample_rate=rate).data
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


BAD_LINES = ["", "0.5,1.0", "0.5,1.0,2.0,3.0", "0.5,high,2.0", "0.5,1.0,nan", "0.5,inf,2.0"]


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.data(), st.sampled_from(BAD_LINES), st.integers(1, 5),
       st.sampled_from(["\n", "\r\n"]))
def test_block_size_does_not_change_the_bad_row(n_rows, data, bad, block, newline):
    # a bad line is located inside the block that holds it, whichever
    # line of which block that is
    row = data.draw(st.integers(2, n_rows + 1), label="row")
    lines = ["time,C3,C4"] + [f"{i / 4},1.0,2.0" for i in range(n_rows)]
    lines[row - 1] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(newline.join(lines) + newline)
        want = bad_row_message(path)
        with mock.patch.object(signals, "_BLOCK", block):
            got = bad_row_message(path)
    assert re.search(rf"\brow {row}\b", want)
    assert got == want


@pytest.mark.parametrize("extra", [-1, 0, 1, signals._BLOCK + 3])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last_newline", [True, False])
def test_read_recording_around_block_borders(tmp_path, extra, newline, last_newline):
    n = signals._BLOCK + extra
    path = tmp_path / "rec.csv"
    text = newline.join(["time,C3,C4"] + [f"{i / 4},{i * 0.1!r},{-i}" for i in range(n)])
    with open(path, "w", newline="") as fh:
        fh.write(text + newline * last_newline)
    rec = read_recording_csv(str(path))
    _, matrix = oracle_recording_matrix(path)
    assert rec.data.shape == (2, n) and rec.sample_rate == 4.0
    assert np.array_equal(rec.data, matrix[:, 1:].T)
    assert rec.data.flags.c_contiguous


def outcome(read):
    """``read()``'s result, or the message of the InputError it raises."""
    try:
        return read()
    except InputError as exc:
        return str(exc)


def segments_outcome(read):
    got = outcome(read)
    if isinstance(got, str):
        return got
    sample_rate, segments = got
    return sample_rate, [(ann, samples.tobytes(), samples.flags.c_contiguous)
                         for ann, samples in segments]


def reference_segments(path, annotations, sample_rate):
    rec = read_recording_csv(path, sample_rate=sample_rate)
    return rec.sample_rate, extract_segments(rec, annotations)


@settings(deadline=None, max_examples=200)
@given(recording_texts(), st.integers(1, 5), st.data())
def test_read_recording_segments_equals_reading_then_cutting(drawn, block, data):
    # spans that cross block borders, overlap, touch the first or the last
    # row, or fail one of extract_segments' checks
    text, has_time = drawn
    rate = None if has_time else 256.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        rec = read_recording_csv(path, sample_rate=rate)
        n, fs = rec.n_samples, rec.sample_rate
        rows = st.integers(0, n)
        annotations = [
            SpindleAnnotation(id=f"s{k}", start_s=i0 / fs + shift, end_s=i1 / fs + shift,
                              channel=data.draw(st.sampled_from(rec.channels + ("Oz",))))
            for k, (i0, i1, shift) in enumerate(data.draw(st.lists(
                st.tuples(rows, rows, st.sampled_from([0.0, 0.0, 0.25 / fs, -1e-9])),
                min_size=1, max_size=5)))]
        with mock.patch.object(signals, "_BLOCK", block):
            got = segments_outcome(lambda: read_recording_segments(path, annotations, rate))
        want = segments_outcome(lambda: reference_segments(path, annotations, rate))
    assert got == want


_ROWS = ["time,C3,C4"] + [f"{i / 4},{i}.5,-{i}" for i in range(10)]  # 2.5 s at 4 Hz
# in blocks of 3 rows, only the step across the second border is not 0.25 s
_SHIFTED = _ROWS[:7] + [f"{i / 4 + 0.1},{i}.5,-{i}" for i in range(6, 10)]


@pytest.mark.parametrize("lines, annotations", [
    (_ROWS[:-1] + ["2.25,high,-9"], [("s", 0.0, 1.0, "C3")]),  # bad last line
    (_ROWS[:-1] + ["2.25,1.0"], [("s", 0.0, 1.0, "C3")]),
    (_ROWS[:-1] + [""], [("s", 0.0, 1.0, "C3")]),
    (_SHIFTED, [("s", 0.0, 1.0, "C3")]),
    (_ROWS[:1] + _ROWS[:0:-1], [("s", 0.0, 1.0, "C3")]),  # decreasing
    (_ROWS[:2], [("s", 0.0, 1.0, "C3")]),  # a single row
    (_ROWS[:1], [("s", 0.0, 1.0, "C3")]),  # no rows
    (["C3,C4"] + ["1,2"] * 3, [("s", 0.0, 1.0, "C3")]),  # no time column, no rate
    (["time"] + ["0", "0.25"], [("s", 0.0, 1.0, "C3")]),  # no channel columns
    (_ROWS, [("ok", 0.0, 1.0, "C3"), ("beyond", 2.0, 2.75, "C4"), ("nochan", 0.0, 1.0, "Oz")]),
    (_ROWS, [("nochan", 0.0, 1.0, "Oz"), ("beyond", 2.0, 2.75, "C4")]),
    (_ROWS, [("one-beyond", 2.0, 2.75, "C4")]),  # ends at sample 11 of 10
    (_ROWS, [("empty", 1.0, 1.0, "C3")]),
    (_ROWS, [("negative", -0.5, 1.0, "C3")]),
    (_ROWS, [("tiny", 0.01, 0.02, "C3")]),
    (_ROWS, [("endless", 0.0, 1e308, "C4")]),
    # a recording error comes before a span error
    (_ROWS[:-1] + ["2.25,high,-9"], [("beyond", 2.0, 2.75, "C4")]),
    (_SHIFTED, [("nochan", 0.0, 1.0, "Oz")]),
], ids=["bad-last-line", "short-last-line", "blank-last-line", "non-uniform", "decreasing",
        "single-row", "no-rows", "no-rate", "no-channels", "beyond", "unknown-channel",
        "one-beyond",
        "empty-span", "negative-start", "no-complete-sample", "end-overflows",
        "bad-row-before-span", "non-uniform-before-span"])
def test_read_recording_segments_raises_what_reading_then_cutting_raises(
        tmp_path, lines, annotations):
    path = tmp_path / "rec.csv"
    path.write_text("\n".join(lines) + "\n")
    annotations = [SpindleAnnotation(*fields) for fields in annotations]
    with mock.patch.object(signals, "_BLOCK", 3):
        got = outcome(lambda: read_recording_segments(str(path), annotations))
    want = outcome(lambda: reference_segments(str(path), annotations, None))
    assert isinstance(got, str) and got == want


# ---------------------------------------------------------------------------
# parts: rows parsed by this process and by children made with os.fork
# ---------------------------------------------------------------------------


def assert_no_children():
    # every child of the reads was waited for: none is left, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def parts(n_parts, part_rows, block, max_parts=None):
    """Reads inside cut their rows as on ``n_parts`` usable CPUs, into
    parts of at least ``part_rows`` rows, at most ``max_parts`` of them
    (``n_parts`` when None), and blocks of ``block`` lines; yields the
    pids of the children forked meanwhile."""
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.multiple(signals, _BLOCK=block, _PART_ROWS=part_rows,
                             _MAX_PARTS=max_parts or n_parts,
                             _usable_cpus=lambda: n_parts), \
            mock.patch.object(os, "fork", spy):
        yield forks


def recording_outcome(path, sample_rate=None):
    """``read_recording_csv``'s channels, rate and data bits (signs of
    zeros included) and whether the data is C-contiguous, or its error."""
    got = outcome(lambda: read_recording_csv(path, sample_rate=sample_rate))
    if isinstance(got, str):
        return got
    return got.channels, got.sample_rate, got.data.shape, got.data.tobytes(), \
        got.data.flags.c_contiguous


def one_part(read, block):
    """``read()`` in one part, in blocks of ``block`` lines."""
    with parts(1, 1, block) as forks:
        got = read()
    assert forks == []
    return got


def in_parts(read, setting, n_forks):
    """``read()`` with the parts of ``setting``; ``n_forks`` children did the
    other parts, and none is left."""
    with parts(*setting) as forks:
        got = read()
    assert len(forks) == n_forks
    assert_no_children()
    return got


def draw_parts(data, n_rows):
    """Part settings that cut ``n_rows`` rows in 2 or 3 parts, and how
    many parts they cut."""
    block = data.draw(st.integers(1, 3), label="block")
    n_blocks = n_rows // block
    part_rows = data.draw(st.integers(1, n_blocks // 2 * block), label="part_rows")
    n_parts = data.draw(st.integers(2, 3), label="n_parts")
    return (n_parts, part_rows, block), min(n_parts, n_blocks // -(-part_rows // block))


def write_text(tmp, text):
    path = os.path.join(tmp, "rec.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@settings(deadline=None, max_examples=100)
@given(recording_texts(min_rows=6, max_rows=24), st.data())
def test_parts_do_not_change_a_recording(drawn, data):
    # the rows of every part land in the one matrix as in one part
    text, has_time = drawn
    setting, n_parts = draw_parts(data, len(text.splitlines()) - 1)
    rate = None if has_time else 256.0
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        want = one_part(lambda: recording_outcome(path, rate), setting[2])
        got = in_parts(lambda: recording_outcome(path, rate), setting, n_parts - 1)
    assert not isinstance(want, str) and want[-1]
    assert got == want


@settings(deadline=None, max_examples=100)
@given(recording_texts(min_rows=6, max_rows=24), st.data())
def test_parts_do_not_change_the_segments(drawn, data):
    # spans inside one part, across a cut, or rejected by extract_segments
    text, has_time = drawn
    setting, n_parts = draw_parts(data, len(text.splitlines()) - 1)
    rate = None if has_time else 256.0
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        rec = read_recording_csv(path, sample_rate=rate)
        n, fs = rec.n_samples, rec.sample_rate
        rows = st.integers(0, n)
        annotations = [
            SpindleAnnotation(id=f"s{k}", start_s=i0 / fs + shift, end_s=i1 / fs + shift,
                              channel=data.draw(st.sampled_from(rec.channels + ("Oz",))))
            for k, (i0, i1, shift) in enumerate(data.draw(st.lists(
                st.tuples(rows, rows, st.sampled_from([0.0, 0.0, 0.25 / fs, -1e-9])),
                min_size=1, max_size=5)))]

        def read():
            return segments_outcome(lambda: read_recording_segments(path, annotations, rate))

        want = one_part(read, setting[2])
        got = in_parts(read, setting, n_parts - 1)
    assert got == want


@settings(deadline=None, max_examples=100)
@given(st.integers(6, 24), st.data(), st.lists(st.sampled_from(BAD_LINES), min_size=1, max_size=2),
       st.sampled_from(["\n", "\r\n"]))
def test_parts_do_not_change_the_bad_row(n_rows, data, bad, newline):
    # the first bad line in the file is reported, whichever part holds it
    rows = data.draw(st.lists(st.integers(2, n_rows + 1), min_size=len(bad), max_size=len(bad),
                              unique=True), label="rows")
    lines = ["time,C3,C4"] + [f"{i / 4},1.0,2.0" for i in range(n_rows)]
    for row, line in zip(rows, bad):
        lines[row - 1] = line
    setting, n_parts = draw_parts(data, n_rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, newline.join(lines) + newline)
        want = one_part(lambda: outcome(lambda: read_recording_csv(path)), setting[2])
        got = in_parts(lambda: outcome(lambda: read_recording_csv(path)), setting, n_parts - 1)
    assert re.search(rf"\brow {min(rows)}\b", want)
    assert got == want


#: 12 rows at 4 Hz.  ``THREE_PARTS`` cuts them in blocks of 2 rows at rows
#: 4 and 8: this process parses file lines 2-5, the children lines 6-9
#: and 10-13.
_PARTED = ["time,C3,C4"] + [f"{i / 4},{i}.5,-{i}" for i in range(12)]
THREE_PARTS = (3, 2, 2)


def parted_outcomes(tmp_path, lines, newline, read=recording_outcome):
    """``read(path)`` of ``lines`` in one part and in ``THREE_PARTS``."""
    path = write_text(tmp_path, newline.join(lines) + newline)
    return (one_part(lambda: read(path), THREE_PARTS[2]),
            in_parts(lambda: read(path), THREE_PARTS, 2))


NEWLINES = pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])


@NEWLINES
def test_three_parts_read_what_one_part_reads(tmp_path, newline):
    want, got = parted_outcomes(tmp_path, _PARTED, newline)
    assert got == want and want[1] == 4.0


@NEWLINES
@pytest.mark.parametrize("bad_rows", [(3, 11), (7, 12), (5, 6), (9, 10), (11,)],
                         ids=["parent-and-child", "two-children", "at-the-first-cut",
                              "at-the-second-cut", "last-child"])
def test_the_first_bad_row_of_any_part_is_reported(tmp_path, newline, bad_rows):
    lines = list(_PARTED)
    for row, bad in zip(bad_rows, ["2.0,high,7", "2.0,7"]):
        lines[row - 1] = bad
    want, got = parted_outcomes(tmp_path, lines, newline)
    assert re.search(rf"\brow {bad_rows[0]}\b", want)
    assert got == want


@NEWLINES
@pytest.mark.parametrize("row", [5, 6, 9, 10], ids=["before-cut-1", "after-cut-1",
                                                    "before-cut-2", "after-cut-2"])
def test_a_blank_line_at_a_cut(tmp_path, newline, row):
    lines = list(_PARTED)
    lines[row - 1] = ""
    want, got = parted_outcomes(tmp_path, lines, newline)
    assert f"row {row} has 0 cells, expected 3" in want
    assert got == want


@NEWLINES
@pytest.mark.parametrize("cut", [4, 8])
def test_a_time_step_that_changes_exactly_at_a_cut(tmp_path, newline, cut):
    # inside each part every step is 0.25 s; only the step across the cut is not
    lines = _PARTED[:cut + 1] + [f"{i / 4 + 0.1},{i}.5,-{i}" for i in range(cut, 12)]
    want, got = parted_outcomes(tmp_path, lines, newline)
    assert want.endswith("time column is not uniformly increasing")
    assert got == want


def test_a_decode_error_in_a_childs_part(tmp_path):
    # about 40 kB, so the text layer decodes it in several chunks: the
    # byte that does not decode sits in a chunk only the child reads
    lines = ["time,C3,C4"] + [f"{i / 4},{i}.5,-{i}" for i in range(2000)]
    data = ("\n".join(lines) + "\n").encode()
    at = data.index(b"\n450.0,")  # the end of row 1799
    path = tmp_path / "rec.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    setting = (2, 512, 64)  # cut at row 1024
    want = one_part(lambda: recording_outcome(str(path)), 64)
    got = in_parts(lambda: recording_outcome(str(path)), setting, 1)
    assert want.startswith(f"cannot read recording {path}: 'utf-8' codec can't decode")
    assert got == want


@pytest.mark.parametrize("case", ["thread", "no-fork"])
def test_a_live_thread_or_no_fork_keeps_one_part(tmp_path, monkeypatch, case):
    path = write_text(tmp_path, "\n".join(_PARTED) + "\n")
    want = one_part(lambda: recording_outcome(path), THREE_PARTS[2])
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
        with mock.patch.multiple(signals, _BLOCK=2, _PART_ROWS=2, _MAX_PARTS=3,
                                 _usable_cpus=lambda: 3):
            got = recording_outcome(path)
    else:
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with parts(*THREE_PARTS) as forks:
                got = recording_outcome(path)
        finally:
            done.set()
            thread.join()
        assert forks == []
    assert got == want
    assert_no_children()


@pytest.mark.parametrize("bad_row", [None, 3, 11])
def test_many_cpus_cut_two_parts(tmp_path, bad_row):
    # more parts were not measured to pay off: one child, whatever the CPU count
    lines = list(_PARTED)
    if bad_row:
        lines[bad_row - 1] = "2.0,high,7"
    path = write_text(tmp_path, "\n".join(lines) + "\n")
    want = one_part(lambda: recording_outcome(path), THREE_PARTS[2])
    got = in_parts(lambda: recording_outcome(path), (16, 2, 2, signals._MAX_PARTS), 1)
    assert got == want


@pytest.mark.parametrize("bad_row", [None, 3, 11])
def test_a_child_that_sends_no_report(tmp_path, monkeypatch, bad_row):
    # its part is parsed in process instead: same data, same first error
    lines = list(_PARTED)
    if bad_row:
        lines[bad_row - 1] = "2.0,high,7"
    monkeypatch.setattr(signals, "_send_part", lambda *args: os._exit(1))
    want, got = parted_outcomes(tmp_path, lines, "\n")
    assert got == want


@pytest.mark.parametrize("bad_row", [None, 3, 11])
def test_parts_where_sigchld_is_ignored(tmp_path, bad_row):
    # the kernel then reaps each child as it ends, and waitpid finds none
    lines = list(_PARTED)
    if bad_row:
        lines[bad_row - 1] = "2.0,high,7"
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        want, got = parted_outcomes(tmp_path, lines, "\n")
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert got == want


def test_an_interrupted_read_leaves_no_child(tmp_path, monkeypatch):
    path = write_text(tmp_path, "\n".join(_PARTED) + "\n")
    parse, reader = signals._Body.parse, os.getpid()

    def interrupted(body, lines, start, stop):
        if os.getpid() == reader:
            raise KeyboardInterrupt
        return parse(body, lines, start, stop)

    monkeypatch.setattr(signals._Body, "parse", interrupted)
    with parts(*THREE_PARTS) as forks, pytest.raises(KeyboardInterrupt):
        read_recording_csv(path)
    assert len(forks) == 2
    assert_no_children()


QUOTE_FREE_CELLS = [" 1.5", "1.5 ", "\t1.5", "1.5\t", " ", "", "1,,2", "0x1", "1_0", "inf",
                    "-Infinity", "nan", "1.", ".5", "-0", "+1", "1e5", "1E-5", "e5",
                    "١٢", "１２"]


@pytest.mark.parametrize("newline", ["", "\n", "\r\n"])
@pytest.mark.parametrize("cell", QUOTE_FREE_CELLS)
def test_quote_handling_changes_nothing_on_a_quote_free_line(cell, newline):
    def parsed(row_format):
        try:
            matrix = np.loadtxt([f"0.5,{cell}{newline}"], **row_format)
        except ValueError as exc:
            return str(exc)
        return matrix.shape, matrix.tobytes()

    assert parsed(signals._PLAIN_FORMAT) == parsed(signals._ROW_FORMAT)


@pytest.mark.parametrize("miscount", [-1, 1])
def test_rows_other_than_the_counted_ones_raise(tmp_path, monkeypatch, miscount):
    # as when the file changes between the row count and the parse
    path = tmp_path / "rec.csv"
    path.write_text("\n".join(_ROWS) + "\n")
    scan = signals._scan_lines
    monkeypatch.setattr(signals, "_scan_lines", lambda *args: (
        lambda lines, size, last: (lines + miscount, size, last))(*scan(*args)))
    for read in (lambda: read_recording_csv(str(path), sample_rate=4.0),
                 lambda: read_recording_segments(
                     str(path), [SpindleAnnotation("s", 0.0, 1.0, "C3")], 4.0)):
        assert outcome(read) == f"{path}: the recording changed while it was read"


@pytest.mark.parametrize("data, lines", [
    (b"", 0), (b"a", 1), (b"a\n", 1), (b"a\nb", 2), (b"a\r\nb\r\n", 2), (b"a\rb\r", 2),
    (b"a\r\r\nb", 3), (b"\n\n", 2), (b"\r", 1), (b"a\r\n\r\n", 2),
])
@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 18])
def test_line_count_and_last_line_match_text_mode(tmp_path, monkeypatch, data, lines, chunk):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with open(path) as fh:
        text_lines = fh.readlines()
    monkeypatch.setattr(signals, "_CHUNK", chunk)
    monkeypatch.setattr(signals, "_TAIL", 1)
    count, size, last = signals._scan_lines(str(path), "utf-8")
    assert count == len(text_lines) == lines and size == len(data)
    assert last == (text_lines[-1].removesuffix("\n") if text_lines else "")


def _extract_peak(tmp_path, n_rows):
    """tracemalloc peak of one ``extract`` of the same three spans out of
    an ``n_rows``-row recording."""
    rec, anns = tmp_path / f"rec{n_rows}.csv", tmp_path / "anns.json"
    rec.write_text("time,C3,C4\n" + "".join(f"{i / 256!r},{i % 7}.25,{i % 5}.5\n"
                                              for i in range(n_rows)))
    anns.write_text(json.dumps([{"id": f"s{k}", "channel": "C4", "start_s": k + 0.5,
                                 "end_s": k + 1.5} for k in range(3)]))
    tracemalloc.start()
    try:
        assert main(["extract", "--recording", str(rec), "--annotations", str(anns),
                     "--output", str(tmp_path / f"out{n_rows}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_memory_does_not_grow_with_the_recording(tmp_path):
    # a reader that keeps every row holds 24 bytes of each: 4.3 MB more here
    small, large = _extract_peak(tmp_path, 20_000), _extract_peak(tmp_path, 200_000)
    assert large - small < 0.5e6


def test_read_recording_rejects_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("time,C3\n0.0,1.0,7.0\n0.5,2.0,7.0\n")
    with pytest.raises(InputError) as err:
        read_recording_csv(str(path))
    message = str(err.value)
    assert str(path) in message and "row 2 has 3 cells, expected 2" in message


def test_read_recording_at_scale_then_extract_and_features(tmp_path):
    """A 200,000-row, 4-channel recording through read, extract and features.

    No timing assert: a per-cell Python parser makes this test slow,
    which is the point of reading it at this size.
    """
    fs, n, channels = 256.0, 200_000, ["F3", "F4", "C3", "C4"]
    rng = np.random.default_rng(7)
    signal = rng.normal(0.0, 3.0, size=(len(channels), n))
    k = np.arange(int(fs))
    annotations = []
    for i in range(40):
        i0 = 1000 + i * 4800
        signal[i % 4, i0:i0 + k.size] += 30.0 * np.sin(2 * np.pi * 11.0 * k / fs)
        annotations.append({"id": f"s{i:02d}", "channel": channels[i % 4],
                            "start_s": (i0 + 0.5) / fs, "end_s": (i0 + k.size + 0.5) / fs})
    rec_path = tmp_path / "rec.csv"
    np.savetxt(rec_path, np.column_stack([np.arange(n) / fs, signal.T]), fmt="%.17g",
               delimiter=",", header="time," + ",".join(channels), comments="")
    anns_path = tmp_path / "anns.json"
    anns_path.write_text(json.dumps(annotations))

    rec = read_recording_csv(str(rec_path))
    assert rec.data.shape == (4, n)
    assert rec.channels == tuple(channels)
    assert rec.sample_rate == fs
    assert np.array_equal(rec.data, signal)

    out = tmp_path / "out"
    assert main(["extract", "--recording", str(rec_path), "--annotations", str(anns_path),
                 "--output", str(out / "a")]) == 0
    assert main(["features", "--segments", str(out / "a" / "segments.json"),
                 "--output", str(out / "b")]) == 0
    with open(out / "b" / "features.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["id"] for r in rows] == [a["id"] for a in annotations]
    assert all(abs(float(r["dominant_frequency_Hz"]) - 11.0) < 0.25 for r in rows)


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


@pytest.mark.parametrize("key, value", [
    ("start_s", "soon"),
    ("start_s", None),
    ("start_s", True),
    ("start_s", [0.5]),
    ("end_s", "2.0"),
    ("end_s", float("inf")),
    ("duration_s", float("nan")),
    ("duration_s", 10 ** 400),
])
def test_read_annotations_rejects_bad_numbers(tmp_path, key, value):
    bad = {"id": "s1", "channel": "C3", "start_s": 1.0}
    bad["duration_s" if key == "duration_s" else "end_s"] = 2.0
    bad[key] = value
    path = tmp_path / "anns.json"
    # json.dumps writes NaN and Infinity literals, which json.load accepts
    path.write_text(json.dumps([
        {"id": "s0", "channel": "C3", "start_s": 0.0, "end_s": 1.0},
        bad,
    ]))
    with pytest.raises(InputError) as err:
        read_annotations_json(str(path))
    message = str(err.value)
    assert str(path) in message and "annotation 1" in message and repr(key) in message


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


_names = st.text(st.sampled_from('a"\\/é€😀\n\t ') | st.characters(), max_size=6)
_reals = st.floats(allow_nan=False, allow_infinity=False)
_segments = st.lists(st.tuples(
    st.builds(SpindleAnnotation, id=_names, start_s=_reals, end_s=_reals, channel=_names),
    st.lists(_reals, min_size=1, max_size=12).map(np.array)), max_size=4)


@settings(deadline=None, max_examples=200)
@given(_segments, _reals)
@example([], 256.0)
@example([(SpindleAnnotation('q"\\é', -0.0, 5e-324, "C3€"), np.array([-0.0])),
          (SpindleAnnotation("s1", 0.5, 1.5, "C4"), np.array([5e-324, -2.2250738585072014e-308, 0.1]))],
         -0.0)
def test_segments_json_bytes_match_the_json_encoder(segments, sample_rate):
    payload = [{"id": ann.id, "channel": ann.channel, "start_s": ann.start_s,
                "end_s": ann.end_s, "sample_rate": sample_rate,
                "samples": [float(v) for v in samples]} for ann, samples in segments]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.json"), os.path.join(tmp, "want.json")
        write_segments_json(got, segments, sample_rate)
        with open(want, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_segments_json_rejects_non_finite_samples(tmp_path):
    ann = SpindleAnnotation("s0", 0.0, 1.0, "C3")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_segments_json(str(tmp_path / "s.json"), [(ann, np.array([1.0, bad]))], 10.0)


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


@pytest.mark.parametrize("patch, problem", [
    ({"samples": [1.0, float("nan"), 2.0]}, "samples must be finite"),
    ({"samples": [1.0, float("inf")]}, "samples must be finite"),
    ({"samples": [[1.0, 2.0], [3.0, 4.0]]}, "non-empty list"),
    ({"samples": []}, "non-empty list"),
    ({"samples": 3.0}, "non-empty list"),
    ({"sample_rate": float("inf")}, "sample_rate must be finite and positive"),
    ({"sample_rate": float("nan")}, "sample_rate must be finite and positive"),
    ({"sample_rate": 0.0}, "sample_rate must be finite and positive"),
    ({"sample_rate": -10.0}, "sample_rate must be finite and positive"),
    ({"sample_rate": "256"}, "sample_rate must be finite and positive, got '256'"),
    ({"sample_rate": True}, "sample_rate must be finite and positive, got True"),
], ids=["nan", "inf", "nested", "empty", "scalar", "rate-inf", "rate-nan", "rate-0", "rate-neg",
        "rate-string", "rate-true"])
def test_read_segments_rejects_bad_samples_and_rates(tmp_path, patch, problem):
    good = {"id": "s0", "channel": "C3", "start_s": 0.0, "end_s": 1.0,
            "sample_rate": 10.0, "samples": [float(i) for i in range(10)]}
    path = tmp_path / "seg.json"
    # json.dumps writes NaN and Infinity literals, which json.load accepts
    path.write_text(json.dumps([good, {**good, "id": "s1", **patch}]))
    with pytest.raises(InputError) as err:
        read_segments_json(str(path))
    message = str(err.value)
    assert str(path) in message and "segment 1" in message and "'s1'" in message
    assert problem in message


@pytest.mark.parametrize("patch, where", [
    ({"id": "s0"}, ["duplicate segment id 's0'", "segments 0 and 1"]),
    ({"start_s": True}, ["segment 1", "'start_s'", "True"]),
    ({"end_s": float("nan")}, ["segment 1", "'end_s'", "nan"]),
    ({"start_s": "0.5"}, ["segment 1", "'start_s'", "'0.5'"]),
], ids=["repeated-id", "true", "nan", "string"])
def test_read_segments_locates_bad_annotation_fields(tmp_path, patch, where):
    good = {"id": "s0", "channel": "C3", "start_s": 0.0, "end_s": 1.0,
            "sample_rate": 10.0, "samples": [float(i) for i in range(10)]}
    path = tmp_path / "seg.json"
    # json.dumps writes the NaN literal, which json.load accepts
    path.write_text(json.dumps([good, {**good, "id": "s1", **patch}]))
    with pytest.raises(InputError) as err:
        read_segments_json(str(path))
    message = str(err.value)
    assert str(path) in message and all(w in message for w in where)
