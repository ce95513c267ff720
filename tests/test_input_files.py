"""Every reader of an input file reports a missing, undecodable or
truncated file, and JSON past the parser's limits, as an InputError naming
the file; a repeated name, in a CSV header or given to a constructor, is
named with both of its places."""

import json

import pytest

from spindlemine.cli import main
from spindlemine.errors import InputError
from spindlemine.fca import read_object_table
from spindlemine.pipeline import PipelineConfig, read_report_json
from spindlemine.selection import read_labels_csv
from spindlemine.signals import read_annotations_json, read_recording_csv, read_segments_json

_ANNOTATION = {"id": "s1", "start_s": 0.0, "end_s": 0.2, "channel": "C3"}

#: reader name -> (reader, the bytes of a valid input, whether it is JSON)
READERS = {
    "recording": (read_recording_csv, b"time,C3\n0.0,1.0\n0.1,2.0\n0.2,3.0\n", False),
    "annotations": (read_annotations_json, json.dumps([_ANNOTATION]).encode(), True),
    "segments": (read_segments_json, json.dumps(
        [{**_ANNOTATION, "sample_rate": 10.0, "samples": [1.0, 2.0]}]).encode(), True),
    "object-table": (lambda path: read_object_table(path, float, "context"),
                     b"id,a\ns1,1.0\n", False),
    "labels": (read_labels_csv, b"id,class\ns1,alpha\n", False),
    "config": (PipelineConfig.from_file, json.dumps({
        "recording": "rec.csv", "annotations": "anns.json", "output_dir": "out",
        "min_support": 0.5, "min_lstab": 1.0}).encode(), True),
    "report": (read_report_json, b'{"patterns": []}', True),
}

CASES = [(name, fault) for name, (_, _, is_json) in READERS.items()
         for fault in ("missing", "undecodable") + (("truncated",) if is_json else ())]


@pytest.mark.parametrize("name, fault", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_bad_input_file_is_an_input_error_naming_it(tmp_path, name, fault):
    reader, valid, _ = READERS[name]
    path = tmp_path / "input"
    path.write_bytes(valid)
    reader(str(path))  # the valid file reads, so the fault below is the only one
    if fault == "missing":
        path.unlink()
        expected = "cannot read"
    elif fault == "undecodable":
        middle = len(valid) // 2
        path.write_bytes(valid[:middle] + b"\xff" + valid[middle:])
        expected = "cannot read"
    else:
        path.write_bytes(valid[:len(valid) // 2])
        expected = "invalid JSON"
    with pytest.raises(InputError) as err:
        reader(str(path))
    message = str(err.value)
    assert str(path) in message and expected in message


JSON_READERS = [name for name, (_, _, is_json) in READERS.items() if is_json]
#: valid JSON past the parser's limits: more digits than int() converts by
#: default (4,300), nesting deeper than the interpreter's recursion limit
BEYOND_LIMITS = {"long-integer": "[" + "7" * 5000 + "]",
                 "deep-nesting": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("text", BEYOND_LIMITS.values(), ids=BEYOND_LIMITS)
@pytest.mark.parametrize("name", JSON_READERS)
def test_json_beyond_parser_limits_is_an_input_error_naming_the_file(tmp_path, name, text):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(InputError) as err:
        READERS[name][0](str(path))
    assert str(path) in str(err.value)



#: subcommand -> (its input flag, the input's text, the header name it
#: repeats and the columns holding it, further arguments)
REPEATED_HEADERS = {
    "mine": ("--context", "id,a,b,a\ns1,1.0,2.0,3.0\n", "'a' repeated in columns 2 and 4",
             ["--min-support", "0.5", "--min-lstab", "1"]),
    "context": ("--features", "id,x,y,x\ns1,1.0,2.0,3.0\n", "'x' repeated in columns 2 and 4",
                []),
    "extract": ("--recording", "time,C3,C3\n0.0,1.0,2.0\n0.1,2.0,3.0\n",
                "'C3' repeated in columns 2 and 3", ["--annotations", "annotations.json"]),
}


@pytest.mark.parametrize("command", REPEATED_HEADERS)
def test_repeated_header_name_exits_2_naming_file_and_name(tmp_path, monkeypatch, capsys,
                                                           command):
    flag, text, expected, extra = REPEATED_HEADERS[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "annotations.json").write_text(json.dumps([_ANNOTATION]))
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert main([command, flag, str(path), *extra, "--output", "out"]) == 2
    message = capsys.readouterr().err
    assert f"{path}: header name {expected}" in message


def _numeric_context(objects, attributes):
    import numpy as np
    from spindlemine.selection import NumericContext
    return NumericContext(objects, attributes, np.zeros((len(objects), len(attributes))))


def _interval_structure(objects, attributes):
    from spindlemine.intervals import IntervalDescription, IntervalPatternStructure
    return IntervalPatternStructure(objects, attributes, tuple(
        IntervalDescription(((0.0, 0.0),) * len(attributes)) for _ in objects))


def _formal_context(objects, attributes):
    from spindlemine.fca import FormalContext
    return FormalContext.from_rows(objects, attributes, [[0] * len(attributes)] * len(objects))


def _recording(objects, channels):
    import numpy as np
    from spindlemine.signals import Recording
    return Recording(100.0, channels, np.zeros((len(channels), 4)))


#: (constructor of (names, names), which argument repeats, the words naming it)
REPEATED_NAMES = {
    "formal-context-objects": (_formal_context, 0, "object identifier"),
    "formal-context-attributes": (_formal_context, 1, "attribute identifier"),
    "interval-structure-objects": (_interval_structure, 0, "object identifier"),
    "interval-structure-attributes": (_interval_structure, 1, "attribute identifier"),
    "numeric-context-objects": (_numeric_context, 0, "object id"),
    "numeric-context-attributes": (_numeric_context, 1, "attribute name"),
    "recording-channels": (_recording, 1, "channel name"),
}


@pytest.mark.parametrize("case", REPEATED_NAMES)
def test_repeated_name_names_it_and_both_positions(case):
    build, repeated, what = REPEATED_NAMES[case]
    names = [("p", "q"), ("p", "q")]
    names[repeated] = ("a", "b", "c", "b", "a")
    with pytest.raises(InputError, match=f"^{what} 'b' repeated at positions 1 and 3$"):
        build(*names)
