"""Command-line behavior: subcommands, chaining, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spindlemine
from spindlemine import cli, pipeline
from spindlemine.cli import main
from spindlemine.errors import InputError
from spindlemine.signals import ZeroPowerWarning
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    build_pattern_lattice,
)
from spindlemine.stability import (
    BOUND_POLICIES,
    SCORE_FIELDS,
    STABILITY_METHODS,
    score_lattice,
)
from conftest import build_two_cluster_recording, tie_heavy_structures


def run(argv):
    return main([str(a) for a in argv])


def fresh_interpreter_env() -> dict:
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(spindlemine.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_pipeline_command(two_cluster_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = run([
        "pipeline",
        "--recording", two_cluster_files["recording"],
        "--annotations", two_cluster_files["annotations"],
        "--labels", two_cluster_files["labels"],
        "--min-support", 0.4,
        "--min-lstab", 1,
        "--corr-threshold", 1.0,
        "--output", out,
    ])
    assert code == 0
    assert "3 patterns" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["patterns_kept"] == 3
    assert (out / "summary.csv").exists()


def test_stage_chain_matches_single_run(two_cluster_files, tmp_path):
    rec, anns, labels = (two_cluster_files[k] for k in
                         ("recording", "annotations", "labels"))
    a, b, c = (tmp_path / x for x in "abc")

    assert run(["extract", "--recording", rec, "--annotations", anns,
                "--output", a]) == 0
    assert run(["features", "--segments", a / "segments.json",
                "--output", b]) == 0
    assert run(["context", "--features", b / "features.csv",
                "--labels", labels, "--corr-threshold", 1.0,
                "--output", c]) == 0
    selection = json.loads((c / "selection.json").read_text())

    for method in ("exact-dp", "bounds"):
        # each DOT file lies inside an output directory that does not exist
        # yet, so both commands must create it before writing the DOT file
        d, e = tmp_path / f"mine-{method}", tmp_path / f"pipeline-{method}"
        assert run(["mine", "--context", c / "context.csv",
                    "--min-support", 0.4, "--min-lstab", 1, "--stability", method,
                    "--dot", d / "lattice.dot", "--output", d]) == 0
        assert run(["pipeline", "--recording", rec, "--annotations", anns,
                    "--labels", labels, "--min-support", 0.4, "--min-lstab", 1,
                    "--corr-threshold", 1.0, "--stability", method,
                    "--dot", e / "lattice.dot", "--output", e]) == 0

        chained = json.loads((d / "patterns.json").read_text())
        single = json.loads((e / "report.json").read_text())
        mine_stages = set(chained["generated"]["timings_s"])
        assert mine_stages == {"lattice", "stability", "filter", "total"}
        assert mine_stages <= set(single["generated"]["timings_s"])
        # feature CSV cells round-trip bit-exactly, so the mined patterns
        # (extents, interval intents, stability) must agree completely
        assert chained["patterns"] == single["patterns"]
        assert (d / "lattice.dot").read_bytes() == (e / "lattice.dot").read_bytes()
        assert selection["retained"] == single["attributes"]


def test_extract_with_explicit_rate(tmp_path):
    rec = tmp_path / "rec.csv"
    rec.write_text("C3\n" + "\n".join(str(float(i % 7)) for i in range(50)) + "\n")
    anns = tmp_path / "anns.json"
    anns.write_text(json.dumps(
        [{"id": "x", "start_s": 0.0, "end_s": 2.0, "channel": "C3"}]
    ))
    out = tmp_path / "out"
    assert run(["extract", "--recording", rec, "--annotations", anns,
                "--fs", 10, "--output", out]) == 0
    [seg] = json.loads((out / "segments.json").read_text())
    assert seg["sample_rate"] == 10.0
    assert len(seg["samples"]) == 20


def test_config_file_with_flag_override(two_cluster_files, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "recording": str(two_cluster_files["recording"]),
        "annotations": str(two_cluster_files["annotations"]),
        "output_dir": str(tmp_path / "from_config"),
        "min_support": 0.4,
        "min_lstab": 99.0,
    }))
    out = tmp_path / "cli_out"
    assert run(["pipeline", "--config", config,
                "--min-lstab", 1, "--output", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["min_lstab"] == 1.0
    assert report["config"]["min_support"] == 0.4
    assert not (tmp_path / "from_config").exists()


def test_mine_dot_export(two_cluster_files, tmp_path):
    rec, anns = two_cluster_files["recording"], two_cluster_files["annotations"]
    out = tmp_path / "out"
    dot = tmp_path / "lattice.dot"
    assert run(["pipeline", "--recording", rec, "--annotations", anns,
                "--min-support", 0, "--min-lstab", 0,
                "--dot", dot, "--output", out]) == 0
    assert dot.read_text().startswith("digraph lattice {")


MINE_DOT = Path(__file__).parent / "fixtures" / "mine_dot"


def mine_fixture_context(tmp_path, *flags):
    """Run ``mine`` on the fixture context in a fresh interpreter, with
    ``flags`` after the thresholds; outputs go to ``tmp_path / "out"``."""
    (tmp_path / "context.csv").write_bytes((MINE_DOT / "context.csv").read_bytes())
    subprocess.run([sys.executable, "-m", "spindlemine", "mine", "--context", "context.csv",
                    "--min-support", "0.5", "--min-lstab", "1", *flags, "--output", "out"],
                   cwd=tmp_path, env=fresh_interpreter_env(), capture_output=True, timeout=60,
                   check=True)
    return tmp_path / "out"


def assert_same_report(out, want):
    """Same ``summary.csv``, and the same ``patterns.json`` up to the run's
    timestamp and timings."""
    assert (out / "summary.csv").read_bytes() == (want / "summary.csv").read_bytes()
    got, wanted = ((d / "patterns.json").read_bytes().split(b'"generated"')[0]
                   for d in (out, want))
    assert got == wanted


def test_mine_dot_matches_committed_outputs(tmp_path):
    # a tie-heavy 16 x 3 point context (with -0.0 and 0.0 in one column);
    # --dot reads the cover relation of every concept, so this pins the
    # full cover order and the kept patterns byte for byte
    out = mine_fixture_context(tmp_path, "--stability", "bounds", "--dot", "out/lattice.dot")
    assert (out / "lattice.dot").read_bytes() == (MINE_DOT / "lattice.dot").read_bytes()
    assert_same_report(out, MINE_DOT)


def test_mine_exact_dp_matches_committed_outputs(tmp_path):
    # 21 of the 23 frequent concepts are not settled by their one-object
    # gaps, so their counts come from the down-set walk over the covers
    out = mine_fixture_context(tmp_path, "--stability", "exact-dp")
    assert_same_report(out, MINE_DOT / "exact_dp")


def test_mine_exact_dp_with_dot_matches_committed_outputs(tmp_path):
    # the lattice stage builds the covers for the DOT, so every gap the
    # scores read comes off the covers, not the chains
    out = mine_fixture_context(tmp_path, "--stability", "exact-dp", "--dot", "out/lattice.dot")
    assert (out / "lattice.dot").read_bytes() == (MINE_DOT / "lattice.dot").read_bytes()
    assert_same_report(out, MINE_DOT / "exact_dp")


@pytest.mark.parametrize("method", STABILITY_METHODS)
@pytest.mark.parametrize("thresholds", [(0.5, 1), (0, 0)], ids=["frequent", "all"])
def test_dot_does_not_change_the_report(tmp_path, method, thresholds):
    min_support, min_lstab = thresholds
    for name, flags in (("plain", []), ("dot", ["--dot", tmp_path / "dot" / "lattice.dot"])):
        assert run(["mine", "--context", MINE_DOT / "context.csv", "--min-support", min_support,
                    "--min-lstab", min_lstab, "--stability", method, *flags,
                    "--output", tmp_path / name]) == 0
    assert_same_report(tmp_path / "dot", tmp_path / "plain")


def _dot_run_argv(command, files):
    if command == "mine":
        return ["mine", "--context", MINE_DOT / "context.csv", "--min-support", 0,
                "--min-lstab", 0]
    return ["pipeline", "--recording", files["recording"], "--annotations",
            files["annotations"], "--min-support", 0.4, "--min-lstab", 1]


#: the stage commands' arguments besides ``--output`` (keys of
#: ``stage_inputs`` stand for their files)
STAGE_ARGV = {
    "extract": ["--recording", "recording", "--annotations", "annotations"],
    "features": ["--segments", "segments"],
    "context": ["--features", "features", "--labels", "labels"],
}
#: the functions that read a command's input files, and the lattice builder
INPUT_WORK = [(cli, "read_segments_json"), (cli, "read_numeric_csv"), (cli, "read_labels_csv"),
              (pipeline, "read_interval_csv"), (pipeline, "read_annotations_json"),
              (pipeline, "read_recording_segments"), (pipeline, "read_labels_csv"),
              (pipeline, "build_pattern_lattice")]


@pytest.fixture
def input_work(monkeypatch):
    """The names of the ``INPUT_WORK`` functions called so far."""
    done = []
    for module, name in INPUT_WORK:
        monkeypatch.setattr(module, name, lambda *args, name=name, real=getattr(module, name),
                            **kwargs: done.append(name) or real(*args, **kwargs))
    return done


def snapshot(root):
    """Every path below ``root``, with a file's bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("command", [*STAGE_ARGV, "mine", "pipeline"])
@pytest.mark.parametrize("case", ["file", "below-a-file", "dangling-link", "empty"])
def test_an_output_that_cannot_be_a_directory_exits_2_before_mining(
        stage_inputs, tmp_path, capsys, monkeypatch, input_work, command, case):
    monkeypatch.chdir(tmp_path)  # where an empty output directory would write
    afile = tmp_path / "afile"
    afile.write_text("")
    os.symlink(tmp_path / "missing", tmp_path / "dangling")
    output = {"file": afile, "below-a-file": afile / "sub",
              "dangling-link": tmp_path / "dangling", "empty": ""}[case]
    dot = tmp_path / "o2" / "l.dot"
    argv = ([command, *(stage_inputs.get(a, a) for a in STAGE_ARGV[command])]
            if command in STAGE_ARGV else [*_dot_run_argv(command, stage_inputs), "--dot", dot])
    before = snapshot(tmp_path)
    assert run([*argv, "--output", output]) == 2
    assert f"error: output directory {str(output)!r}" in capsys.readouterr().err
    assert input_work == []
    assert not dot.parent.exists()
    assert snapshot(tmp_path) == before


def test_an_empty_output_dir_in_a_config_exits_2_before_reading_an_input(
        stage_inputs, tmp_path, capsys, monkeypatch, input_work):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(stage_inputs["config"].read_text()),
                                  "output_dir": ""}))
    before = snapshot(tmp_path)
    assert run(["pipeline", "--config", config]) == 2
    assert capsys.readouterr().err.startswith("error: output directory '' ")
    assert input_work == []
    assert snapshot(tmp_path) == before


#: ``--dot`` paths a run cannot write after its report, and the ``--output``
#: directory, under a directory holding the file ``afile``, the directories
#: ``adir`` and ``out`` and the symlink ``dangling`` to a missing path;
#: ``{report}`` is the run's JSON report
UNWRITABLE_DOTS = {
    "below-a-file": ("afile/l.dot", "out"),
    "below-a-dangling-link": ("dangling/l.dot", "out"),
    "a-directory": ("adir", "out"),
    "the-report": ("out/{report}", "out"),
    "the-summary": ("out/summary.csv", "out"),
    "above-the-output": ("new.dot", "new.dot/out"),
}


@pytest.mark.parametrize("command", ["mine", "pipeline", "config"])
@pytest.mark.parametrize("case", UNWRITABLE_DOTS)
def test_a_dot_that_cannot_be_written_exits_2_before_mining(
        stage_inputs, tmp_path, capsys, input_work, command, case):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    (tmp_path / "out").mkdir()
    os.symlink(tmp_path / "missing", tmp_path / "dangling")
    dot, output = (str(tmp_path / path).format(
        report="patterns.json" if command == "mine" else "report.json")
        for path in UNWRITABLE_DOTS[case])
    if command == "config":  # the DOT path and the output directory come from the file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(stage_inputs["config"].read_text()),
                                      "dot": dot, "output_dir": output}))
        argv = ["pipeline", "--config", config]
    else:
        argv = [*_dot_run_argv(command, stage_inputs), "--dot", dot, "--output", output]
    before = snapshot(tmp_path)
    assert run(argv) == 2
    assert f"dot {dot!r}" in capsys.readouterr().err
    assert input_work == []
    assert snapshot(tmp_path) == before


#: a run's arguments besides ``--output`` and ``--dot`` (keys of
#: ``stage_inputs`` stand for their files; the first flag's file is the
#: input that an "is-an-input" case puts at the output file's path), and
#: the files it writes into ``--output``; ``l.dot`` stands for its
#: ``--dot`` path.  In ``config-recording`` the config file names the
#: moved recording.
OUTPUT_RUNS = {
    "extract": (["extract", *STAGE_ARGV["extract"]], ["segments.json"]),
    "features": (["features", *STAGE_ARGV["features"]], ["features.csv"]),
    "context": (["context", *STAGE_ARGV["context"]], ["context.csv", "selection.json"]),
    "mine": (["mine", "--context", "context", "--min-support", "0.3", "--min-lstab", "1"],
             ["patterns.json", "summary.csv", "l.dot"]),
    "pipeline": (["pipeline", "--recording", "recording", "--annotations", "annotations",
                  "--min-support", "0.3", "--min-lstab", "1"],
                 ["report.json", "summary.csv", "l.dot"]),
    "config": (["pipeline", "--config", "config"], ["report.json", "summary.csv", "l.dot"]),
    "config-recording": (["pipeline", "--config", "config"],
                         ["report.json", "summary.csv", "l.dot"]),
}
#: (run, output file, case); a DOT path that is a directory is a case of
#: ``UNWRITABLE_DOTS``, and ``config-recording`` differs from ``config``
#: only in its input
OUTPUT_CASES = [(run_name, name, case) for run_name, (_, names) in OUTPUT_RUNS.items()
                for name in names for case in ("is-a-directory", "is-an-input")
                if not (case == "is-a-directory"
                        and (name == "l.dot" or run_name == "config-recording"))]


@pytest.mark.parametrize("run_name, name, case", OUTPUT_CASES,
                         ids=["-".join(case) for case in OUTPUT_CASES])
def test_an_output_file_that_is_a_directory_or_an_input_exits_2_before_mining(
        stage_inputs, tmp_path, capsys, input_work, run_name, name, case):
    (command, *flags), names = OUTPUT_RUNS[run_name]
    argv = [command, *(stage_inputs.get(a, a) for a in flags)]
    out = tmp_path / "out"
    out.mkdir()
    path = out / name
    if case == "is-a-directory":
        path.mkdir()
    elif run_name == "config-recording":
        shutil.copy(stage_inputs["recording"], path)
        argv[2] = tmp_path / "config.json"
        argv[2].write_text(json.dumps({**json.loads(stage_inputs["config"].read_text()),
                                       "recording": str(path)}))
    else:
        shutil.copy(argv[2], path)
        argv[2] = path
    dot = ["--dot", out / "l.dot"] if "l.dot" in names else []
    before = snapshot(tmp_path)
    assert run([*argv, *dot, "--output", out]) == 2
    what = "dot" if name == "l.dot" else "output file"
    assert f"{what} {str(path)!r} " in capsys.readouterr().err
    assert input_work == []
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("command", ["mine", "pipeline"])
def test_a_failed_export_leaves_no_dot_behind(two_cluster_files, tmp_path, capsys, command):
    # the report's own path is a directory: the pre-flight check refuses it
    out = tmp_path / "out"
    (out / ("patterns.json" if command == "mine" else "report.json")).mkdir(parents=True)
    dot = tmp_path / "o2" / "l.dot"
    assert run([*_dot_run_argv(command, two_cluster_files), "--dot", dot,
                "--output", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not dot.parent.exists()


def test_the_dot_is_written_only_after_the_export(tmp_path):
    lattice = build_pattern_lattice(IntervalPatternStructure(
        objects=("g1", "g2"), attributes=("a",),
        descriptions=(IntervalDescription.from_point((1.0,)),
                      IntervalDescription.from_point((2.0,)))))
    dot = tmp_path / "o2" / "l.dot"

    def failing_export(report):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        pipeline._write_outputs("report", lattice, str(dot), failing_export)
    assert not dot.parent.exists()
    seen = []
    assert pipeline._write_outputs("report", lattice, str(dot),
                                   lambda report: seen.append((report, dot.parent.exists()))
                                   ) == "report"
    assert seen == [("report", False)]
    assert dot.read_text().startswith("digraph lattice {")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_input_exits_2(tmp_path, capsys):
    code = run(["extract", "--recording", tmp_path / "nope.csv",
                "--annotations", tmp_path / "nope.json",
                "--output", tmp_path / "out"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_threshold_exits_2(two_cluster_files, tmp_path, capsys):
    code = run(["pipeline",
                "--recording", two_cluster_files["recording"],
                "--annotations", two_cluster_files["annotations"],
                "--min-support", 2.0, "--min-lstab", 1,
                "--output", tmp_path / "out"])
    assert code == 2
    assert "min_support" in capsys.readouterr().err


def test_concept_cap_exits_3(two_cluster_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["pipeline",
                "--recording", two_cluster_files["recording"],
                "--annotations", two_cluster_files["annotations"],
                "--min-support", 0.4, "--min-lstab", 1,
                "--concept-cap", 2,
                "--output", out])
    assert code == 3
    assert "cap" in capsys.readouterr().err
    # a failed run must leave no partial outputs behind
    assert not (out / "report.json").exists()
    assert not (out / "summary.csv").exists()


def test_mine_concept_cap_exits_3(two_cluster_files, tmp_path, capsys):
    rec, anns = two_cluster_files["recording"], two_cluster_files["annotations"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["extract", "--recording", rec, "--annotations", anns,
                "--output", a]) == 0
    assert run(["features", "--segments", a / "segments.json", "--output", b]) == 0
    code = run(["mine", "--context", b / "features.csv",
                "--min-support", 0, "--min-lstab", 0,
                "--concept-cap", 1, "--output", tmp_path / "out"])
    assert code == 3
    assert "error: stage 'lattice': " in capsys.readouterr().err


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["--help"])
    assert err.value.code == 0
    with pytest.raises(SystemExit) as err:
        run(["mine", "--context", "x.csv", "--output", "out"])  # thresholds required
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mine", "--context", "context.csv", "--min-support", 0, "--min-lstab", 0],
    ["pipeline"],
], ids=["mine", "pipeline"])
def test_brute_force_is_no_stability_choice(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        run([*argv, "--stability", "brute-force", "--output", tmp_path / "out"])
    assert err.value.code == 2
    assert "invalid choice: 'brute-force'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("bands", 5),
    ("bands", [[1]]),
    ("dominant_band", [1]),
    ("min_support", "x"),
    ("stability_method", "brute-force"),
], ids=["bands-number", "bands-short-pair", "dominant-band-short", "min-support-text",
        "brute-force"])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "recording": "rec.csv", "annotations": "anns.json", "output_dir": str(tmp_path),
        "min_support": 0.4, "min_lstab": 1.0, key: value}))
    assert run(["pipeline", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("cell", ["nan", "inf", "abc"])
def test_mine_bad_context_cell_exits_2(tmp_path, capsys, cell):
    context = tmp_path / "context.csv"
    context.write_text(f"id,a,b\ns1,1.0,2.0\ns2,{cell},3.0\n")
    out = tmp_path / "out"
    code = run(["mine", "--context", context, "--min-support", 0,
                "--min-lstab", 0, "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert str(context) in err and "row 3" in err and "'a'" in err
    assert not (out / "patterns.json").exists()


@pytest.mark.parametrize("body, where", [
    ("s1,1.0,2.0\ns2,nan,3.0\n", ["row 3", "column 'a'", "'nan'"]),
    ("s1,1.0,2.0\ns1,2.0,3.0\n", ["'s1'", "rows 2 and 3"]),
], ids=["nan", "repeated-id"])
def test_context_bad_features_exits_2(tmp_path, capsys, body, where):
    features = tmp_path / "features.csv"
    features.write_text("id,a,b\n" + body)
    out = tmp_path / "out"
    code = run(["context", "--features", features, "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert str(features) in err and all(w in err for w in where)
    assert not out.exists()


def test_extract_bad_annotation_number_exits_2(two_cluster_files, tmp_path, capsys):
    anns = tmp_path / "anns.json"
    anns.write_text(json.dumps(
        [{"id": "x", "start_s": "soon", "end_s": 2.0, "channel": "C3"}]
    ))
    code = run(["extract", "--recording", two_cluster_files["recording"],
                "--annotations", anns, "--output", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert "annotation 0" in err and "'start_s'" in err


def test_extract_ragged_recording_exits_2(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    rec.write_text("time,C3\n0.0,1.0\n0.1,2.0,3.0\n0.2,3.0\n")
    anns = tmp_path / "anns.json"
    anns.write_text(json.dumps(
        [{"id": "x", "start_s": 0.0, "end_s": 0.2, "channel": "C3"}]
    ))
    out = tmp_path / "out"
    code = run(["extract", "--recording", rec, "--annotations", anns, "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert str(rec) in err and "row 3 has 3 cells, expected 2" in err
    assert not (out / "segments.json").exists()


def test_extract_empty_annotation_list_exits_2(two_cluster_files, tmp_path, capsys):
    anns = tmp_path / "anns.json"
    anns.write_text("[]")
    out = tmp_path / "out"
    code = run(["extract", "--recording", two_cluster_files["recording"],
                "--annotations", anns, "--output", out])
    assert code == 2
    assert "no segments: the annotation list is empty" in capsys.readouterr().err
    assert not (out / "segments.json").exists()


@pytest.mark.parametrize("command", ["extract", "pipeline"])
@pytest.mark.parametrize("annotations, message", [
    ("[]", "no segments: the annotation list is empty"),
    (json.dumps([{"id": "x", "start_s": "soon", "end_s": 2.0, "channel": "C3"}]),
     "annotation 0 key 'start_s'"),
], ids=["empty", "bad-start"])
def test_annotations_are_checked_before_the_recording_is_read(tmp_path, capsys, command,
                                                              annotations, message):
    anns = tmp_path / "anns.json"
    anns.write_text(annotations)
    mining = ["--min-support", 0.5, "--min-lstab", 1] if command == "pipeline" else []
    code = run([command, "--recording", tmp_path / "missing.csv", "--annotations", anns,
                *mining, "--output", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "missing.csv" not in err


@pytest.mark.parametrize("extra, message", [
    (["--ig-top-k", 0], "ig_top_k must be >= 1, got 0"),
    (["--ig-top-k", 3], "ig_top_k requires labels"),
    # the default 6-14 Hz dominant band lies above Nyquist at 20 Hz
    (["--fs", 20], "invalid band [6.0, 14.0] for Nyquist 10.0 Hz"),
], ids=["zero", "no-labels", "band-above-nyquist"])
def test_pipeline_rejects_a_setting_before_reading_a_file(tmp_path, capsys, extra, message):
    # the recording does not exist: the setting must fail first
    code = run(["pipeline", "--recording", tmp_path / "rec.csv",
                "--annotations", tmp_path / "anns.json", "--min-support", 0.4,
                "--min-lstab", 1, *extra, "--output", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_features_infinite_sample_rate_exits_2(tmp_path, capsys):
    segments = tmp_path / "segments.json"
    # json.dumps writes the Infinity literal, which json.load accepts
    segments.write_text(json.dumps([{
        "id": "x", "channel": "C3", "start_s": 0.0, "end_s": 1.0,
        "sample_rate": float("inf"), "samples": [float(i % 5) for i in range(64)],
    }]))
    out = tmp_path / "out"
    code = run(["features", "--segments", segments, "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert str(segments) in err and "segment 0" in err and "'x'" in err
    assert not (out / "features.csv").exists()


@pytest.mark.parametrize("bad", ["true", "false", '"1.5"', "1" + "0" * 400, "null", "[1.0]"],
                         ids=["true", "false", "string", "beyond-float", "null", "list"])
def test_features_rejects_bad_samples(stage_inputs, tmp_path, capsys, bad):
    segments = json.loads(stage_inputs["segments"].read_text())
    segments[1]["samples"][2] = "BAD"
    path = tmp_path / "segments.json"
    path.write_text(json.dumps(segments).replace('"BAD"', bad))
    out = tmp_path / "out"
    assert run(["features", "--segments", path, "--output", out]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "segment 1" in err and repr(segments[1]["id"]) in err
    assert "samples" in err
    assert not (out / "features.csv").exists()


def test_features_reads_integer_samples_as_their_floats(stage_inputs, tmp_path):
    segments = json.loads(stage_inputs["segments"].read_text())
    for segment in segments:
        segment["samples"] = [round(v * 1000) for v in segment["samples"]]
    for name, cast in (("int", int), ("float", float)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([{**s, "samples": list(map(cast, s["samples"]))}
                                    for s in segments]))
        assert run(["features", "--segments", path, "--output", tmp_path / name]) == 0
    assert ((tmp_path / "int" / "features.csv").read_bytes()
            == (tmp_path / "float" / "features.csv").read_bytes())


#: subcommand, input flag, the label its "cannot read" error gives the file
UNDECODABLE = [
    ("extract", "--annotations", "annotations"),
    ("features", "--segments", "segments"),
    ("context", "--features", "features"),
    ("mine", "--context", "context"),
    ("pipeline", "--config", "config"),
]


@pytest.mark.parametrize("command, flag, label", UNDECODABLE,
                         ids=[f"{command}-{flag}" for command, flag, _ in UNDECODABLE])
def test_undecodable_input_exits_2(two_cluster_files, tmp_path, capsys, command, flag, label):
    bad = tmp_path / "input"
    bad.write_bytes(b'[{"id": "s\xff"}]\n')
    extra = {"extract": ["--recording", two_cluster_files["recording"]],
             "mine": ["--min-support", 0, "--min-lstab", 0]}.get(command, [])
    code = run([command, flag, bad, *extra, "--output", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {label} ") and str(bad) in err
    assert not (tmp_path / "out").exists()


#: subcommand, the flag of a CSV input, the other arguments (keys of
#: ``stage_inputs`` stand for their files); extract gets no --fs, so it
#: must find the time column to infer the rate
CSV_INPUTS = [
    ("extract", "--recording", ["--annotations", "annotations"]),
    ("context", "--features", ["--labels", "labels"]),
    ("context", "--labels", ["--features", "features"]),
    ("mine", "--context", ["--min-support", "0.3", "--min-lstab", "1"]),
]


def _outputs_of_a_bom_copy(stage_inputs, tmp_path, command, flag, rest):
    """The outputs of ``command`` run on the file of ``flag`` and on a
    copy that starts with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    and Notepad's "UTF-8 with BOM" saves do.  Both runs take one input
    path and one output directory, which a report's config block records."""
    plain = Path(stage_inputs[flag[2:]]).read_bytes()
    path, out = tmp_path / "input", tmp_path / "out"
    args = [stage_inputs.get(arg, arg) for arg in rest]
    outputs = []
    for data in (plain, b"\xef\xbb\xbf" + plain):
        path.write_bytes(data)
        assert run([command, flag, path, *args, "--output", out]) == 0
        # a report's generated block holds its timings
        outputs.append({p.name: p.read_bytes().split(b'"generated"')[0]
                        for p in sorted(out.iterdir())})
        shutil.rmtree(out)
    return outputs


@pytest.mark.parametrize("command, flag, rest", CSV_INPUTS,
                         ids=[f"{command}-{flag}" for command, flag, _ in CSV_INPUTS])
def test_a_byte_order_mark_before_a_csv_header_is_ignored(stage_inputs, tmp_path, command,
                                                          flag, rest):
    plain, bom = _outputs_of_a_bom_copy(stage_inputs, tmp_path, command, flag, rest)
    assert plain and plain == bom
    if command == "extract":
        segments = json.loads(bom["segments.json"])
        assert [s["sample_rate"] for s in segments] == [pytest.approx(200.0)] * len(segments)


#: subcommand, the flag of a JSON input, the other arguments
JSON_INPUTS = [
    ("extract", "--annotations", ["--recording", "recording"]),
    ("features", "--segments", []),
    ("pipeline", "--config", []),
]


@pytest.mark.parametrize("command, flag, rest", JSON_INPUTS,
                         ids=[f"{command}-{flag}" for command, flag, _ in JSON_INPUTS])
def test_a_byte_order_mark_before_a_json_input_is_ignored(stage_inputs, tmp_path, command,
                                                          flag, rest):
    plain, bom = _outputs_of_a_bom_copy(stage_inputs, tmp_path, command, flag, rest)
    assert plain and plain == bom


@pytest.mark.parametrize("flags, setting", [
    (["--ig-top-k", 0], "ig_top_k"),
    (["--corr-threshold", 0], "corr_threshold"),
    (["--ig-bins", 1], "ig_bins"),
    # binning divides a float by it, which overflows
    (["--labels", "none-labels.csv", "--ig-bins", 10 ** 400], "ig_bins"),
], ids=["ig-top-k", "corr-threshold", "ig-bins", "ig-bins-beyond-float"])
def test_context_rejects_bad_settings_before_reading_a_file(tmp_path, capsys, flags, setting):
    out = tmp_path / "out"
    code = run(["context", "--features", tmp_path / "none.csv", *flags, "--output", out])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} ")
    assert not out.exists()


@pytest.mark.parametrize("bins", [2 ** 63, 10 ** 20])
def test_context_and_pipeline_run_with_large_ig_bins(stage_inputs, tmp_path, bins):
    assert run(["context", "--features", stage_inputs["features"],
                "--labels", stage_inputs["labels"], "--ig-bins", bins,
                "--output", tmp_path / "context"]) == 0
    assert run(["pipeline", "--config", stage_inputs["config"], "--ig-bins", bins,
                "--output", tmp_path / "pipeline"]) == 0


def test_context_ranks_a_column_whose_range_overflows(tmp_path):
    features, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
    features.write_text("id,a\ns1,-1e308\ns2,1e308\ns3,0\n")
    labels.write_text("id,class\ns1,x\ns2,y\ns3,x\n")
    assert run(["context", "--features", features, "--labels", labels, "--output", tmp_path]) == 0
    # three bins of one object each: the gain is the whole label entropy
    [entry] = json.loads((tmp_path / "selection.json").read_text())["ig_ranking"]
    assert entry == {"attribute": "a", "gain": pytest.approx(0.9183, abs=1e-4)}


@pytest.mark.parametrize("scale", [1e100, 1e-90, 1e-170],
                         ids=["overflow", "underflow", "sum-of-squares-underflows"])
def test_context_and_pipeline_reject_a_correlation_beyond_the_float_range(
        stage_inputs, tmp_path, capsys, scale):
    features = tmp_path / "features.csv"
    rows = [("s1", -1.0, -1.0), ("s2", 1.0, 1.0000001), ("s3", 0.0, 1e-100)]
    def write(factor):
        features.write_text("id,a,b\n" + "".join(f"{g},{a * factor!r},{b * factor!r}\n"
                                                  for g, a, b in rows))
    # at 1e10 the pair is measured, and b drops
    write(1e10)
    assert run(["context", "--features", features, "--output", tmp_path / "fine"]) == 0
    dropped = json.loads((tmp_path / "fine" / "selection.json").read_text())["dropped"]
    assert [(d["attribute"], d["partner"]) for d in dropped] == [("b", "a")]
    write(scale)
    out = tmp_path / "context"
    assert run(["context", "--features", features, "--output", out]) == 2
    assert capsys.readouterr().err.startswith("error: attributes 'a' and 'b': ")
    assert not out.exists()
    # the pipeline measures the same features on a recording scaled alike
    recording = tmp_path / "rec.csv"
    header, *samples = stage_inputs["recording"].read_text().splitlines()
    recording.write_text("\n".join([header] + [f"{t},{float(x) * scale!r}" for t, x in (
        line.split(",") for line in samples)]) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(stage_inputs["config"].read_text()),
                                  "recording": str(recording)}))
    with warnings.catch_warnings():
        # at 1e-170 the power of every segment underflows to 0
        warnings.simplefilter("ignore", ZeroPowerWarning)
        assert run(["pipeline", "--config", config, "--output", tmp_path / "pipeline"]) == 2
    assert capsys.readouterr().err.startswith("error: stage 'selection': attributes ")
    assert not (tmp_path / "pipeline").exists()


def test_pipeline_config_rejects_ig_bins_beyond_the_float_range(stage_inputs, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(stage_inputs["config"].read_text()),
                                  "ig_bins": 10 ** 400}))
    out = tmp_path / "out"
    assert run(["pipeline", "--config", config, "--output", out]) == 2
    assert capsys.readouterr().err.startswith("error: ig_bins ")
    assert not out.exists()


@pytest.mark.parametrize("argv, keys", [
    (["extract", "--recording", "rec.csv", "--annotations", "anns.json"], {"sample_rate"}),
    (["features", "--segments", "segments.json"], {"detrend"}),
    (["context", "--features", "features.csv"],
     {"labels", "corr_threshold", "ig_bins", "ig_top_k"}),
    (["mine", "--context", "context.csv", "--min-support", "0", "--min-lstab", "0"],
     {"stability_method", "bound_policy", "concept_cap", "dot"}),
], ids=["extract", "features", "context", "mine"])
def test_stage_flag_defaults_are_the_config_defaults(argv, keys):
    args = vars(spindlemine.cli.build_parser().parse_args([*argv, "--output", "out"]))
    defaults = {f.name: f.default for f in dataclasses.fields(pipeline.PipelineConfig)
                if f.default is not dataclasses.MISSING}
    shared = args.keys() & defaults.keys()
    assert shared == keys
    assert {k: args[k] for k in shared} == {k: defaults[k] for k in shared}


def test_every_setting_but_the_bands_is_a_pipeline_flag_stored_under_its_field():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    settings = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    settings -= {"dominant_band", "bands"}
    assert {a.dest for a in commands["pipeline"]._actions} == {"help", "config", *settings}
    args = vars(commands["pipeline"].parse_args(
        ["--ig-top-k", "3", "--fs", "250", "--seed", "7", "--concept-cap", "9", "--detrend"]))
    given = {"ig_top_k": 3, "sample_rate": 250.0, "seed": 7, "concept_cap": 9, "detrend": True}
    assert {k: (args[k], type(args[k])) for k in settings if args[k] is not None} == {
        k: (v, type(v)) for k, v in given.items()}
    # the config takes each parsed value as it is
    config = pipeline.PipelineConfig.from_mapping({
        "recording": "r.csv", "annotations": "a.json", "output_dir": "out",
        "min_support": 0.5, "min_lstab": 1.0, "labels": "l.csv", **given})
    assert {k: getattr(config, k) for k in given} == given


def test_pipeline_flags_and_config_keys_write_the_same_report(stage_inputs, tmp_path):
    files = {k: str(stage_inputs[k]) for k in ("recording", "annotations", "labels")}
    out, dot = tmp_path / "out", tmp_path / "out" / "l.dot"
    settings = {"min_support": 0.3, "min_lstab": 0.5, "sample_rate": 200.0,
                "stability_method": "bounds", "bound_policy": "mid", "corr_threshold": 0.9,
                "ig_bins": 4, "ig_top_k": 3, "concept_cap": 1000, "detrend": True, "seed": 7}
    flags = ["--recording", files["recording"], "--annotations", files["annotations"],
             "--labels", files["labels"], "--min-support", 0.3, "--min-lstab", 0.5,
             "--fs", 200, "--stability", "bounds", "--bound-policy", "mid",
             "--corr-threshold", 0.9, "--ig-bins", 4, "--ig-top-k", 3, "--concept-cap", 1000,
             "--detrend", "--seed", 7, "--dot", dot, "--output", out]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**files, **settings, "dot": str(dot), "output_dir": str(out)}))
    written, echoed = [], []
    for argv in (["pipeline", *flags], ["pipeline", "--config", config]):
        assert run(argv) == 0
        written.append({path.name: path.read_bytes().split(b'"generated"')[0]
                        for path in out.iterdir()})
        echoed.append(json.loads((out / "report.json").read_text())["config"])
        shutil.rmtree(out)
    assert written[0] == written[1]
    assert written[0].keys() == {"report.json", "summary.csv", "l.dot"}
    # every setting was given, and each reached the run
    assert {k: v for k, v in echoed[0].items() if k not in ("dominant_band", "bands")} == {
        **files, **settings, "dot": str(dot), "output_dir": str(out)}


def test_scoring_and_report_decisions_have_one_owner(two_cluster_files, tmp_path):
    # the stability method names and their check
    structure = IntervalPatternStructure(("g",), (), (IntervalDescription(()),))
    lattice = build_pattern_lattice(structure)
    settings = SimpleNamespace(min_support=0.5, min_lstab=1.0, bound_policy="upper",
                               stability_method="local", concept_cap=10)
    messages = set()
    for reject in (lambda: score_lattice(lattice, "local"),
                   lambda: pipeline.check_mining_settings(settings),
                   lambda: pipeline.PipelineConfig.from_mapping({
                       "recording": "r.csv", "annotations": "a.json", "output_dir": "out",
                       "min_support": 0.5, "min_lstab": 1.0, "stability_method": "local"})):
        with pytest.raises(InputError) as err:
            reject()
        messages.add(str(err.value))
    assert messages == {f"stability_method must be one of {STABILITY_METHODS}, got 'local'"}
    commands = spindlemine.cli.build_parser()._subparsers._group_actions[0].choices
    for command in ("mine", "pipeline"):
        flag = next(a for a in commands[command]._actions if a.dest == "stability_method")
        assert tuple(flag.choices) == STABILITY_METHODS

    # the score columns and the generated block of both reports
    mined, piped = tmp_path / "mine", tmp_path / "pipeline"
    assert run(["mine", "--context", MINE_DOT / "context.csv", "--min-support", 0.5,
                "--min-lstab", 1, "--stability", "bounds", "--output", mined]) == 0
    assert run(["pipeline", "--recording", two_cluster_files["recording"],
                "--annotations", two_cluster_files["annotations"], "--min-support", 0.4,
                "--min-lstab", 1, "--output", piped]) == 0
    for out in (mined, piped):
        with open(out / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:3] == ["pattern", "extent_size", "support"]
        assert tuple(header[3:3 + len(SCORE_FIELDS)]) == tuple(SCORE_FIELDS)
        assert header[3 + len(SCORE_FIELDS):5 + len(SCORE_FIELDS)] == ["method", "extent"]
    assert set(BOUND_POLICIES) <= SCORE_FIELDS.keys()
    generated = [json.loads(path.read_text())["generated"]
                 for path in (mined / "patterns.json", piped / "report.json")]
    assert generated[0].keys() == generated[1].keys() == {"timestamp", "timings_s"}

    # the refinement-direction count: one chain per interval end, one with none
    @given(tie_heavy_structures(max_attributes=4))
    def one_chain_per_direction(ps):
        assert len(ps.chains.chains) == max(2 * len(ps.attributes), 1)

    one_chain_per_direction()


@pytest.mark.parametrize("fs", ["nan", "inf", "0"])
def test_extract_rejects_a_sample_rate_that_is_not_finite_and_positive(
        two_cluster_files, tmp_path, capsys, fs):
    out = tmp_path / "out"
    code = run(["extract", "--recording", two_cluster_files["recording"],
                "--annotations", two_cluster_files["annotations"], "--fs", fs,
                "--output", out])
    assert code == 2
    assert "sample_rate must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fs", ["nan", "inf"])
def test_pipeline_rejects_a_bad_sample_rate_before_reading_a_file(tmp_path, capsys, fs):
    # the recording does not exist: the setting must fail first
    code = run(["pipeline", "--recording", tmp_path / "rec.csv",
                "--annotations", tmp_path / "anns.json", "--min-support", 0.4,
                "--min-lstab", 1, "--fs", fs, "--output", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sample_rate ")


@pytest.mark.parametrize("argv, setting", [
    (["mine", "--context", "none.csv", "--min-support", 2, "--min-lstab", 0], "min_support"),
    (["extract", "--recording", "none.csv", "--annotations", "none.json", "--fs", "nan"],
     "sample_rate"),
], ids=["mine-min-support", "extract-fs"])
def test_stage_settings_are_checked_before_any_file_is_read(
        tmp_path, capsys, monkeypatch, argv, setting):
    # none of the named input files exists: the setting must fail first
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run([*argv, "--output", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} ")
    assert not out.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--min-support", 2, "--min-lstab", 0], "min_support"),
    (["--min-support", 0, "--min-lstab", -1], "min_lstab"),
    (["--min-support", 0, "--min-lstab", "nan"], "min_lstab"),
    (["--min-support", 0, "--min-lstab", "inf"], "min_lstab"),
    (["--min-support", 0, "--min-lstab", 0, "--concept-cap", 0], "concept_cap"),
], ids=["min-support", "min-lstab", "min-lstab-nan", "min-lstab-inf", "concept-cap"])
def test_mine_rejects_bad_settings_before_building_the_lattice(
        tmp_path, capsys, monkeypatch, flags, setting):
    built = []
    build = pipeline.build_pattern_lattice
    monkeypatch.setattr(pipeline, "build_pattern_lattice",
                        lambda *args, **kwargs: built.append(1) or build(*args, **kwargs))
    context = tmp_path / "context.csv"
    context.write_text("id,a,b\ns1,1.0,2.0\ns2,2.0,3.0\n")
    out = tmp_path / "out"
    assert run(["mine", "--context", context, "--min-support", 0, "--min-lstab", 0,
                "--output", out]) == 0
    assert built == [1]  # the counter sees a lattice being built
    built.clear()
    capsys.readouterr()
    assert run(["mine", "--context", context, *flags, "--output", out]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting} ")


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A valid input file for every subcommand: the two-cluster recording
    run through the stage chain, and a pipeline config naming it."""
    root = tmp_path_factory.mktemp("stages")
    files = build_two_cluster_recording(root, n_events=6)
    for argv in (["extract", "--recording", files["recording"],
                  "--annotations", files["annotations"]],
                 ["features", "--segments", root / "segments.json"],
                 ["context", "--features", root / "features.csv",
                  "--corr-threshold", 1.0]):
        assert run([*argv, "--output", root]) == 0
    files["segments"] = root / "segments.json"
    files["features"] = root / "features.csv"
    files["context"] = root / "context.csv"
    files["config"] = root / "config.json"
    files["config"].write_text(json.dumps({
        "recording": str(files["recording"]), "annotations": str(files["annotations"]),
        "labels": str(files["labels"]), "output_dir": str(root / "unused"),
        "min_support": 0.3, "min_lstab": 1.0}))
    return files


#: subcommand, the flag whose file gets the random bytes, the other
#: arguments (keys of ``stage_inputs`` stand for their files)
STAGE_INPUTS = [
    ("extract", "--recording", ["--annotations", "annotations"]),
    ("extract", "--annotations", ["--recording", "recording"]),
    ("features", "--segments", []),
    ("context", "--features", ["--labels", "labels"]),
    ("context", "--labels", ["--features", "features"]),
    ("mine", "--context", ["--min-support", "0.3", "--min-lstab", "1"]),
    ("pipeline", "--config", []),
    ("pipeline", "--recording", ["--config", "config"]),
    ("pipeline", "--annotations", ["--config", "config"]),
    ("pipeline", "--labels", ["--config", "config"]),
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(STAGE_INPUTS), data=st.data())
def test_random_bytes_in_any_input_exit_0_2_or_3(stage_inputs, case, data):
    command, flag, rest = case
    valid = Path(stage_inputs[flag[2:]]).read_bytes()
    # random bytes, or the valid file with a short run of bytes overwritten
    start = data.draw(st.integers(0, len(valid)))
    payload = data.draw(st.binary(max_size=300) | st.binary(max_size=8).map(
        lambda b: valid[:start] + b + valid[start + len(b):]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(payload)
        argv = [command, flag, path, *(stage_inputs.get(a, a) for a in rest),
                "--output", Path(tmp) / "out"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) in (0, 2, 3)


def test_import_loads_no_scipy(two_cluster_files, tmp_path):
    # a fresh interpreter, so that modules other tests imported do not count
    # (conftest imports numpy before the package, so in-process runs never
    # take the lazy binding): importing the package and the CLI and running
    # `mine` load neither scipy nor numpy; a pipeline run in the same
    # interpreter then loads numpy on first use and writes the same report
    out = tmp_path / "out"
    pipeline_argv = [
        "pipeline",
        "--recording", two_cluster_files["recording"],
        "--annotations", two_cluster_files["annotations"],
        "--labels", two_cluster_files["labels"],
        "--min-support", 0.4, "--min-lstab", 1, "--corr-threshold", 1.0,
        "--output", out,
    ]
    assert run(pipeline_argv) == 0
    in_process = json.loads((out / "report.json").read_text())
    mine_argv = ["mine", "--context", MINE_DOT / "context.csv",
                 "--min-support", 0.5, "--min-lstab", 1, "--stability", "bounds",
                 "--dot", tmp_path / "mine" / "lattice.dot", "--output", tmp_path / "mine"]

    code = """if True:
        import json, sys, types
        import spindlemine, spindlemine.cli
        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy" or m.startswith("numpy."))
        mine, pipeline = json.loads(sys.argv[1])
        steps = {"import": loaded()}
        steps["mine"] = [spindlemine.cli.main(mine), loaded()]
        steps["pipeline"] = [spindlemine.cli.main(pipeline), loaded()]
        np = sys.modules["numpy"]
        steps["binding"] = (type(np) is types.ModuleType
                            and spindlemine.signals.np is np is spindlemine.selection.np)
        print(json.dumps(steps))
    """
    argvs = json.dumps([[str(a) for a in argv] for argv in (mine_argv, pipeline_argv)])
    done = subprocess.run([sys.executable, "-c", code, argvs], env=fresh_interpreter_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps["import"] == []
    assert steps["mine"] == [0, []]
    status, modules = steps["pipeline"]
    assert status == 0
    assert "numpy._core" in modules or "numpy.core" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    assert steps["binding"] is True
    fresh = json.loads((out / "report.json").read_text())
    del in_process["generated"], fresh["generated"]
    assert fresh == in_process


def test_import_without_numpy_fails_at_import():
    # numpy is bound lazily, yet a missing numpy still fails when the
    # package is imported, not later inside a stage
    code = """if True:
        import sys
        sys.modules["numpy"] = None
        try:
            import spindlemine
        except ImportError as exc:
            print(exc.name, "|", exc)
        else:
            print("imported")
    """
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    name, _, message = done.stdout.strip().partition(" | ")
    assert name == "numpy"
    assert "numpy" in message
