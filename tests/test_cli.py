"""Command-line behavior: subcommands, chaining, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spindlemine
from spindlemine.cli import main


def run(argv):
    return main([str(a) for a in argv])


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


def test_mine_dot_matches_committed_outputs(tmp_path):
    # a tie-heavy 16 x 3 point context (with -0.0 and 0.0 in one column);
    # --dot reads the cover relation of every concept, so this pins the
    # full cover order and the kept patterns byte for byte
    (tmp_path / "context.csv").write_bytes((MINE_DOT / "context.csv").read_bytes())
    src = str(Path(spindlemine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-m", "spindlemine", "mine", "--context", "context.csv",
                    "--min-support", "0.5", "--min-lstab", "1", "--stability", "bounds",
                    "--dot", "out/lattice.dot", "--output", "out"],
                   cwd=tmp_path, env=env, capture_output=True, timeout=60, check=True)
    out = tmp_path / "out"
    assert (out / "lattice.dot").read_bytes() == (MINE_DOT / "lattice.dot").read_bytes()
    # everything before the run's timestamp and timings
    got, want = ((d / "patterns.json").read_bytes().split(b'"generated"')[0]
                 for d in (out, MINE_DOT))
    assert got == want


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


def test_import_loads_no_scipy():
    # a fresh interpreter, so that modules other tests imported do not count
    src = str(Path(spindlemine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, spindlemine, spindlemine.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
