"""End-to-end pipeline runs on a synthetic two-population recording."""

import json
import math
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from spindlemine import pipeline
from spindlemine.errors import CapacityError, InputError, StageError
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    build_pattern_lattice,
)
from spindlemine.pipeline import (
    PatternReport,
    PipelineConfig,
    export_report,
    pattern_entry,
    read_report_json,
    report_to_json,
    run_pipeline,
)
from spindlemine.stability import (
    STABILITY_METHODS,
    score_fields,
    score_lattice,
    stability_bruteforce,
)

from conftest import reference_summary_csv, tie_heavy_structures


def fixture_config(files, out_dir, **overrides) -> PipelineConfig:
    base = dict(
        recording=str(files["recording"]),
        annotations=str(files["annotations"]),
        labels=str(files["labels"]),
        output_dir=str(out_dir),
        min_support=0.4,
        min_lstab=1.0,
        corr_threshold=1.0,
    )
    base.update(overrides)
    return PipelineConfig.from_mapping(base)


def pattern_by_extent(report: PatternReport, extent: set[str]) -> dict:
    for p in report.patterns:
        if set(p["extent"]) == extent:
            return p
    raise AssertionError(f"no pattern with extent {sorted(extent)}")


EVEN = {f"s{i:02d}" for i in range(0, 12, 2)}
ODD = {f"s{i:02d}" for i in range(1, 12, 2)}


# ---------------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------------


def test_two_cluster_run(two_cluster_files, tmp_path):
    report = run_pipeline(fixture_config(two_cluster_files, tmp_path / "out"))
    assert report.stages == {
        "annotations": 12,
        "segments": 12,
        "context_objects": 12,
        "context_attributes": 20,
        "selected_attributes": 20,
        "concepts": 4,  # top, two clusters, bottom
        "patterns_kept": 3,
    }
    assert report.attributes[:2] == ("mean_amplitude_uV", "max_amplitude_uV")

    low = pattern_by_extent(report, EVEN)
    high = pattern_by_extent(report, ODD)
    top = pattern_by_extent(report, EVEN | ODD)

    # the populations separate cleanly on the dominant frequency
    lo_dom = low["intent"]["dominant_frequency_Hz"]
    hi_dom = high["intent"]["dominant_frequency_Hz"]
    assert 9.0 <= lo_dom[0] == lo_dom[1] <= 11.0
    assert 12.0 <= hi_dom[0] == hi_dom[1] <= 14.0
    assert low["intent"]["max_amplitude_uV"] == [20.0, 20.0]
    assert high["intent"]["max_amplitude_uV"] == [40.0, 40.0]

    # identical rows within a population: only losing all 6 members
    # escapes the cluster concept, so q = 2^6 - 1 and LStab = 6
    for cluster in (low, high):
        assert cluster["support"] == 0.5
        assert cluster["stability"]["lstab"] == 6.0
        assert cluster["stability"]["method"] == "lattice-dp"
    assert top["support"] == 1.0
    assert top["stability"]["lstab"] == pytest.approx(5.011315313227834)

    # every label stays with its population
    assert report.selection["ig_ranking"][0]["gain"] == 1.0


def test_stages_count_the_input_annotations(two_cluster_files, tmp_path, monkeypatch):
    # an extractor that cuts fewer segments than there are annotations
    # shows that the two counts are read from different lists
    def fewer(*args):
        sample_rate, segments = cut(*args)
        return sample_rate, segments[:-1]

    cut = pipeline.read_recording_segments
    monkeypatch.setattr(pipeline, "read_recording_segments", fewer)
    report = run_pipeline(fixture_config(two_cluster_files, tmp_path / "out"))
    assert (report.stages["annotations"], report.stages["segments"]) == (12, 11)
    assert report.stages["context_objects"] == 11


def test_methods_agree_on_the_filtered_set(two_cluster_files, tmp_path, monkeypatch):
    mined = []  # (structure, lattice) per run

    def spy(structure, *args, **kwargs):
        lattice, patterns = real_mine(structure, *args, **kwargs)
        mined.append((structure, lattice))
        return lattice, patterns

    real_mine = pipeline.mine
    monkeypatch.setattr(pipeline, "mine", spy)
    reports = {method: run_pipeline(fixture_config(two_cluster_files, tmp_path / method,
                                                   stability_method=method))
               for method in ("exact-dp", "bounds")}
    kept = {method: {frozenset(p["extent"]) for p in report.patterns}
            for method, report in reports.items()}
    assert kept["exact-dp"] == kept["bounds"] != set()
    # every kept exact-dp LStab is the one subset enumeration counts
    structure, lattice = mined[0]
    index = {frozenset(lattice.extent_names(i)): i for i in range(len(lattice))}
    for p in reports["exact-dp"].patterns:
        brute = stability_bruteforce(structure, lattice.concepts[index[frozenset(p["extent"])]])
        assert score_fields(brute)["lstab"] == p["stability"]["lstab"]


def test_bounds_method_reports_the_chain(two_cluster_files, tmp_path):
    report = run_pipeline(
        fixture_config(two_cluster_files, tmp_path / "b", stability_method="bounds")
    )
    cluster = pattern_by_extent(report, EVEN)
    stab = cluster["stability"]
    assert stab["method"] == "bounds"
    assert stab["lower"] <= stab["mid"] <= stab["upper"]
    assert stab["upper"] == 6.0  # one child (the bottom) at distance 6


def test_report_is_deterministic(two_cluster_files, tmp_path):
    texts = []
    for run in ("first", "second"):
        report = run_pipeline(fixture_config(two_cluster_files, tmp_path / run))
        payload = report.to_json_dict()
        generated = payload.pop("generated")
        assert set(generated) == {"timestamp", "timings_s"}
        # the config echo contains the differing output dir; normalize it
        payload["config"]["output_dir"] = "X"
        texts.append(json.dumps(payload, sort_keys=True))
    assert texts[0] == texts[1]


def test_seed_is_echoed_but_unused(two_cluster_files, tmp_path):
    report = run_pipeline(
        fixture_config(two_cluster_files, tmp_path / "s", seed=1234)
    )
    assert report.config["seed"] == 1234


# ---------------------------------------------------------------------------
# stage failures
# ---------------------------------------------------------------------------


def test_empty_annotations_fail_at_extract(two_cluster_files, tmp_path):
    empty = tmp_path / "none.json"
    empty.write_text("[]")
    config = fixture_config(two_cluster_files, tmp_path / "out",
                            annotations=str(empty))
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "extract"
    assert "no segments" in str(err.value)


def test_feature_failure_names_the_annotation(two_cluster_files, tmp_path):
    # a 2-sample segment has no DFT grid point inside the search band
    anns = json.loads(two_cluster_files["annotations"].read_text())
    anns.append({"id": "shorty", "start_s": 0.0, "end_s": 0.011, "channel": "C3"})
    bad = tmp_path / "anns.json"
    bad.write_text(json.dumps(anns))
    bad_labels = tmp_path / "labels.csv"
    bad_labels.write_text(
        two_cluster_files["labels"].read_text() + "shorty,alpha\n"
    )
    config = fixture_config(two_cluster_files, tmp_path / "out",
                            annotations=str(bad), labels=str(bad_labels))
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "features"
    assert "shorty" in str(err.value)


def test_missing_label_fails_at_context(two_cluster_files, tmp_path):
    partial = tmp_path / "partial.csv"
    lines = two_cluster_files["labels"].read_text().splitlines()[:-1]
    partial.write_text("\n".join(lines) + "\n")
    config = fixture_config(two_cluster_files, tmp_path / "out",
                            labels=str(partial))
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "context"


def test_concept_cap_surfaces_as_capacity_stage_error(two_cluster_files, tmp_path):
    config = fixture_config(two_cluster_files, tmp_path / "out", concept_cap=2)
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "lattice"
    assert isinstance(err.value.cause, CapacityError)


def test_dot_only_written_on_success(two_cluster_files, tmp_path):
    dot = tmp_path / "lattice.dot"
    config = fixture_config(two_cluster_files, tmp_path / "out",
                            concept_cap=2, dot=str(dot))
    with pytest.raises(StageError):
        run_pipeline(config)
    assert not dot.exists()
    ok = fixture_config(two_cluster_files, tmp_path / "out2", dot=str(dot))
    run_pipeline(ok)
    assert dot.read_text().startswith("digraph lattice {")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    base = dict(recording="r", annotations="a", output_dir="o",
                min_support=0.5, min_lstab=1.0)
    PipelineConfig(**base)
    for bad in (
        {"min_support": 1.5},
        {"min_lstab": -1.0},
        {"min_lstab": float("nan")},
        {"min_lstab": math.inf},
        {"sample_rate": float("nan")},
        {"sample_rate": math.inf},
        {"sample_rate": 0.0},
        {"stability_method": "psychic"},
        {"bound_policy": "lowest"},
        {"corr_threshold": 0.0},
        {"ig_bins": 1},
        {"concept_cap": 0},
        {"dominant_band": (14.0, 6.0)},
        {"bands": ((1.0, 3.0), (2.0, 4.0))},  # overlapping
        {"bands": ((3.0, 1.0),)},
    ):
        with pytest.raises(InputError):
            PipelineConfig(**{**base, **bad})


def test_config_from_mapping_rejects_unknown_and_incomplete():
    with pytest.raises(InputError, match="unknown config key"):
        PipelineConfig.from_mapping({"recording": "r", "volume": 11})
    with pytest.raises(InputError, match="incomplete config"):
        PipelineConfig.from_mapping({"recording": "r"})


def test_config_from_file_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "recording": "rec.csv",
        "annotations": "anns.json",
        "output_dir": "out",
        "min_support": 0.25,
        "min_lstab": 2.0,
        "bands": [[1.0, 4.0], [4.0, 8.0]],
    }))
    config = PipelineConfig.from_file(str(path))
    assert config.min_support == 0.25
    assert config.bands == ((1.0, 4.0), (4.0, 8.0))
    # non-None overrides win; None overrides are ignored
    config = PipelineConfig.from_file(
        str(path), {"min_support": 0.75, "min_lstab": None}
    )
    assert config.min_support == 0.75
    assert config.min_lstab == 2.0
    with pytest.raises(InputError):
        PipelineConfig.from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(InputError):
        PipelineConfig.from_file(str(bad))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_and_read_back(two_cluster_files, tmp_path):
    out = tmp_path / "out"
    report = run_pipeline(fixture_config(two_cluster_files, out))
    json_path, csv_path = export_report(report, str(out))
    parsed = read_report_json(json_path)
    assert parsed == json.loads(report_to_json(report))
    assert len(parsed["patterns"]) == 3

    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    header = lines[0].split(",")
    assert header[:10] == [
        "pattern", "extent_size", "support", "stab", "lstab",
        "lower", "mid", "upper", "method", "extent",
    ]
    assert header[10:] == list(report.attributes)
    assert any("s00;s02;s04" in line for line in lines[1:])


def test_infinite_lstab_serializes_as_string(two_cluster_files, tmp_path):
    # with no support floor the empty-extent bottom concept is kept, and
    # its stability is exactly 1 (lstab sentinel)
    report = run_pipeline(
        fixture_config(two_cluster_files, tmp_path / "out",
                       min_support=0.0, min_lstab=0.0)
    )
    bottom = pattern_by_extent(report, set())
    assert bottom["intent"] is None
    assert bottom["stability"]["lstab"] == "inf"
    # the serialized report must stay strict JSON
    text = report_to_json(report)
    assert "Infinity" not in text
    json.loads(text)


# ---------------------------------------------------------------------------
# rendering: byte for byte as the stock encoder and the row-by-row CSV
# ---------------------------------------------------------------------------

#: Any JSON value json.dumps accepts, including the ones the report writer
#: hands to it (tuples, booleans, null, keys that are no strings).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=8,
)
#: names with quotes, backslashes, control and non-ASCII characters
_names = st.text(max_size=4)


def _report(structure, method, kept, extras=({}, {}, {}, {})) -> PatternReport:
    """A report on ``structure``'s lattice keeping the concepts ``kept``
    (indices modulo the concept count), scored by ``method``."""
    lattice = build_pattern_lattice(structure)
    scores = score_lattice(lattice, method)
    config, stages, selection, generated = extras
    return PatternReport(
        config=config, stages=stages, selection=selection,
        attributes=structure.attributes,
        patterns=tuple(pattern_entry(lattice, scores, i % len(lattice)) for i in kept),
        generated=generated,
    )


@st.composite
def reports(draw) -> PatternReport:
    """Patterns of a tie-heavy structure with drawn object and attribute
    names, by either stability method, and drawn values for the other
    report fields."""
    drawn = draw(tie_heavy_structures())
    objects = draw(st.lists(_names, min_size=drawn.n_objects, max_size=drawn.n_objects,
                            unique=True))
    attributes = draw(st.lists(_names, min_size=len(drawn.attributes),
                               max_size=len(drawn.attributes), unique=True))
    structure = IntervalPatternStructure(tuple(objects), tuple(attributes), drawn.descriptions)
    kept = draw(st.lists(st.integers(0, 64), max_size=8))
    extras = draw(st.tuples(*[st.dictionaries(_names, _json_values, max_size=3)] * 4))
    return _report(structure, draw(st.sampled_from(STABILITY_METHODS)), kept, extras)


def _edge_case_report(method: str) -> PatternReport:
    """Escaped names, -0.0 and the smallest subnormal as interval ends, and
    every concept kept, the empty-extent bottom (intent None, lstab "inf")
    included."""
    structure = IntervalPatternStructure(
        ('q"\\é', "g\n1", "€"), ("a\tb", '"'),
        (IntervalDescription(((-0.0, -0.0), (5e-324, 5e-324))),
         IntervalDescription(((0.0, 0.0), (1.0, 1.0))),
         IntervalDescription(((-1.5, 2.0), (5e-324, 1.0)))))
    extras = ({"flag": True, "none": None, "pair": (1, -0.0)}, {"concepts": 5},
              {1: [0.1]}, {"timings_s": {"total": 5e-324}})
    return _report(structure, method, range(len(build_pattern_lattice(structure))), extras)


@settings(deadline=None, max_examples=150)
@given(reports())
@example(_edge_case_report("exact-dp"))
@example(_edge_case_report("bounds"))
@example(_report(IntervalPatternStructure(("g",), (), (IntervalDescription(()),)),
                 "exact-dp", []))
def test_report_json_bytes_match_the_json_encoder(report):
    assert report_to_json(report) == (
        json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["pattern", "intent", "config"])
def test_report_json_rejects_non_finite_numbers(bad, where):
    report = _edge_case_report("bounds")
    if where == "pattern":
        report.patterns[0]["stability"]["upper"] = bad
    elif where == "intent":
        # an interval end, in a list of only floats
        report.patterns[0]["intent"]["a\tb"][1] = bad
    else:
        report.config["nested"] = [{"x": bad}]
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_to_json(report)


@settings(deadline=None, max_examples=100)
@given(reports())
@example(_edge_case_report("exact-dp"))
@example(_edge_case_report("bounds"))
def test_one_export_writes_both_files_as_their_reference_writers(report):
    # one export renders each float once, for both files
    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = export_report(report, tmp)
        with open(json_path, newline="") as fh:
            assert fh.read() == (
                json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n")
        with open(csv_path, newline="") as fh:
            assert fh.read() == reference_summary_csv(report)
