"""End-to-end mining pipeline: raw recording to filtered pattern report.

Stages (each independently available through the CLI):

1. extract annotated spindle segments from the recording and summarize
   each into a feature row;
2. assemble the numeric context and select attributes (correlation prune,
   optional information-gain top-k when labels exist);
3. build the interval pattern lattice of the selected context;
4. score the concepts of at least the minimum relative support with the
   chosen stability method and keep those of at least the minimum LStab.

A failure is re-raised as :class:`StageError` carrying the stage name and
the offending record; no output files are written for a failed run.  The
report is deterministic for fixed inputs and config — the only volatile
part is the ``generated`` block (timestamp and wall-clock timings), which
consumers must ignore when comparing reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import InputError, SpindlemineError, StageError, read_json
from .fca import DEFAULT_CONCEPT_CAP, ConceptLattice, lattice_to_dot, names_in
from .intervals import IntervalPatternStructure, build_pattern_lattice
from .selection import (
    build_numeric_context,
    check_selection_settings,
    read_labels_csv,
    select_attributes,
    to_pattern_structure,
)
from .signals import (
    DEFAULT_BANDS,
    DEFAULT_DOMINANT_BAND,
    FeatureRow,
    SpindleAnnotation,
    check_bands,
    check_sample_rate,
    feature_row,
    read_annotations_json,
    read_recording_segments,
)
from .stability import (
    SCORE_FIELDS,
    StabilityScore,
    check_stability_method,
    check_thresholds,
    filter_concepts,
    score_fields,
    score_lattice,
    support,
)

#: The mining settings, in the order a report echoes them.
MINING_KEYS = ("min_support", "min_lstab", "stability_method", "bound_policy", "concept_cap")

T = TypeVar("T")


def check_mining_settings(settings: Any) -> None:
    """Raise :class:`InputError` for a mining setting of ``settings`` (a
    :class:`PipelineConfig` or parsed ``mine`` flags) outside its domain:
    :func:`check_thresholds`, a finite ``min_lstab`` (the report echoes it
    as a JSON number), the stability method and the concept cap."""
    check_thresholds(settings.min_support, settings.min_lstab, settings.bound_policy)
    if settings.min_lstab == math.inf:
        raise InputError(f"min_lstab {settings.min_lstab} must be finite")
    check_stability_method(settings.stability_method)
    if settings.concept_cap < 1:
        raise InputError(f"concept_cap must be >= 1, got {settings.concept_cap}")


_JSON_TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool}
#: The JSON type of each :class:`PipelineConfig` field annotation; a band
#: is a ``[low, high]`` pair of numbers.
_JSON_KINDS = {"str": "string", "float": "number", "int": "integer", "bool": "boolean",
               "tuple[float, float]": "band", "tuple[tuple[float, float], ...]": "bands"}


def _config_value(key: str, value: Any) -> Any:
    """``value`` as :class:`PipelineConfig` holds the config key ``key``
    (bands become tuples); a value of another JSON type or shape raises
    :class:`InputError` naming the key.  A field annotated ``T | None`` may
    be null."""
    annotation = PipelineConfig.__dataclass_fields__[key].type
    kind = _JSON_KINDS[annotation.removesuffix(" | None")]
    try:
        if value is None and annotation.endswith(" | None"):
            return None
        if kind == "bands":
            return tuple(map(_band, value))
        return _band(value) if kind == "band" else _typed(value, kind)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config key {key!r}: {exc}") from exc


def _typed(value: Any, kind: str) -> Any:
    # bool is an int subclass: true is no number and 1 no boolean
    if isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "boolean"):
        return value
    raise TypeError(f"expected {kind}, got {value!r}")


def _band(value: Any) -> tuple[Any, Any]:
    lo, hi = value
    return _typed(lo, "number"), _typed(hi, "number")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; thresholds are deliberately mandatory.

    ``seed`` is accepted and echoed into the report so configs stay
    replayable if sampled diagnostics ever land; the current pipeline is
    fully deterministic and does not consume it.
    """

    recording: str
    annotations: str
    output_dir: str
    min_support: float
    min_lstab: float
    labels: str | None = None
    sample_rate: float | None = None
    dominant_band: tuple[float, float] = DEFAULT_DOMINANT_BAND
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    corr_threshold: float = 0.95
    ig_bins: int = 5
    ig_top_k: int | None = None
    bound_policy: str = "upper"
    stability_method: str = "exact-dp"
    concept_cap: int = DEFAULT_CONCEPT_CAP
    detrend: bool = False
    dot: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        check_mining_settings(self)
        check_selection_settings(self.corr_threshold, self.ig_bins, self.ig_top_k,
                                 bool(self.labels))
        lo, hi = self.dominant_band
        if not 0.0 <= lo < hi:
            raise InputError(f"invalid dominant_band [{lo}, {hi}]")
        previous_hi = None
        for lo, hi in self.bands:
            if not 0.0 <= lo < hi:
                raise InputError(f"invalid band [{lo}, {hi}]")
            if previous_hi is not None and lo < previous_hi:
                raise InputError("bands must be sorted and non-overlapping")
            previous_hi = hi
        if self.sample_rate is not None:
            # an explicit rate fixes Nyquist before any file is read
            check_bands([self.dominant_band, *self.bands], self.sample_rate)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        coerced = {key: _config_value(key, value) for key, value in data.items()}
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise InputError(f"incomplete config: {exc}") from exc

    @classmethod
    def from_file(
        cls, path: str, overrides: Mapping[str, Any] | None = None
    ) -> "PipelineConfig":
        """Load a JSON config file; non-``None`` overrides win."""
        data = read_json(path, "config")
        if not isinstance(data, dict):
            raise InputError(f"{path}: config must be a JSON object")
        merged = dict(data)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        return cls.from_mapping(merged)


@dataclass(frozen=True)
class PatternReport:
    """The pipeline's result: filtered patterns plus run metadata."""

    config: dict[str, Any]
    stages: dict[str, int]
    selection: dict[str, Any]
    attributes: tuple[str, ...]
    patterns: tuple[dict[str, Any], ...]
    generated: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "stages": self.stages,
            "selection": self.selection,
            "attributes": list(self.attributes),
            "patterns": [dict(p) for p in self.patterns],
            "generated": self.generated,
        }


def _run_stage(name: str, timings: dict[str, float], fn: Callable[[], T]) -> T:
    start = perf_counter()
    try:
        result = fn()
    except StageError:
        raise
    except SpindlemineError as exc:
        raise StageError(name, str(exc), cause=exc) from exc
    timings[name] = perf_counter() - start
    return result


def extract(
    recording_path: str, annotations_path: str, sample_rate: float | None
) -> tuple[float, list[SpindleAnnotation], list[tuple[SpindleAnnotation, Any]]]:
    """``(sample_rate, annotations, segments)``: the annotations and each
    annotated segment, cut out of the recording in one pass that keeps
    only the segments (:func:`read_recording_segments`).

    An explicit ``sample_rate`` is checked first, then the annotations
    are read, and an empty list raises :class:`InputError` before the
    recording is opened."""
    if sample_rate is not None:
        check_sample_rate(sample_rate)
    annotations = read_annotations_json(annotations_path)
    if not annotations:
        raise InputError("no segments: the annotation list is empty")
    sample_rate, segments = read_recording_segments(recording_path, annotations, sample_rate)
    return sample_rate, annotations, segments


def feature_rows(
    triples: Iterable[tuple[SpindleAnnotation, float, Any]],
    bands: Sequence[tuple[float, float]],
    dominant_band: tuple[float, float],
    detrend: bool,
) -> list[tuple[str, FeatureRow]]:
    """``(id, feature row)`` per ``(annotation, sample_rate, samples)``
    triple; a failing segment raises :class:`InputError` naming its
    annotation."""
    rows = []
    for ann, sample_rate, samples in triples:
        try:
            rows.append((ann.id, feature_row(samples, sample_rate, bands=bands,
                                             dominant_band=dominant_band, detrend=detrend)))
        except SpindlemineError as exc:
            raise InputError(f"annotation {ann.id!r}: {exc}") from exc
    return rows


def mine(
    structure: IntervalPatternStructure,
    timings: dict[str, float],
    settings: Any,
) -> tuple[ConceptLattice, tuple[dict[str, Any], ...]]:
    """Run the ``lattice``, ``stability`` (which scores the concepts of at
    least ``min_support``) and ``filter`` stages on ``structure``, each
    timed into ``timings``; return the lattice and the kept pattern
    entries.  ``settings`` (a :class:`PipelineConfig` or parsed ``mine``
    flags) gives the :data:`MINING_KEYS` and ``dot``; with ``dot`` set, the
    cover relation is written there, parent directories included, once
    every stage has succeeded.  Callers check ``settings`` first."""
    lattice = _run_stage("lattice", timings, lambda: build_pattern_lattice(
        structure, concept_cap=settings.concept_cap))
    scores = _run_stage("stability", timings, lambda: score_lattice(
        lattice, settings.stability_method, settings.min_support))
    kept = _run_stage("filter", timings, lambda: filter_concepts(
        lattice, scores, min_support=settings.min_support, min_lstab=settings.min_lstab,
        bound_policy=settings.bound_policy))
    patterns = tuple(pattern_entry(lattice, scores, i) for i in kept)
    if settings.dot:
        os.makedirs(os.path.dirname(settings.dot) or ".", exist_ok=True)
        with open(settings.dot, "w") as fh:
            fh.write(lattice_to_dot(lattice))
            fh.write("\n")
    return lattice, patterns


def run_pipeline(config: PipelineConfig) -> PatternReport:
    """Execute all stages and assemble the report.

    Raises :class:`StageError` on any failure; writes nothing except the
    optional DOT export of the cover relation (``config.dot``), which
    happens only after every stage has succeeded.
    """
    timings: dict[str, float] = {}
    total_start = perf_counter()

    sample_rate, annotations, segments = _run_stage("extract", timings, lambda: extract(
        config.recording, config.annotations, config.sample_rate))

    rows = _run_stage("features", timings, lambda: feature_rows(
        ((ann, sample_rate, samples) for ann, samples in segments),
        config.bands, config.dominant_band, config.detrend))

    def _context():
        labels = read_labels_csv(config.labels) if config.labels else None
        return build_numeric_context(rows, labels=labels)

    context = _run_stage("context", timings, _context)
    selected, selection_report = _run_stage("selection", timings, lambda: select_attributes(
        context, corr_threshold=config.corr_threshold, ig_bins=config.ig_bins,
        ig_top_k=config.ig_top_k))
    lattice, patterns = mine(to_pattern_structure(selected), timings, config)
    return PatternReport(
        config=_echo_config(config),
        stages={
            "annotations": len(annotations),
            "segments": len(segments),
            "context_objects": context.n_objects,
            "context_attributes": context.n_attributes,
            "selected_attributes": selected.n_attributes,
            "concepts": len(lattice),
            "patterns_kept": len(patterns),
        },
        selection=selection_report,
        attributes=selected.attributes,
        patterns=patterns,
        generated=generated(timings, total_start),
    )


def generated(timings: dict[str, float], start: float) -> dict[str, Any]:
    """A report's ``generated`` block: the stage ``timings`` with their
    ``total`` since ``start`` (a :func:`perf_counter` reading), and the
    current UTC time."""
    timings["total"] = perf_counter() - start
    return {"timestamp": datetime.now(timezone.utc).isoformat(), "timings_s": timings}


def _echo_config(config: PipelineConfig) -> dict[str, Any]:
    echo = asdict(config)
    echo["dominant_band"] = list(config.dominant_band)
    echo["bands"] = [list(b) for b in config.bands]
    return echo


def pattern_entry(
    lattice: ConceptLattice, scores: Mapping[int, StabilityScore], index: int
) -> dict[str, Any]:
    """One report entry for concept ``index``, with the intent its
    structure gives the extent; ``lattice.concepts`` is not read, so only
    the reported payloads are built."""
    mask = lattice.extent_masks[index]
    concept = lattice.structure.concept(mask)
    size = mask.bit_count()
    intent = None
    if concept.intent is not None:
        intent = dict(zip(lattice.structure.attributes, map(list, concept.intent.intervals)))
    return {
        "extent": names_in(lattice.object_names, mask),
        "extent_size": size,
        "support": support(size, lattice.n_objects),
        "intent": intent,
        "stability": score_fields(scores[index]),
    }


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_report(
    report: PatternReport,
    output_dir: str,
    json_name: str = "report.json",
) -> tuple[str, str]:
    """Write the full JSON report and a one-row-per-pattern CSV summary,
    rendering each float once for both."""
    os.makedirs(output_dir, exist_ok=True)
    json_path = os.path.join(output_dir, json_name)
    csv_path = os.path.join(output_dir, "summary.csv")
    texts = _JsonText()
    with open(json_path, "w") as fh:
        fh.write(_json_text(report.to_json_dict(), texts) + "\n")
    attributes = report.attributes
    no_intent = [""] * len(attributes)
    # a score column is blank where a score has no such value
    rows = [["pattern", "extent_size", "support", *SCORE_FIELDS, "method", "extent",
             *attributes]]
    for i, pattern in enumerate(report.patterns):
        stab = pattern["stability"]
        intent = pattern["intent"]
        rows.append([
            i, pattern["extent_size"], texts[pattern["support"]],
            *["" if v is None else v if isinstance(v, str) else texts[v]
              for v in map(stab.get, SCORE_FIELDS)],
            stab["method"], ";".join(pattern["extent"]),
            # an interval cell as intervals.format_interval writes it
            *(no_intent if intent is None
              else [texts[lo] if lo == hi else f"{texts[lo]}..{texts[hi]}"
                    for lo, hi in map(intent.__getitem__, attributes)]),
        ])
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return json_path, csv_path


class _JsonText(dict):
    """The JSON text of each string and number rendered so far, filled on
    first use: a string as ``encode_basestring_ascii`` quotes it, a number
    as ``repr(float(x))`` after the encoder's finiteness check (a NaN or an
    infinity raises its ``ValueError``).  A zero is never kept: ``-0.0 ==
    0.0`` would share one entry, and the two print differently."""

    def __missing__(self, value: Any) -> str:
        if type(value) is str:
            text = self[value] = encode_basestring_ascii(value)
            return text
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        text = float.__repr__(number)
        if number:
            self[value] = text
        return text


def report_to_json(report: PatternReport) -> str:
    """Serialize a report, byte for byte as ``json.dumps(...,
    indent=2, allow_nan=False)`` plus a newline; non-finite numbers are
    not allowed to leak in (``+inf`` LStab values are already strings by
    this point)."""
    return _json_text(report.to_json_dict(), _JsonText()) + "\n"


def _json_text(value: Any, texts: _JsonText, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it, nested at ``indent``, without CPython's pure-Python indenting
    encoder.  Strings, floats, ints, lists and string-keyed dicts are
    joined from pieces encoded as the encoder encodes them; each string's
    and float's text comes from ``texts``, so it is built once per
    distinct value.  A list of only strings and floats is joined in one
    ``map``, and a dict's string and float values are looked up in place:
    only the other values recurse.  Any other value goes through
    :func:`json.dumps` and is re-indented, which is exact because an
    encoded string never holds a raw newline."""
    kind = type(value)
    if kind is str or kind is float:
        return texts[value]
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list and value:
        if set(map(type, value)) <= {str, float}:
            items = map(texts.__getitem__, value)
        else:
            items = [_json_text(v, texts, inner) for v in value]
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if kind is dict and value and set(map(type, value)) == {str}:
        items = []
        for k, v in value.items():
            v_kind = type(v)
            items.append(f"{texts[k]}: " + (texts[v] if v_kind is str or v_kind is float
                                            else _json_text(v, texts, inner)))
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def read_report_json(path: str) -> dict[str, Any]:
    return read_json(path, "report")
