"""End-to-end mining pipeline: raw recording to filtered pattern report.

Stages (each independently available through the CLI):

1. extract annotated spindle segments from the recording and summarize
   each into a feature row;
2. assemble the numeric context and select attributes (correlation prune,
   optional information-gain top-k when labels exist);
3. build the interval pattern lattice of the selected context;
4. score the concepts of at least the minimum relative support with the
   chosen stability method and keep those of at least the minimum LStab.

Stages 3 and 4 are :func:`mine`, which writes nothing.  The ``pipeline``
and ``mine`` commands' runs, :func:`run_pipeline` and :func:`run_mine`,
write their report before the optional DOT (:func:`_write_outputs`).

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
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InputError, SpindlemineError, StageError, read_json
from .fca import DEFAULT_CONCEPT_CAP, ConceptLattice, lattice_to_dot, names_in
from .intervals import IntervalPatternStructure, build_pattern_lattice, read_interval_csv
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
    check_band_settings,
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
#: The JSON type of each :class:`PipelineConfig` field annotation (``T |
#: None`` has ``T``'s); a band is a ``[low, high]`` pair of numbers.
JSON_KINDS = {"str": "string", "float": "number", "int": "integer", "bool": "boolean",
               "tuple[float, float]": "band", "tuple[tuple[float, float], ...]": "bands"}


def _config_value(key: str, value: Any) -> Any:
    """``value`` as :class:`PipelineConfig` holds the config key ``key``
    (bands become tuples); a value of another JSON type or shape raises
    :class:`InputError` naming the key.  A field annotated ``T | None`` may
    be null."""
    annotation = PipelineConfig.__dataclass_fields__[key].type
    kind = JSON_KINDS[annotation.removesuffix(" | None")]
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
        check_band_settings(self.dominant_band, self.bands, self.sample_rate)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
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
        given = {key: value for key, value in (overrides or {}).items() if value is not None}
        return cls.from_mapping({**data, **given})


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
            "patterns": list(self.patterns),
            "generated": self.generated,
        }


def _run_stage(name: str, timings: dict[str, float], fn: Callable[[], T]) -> T:
    start = perf_counter()
    try:
        result = fn()
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
    structure: IntervalPatternStructure, timings: dict[str, float], settings: Any
) -> tuple[ConceptLattice, tuple[dict[str, Any], ...]]:
    """Run the ``lattice``, ``stability`` (which scores the concepts of at
    least ``min_support``) and ``filter`` stages on ``structure``, each
    timed into ``timings``; return the lattice and the kept pattern
    entries.  Nothing is written.  ``settings`` (a :class:`PipelineConfig`
    or parsed ``mine`` flags) gives the :data:`MINING_KEYS` and ``dot``.
    With ``dot`` set the lattice stage builds the lower covers, so scoring
    reads its gaps off the covers that the DOT needs anyway.  Callers
    check ``settings`` first."""
    def _lattice() -> ConceptLattice:
        lattice = build_pattern_lattice(structure, concept_cap=settings.concept_cap)
        if settings.dot:
            lattice.children  # one cover pass for the scores and the DOT
        return lattice

    lattice = _run_stage("lattice", timings, _lattice)
    scores = _run_stage("stability", timings, lambda: score_lattice(
        lattice, settings.stability_method, settings.min_support))
    kept = _run_stage("filter", timings, lambda: filter_concepts(
        lattice, scores, min_support=settings.min_support, min_lstab=settings.min_lstab,
        bound_policy=settings.bound_policy))
    return lattice, tuple(pattern_entry(lattice, scores, i) for i in kept)


def run_mine(
    context: str, settings: Any, export: Callable[[PatternReport], Any] | None = None
) -> PatternReport:
    """The ``mine`` command's run: :func:`mine` the interval context CSV
    ``context`` with ``settings`` (parsed ``mine`` flags, checked by the
    caller); write and return the report as :func:`run_pipeline` does."""
    timings: dict[str, float] = {}
    total_start = perf_counter()
    structure = read_interval_csv(context)
    lattice, patterns = mine(structure, timings, settings)
    report = PatternReport(
        config={"context": context, **{k: getattr(settings, k) for k in MINING_KEYS}},
        stages={
            "context_objects": structure.n_objects,
            "context_attributes": len(structure.attributes),
            "concepts": len(lattice),
            "patterns_kept": len(patterns),
        },
        selection={},
        attributes=structure.attributes,
        patterns=patterns,
        generated=generated(timings, total_start),
    )
    return _write_outputs(report, lattice, settings.dot, export)


def run_pipeline(
    config: PipelineConfig, export: Callable[[PatternReport], Any] | None = None
) -> PatternReport:
    """Execute all stages and return the report.

    Raises :class:`StageError` on any failure.  Once every stage has
    succeeded, the report and the optional DOT (``config.dot``) are
    written by :func:`_write_outputs`; nothing else is written.
    """
    timings: dict[str, float] = {}
    total_start = perf_counter()

    sample_rate, annotations, segments = _run_stage("extract", timings, lambda: extract(
        config.recording, config.annotations, config.sample_rate))

    rows = _run_stage("features", timings, lambda: feature_rows(
        ((ann, sample_rate, samples) for ann, samples in segments),
        config.bands, config.dominant_band, config.detrend))

    context = _run_stage("context", timings, lambda: build_numeric_context(
        rows, labels=read_labels_csv(config.labels) if config.labels else None))
    selected, selection_report = _run_stage("selection", timings, lambda: select_attributes(
        context, corr_threshold=config.corr_threshold, ig_bins=config.ig_bins,
        ig_top_k=config.ig_top_k))
    lattice, patterns = mine(to_pattern_structure(selected), timings, config)
    report = PatternReport(
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
    return _write_outputs(report, lattice, config.dot, export)


def _write_outputs(report: PatternReport, lattice: ConceptLattice, dot: str | None,
                   export: Callable[[PatternReport], Any] | None) -> PatternReport:
    """Pass ``report`` to ``export`` (if given) and only then, with ``dot``
    set, write the lattice's cover relation there, parent directories
    included: a failed export leaves no DOT behind.  Return ``report``."""
    if export is not None:
        export(report)
    if dot:
        os.makedirs(os.path.dirname(dot) or ".", exist_ok=True)
        with open(dot, "w") as fh:
            fh.write(lattice_to_dot(lattice))
            fh.write("\n")
    return report


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
    """One report entry for concept ``index``, with the hull its structure
    gives the extent (:meth:`IntervalPatternStructure.ends`); no payload
    object is built."""
    mask = lattice.extent_masks[index]
    structure = lattice.structure
    size = mask.bit_count()
    intent = None
    if mask:
        ends = iter(structure.ends(mask))
        intent = dict(zip(structure.attributes, map(list, zip(ends, ends))))
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


def report_names(json_name: str = "report.json") -> tuple[str, str]:
    """The files :func:`export_report` writes: the JSON ``json_name``, the summary."""
    return json_name, "summary.csv"


def check_outputs(output_dir: str, names: Iterable[str], dot: str | None = None,
                  inputs: Iterable[str | None] = ()) -> list[str]:
    """The paths of the files ``names`` in ``output_dir``, checked before a
    command reads its ``inputs``: raise :class:`InputError` naming a path unless
    ``output_dir`` is not empty, the nearest existing path (a dangling symlink
    too) to it and to the DOT path ``dot``'s directory is a directory, and no
    output file or DOT is a directory or is, holds or lies inside an input or
    another output (compared by :func:`os.path.realpath`)."""
    if not output_dir:  # abspath("") is the working directory, makedirs("") fails
        raise InputError("output directory '' names no directory")
    paths = [os.path.join(output_dir, name) for name in names]
    directories = {"": output_dir}
    files = [(path, f"output file {path!r}") for path in paths]
    if dot:  # an empty path writes no DOT
        directories[f"dot {dot!r}: "] = os.path.dirname(dot) or "."
        files.append((dot, f"dot {dot!r}"))
    for what, directory in directories.items():
        probe = os.path.abspath(directory)
        while not os.path.lexists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise InputError(f"{what}output directory {directory!r} cannot be made: "
                             f"{probe!r} is not a directory")
    taken = [(os.path.realpath(path), f"the input {path!r}") for path in inputs if path]
    for path, what in files:
        if os.path.isdir(path):
            raise InputError(f"{what} is a directory")
        real = os.path.realpath(path)
        for other, whose in taken:
            if os.path.commonpath([real, other]) in (real, other):
                raise InputError(f"{what} clashes with {whose}")
        taken.append((real, f"the output file {real!r}"))
    return paths


def export_report(
    report: PatternReport,
    output_dir: str,
    json_name: str = report_names()[0],
) -> tuple[str, str]:
    """Write the full JSON report and a one-row-per-pattern CSV summary
    (:func:`report_names`), rendering each float once for both."""
    os.makedirs(output_dir, exist_ok=True)
    json_path, csv_path = (os.path.join(output_dir, name) for name in report_names(json_name))
    texts = _JsonText()
    with open(json_path, "w") as fh:
        fh.writelines(_report_pieces(report, texts))
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
    indent=2, allow_nan=False)`` plus a newline (:func:`_report_pieces`):
    a NaN or an infinity raises ``ValueError`` (``+inf`` LStab values are
    already strings by this point)."""
    return "".join(_report_pieces(report, _JsonText()))


def _report_pieces(report: PatternReport, texts: _JsonText) -> Iterator[str]:
    """:func:`report_to_json`'s text, one top-level item (and one pattern)
    at a time, so a writer never holds all of it.  A pattern of the shape
    the miner makes is written by :func:`_entry_text`; any other pattern,
    and every other top-level value, goes through :func:`json.dumps` and
    is re-indented, which is exact because an encoded string never holds
    a raw newline."""
    for n, (key, value) in enumerate(report.to_json_dict().items()):
        yield ("{\n  " if n == 0 else ",\n  ") + texts[key] + ": "
        if key == "patterns" and value:
            for m, item in enumerate(value):
                yield ("[\n    " if m == 0 else ",\n    ") + (
                    _entry_text(item, texts) or _dumps(item, "\n    "))
            yield "\n  ]"
        else:
            yield _dumps(value, "\n  ")
    yield "\n}\n"


def _dumps(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps`` writes it, each line break followed by ``newline``."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", newline)


#: The keys of a :func:`pattern_entry`, in order.
_ENTRY_KEYS = ("extent", "extent_size", "support", "intent", "stability")
_STR_FLOAT, _LIST, _PAIR = {str, float}, {list}, {2}


def _entry_text(entry: Any, texts: _JsonText) -> str | None:
    """A :func:`pattern_entry` as ``json.dumps`` writes it in a report's
    ``patterns`` list, in one flat join, or ``None`` when ``entry`` is not
    of that shape: a dict with the entry's keys in order, a list extent,
    an int size, an intent of ``None`` or a dict of two-item lists, a dict
    stability, string keys, and strings and floats everywhere else.  The
    types are checked a whole container at a time, and the text around
    the values comes from :func:`_entry_format`."""
    if type(entry) is not dict or tuple(entry) != _ENTRY_KEYS:
        return None
    extent, size, share, intent, stability = entry.values()
    if not (type(extent) is list and type(size) is int and type(stability) is dict
            and (intent is None or type(intent) is dict)):
        return None
    if intent is None:
        ends = []
    else:
        pairs = [*intent.values()]
        if not ({*map(type, pairs)} <= _LIST and {*map(len, pairs)} <= _PAIR):
            return None
        ends = [*chain(*pairs)]
    values = [*stability.values()]
    if not {type(share), *map(type, extent), *map(type, ends), *map(type, values)} <= _STR_FLOAT:
        return None
    form = _entry_format(intent if intent is None else (*intent,), (*stability,))
    if form is None:
        return None
    at = texts.__getitem__
    return form("[\n        " + ",\n        ".join(map(at, extent)) + "\n      ]"
                if extent else "[]",
                int.__repr__(size), at(share), *map(at, ends), *map(at, values))


@lru_cache(maxsize=256)
def _entry_format(intent_keys: tuple[Any, ...] | None,
                  stability_keys: tuple[Any, ...]) -> Callable[..., str] | None:
    """The ``str.format`` of a :func:`pattern_entry` in a report's
    ``patterns`` list whose intent (``None`` for a null one) and stability
    have these keys, with a field for the extent's text, the size, the
    support, each intent end and each stability value; ``None`` unless
    every key is a string."""
    if not {*map(type, intent_keys or ()), *map(type, stability_keys)} <= {str}:
        return None
    field = "\0"  # an encoded key never holds a raw NUL
    intent = "null" if intent_keys is None else _object_text(
        [f"{encode_basestring_ascii(key)}: [\n          {field},\n          {field}\n        ]"
         for key in intent_keys], "      ")
    stability = _object_text([f"{encode_basestring_ascii(key)}: {field}"
                              for key in stability_keys], "      ")
    text = _object_text([f'"extent": {field}', f'"extent_size": {field}',
                         f'"support": {field}', f'"intent": {intent}',
                         f'"stability": {stability}'], "    ")
    return text.replace("{", "{{").replace("}", "}}").replace(field, "{}").format


def _object_text(items: list[str], indent: str) -> str:
    """A JSON object of the rendered ``key: value`` ``items``, nested at ``indent``."""
    inner = indent + "  "
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if items else "{}"


def read_report_json(path: str) -> dict[str, Any]:
    return read_json(path, "report")
