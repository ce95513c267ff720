"""End-to-end mining pipeline: raw recording to filtered pattern report.

Stages (each independently available through the CLI):

1. extract annotated spindle segments from the recording and summarize
   each into a feature row;
2. assemble the numeric context and select attributes (correlation prune,
   optional information-gain top-k when labels exist);
3. build the interval pattern lattice of the selected context;
4. score concepts with the chosen stability method and filter by relative
   support and minimum LStab.

A failure is re-raised as :class:`StageError` carrying the stage name and
the offending record; no output files are written for a failed run.  The
report is deterministic for fixed inputs and config — the only volatile
part is the ``generated`` block (timestamp and wall-clock timings), which
consumers must ignore when comparing reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import InputError, SpindlemineError, StageError
from .fca import DEFAULT_CONCEPT_CAP, ConceptLattice, lattice_to_dot
from .intervals import IntervalPatternStructure, build_pattern_lattice, format_interval
from .selection import (
    build_numeric_context,
    read_labels_csv,
    select_attributes,
    to_pattern_structure,
)
from .signals import (
    DEFAULT_BANDS,
    DEFAULT_DOMINANT_BAND,
    FeatureRow,
    SpindleAnnotation,
    extract_segments,
    feature_row,
    read_annotations_json,
    read_recording_csv,
)
from .stability import (
    BOUND_POLICIES,
    StabilityScore,
    filter_concepts,
    score_lattice,
    score_to_json,
)

STABILITY_METHODS = ("exact-dp", "bounds", "brute-force")

T = TypeVar("T")


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
        if not 0.0 <= self.min_support <= 1.0:
            raise InputError(f"min_support {self.min_support} outside [0, 1]")
        if self.min_lstab < 0.0:
            raise InputError(f"min_lstab {self.min_lstab} must be non-negative")
        if self.stability_method not in STABILITY_METHODS:
            raise InputError(
                f"stability_method must be one of {STABILITY_METHODS}, "
                f"got {self.stability_method!r}"
            )
        if self.bound_policy not in BOUND_POLICIES:
            raise InputError(
                f"bound_policy must be one of {BOUND_POLICIES}, got {self.bound_policy!r}"
            )
        if not 0.0 < self.corr_threshold <= 1.0:
            raise InputError(f"corr_threshold {self.corr_threshold} outside (0, 1]")
        if self.ig_bins < 2:
            raise InputError(f"ig_bins must be >= 2, got {self.ig_bins}")
        if self.concept_cap < 1:
            raise InputError(f"concept_cap must be >= 1, got {self.concept_cap}")
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

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        if "dominant_band" in coerced and coerced["dominant_band"] is not None:
            coerced["dominant_band"] = tuple(coerced["dominant_band"])
        if "bands" in coerced and coerced["bands"] is not None:
            coerced["bands"] = tuple(tuple(b) for b in coerced["bands"])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise InputError(f"incomplete config: {exc}") from exc

    @classmethod
    def from_file(
        cls, path: str, overrides: Mapping[str, Any] | None = None
    ) -> "PipelineConfig":
        """Load a JSON config file; non-``None`` overrides win."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
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
    *,
    min_support: float,
    min_lstab: float,
    stability_method: str,
    bound_policy: str,
    concept_cap: int,
    dot: str | None,
) -> tuple[ConceptLattice, tuple[dict[str, Any], ...]]:
    """Run the ``lattice``, ``stability`` and ``filter`` stages on
    ``structure``, each timed into ``timings``; return the lattice and the
    kept pattern entries.  With ``dot`` set, the cover relation is written
    there, parent directories included, once every stage has succeeded."""
    lattice = _run_stage("lattice", timings, lambda: build_pattern_lattice(
        structure, concept_cap=concept_cap))
    # Each interval attribute can be refined at its lower or upper end, so
    # 2 * m is the count of elementary refinement directions that the
    # bounds' lower term divides by.
    attribute_count = max(2 * len(structure.attributes), 1)
    scores = _run_stage("stability", timings, lambda: score_lattice(
        lattice, stability_method, structure=structure, attribute_count=attribute_count))
    kept = _run_stage("filter", timings, lambda: filter_concepts(
        lattice, scores, min_support=min_support, min_lstab=min_lstab,
        bound_policy=bound_policy))
    patterns = tuple(pattern_entry(lattice, scores, structure.attributes, i) for i in kept)
    if dot:
        os.makedirs(os.path.dirname(dot) or ".", exist_ok=True)
        with open(dot, "w") as fh:
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

    def _extract():
        recording = read_recording_csv(config.recording, sample_rate=config.sample_rate)
        annotations = read_annotations_json(config.annotations)
        if not annotations:
            raise InputError("no segments: the annotation list is empty")
        return recording, extract_segments(recording, annotations)

    recording, segments = _run_stage("extract", timings, _extract)

    rows = _run_stage("features", timings, lambda: feature_rows(
        ((ann, recording.sample_rate, samples) for ann, samples in segments),
        config.bands, config.dominant_band, config.detrend))

    def _context():
        labels = read_labels_csv(config.labels) if config.labels else None
        return build_numeric_context(rows, labels=labels)

    context = _run_stage("context", timings, _context)
    selected, selection_report = _run_stage("selection", timings, lambda: select_attributes(
        context, corr_threshold=config.corr_threshold, ig_bins=config.ig_bins,
        ig_top_k=config.ig_top_k))
    lattice, patterns = mine(
        to_pattern_structure(selected), timings,
        min_support=config.min_support, min_lstab=config.min_lstab,
        stability_method=config.stability_method, bound_policy=config.bound_policy,
        concept_cap=config.concept_cap, dot=config.dot)
    timings["total"] = perf_counter() - total_start
    return PatternReport(
        config=_echo_config(config),
        stages={
            "annotations": len(segments),
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
        generated={
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "timings_s": timings,
        },
    )


def _echo_config(config: PipelineConfig) -> dict[str, Any]:
    echo = asdict(config)
    echo["dominant_band"] = list(config.dominant_band)
    echo["bands"] = [list(b) for b in config.bands]
    return echo


def pattern_entry(
    lattice: ConceptLattice,
    scores: Mapping[int, StabilityScore],
    attributes: Sequence[str],
    index: int,
) -> dict[str, Any]:
    """One report entry for concept ``index``; ``attributes`` names the
    intervals of its intent."""
    concept = lattice.concepts[index]
    size = lattice.extent_masks[index].bit_count()
    n = lattice.n_objects
    intent = None
    if concept.intent is not None:
        intent = {
            name: [lo, hi]
            for name, (lo, hi) in zip(attributes, concept.intent.intervals)
        }
    stability_fields = {
        k: v
        for k, v in score_to_json(scores[index], n).items()
        if k not in ("extent_size", "support")
    }
    return {
        "extent": list(lattice.extent_names(index)),
        "extent_size": size,
        "support": 1.0 if n == 0 else size / n,
        "intent": intent,
        "stability": stability_fields,
    }


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_report(
    report: PatternReport,
    output_dir: str,
    json_name: str = "report.json",
    csv_name: str = "summary.csv",
) -> tuple[str, str]:
    """Write the full JSON report and a one-row-per-pattern CSV summary."""
    os.makedirs(output_dir, exist_ok=True)
    json_path = os.path.join(output_dir, json_name)
    csv_path = os.path.join(output_dir, csv_name)
    with open(json_path, "w") as fh:
        fh.write(report_to_json(report))
    with open(csv_path, "w", newline="") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        header = [
            "pattern", "extent_size", "support", "stab", "lstab",
            "lower", "mid", "upper", "method", "extent",
        ] + list(report.attributes)
        writer.writerow(header)
        for i, pattern in enumerate(report.patterns):
            stab = pattern["stability"]
            row = [
                i,
                pattern["extent_size"],
                repr(pattern["support"]),
                _csv_cell(stab.get("stab")),
                _csv_cell(stab.get("lstab")),
                _csv_cell(stab.get("lower")),
                _csv_cell(stab.get("mid")),
                _csv_cell(stab.get("upper")),
                stab["method"],
                ";".join(pattern["extent"]),
            ]
            intent = pattern["intent"]
            for name in report.attributes:
                if intent is None:
                    row.append("")
                else:
                    lo, hi = intent[name]
                    row.append(format_interval(lo, hi))
            writer.writerow(row)
    return json_path, csv_path


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def report_to_json(report: PatternReport) -> str:
    """Serialize a report; non-finite numbers are not allowed to leak in
    (``+inf`` LStab values are already strings by this point)."""
    return json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"


def read_report_json(path: str) -> dict[str, Any]:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
