"""Command-line interface.

Subcommands mirror the pipeline stages so each intermediate artifact is a
file and independently testable:

``extract``   recording + annotations -> segments.json
``features``  segments.json -> features.csv
``context``   features.csv [+ labels.csv] -> context.csv + selection.json
``mine``      context.csv -> patterns.json + summary.csv
``pipeline``  everything in one go -> report.json + summary.csv

Exit codes: 0 success, 2 input error, 3 capacity limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from time import perf_counter

from .errors import CapacityError, InputError, StageError
from .fca import DEFAULT_CONCEPT_CAP
from .intervals import read_interval_csv
from .pipeline import (
    PatternReport,
    PipelineConfig,
    STABILITY_METHODS,
    export_report,
    feature_rows,
    mine,
    run_pipeline,
)
from .selection import (
    build_numeric_context,
    read_labels_csv,
    read_numeric_csv,
    select_attributes,
    write_numeric_csv,
    write_selection_json,
)
from .signals import (
    DEFAULT_BANDS,
    DEFAULT_DOMINANT_BAND,
    extract_segments,
    read_annotations_json,
    read_recording_csv,
    read_segments_json,
    write_segments_json,
)
from .stability import BOUND_POLICIES


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", required=True, metavar="DIR",
                   help="directory for result files (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindlemine",
        description="Mine stable frequent interval patterns from spindle EEG features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="cut annotated segments out of a recording")
    p.add_argument("--recording", required=True, help="recording CSV (time,<ch>,... )")
    p.add_argument("--annotations", required=True, help="annotations JSON")
    p.add_argument("--fs", type=float, default=None,
                   help="sample rate in Hz (required when the CSV has no time column)")
    _add_output(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("features", help="compute feature rows for extracted segments")
    p.add_argument("--segments", required=True, help="segments JSON from 'extract'")
    p.add_argument("--detrend", action="store_true", default=None,
                   help="remove the segment mean before spectral operations")
    _add_output(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("context", help="build the numeric context and select attributes")
    p.add_argument("--features", required=True, help="features CSV from 'features'")
    p.add_argument("--labels", default=None, help="optional labels CSV (id,class)")
    p.add_argument("--corr-threshold", type=float, default=0.95)
    p.add_argument("--ig-bins", type=int, default=5)
    p.add_argument("--ig-top-k", type=int, default=None)
    _add_output(p)
    p.set_defaults(func=cmd_context)

    p = sub.add_parser("mine", help="mine and filter interval patterns from a context")
    p.add_argument("--context", required=True, help="numeric context CSV")
    p.add_argument("--min-support", type=float, required=True)
    p.add_argument("--min-lstab", type=float, required=True)
    p.add_argument("--stability", choices=STABILITY_METHODS, default="exact-dp")
    p.add_argument("--bound-policy", choices=BOUND_POLICIES, default="upper")
    p.add_argument("--concept-cap", type=int, default=DEFAULT_CONCEPT_CAP)
    p.add_argument("--dot", default=None, help="also write the cover relation as DOT")
    _add_output(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("pipeline", help="run every stage in one process")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--recording", default=None)
    p.add_argument("--annotations", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--fs", type=float, default=None, dest="sample_rate")
    p.add_argument("--min-support", type=float, default=None)
    p.add_argument("--min-lstab", type=float, default=None)
    p.add_argument("--stability", choices=STABILITY_METHODS, default=None,
                   dest="stability_method")
    p.add_argument("--bound-policy", choices=BOUND_POLICIES, default=None)
    p.add_argument("--corr-threshold", type=float, default=None)
    p.add_argument("--ig-bins", type=int, default=None)
    p.add_argument("--ig-top-k", type=int, default=None)
    p.add_argument("--detrend", action="store_true", default=None)
    p.add_argument("--concept-cap", type=int, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, metavar="DIR", dest="output_dir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def cmd_extract(args) -> int:
    recording = read_recording_csv(args.recording, sample_rate=args.fs)
    annotations = read_annotations_json(args.annotations)
    segments = extract_segments(recording, annotations)
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "segments.json")
    write_segments_json(path, segments, recording.sample_rate)
    print(f"extracted {len(segments)} segments -> {path}")
    return 0


def cmd_features(args) -> int:
    triples = read_segments_json(args.segments)
    if not triples:
        raise InputError("no segments in input")
    rows = feature_rows(triples, DEFAULT_BANDS, DEFAULT_DOMINANT_BAND, bool(args.detrend))
    ctx = build_numeric_context(rows)
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "features.csv")
    write_numeric_csv(ctx, path)
    print(f"computed {ctx.n_objects} x {ctx.n_attributes} features -> {path}")
    return 0


def cmd_context(args) -> int:
    ctx = read_numeric_csv(args.features)
    if args.labels:
        ctx = ctx.with_labels(read_labels_csv(args.labels))
    selected, report = select_attributes(
        ctx,
        corr_threshold=args.corr_threshold,
        ig_bins=args.ig_bins,
        ig_top_k=args.ig_top_k,
    )
    os.makedirs(args.output, exist_ok=True)
    context_path = os.path.join(args.output, "context.csv")
    selection_path = os.path.join(args.output, "selection.json")
    write_numeric_csv(selected, context_path)
    write_selection_json(report, selection_path)
    print(f"retained {selected.n_attributes}/{ctx.n_attributes} attributes -> {context_path}")
    return 0


def cmd_mine(args) -> int:
    timings: dict[str, float] = {}
    total_start = perf_counter()
    structure = read_interval_csv(args.context)
    lattice, patterns = mine(
        structure, timings, min_support=args.min_support, min_lstab=args.min_lstab,
        stability_method=args.stability, bound_policy=args.bound_policy,
        concept_cap=args.concept_cap, dot=args.dot)
    timings["total"] = perf_counter() - total_start
    report = PatternReport(
        config={
            "context": args.context,
            "min_support": args.min_support,
            "min_lstab": args.min_lstab,
            "stability_method": args.stability,
            "bound_policy": args.bound_policy,
            "concept_cap": args.concept_cap,
        },
        stages={
            "context_objects": structure.n_objects,
            "context_attributes": len(structure.attributes),
            "concepts": len(lattice),
            "patterns_kept": len(patterns),
        },
        selection={},
        attributes=structure.attributes,
        patterns=patterns,
        generated={"timestamp": datetime.now(timezone.utc).isoformat(), "timings_s": timings},
    )
    json_path, _ = export_report(report, args.output, json_name="patterns.json")
    print(f"kept {len(patterns)}/{len(lattice)} concepts -> {json_path}")
    return 0


def cmd_pipeline(args) -> int:
    overrides = {
        "recording": args.recording,
        "annotations": args.annotations,
        "labels": args.labels,
        "sample_rate": args.sample_rate,
        "min_support": args.min_support,
        "min_lstab": args.min_lstab,
        "stability_method": args.stability_method,
        "bound_policy": args.bound_policy,
        "corr_threshold": args.corr_threshold,
        "ig_bins": args.ig_bins,
        "ig_top_k": args.ig_top_k,
        "detrend": args.detrend,
        "concept_cap": args.concept_cap,
        "dot": args.dot,
        "seed": args.seed,
        "output_dir": args.output_dir,
    }
    if args.config:
        config = PipelineConfig.from_file(args.config, overrides)
    else:
        config = PipelineConfig.from_mapping(
            {k: v for k, v in overrides.items() if v is not None}
        )
    report = run_pipeline(config)
    json_path, csv_path = export_report(report, config.output_dir)
    print(f"{len(report.patterns)} patterns -> {json_path}, {csv_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, CapacityError) else 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
