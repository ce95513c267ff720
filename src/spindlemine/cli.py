"""Command-line interface.

Subcommands mirror the pipeline stages so each intermediate artifact is a
file and independently testable:

``extract``   recording + annotations -> segments.json
``features``  segments.json -> features.csv
``context``   features.csv [+ labels.csv] -> context.csv + selection.json
``mine``      context.csv -> patterns.json + summary.csv
``pipeline``  everything in one go -> report.json + summary.csv

A command checks its settings, then every file it writes, before it
reads an input (:func:`pipeline.check_outputs`); ``mine`` and ``pipeline``
export their run's report (:func:`pipeline.run_mine`, :func:`pipeline.run_pipeline`).

Exit codes: 0 success, 2 input error, 3 capacity limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CapacityError, InputError, StageError
from .pipeline import (
    PipelineConfig,
    check_mining_settings,
    check_outputs,
    export_report,
    extract,
    feature_rows,
    report_names,
    run_mine,
    run_pipeline,
)
from .selection import (
    build_numeric_context,
    check_selection_settings,
    read_labels_csv,
    read_numeric_csv,
    select_attributes,
    write_numeric_csv,
    write_selection_json,
)
from .signals import check_sample_rate, read_segments_json, write_segments_json
from .stability import BOUND_POLICIES, STABILITY_METHODS


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
    p.add_argument("--detrend", action="store_true", default=PipelineConfig.detrend,
                   help="remove the segment mean before spectral operations")
    _add_output(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("context", help="build the numeric context and select attributes")
    p.add_argument("--features", required=True, help="features CSV from 'features'")
    p.add_argument("--labels", default=None, help="optional labels CSV (id,class)")
    p.add_argument("--corr-threshold", type=float, default=PipelineConfig.corr_threshold)
    p.add_argument("--ig-bins", type=int, default=PipelineConfig.ig_bins)
    p.add_argument("--ig-top-k", type=int, default=PipelineConfig.ig_top_k)
    _add_output(p)
    p.set_defaults(func=cmd_context)

    p = sub.add_parser("mine", help="mine and filter interval patterns from a context")
    p.add_argument("--context", required=True, help="numeric context CSV")
    p.add_argument("--min-support", type=float, required=True)
    p.add_argument("--min-lstab", type=float, required=True)
    p.add_argument("--stability", choices=STABILITY_METHODS,
                   default=PipelineConfig.stability_method, dest="stability_method")
    p.add_argument("--bound-policy", choices=BOUND_POLICIES, default=PipelineConfig.bound_policy)
    p.add_argument("--concept-cap", type=int, default=PipelineConfig.concept_cap)
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
    if args.fs is not None:
        check_sample_rate(args.fs)
    [path] = check_outputs(args.output, ["segments.json"],
                           inputs=[args.recording, args.annotations])
    sample_rate, _, segments = extract(args.recording, args.annotations, args.fs)
    os.makedirs(args.output, exist_ok=True)
    write_segments_json(path, segments, sample_rate)
    print(f"extracted {len(segments)} segments -> {path}")
    return 0


def cmd_features(args) -> int:
    [path] = check_outputs(args.output, ["features.csv"], inputs=[args.segments])
    triples = read_segments_json(args.segments)
    if not triples:
        raise InputError("no segments in input")
    rows = feature_rows(triples, PipelineConfig.bands, PipelineConfig.dominant_band,
                        args.detrend)
    ctx = build_numeric_context(rows)
    os.makedirs(args.output, exist_ok=True)
    write_numeric_csv(ctx, path)
    print(f"computed {ctx.n_objects} x {ctx.n_attributes} features -> {path}")
    return 0


def cmd_context(args) -> int:
    check_selection_settings(args.corr_threshold, args.ig_bins, args.ig_top_k, bool(args.labels))
    context_path, selection_path = check_outputs(
        args.output, ["context.csv", "selection.json"], inputs=[args.features, args.labels])
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
    write_numeric_csv(selected, context_path)
    write_selection_json(report, selection_path)
    print(f"retained {selected.n_attributes}/{ctx.n_attributes} attributes -> {context_path}")
    return 0


def cmd_mine(args) -> int:
    check_mining_settings(args)
    json_name = "patterns.json"
    json_path, _ = check_outputs(args.output, report_names(json_name), args.dot, [args.context])
    report = run_mine(args.context, args, lambda r: export_report(r, args.output, json_name))
    print(f"kept {len(report.patterns)}/{report.stages['concepts']} concepts -> {json_path}")
    return 0


def cmd_pipeline(args) -> int:
    # the pipeline flags' destinations are the config field names
    overrides = {k: v for k, v in vars(args).items()
                 if k in PipelineConfig.__dataclass_fields__ and v is not None}
    config = (PipelineConfig.from_file(args.config, overrides) if args.config
              else PipelineConfig.from_mapping(overrides))
    paths = check_outputs(config.output_dir, report_names(), config.dot,
                          [args.config, config.recording, config.annotations, config.labels])
    report = run_pipeline(config, lambda report: export_report(report, config.output_dir))
    print(f"{len(report.patterns)} patterns -> {', '.join(paths)}")
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
