"""Command-line interface.

Subcommands mirror the pipeline stages so each intermediate artifact is a
file and independently testable:

``extract``   recording + annotations -> segments.json
``features``  segments.json -> features.csv
``context``   features.csv [+ labels.csv] -> context.csv + selection.json
``mine``      context.csv -> patterns.json + summary.csv
``pipeline``  everything in one go -> report.json + summary.csv

Each setting's flag is one :data:`SETTINGS` entry, stored under its
:class:`pipeline.PipelineConfig` field's name, which gives its type and
default.  A command checks its settings, then every file it writes, before
it reads an input (:func:`pipeline.check_outputs`); ``mine`` and ``pipeline``
export their run's report (:func:`pipeline.run_mine`, :func:`pipeline.run_pipeline`).

Exit codes: 0 success, 2 input error, 3 capacity limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING
from functools import cache
from typing import Any, Iterable

from .errors import CapacityError, InputError, StageError
from .pipeline import (
    JSON_KINDS,
    MINING_KEYS,
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

#: Each non-band :class:`PipelineConfig` field's flag, in ``pipeline``'s order: its
#: help, its choices, and its ``flag`` where that is not the field's name with dashes.
SETTINGS: dict[str, dict[str, Any]] = {
    "recording": {"help": "recording CSV (time,<ch>,... )"},
    "annotations": {"help": "annotations JSON"},
    "labels": {"help": "optional labels CSV (id,class)"},
    "sample_rate": {"flag": "--fs", "help": "sample rate in Hz, required without a time column"},
    "min_support": {"help": "least share of the objects that a kept pattern covers"},
    "min_lstab": {"help": "least LStab of a kept pattern, in bits"},
    "stability_method": {"flag": "--stability", "choices": STABILITY_METHODS,
                         "help": "how each frequent concept's stability is scored"},
    "bound_policy": {"choices": BOUND_POLICIES, "help": "the LStab bound that bounds filters by"},
    "corr_threshold": {"help": "drop an attribute this correlated with a kept one"},
    "ig_bins": {"help": "equal-width bins of the information gain"},
    "ig_top_k": {"help": "keep the k attributes of most information gain (needs labels)"},
    "detrend": {"help": "remove the segment mean before spectral operations"},
    "concept_cap": {"help": "exit 3 before the lattice exceeds this many concepts"},
    "dot": {"help": "also write the cover relation as DOT"},
    "seed": {"help": "echoed into the report; nothing draws from it"},
    "output_dir": {"flag": "--output", "metavar": "DIR",
                   "help": "directory for result files (created if missing)"},
}
#: The flag arguments of each JSON type of a setting (:data:`pipeline.JSON_KINDS`).
_KINDS = {"string": {}, "number": {"type": float}, "integer": {"type": int},
          "boolean": {"action": "store_true"}}


def _add_settings(p: argparse.ArgumentParser, names: Iterable[str], stage: bool = True) -> None:
    """Add the :data:`SETTINGS` flags ``names`` to ``p``: on a ``stage`` command with
    the field's default, or required where it has none; else with the default ``None``,
    so that only a given flag overrides a ``--config`` value."""
    for name in names:
        spec = dict(SETTINGS[name])
        field = PipelineConfig.__dataclass_fields__[name]
        required = stage and field.default is MISSING
        p.add_argument(spec.pop("flag", "--" + name.replace("_", "-")), dest=name,
                       required=required, default=None if required or not stage else field.default,
                       **_KINDS[JSON_KINDS[field.type.removesuffix(" | None")]], **spec)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spindlemine", description="Mine stable frequent "
                                     "interval patterns from spindle EEG features.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="cut annotated segments out of a recording")
    _add_settings(p, ("recording", "annotations", "sample_rate", "output_dir"))
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("features", help="compute feature rows for extracted segments")
    p.add_argument("--segments", required=True, help="segments JSON from 'extract'")
    _add_settings(p, ("detrend", "output_dir"))
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("context", help="build the numeric context and select attributes")
    p.add_argument("--features", required=True, help="features CSV from 'features'")
    _add_settings(p, ("labels", "corr_threshold", "ig_bins", "ig_top_k", "output_dir"))
    p.set_defaults(func=cmd_context)

    p = sub.add_parser("mine", help="mine and filter interval patterns from a context")
    p.add_argument("--context", required=True, help="numeric context CSV")
    _add_settings(p, (*MINING_KEYS, "dot", "output_dir"))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("pipeline", help="run every stage in one process")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    _add_settings(p, SETTINGS, stage=False)
    p.set_defaults(func=cmd_pipeline)

    return parser


def cmd_extract(args) -> int:
    if args.sample_rate is not None:
        check_sample_rate(args.sample_rate)
    [path] = check_outputs(args.output_dir, ["segments.json"],
                           inputs=[args.recording, args.annotations])
    sample_rate, _, segments = extract(args.recording, args.annotations, args.sample_rate)
    os.makedirs(args.output_dir, exist_ok=True)
    write_segments_json(path, segments, sample_rate)
    print(f"extracted {len(segments)} segments -> {path}")
    return 0


def cmd_features(args) -> int:
    [path] = check_outputs(args.output_dir, ["features.csv"], inputs=[args.segments])
    triples = read_segments_json(args.segments)
    if not triples:
        raise InputError("no segments in input")
    rows = feature_rows(triples, PipelineConfig.bands, PipelineConfig.dominant_band, args.detrend)
    ctx = build_numeric_context(rows)
    os.makedirs(args.output_dir, exist_ok=True)
    write_numeric_csv(ctx, path)
    print(f"computed {ctx.n_objects} x {ctx.n_attributes} features -> {path}")
    return 0


def cmd_context(args) -> int:
    check_selection_settings(args.corr_threshold, args.ig_bins, args.ig_top_k, bool(args.labels))
    context_path, selection_path = check_outputs(
        args.output_dir, ["context.csv", "selection.json"], inputs=[args.features, args.labels])
    ctx = read_numeric_csv(args.features)
    if args.labels:
        ctx = ctx.with_labels(read_labels_csv(args.labels))
    selected, report = select_attributes(ctx, corr_threshold=args.corr_threshold,
                                         ig_bins=args.ig_bins, ig_top_k=args.ig_top_k)
    os.makedirs(args.output_dir, exist_ok=True)
    write_numeric_csv(selected, context_path)
    write_selection_json(report, selection_path)
    print(f"retained {selected.n_attributes}/{ctx.n_attributes} attributes -> {context_path}")
    return 0


def cmd_mine(args) -> int:
    check_mining_settings(args)
    json_name, out = "patterns.json", args.output_dir
    json_path, _ = check_outputs(out, report_names(json_name), args.dot, [args.context])
    report = run_mine(args.context, args, lambda r: export_report(r, out, json_name))
    print(f"kept {len(report.patterns)}/{report.stages['concepts']} concepts -> {json_path}")
    return 0


def cmd_pipeline(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in SETTINGS and v is not None}
    config = (PipelineConfig.from_file(args.config, overrides) if args.config
              else PipelineConfig.from_mapping(overrides))
    paths = check_outputs(config.output_dir, report_names(), config.dot,
                          [args.config, config.recording, config.annotations, config.labels])
    report = run_pipeline(config, lambda report: export_report(report, config.output_dir))
    print(f"{len(report.patterns)} patterns -> {', '.join(paths)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StageError, CapacityError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failed stage exits as its cause does
        cause = exc.cause if isinstance(exc, StageError) else exc
        return 3 if isinstance(cause, CapacityError) else 2


if __name__ == "__main__":
    sys.exit(main())
