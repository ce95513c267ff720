"""Run one workload's operations in a fresh interpreter and time them.

Started by ``run.py`` as ``python3 bench/worker.py JOB.json`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The job names the
operations (argument lists for ``spindlemine.cli.main``, or the binary
context API chain), the run length and whether to trace.  Results go to
the job's ``result`` path as JSON; nothing is printed on stdout.

A run is whole rounds: each round performs every instance's operation
once.  With tracing on, rounds alternate untraced and traced, so the
traced and untraced medians come from the same process and the same
stretch of time; their difference is the tracing overhead.

Tracing wraps public functions of the program's modules from outside:
every module attribute bound to the original function is rebound to a
wrapper while a traced round runs, and restored afterwards.  A wrapper
records a span (name, start, end, parent) and counts taken from the
function's outputs.  Spans stay in memory and are written when the run
ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

# (module, function, span name).  Several functions may share a span name;
# their times add up into one layer.
LAYERS = (
    ("signals", "read_recording_csv", "signals.read_recording"),
    ("signals", "extract_segments", "signals.extract"),
    ("signals", "write_segments_json", "signals.segments_json"),
    ("signals", "read_segments_json", "signals.segments_json"),
    ("signals", "feature_row", "signals.features"),
    ("selection", "read_numeric_csv", "selection.context_io"),
    ("selection", "write_numeric_csv", "selection.context_io"),
    ("selection", "read_labels_csv", "selection.context_io"),
    ("selection", "write_selection_json", "selection.context_io"),
    ("selection", "select_attributes", "selection.select"),
    ("intervals", "read_interval_csv", "intervals.read_interval_csv"),
    ("intervals", "build_pattern_lattice", "intervals.build_pattern_lattice"),
    ("fca", "build_lattice", "fca.build_lattice"),
    ("fca", "enumerate_closed_extents", "fca.enumerate_closed_extents"),
    ("fca", "assemble_lattice", "fca.assemble_lattice"),
    ("fca", "lattice_to_dot", "fca.lattice_to_dot"),
    ("stability", "score_lattice", "stability.score"),
    ("stability", "filter_concepts", "stability.filter"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "export_report", "pipeline.export"),
)

# Reported per-layer times: metric name -> span name (inclusive time per op).
TIME_METRICS = {
    "signals.read_recording_s": "signals.read_recording",
    "signals.extract_s": "signals.extract",
    "signals.segments_json_s": "signals.segments_json",
    "signals.features_s": "signals.features",
    "selection.context_io_s": "selection.context_io",
    "selection.select_s": "selection.select",
    "intervals.build_pattern_lattice_s": "intervals.build_pattern_lattice",
    "fca.build_lattice_s": "fca.build_lattice",
    "fca.enumerate_closed_extents_s": "fca.enumerate_closed_extents",
    "fca.assemble_lattice_s": "fca.assemble_lattice",
    "stability.score_s": "stability.score",
    "stability.filter_s": "stability.filter",
    "pipeline.export_s": "pipeline.export",
    "fca.lattice_to_dot_s": "fca.lattice_to_dot",
}

# Reported counts: metric name -> (span whose wrapper takes the count, unit).
COUNT_METRICS = {
    "signals.segments": ("signals.extract", "count"),
    "selection.attributes_kept": ("selection.select", "count"),
    "fca.closure_calls": ("fca.enumerate_closed_extents", "count"),
    "fca.concepts": ("fca.assemble_lattice", "count"),
    "fca.cover_edges": ("fca.assemble_lattice", "count"),
    "stability.kept": ("stability.filter", "count"),
    "pipeline.report_bytes": ("pipeline.export", "bytes"),
}


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop, about 20 ms on the reference
    VM: a reading of the machine's current speed."""
    t0 = perf_counter()
    total = 0
    for i in range(300_000):
        total += i & 7
    return perf_counter() - t0


class Tracer:
    """Spans and counts of the traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[int] = []
        self.op = -1
        self.patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def span(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            record[2] = perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counts[self.op][name] += amount

    def wrapper(self, name: str, fn):
        tracer = self

        if name == "fca.enumerate_closed_extents":
            def traced(n_objects, close, *args, **kwargs):
                def counted_close(mask):
                    tracer.count("fca.closure_calls", 1)
                    return close(mask)
                return tracer.span(name, fn, (n_objects, counted_close) + args, kwargs)
            return traced

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs)
            tracer.count_outputs(name, args, result)
            return result
        return traced

    def count_outputs(self, name: str, args, result) -> None:
        if name == "signals.read_recording":
            self.count("signals.recording_bytes", os.path.getsize(args[0]))
        elif name == "signals.extract":
            self.count("signals.segments", len(result))
        elif name == "selection.select":
            self.count("selection.attributes_kept", len(result[0].attributes))
        elif name == "fca.assemble_lattice":
            self.count("fca.concepts", len(result))
            self.count("fca.cover_edges", len(result.covers))
        elif name == "stability.filter":
            self.count("stability.kept", len(result))
        elif name == "pipeline.export":
            self.count("pipeline.report_bytes", sum(os.path.getsize(p) for p in result))

    def install(self) -> None:
        """Rebind every program-module attribute that holds a wrapped function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spindlemine" or n.startswith("spindlemine.")]
        present = set()
        for module_name, function, name in LAYERS:
            original = getattr(sys.modules.get(f"spindlemine.{module_name}"), function, None)
            if original is None:
                continue
            present.add(name)
            wrapped = self.wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
        # a layer whose functions are all gone is reported absent, not as zero
        self.missing = {name for _, _, name in LAYERS} - present

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per traced op: inclusive and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: {"total": defaultdict(float), "self": defaultdict(float)})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op]["total"][name] += end - start
            out[op]["self"][name] += end - start - child_time[i]
        return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced_ops: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced ops) and self times per span."""
    per_op = tracer.per_op()
    metrics = {}
    for metric, span in TIME_METRICS.items():
        if span not in tracer.missing:
            metrics[metric] = (_median([per_op[op]["total"][span] for op in traced_ops]), "s")
    for metric, (span, unit) in COUNT_METRICS.items():
        if span not in tracer.missing:
            metrics[metric] = (_median([tracer.counts[op][metric] for op in traced_ops]), unit)
    if "signals.read_recording" not in tracer.missing:
        rates = []
        for op in traced_ops:
            seconds = per_op[op]["total"]["signals.read_recording"]
            mb = tracer.counts[op]["signals.recording_bytes"] / 1e6
            rates.append(mb / seconds if seconds else 0.0)
        metrics["signals.recording_mb_per_s"] = (_median(rates), "MB/s")
    if not {"stability.filter", "fca.assemble_lattice"} & tracer.missing:
        ratios = [tracer.counts[op]["stability.kept"] / tracer.counts[op]["fca.concepts"]
                  if tracer.counts[op]["fca.concepts"] else 0.0 for op in traced_ops]
        metrics["stability.kept_per_concept"] = (_median(ratios), "ratio")
    names = sorted({name for op in traced_ops for name in per_op[op]["self"]})
    self_times = {name: (_median([per_op[op]["total"][name] for op in traced_ops]),
                         _median([per_op[op]["self"][name] for op in traced_ops]))
                  for name in names}
    return metrics, self_times


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def cli_operation(cli, argvs):
    def run():
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code} from {argv[0]}")
    return run


def binary_operation(fca, stability, instance):
    with open(instance["context"]) as fh:
        data = json.load(fh)
    result = {}

    def run():
        context = fca.FormalContext.from_rows(data["objects"], data["attributes"], data["rows"])
        lattice = fca.build_lattice(context)
        scores = stability.score_lattice(lattice, "exact-dp")
        kept = stability.filter_concepts(lattice, scores, min_support=instance["min_support"],
                                         min_lstab=instance["min_lstab"])
        result.update(lattice=lattice, scores=scores, kept=kept)

    def snapshot() -> bytes:
        lattice, scores = result["lattice"], result["scores"]
        return json.dumps({
            "concepts": [
                {"extent": sorted(c.extent), "intent": sorted(c.intent),
                 "exact_count": scores[i].exact_count,
                 "lstab": "inf" if scores[i].lstab == float("inf") else scores[i].lstab}
                for i, c in enumerate(lattice.concepts)
            ],
            "kept": result["kept"],
        }, sort_keys=True).encode()
    return run, snapshot


def file_snapshot(paths: list[str]) -> bytes:
    """Output files, concatenated; a report's ``generated`` block (timestamp,
    timings) is left out, since it differs on every run by design."""
    parts = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".json") and data.lstrip().startswith(b"{"):
            doc = json.loads(data)
            doc.pop("generated", None)
            data = json.dumps(doc, sort_keys=True).encode()
        parts.append(data)
    return b"".join(parts)


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import spindlemine
    src = os.path.realpath(job["src"])
    if not os.path.realpath(spindlemine.__file__).startswith(src + os.sep):
        print(f"spindlemine imported from {spindlemine.__file__}, not {src}", file=sys.stderr)
        return 2
    from spindlemine import cli, fca, stability

    instances = []
    for inst in job["instances"]:
        if job["kind"] == "cli":
            instances.append((cli_operation(cli, inst["argvs"]),
                              lambda p=inst["outputs"]: file_snapshot(p)))
        else:
            instances.append(binary_operation(fca, stability, inst))

    tracer = Tracer() if job["trace"] else None
    times = {False: [[] for _ in instances], True: [[] for _ in instances]}
    traced_ops = []
    references = []
    digests: dict[int, str] = {}
    consistent = True
    attempted = failed = 0
    rounds = 0
    start = perf_counter()
    with open(os.devnull, "w") as quiet:
        while True:
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install()
            for k, (run, snapshot) in enumerate(instances):
                attempted += 1
                if traced:
                    tracer.op = attempted
                references.append(reference_seconds())
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(quiet):
                        if traced:
                            tracer.span("op", run, (), {})
                        else:
                            run()
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                times[traced][k].append(perf_counter() - t0)
                if traced:
                    traced_ops.append(attempted)
                # outside the timed region: every repeat must give the same
                # output, and the next operation starts without this one's garbage
                output = snapshot()
                gc.collect()
                digest = hashlib.sha256(output).hexdigest()
                if k not in digests:
                    digests[k] = digest
                    if "result" in job["instances"][k]:
                        with open(job["instances"][k]["result"], "wb") as fh:
                            fh.write(output)
                elif digests[k] != digest:
                    consistent = False
            if traced:
                tracer.uninstall()
            rounds += 1
            # Stop at the round boundary nearest to the run length; traced
            # runs stop after an untraced/traced pair.
            step = 1 if tracer is None else 2
            elapsed = perf_counter() - start
            if rounds % step == 0 and elapsed + step * elapsed / rounds / 2 >= job["seconds"]:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        for argv in job.get("after", []):
            if cli.main(argv) != 0:
                raise RuntimeError(f"exit code from {argv[0]} after the run")

    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "op_times": times[False],
        "reference_s": statistics.median(references),
        "consistent": consistent,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        metrics, self_times = layer_metrics(tracer, traced_ops)
        result["layers"] = metrics
        result["self_times"] = self_times
        result["traced_op_times"] = times[True]
        with open(job["trace_out"], "w") as fh:
            json.dump({"spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                                 for s in tracer.spans]}, fh)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
