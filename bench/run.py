"""Seeded benchmark for spindlemine: one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates its inputs from
the seed under ``.bench_work/`` (removed at exit), times the import of
the package in fresh interpreters (``setup_s``), runs the workload's
operations for ``S`` seconds in a fresh worker process (``worker.py``)
with BLAS/OpenMP pinned to one thread, checks the outputs against
computations made apart from the program (``checks.py``), and prints one
JSON object as the last line of stdout.  ``--trace 1`` prints per-layer
metrics instead of the end-to-end ones and writes the spans to
``.bench_out/``.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import gen  # noqa: E402
from worker import reference_seconds  # noqa: E402

SETUP_PROBES = 3
WORKER_GRACE_S = 120
# The speed of this 2-core VM drifts by 10-40 % for tens of seconds at a
# time, and pure-Python code slows by the same factor whatever it does.
# End-to-end times are therefore reported at a fixed machine speed: the
# measured time times REFERENCE_S over the median time of a fixed loop
# (``worker.reference_seconds``) taken next to the measurements.
REFERENCE_S = 0.019

# Sizes: every operation takes about half a second to a second and a half
# on a 2-core x86 VM, so a 20 s run holds 12 to 36 of them.  Workloads
# with several inputs visit them in turn, and ``op_s`` averages the
# per-input medians.
TWOPOP_SPINDLES = 11
TWOPOP_RECORDINGS = 8
TWOPOP_MIN_SUPPORT = 0.75
NIGHTLY_SPINDLES = 300
NIGHTLY_CHANNELS = ["F3", "F4", "C3", "C4"]
CORR_THRESHOLD = 0.95  # the CLI default for --corr-threshold
POINT_SHAPE = (16, 3)
POINT_CONCEPTS = (2300, 2450)
POINT_CONTEXTS = 4
POINT_MIN_SUPPORT, POINT_MIN_LSTAB = 0.5, 1.0
BINARY_SHAPE, BINARY_DENSITY = (50, 18), 0.45
BINARY_CONCEPTS = (1550, 1650)
BINARY_CONTEXTS = 4
BINARY_MIN_SUPPORT, BINARY_MIN_LSTAB = 0.05, 1.0
MAX_DRAWS = 1000
BRUTE_SAMPLE, MAX_BRUTE = 8, 16


def draw_banded(rng, draw, count, band):
    """Draw random contexts until one has a concept count inside ``band``,
    so every seed gives the lattice layer the same amount of work."""
    for _ in range(MAX_DRAWS):
        data = draw(rng)
        if band[0] <= count(data) <= band[1]:
            return data
    raise RuntimeError(f"no context with {band} concepts in {MAX_DRAWS} draws")


def chain_argvs(files: dict, out: str) -> list[list[str]]:
    """``extract`` -> ``features`` -> ``context`` into ``out``/{a,b,c}."""
    a, b, c = (os.path.join(out, x) for x in "abc")
    return [
        ["extract", "--recording", files["recording"], "--annotations", files["annotations"],
         "--output", a],
        ["features", "--segments", os.path.join(a, "segments.json"), "--output", b],
        ["context", "--features", os.path.join(b, "features.csv"), "--labels", files["labels"],
         "--output", c],
    ]


def check_chain(out: str, rec: dict) -> list[str]:
    a, b, c = (os.path.join(out, x) for x in "abc")
    return (checks.check_segments(os.path.join(a, "segments.json"), rec)
            + checks.check_features(os.path.join(b, "features.csv"), rec, gen.FREQ_JITTER_HZ)
            + checks.check_selection(os.path.join(b, "features.csv"),
                                     os.path.join(c, "context.csv"),
                                     os.path.join(c, "selection.json"), CORR_THRESHOLD))


def prepare_twopop(rng, work):
    instances, truth = [], []
    for k in range(TWOPOP_RECORDINGS):
        rec = gen.two_population_recording(rng, os.path.join(work, f"inputs{k}"),
                                           TWOPOP_SPINDLES)
        f = rec["files"]
        out = os.path.join(work, f"out{k}")
        instances.append({
            "argvs": [["pipeline", "--recording", f["recording"], "--annotations",
                       f["annotations"], "--labels", f["labels"], "--stability", "exact-dp",
                       "--min-support", repr(TWOPOP_MIN_SUPPORT), "--min-lstab", "0",
                       "--output", out]],
            "outputs": [os.path.join(out, "report.json"), os.path.join(out, "summary.csv")],
        })
        truth.append((rec, out, os.path.join(work, f"chain{k}")))
    # The report has no feature values; the stage chain writes the same
    # context the pipeline mined, for the checks below.
    after = [argv for rec, out, chain in truth for argv in chain_argvs(rec["files"], chain)]

    def check(sample):
        problems = []
        for rec, out, chain in truth:
            problems += check_chain(chain, rec)
            ids, attributes, values = checks.read_table(os.path.join(chain, "c", "context.csv"))
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            closed = checks.closed_extents(values)
            if report["stages"]["concepts"] != len(closed) + 1:
                problems.append(f"{report['stages']['concepts']} concepts, "
                                f"expected {len(closed) + 1}")
            if report["stages"]["segments"] != TWOPOP_SPINDLES:
                problems.append(f"{report['stages']['segments']} segments")
            # --min-lstab 0 passes every concept, so exactly the closed sets
            # meeting the support gate must be exported
            support = np.bitwise_count(closed) / len(ids)
            expected = int(np.count_nonzero(support >= TWOPOP_MIN_SUPPORT))
            if len(report["patterns"]) != expected or expected == 0:
                problems.append(f"{len(report['patterns'])} patterns, expected {expected} > 0")
            problems += checks.check_interval_patterns(
                values, ids, attributes, report, min_support=TWOPOP_MIN_SUPPORT,
                min_lstab=0.0, exact=True, sample=sample, max_brute=MAX_BRUTE)
        return problems
    return {"kind": "cli", "instances": instances, "after": after}, check


def prepare_nightly(rng, work):
    rec = gen.nightly_recording(rng, os.path.join(work, "inputs"), NIGHTLY_SPINDLES,
                                NIGHTLY_CHANNELS)
    out = os.path.join(work, "out")
    job = {
        "kind": "cli",
        "instances": [{
            "argvs": chain_argvs(rec["files"], out),
            "outputs": [os.path.join(out, "a", "segments.json"),
                        os.path.join(out, "b", "features.csv"),
                        os.path.join(out, "c", "context.csv"),
                        os.path.join(out, "c", "selection.json")],
        }],
    }
    return job, lambda sample: check_chain(out, rec)


def prepare_bounds(rng, work):
    os.makedirs(work, exist_ok=True)
    instances, truth = [], []
    for k in range(POINT_CONTEXTS):
        values = draw_banded(rng, lambda r: gen.point_values(r, *POINT_SHAPE),
                             checks.count_interval_concepts, POINT_CONCEPTS)
        path = os.path.join(work, f"context{k}.csv")
        ids = gen.write_point_context(path, values)
        out = os.path.join(work, f"out{k}")
        dot = os.path.join(out, "lattice.dot")
        instances.append({
            "argvs": [["mine", "--context", path, "--min-support", repr(POINT_MIN_SUPPORT),
                       "--min-lstab", repr(POINT_MIN_LSTAB), "--stability", "bounds",
                       "--dot", dot, "--output", out]],
            "outputs": [os.path.join(out, "patterns.json"), os.path.join(out, "summary.csv"),
                        dot],
        })
        truth.append((values, ids, out, dot))

    def check(sample):
        problems = []
        for values, ids, out, dot in truth:
            attributes = [f"a{j}" for j in range(values.shape[1])]
            concepts = checks.count_interval_concepts(values)
            with open(os.path.join(out, "patterns.json")) as fh:
                report = json.load(fh)
            with open(dot) as fh:
                dot_text = fh.read()
            if report["stages"]["concepts"] != concepts:
                problems.append(f"{report['stages']['concepts']} concepts, expected {concepts}")
            if not report["patterns"]:
                problems.append("no pattern kept")
            problems += checks.check_interval_patterns(
                values, ids, attributes, report, min_support=POINT_MIN_SUPPORT,
                min_lstab=POINT_MIN_LSTAB, exact=False, sample=sample, max_brute=MAX_BRUTE)
            problems += checks.check_dot(values, ids, dot_text, concepts)
        return problems
    return {"kind": "cli", "instances": instances}, check


def prepare_binary(rng, work):
    os.makedirs(work, exist_ok=True)
    instances, truth = [], []
    for k in range(BINARY_CONTEXTS):
        rows = draw_banded(rng, lambda r: gen.binary_rows(r, *BINARY_SHAPE, BINARY_DENSITY),
                           checks.count_binary_concepts, BINARY_CONCEPTS)
        path = os.path.join(work, f"context{k}.json")
        gen.write_binary_context(path, rows)
        result = os.path.join(work, f"result{k}.json")
        instances.append({"context": path, "result": result,
                          "min_support": BINARY_MIN_SUPPORT, "min_lstab": BINARY_MIN_LSTAB})
        truth.append((rows, result))

    def check(sample):
        problems = []
        for rows, result in truth:
            with open(result) as fh:
                problems += checks.check_binary_result(
                    rows, json.load(fh), min_support=BINARY_MIN_SUPPORT,
                    min_lstab=BINARY_MIN_LSTAB, sample=sample, max_brute=MAX_BRUTE)
        return problems
    return {"kind": "binary", "instances": instances}, check


WORKLOADS = {
    "pipeline-twopop": prepare_twopop,
    "stages-nightly": prepare_nightly,
    "mine-bounds-dot": prepare_bounds,
    "binary-dp": prepare_binary,
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(root: str) -> tuple[list[float], list[float]]:
    """Wall times for a fresh interpreter to import the CLI module, and
    reference-loop times taken before each."""
    times, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(reference_seconds())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spindlemine.cli"], cwd=root,
                       env=child_env(root), check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times, references


def run_worker(root: str, work: str, job: dict, seconds: int) -> dict:
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    subprocess.run([sys.executable, worker, job_path], cwd=root, env=child_env(root),
                   stdout=subprocess.DEVNULL, check=True, timeout=seconds + WORKER_GRACE_S)
    with open(job["result"]) as fh:
        return json.load(fh)


def op_seconds(times_per_input: list[list[float]]) -> float:
    """Median time of one operation on each input, averaged over the inputs.

    Inputs of one workload differ in size, so the plain median of all
    operations can jump between the inputs' levels from run to run.
    """
    medians = [statistics.median(t) for t in times_per_input if t]
    if not medians:
        raise RuntimeError("no operation succeeded")
    return statistics.fmean(medians)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spindlemine", "__init__.py")):
        print("error: run from the root of a spindlemine checkout (no src/spindlemine)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    index = sorted(WORKLOADS).index(args.workload)
    try:
        job, check = WORKLOADS[args.workload](np.random.default_rng([args.seed, index]), work)
        os.makedirs(work, exist_ok=True)
        job.update(src=os.path.join(root, "src"), seconds=args.seconds, trace=bool(args.trace),
                   result=os.path.join(work, "result.json"))
        if args.trace:
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            job["trace_out"] = os.path.join(
                root, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
        setup, setup_refs = ([], []) if args.trace else setup_times(root)
        result = run_worker(root, work, job, args.seconds)

        sample_rng = np.random.default_rng([args.seed, index, 1])

        def sample(items):
            picks = sample_rng.choice(len(items), size=min(BRUTE_SAMPLE, len(items)),
                                      replace=False) if items else []
            return [items[i] for i in sorted(picks)]

        problems = check(sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["consistent"]:
        problems.append("repeated operations on one input gave different outputs")
    if result["failed"] == result["attempted"]:
        problems.append("every operation failed")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        untraced = op_seconds(result["op_times"])
        traced = op_seconds(result["traced_op_times"])
        metrics = {name: metric(v, unit) for name, (v, unit) in result["layers"].items()}
        metrics["trace.op_s"] = metric(traced, "s")
        metrics["trace.untraced_op_s"] = metric(untraced, "s")
        metrics["trace.overhead_pct"] = metric(100.0 * (traced / untraced - 1.0), "%")
        print(f"{'span':36} {'total_s':>10} {'self_s':>10}   (median per traced op)")
        for name, (total, own) in sorted(result["self_times"].items(),
                                         key=lambda kv: -kv[1][0]):
            print(f"{name:36} {total:10.4f} {own:10.4f}")
    else:
        setup_wall = statistics.median(setup)
        setup_ref = statistics.median(setup_refs)
        op_wall = op_seconds(result["op_times"])
        print(f"wall clock: setup {setup_wall:.4f} s, op {op_wall:.4f} s; reference loop "
              f"{setup_ref * 1e3:.2f} ms at setup, {result['reference_s'] * 1e3:.2f} ms "
              f"in the worker (nominal {REFERENCE_S * 1e3:.0f} ms)")
        metrics = {
            "setup_s": metric(setup_wall * REFERENCE_S / setup_ref, "s"),
            "op_s": metric(op_wall * REFERENCE_S / result["reference_s"], "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    print(f"{args.workload} seed={args.seed}: {sum(map(len, result['op_times']))} untraced ops "
          f"in {result['rounds']} rounds, {result['failed']}/{result['attempted']} failed")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
