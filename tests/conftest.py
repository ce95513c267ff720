"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own traversal code: they
enumerate subsets / candidate descriptions exhaustively so that the fast
implementations can be checked against something dumb but obviously correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from spindlemine.errors import InputError
from spindlemine.fca import FormalContext
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    format_interval,
    interval_meet,
    subsumes,
)
from spindlemine.selection import _equal_width_bins


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the package's enumeration code)
# ---------------------------------------------------------------------------

def oracle_binary_intent(context: FormalContext, indices: frozenset[int]) -> frozenset[int]:
    """Intent A' computed straight off the incidence pairs."""
    incident = context.incidence
    return frozenset(a for a in range(context.n_attributes)
                     if all((g, a) in incident for g in indices))


def oracle_binary_closure(context: FormalContext, indices: frozenset[int]) -> frozenset[int]:
    """Closure A'' computed straight off the incidence pairs."""
    incident = context.incidence
    intent = oracle_binary_intent(context, indices)
    return frozenset(g for g in range(context.n_objects)
                     if all((g, a) in incident for a in intent))


def oracle_binary_closed_extents(context: FormalContext) -> set[frozenset[int]]:
    """All closed extents of a binary context, by trying every object subset."""
    n = context.n_objects
    closed: set[frozenset[int]] = set()
    for bits in range(1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        closed.add(oracle_binary_closure(context, subset))
    return closed


def oracle_interval_hull(
    structure: IntervalPatternStructure, indices: frozenset[int]
) -> IntervalDescription | None:
    """Meet of the members' descriptions, folded in ascending member order
    (as the lattice's intents break -0.0 / 0.0 ties); ``None``, the formal
    bottom, for no members."""
    members = sorted(indices)
    if not members:
        return None
    hull = structure.delta(members[0])
    for i in members[1:]:
        hull = interval_meet(hull, structure.delta(i))
    return hull


def oracle_interval_extent(
    structure: IntervalPatternStructure, description: IntervalDescription | None
) -> frozenset[int]:
    """All objects whose description lies inside ``description``."""
    if description is None:
        return frozenset()
    return frozenset(
        i for i in range(structure.n_objects) if subsumes(description, structure.delta(i))
    )


def oracle_interval_closure(
    structure: IntervalPatternStructure, indices: frozenset[int]
) -> frozenset[int]:
    """Pattern closure: hull of members, then all objects inside the hull."""
    return oracle_interval_extent(structure, oracle_interval_hull(structure, indices))


def oracle_interval_closed_extents(
    structure: IntervalPatternStructure,
) -> set[frozenset[int]]:
    n = structure.n_objects
    closed: set[frozenset[int]] = {frozenset()}  # formal bottom is always a concept
    for bits in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        closed.add(oracle_interval_closure(structure, subset))
    return closed


def oracle_stability(extent: frozenset[int], close) -> Fraction:
    """Stability by full enumeration of extent subsets.

    ``close(frozenset) -> frozenset`` must be the structure's closure;
    stability counts the subsets whose closure is the full extent.
    """
    members = sorted(extent)
    hits = 0
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            if close(frozenset(combo)) == extent:
                hits += 1
    return Fraction(hits, 1 << len(members))


def oracle_subset_counts(lattice) -> dict[int, int]:
    """Qualifying-subset counts ``q`` by the subset-partition identity.

    Every subset of an extent closes to exactly one concept with extent
    inside it, so ``q(c) = 2^|A| - sum of q(e)`` over every concept ``e``
    whose extent lies strictly inside ``A``.  Compares all concept pairs
    (quadratic), straight from the definition.
    """
    order = sorted(range(len(lattice)), key=lambda i: lattice.extent_masks[i].bit_count())
    counts: dict[int, int] = {}
    for i in order:
        mask = lattice.extent_masks[i]
        q = 1 << mask.bit_count()
        for j, qj in counts.items():
            sub = lattice.extent_masks[j]
            if sub != mask and (sub & ~mask) == 0:
                q -= qj
        counts[i] = q
    return counts


def oracle_covers(closed: set[frozenset[int]]) -> set[tuple[frozenset, frozenset]]:
    """Transitive reduction of extent inclusion, by trying every triple."""
    return {
        (big, small)
        for big in closed
        for small in closed
        if small < big and not any(small < mid < big for mid in closed)
    }


def reference_close_by_one(n_objects: int, close) -> list[int]:
    """Plain Close-by-One (Kuznetsov 1993) over extent bitmasks: every
    extension of every closed extent gets a closure call and a canonicity
    test, with no pruning.  The reference for the pruned enumerator."""
    root = close(0)
    out = [root]
    stack = [(root, 0)]
    while stack:
        extent, start = stack.pop()
        for g in range(start, n_objects):
            if (extent >> g) & 1:
                continue
            child = close(extent | (1 << g))
            below = (1 << g) - 1
            if (child & below) == (extent & below):
                out.append(child)
                stack.append((child, g + 1))
    return out


def oracle_integrate_cells(energy, cell_lo, cell_hi, lo: float, hi: float) -> float:
    """One band's rectangle-rule power: each bin weighted by the share of
    its cell ``[cell_lo, cell_hi]`` inside ``[lo, hi]``, one band at a time."""
    width = cell_hi - cell_lo
    overlap = np.clip(np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        fraction = np.where(width > 0.0, overlap / np.where(width > 0.0, width, 1.0), 0.0)
    return float(np.sum(energy * fraction))


def reference_correlation_prune(ctx, threshold: float) -> tuple[list[str], list[dict]]:
    """Greedy correlation pruning that centres both columns of every pair
    it compares: ``(retained, dropped)`` as in ``correlation_prune``'s
    report, with the same zero-variance warnings and the same
    :class:`InputError` for a product of sums of squares outside the float
    range.  The reference for the pruner that centres each column once."""
    kept: list[int] = []
    dropped: list[dict] = []
    flat = (ctx.values == ctx.values[:1]).all(axis=0).tolist()
    for j in range(ctx.n_attributes):
        partner = None
        for i in kept:
            if flat[i] and flat[j]:
                abs_r, both_flat = 1.0, True
            elif flat[i] or flat[j]:
                abs_r, both_flat = 0.0, False
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    x, y = ctx.values[:, i], ctx.values[:, j]
                    xc = x - x.mean()
                    yc = y - y.mean()
                    sx = float(np.dot(xc, xc))
                    sy = float(np.dot(yc, yc))
                    if not 0.0 < sx * sy < math.inf:
                        raise InputError(
                            f"attributes {ctx.attributes[i]!r} and {ctx.attributes[j]!r}: the "
                            "product of their sums of squares is outside the float range, "
                            "so r cannot be computed")
                    abs_r = min(abs(float(np.dot(xc, yc)) / math.sqrt(sx * sy)), 1.0)
                both_flat = False
            if abs_r > threshold:
                partner = (i, abs_r, both_flat)
                break
        if partner is None:
            kept.append(j)
            continue
        i, abs_r, both_flat = partner
        if both_flat:
            warnings.warn(f"attribute {ctx.attributes[j]!r} has zero variance (as does "
                          f"{ctx.attributes[i]!r}); treated as |r|=1 and dropped", UserWarning)
        dropped.append({"attribute": ctx.attributes[j], "partner": ctx.attributes[i],
                        "abs_r": abs_r})
    return [ctx.attributes[j] for j in kept], dropped


def _reference_entropy_bits(labels) -> float:
    n = len(labels)
    counts: dict[str, int] = {}
    for item in labels:
        counts[item] = counts.get(item, 0) + 1
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h + 0.0


def reference_information_gain_rank(ctx, bins: int = 5) -> list[tuple[str, float]]:
    """Information-gain ranking that, per attribute and bin, collects the
    bin's labels in object order and takes their entropy: the reference for
    the ranking that counts (bin, label) pairs in one pass.  The binning is
    the package's own."""
    if ctx.labels is None:
        raise InputError("information gain requires class labels")
    base = _reference_entropy_bits(ctx.labels)
    n = ctx.n_objects
    gains: list[tuple[str, float]] = []
    for j, name in enumerate(ctx.attributes):
        binned = _equal_width_bins(ctx.values[:, j], bins)
        conditional = 0.0
        for b in np.unique(binned):
            members = [ctx.labels[i] for i in np.flatnonzero(binned == b)]
            conditional += len(members) / n * _reference_entropy_bits(members)
        gains.append((name, max(base - conditional, 0.0) + 0.0))
    order = sorted(range(len(gains)), key=lambda j: (-gains[j][1], j))
    return [gains[j] for j in order]


# ---------------------------------------------------------------------------
# reference renderers (the outputs' formats, one loop per line or row)
# ---------------------------------------------------------------------------

def reference_lattice_to_dot(lattice) -> str:
    """The cover relation as a Graphviz digraph: one node line per concept
    from ``extent_names`` (``\\`` and ``"`` escaped), then one edge line
    per pair of ``covers``."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i in range(len(lattice)):
        extent = ",".join(lattice.extent_names(i)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{{{extent}}}"];')
    for parent, child in lattice.covers:
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines)


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def reference_summary_csv(report) -> str:
    """``summary.csv`` of a report: a header, then one row per pattern,
    each written by its own ``writerow``."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
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
            _reference_cell(stab.get("stab")),
            _reference_cell(stab.get("lstab")),
            _reference_cell(stab.get("lower")),
            _reference_cell(stab.get("mid")),
            _reference_cell(stab.get("upper")),
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
    return fh.getvalue()


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def random_context(rng: random.Random, max_objects: int = 8, max_attributes: int = 6,
                   density: float | None = None) -> FormalContext:
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attributes)
    p = density if density is not None else rng.uniform(0.2, 0.8)
    rows = [[1 if rng.random() < p else 0 for _ in range(m)] for _ in range(n)]
    return FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )


def random_interval_structure(rng: random.Random, max_objects: int = 8,
                              max_attributes: int = 4, *, integers: bool = True,
                              lo: int = 0, hi: int = 6) -> IntervalPatternStructure:
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attributes)
    descriptions = []
    for _ in range(n):
        comps = []
        for _ in range(m):
            if integers:
                a = rng.randint(lo, hi)
                comps.append((float(a), float(a)))
            else:
                a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
                comps.append((a, b))
        descriptions.append(IntervalDescription(tuple(comps)))
    return IntervalPatternStructure(
        objects=tuple(f"g{i}" for i in range(n)),
        attributes=tuple(f"a{j}" for j in range(m)),
        descriptions=tuple(descriptions),
    )


# values with exact ties, including -0.0 == 0.0, and unconstrained reals
end_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3)


@st.composite
def tie_heavy_structures(draw, max_attributes: int = 3):
    """Point or real-interval descriptions over tied values, optionally with
    a repeated description; one object and zero attributes included."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, max_attributes))
    points = draw(st.booleans())
    rows = []
    for _ in range(n):
        comps = []
        for _ in range(m):
            if points:
                v = draw(end_values)
                comps.append((v, v))
            else:
                # sorted() keeps a tied pair in draw order: (0.0, -0.0) stays
                comps.append(tuple(sorted((draw(end_values), draw(end_values)))))
        rows.append(IntervalDescription(tuple(comps)))
    if draw(st.booleans()):
        rows.append(rows[0])
    return IntervalPatternStructure(
        tuple(f"g{i}" for i in range(len(rows))),
        tuple(f"a{j}" for j in range(m)),
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# worked examples reused by several test modules
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny_context() -> FormalContext:
    """Two objects, two attributes: g1 -> {a}, g2 -> {a, b}."""
    return FormalContext.from_rows(["g1", "g2"], ["a", "b"], [[1, 0], [1, 1]])


def make_three_point_structure() -> IntervalPatternStructure:
    """Three objects measured on two attributes: (1,1), (2,2), (3,2)."""
    return IntervalPatternStructure(
        objects=("g1", "g2", "g3"),
        attributes=("a1", "a2"),
        descriptions=(
            IntervalDescription.from_point((1.0, 1.0)),
            IntervalDescription.from_point((2.0, 2.0)),
            IntervalDescription.from_point((3.0, 2.0)),
        ),
    )


@pytest.fixture
def three_point_structure() -> IntervalPatternStructure:
    return make_three_point_structure()


# ---------------------------------------------------------------------------
# synthetic EEG recordings
# ---------------------------------------------------------------------------

def sine(freq_hz: float, amp: float, n: int, fs: float, phase: float = 0.0) -> np.ndarray:
    k = np.arange(n)
    return amp * np.sin(2.0 * math.pi * freq_hz * k / fs + phase)


def build_two_cluster_recording(root: Path, *, fs: float = 200.0,
                                n_events: int = 12) -> dict[str, Path]:
    """Writes a recording with two interleaved spindle populations.

    Even-indexed events: 20 uV at 10 Hz; odd-indexed: 40 uV at 13 Hz.
    Every event lasts one second and is phase-aligned to its own start, so
    each population produces identical feature rows and the two 6-object
    clusters are pattern concepts of the resulting context.
    """
    duration = 0.5 + 1.5 * n_events
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    signal = np.zeros(n)
    annotations = []
    labels = ["id,class"]
    for i in range(n_events):
        start = 0.5 + 1.5 * i
        i0, i1 = int(start * fs), int((start + 1.0) * fs)
        freq, amp = (10.0, 20.0) if i % 2 == 0 else (13.0, 40.0)
        k = np.arange(i1 - i0)
        signal[i0:i1] = amp * np.sin(2.0 * math.pi * freq * k / fs)
        annotations.append(
            {"id": f"s{i:02d}", "start_s": start, "end_s": start + 1.0, "channel": "C3"}
        )
        labels.append(f"s{i:02d},{'alpha' if i % 2 == 0 else 'beta'}")

    rec = root / "rec.csv"
    with rec.open("w") as fh:
        fh.write("time,C3\n")
        for ti, xi in zip(t, signal):
            fh.write(f"{float(ti)!r},{float(xi)!r}\n")
    anns = root / "anns.json"
    anns.write_text(json.dumps(annotations))
    lab = root / "labels.csv"
    lab.write_text("\n".join(labels) + "\n")
    return {"recording": rec, "annotations": anns, "labels": lab}


@pytest.fixture
def two_cluster_files(tmp_path: Path) -> dict[str, Path]:
    return build_two_cluster_recording(tmp_path)
