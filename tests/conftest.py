"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own traversal code: they
enumerate subsets / candidate descriptions exhaustively so that the fast
implementations can be checked against something dumb but obviously correct.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spindlemine.fca import FormalContext
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    interval_meet,
    subsumes,
)


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the package's enumeration code)
# ---------------------------------------------------------------------------

def oracle_binary_closure(context: FormalContext, indices: frozenset[int]) -> frozenset[int]:
    """Closure A'' computed straight off the incidence pairs."""
    incident = context.incidence
    n, m = context.n_objects, context.n_attributes
    intent = {a for a in range(m) if all((g, a) in incident for g in indices)}
    return frozenset(g for g in range(n) if all((g, a) in incident for a in intent))


def oracle_binary_closed_extents(context: FormalContext) -> set[frozenset[int]]:
    """All closed extents of a binary context, by trying every object subset."""
    n = context.n_objects
    closed: set[frozenset[int]] = set()
    for bits in range(1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        closed.add(oracle_binary_closure(context, subset))
    return closed


def oracle_interval_closure(
    structure: IntervalPatternStructure, indices: frozenset[int]
) -> frozenset[int]:
    """Pattern closure: hull of members, then all objects inside the hull."""
    if not indices:
        return frozenset()
    members = sorted(indices)
    hull = structure.delta(members[0])
    for i in members[1:]:
        hull = interval_meet(hull, structure.delta(i))
    return frozenset(
        i for i in range(structure.n_objects) if subsumes(hull, structure.delta(i))
    )


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
