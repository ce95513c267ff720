"""Interval pattern structures over numeric data.

Generalizes formal concept analysis from binary attributes to tuples of
intervals: each object is described by one ``[low, high]`` interval per
numeric attribute (a plain measurement is the degenerate interval
``[v, v]``).  The similarity of two descriptions is the component-wise
convex hull

    ``[a, b] meet [c, d] = [min(a, c), max(b, d)]``

which makes the description space a meet-semilattice.  ``c`` subsumes
``d`` (written ``c <= d``, "c is more general") exactly when
``c meet d == c``, i.e. every component of ``c`` contains the
corresponding component of ``d``.

The pattern Galois connection pairs object sets with descriptions:
``A -> meet of member descriptions`` and ``d -> all objects whose
description is inside d``.  Its fixpoints are the pattern concepts; they
are enumerated with the same Close-by-One machinery as the binary case
(:func:`spindlemine.fca.enumerate_closed_extents`), since only the
closure operator differs.

Lattice construction never folds member descriptions into a hull.  The
``2m`` attribute ends (the low and the high end of each attribute) each
get a rank table, built once per structure: the end's distinct values
ranked from the outside inward, with the mask of the objects at each
rank and of those inside it.  The hull of ``A`` is fixed by the rank of
``A``'s outermost member at every end, so the closure of ``A`` is the
AND of the ``2m`` matching inside-masks.  Those ranks are kept per closed
extent; a concept's intent and its lower covers are read off them the
first time the lattice is asked for them.

Lower covers come from each concept's elementary refinements: for every
attribute ``t``, drop from the extent ``A`` the objects that attain the
hull's low end of ``t`` (or its high end).  The result is closed, every
closed proper subset of ``A`` lies inside one of these at most ``2m``
sets, and the maximal ones are the lower covers
(:func:`spindlemine.fca.assemble_lattice`).  With the ranks of ``A``
known, each refinement is one mask operation on the rank tables.

The lattice always includes a distinguished bottom concept with empty
extent whose intent is a formal "most specific" description (represented
as ``None``): it is the identity of the meet and keeps the concept set a
complete lattice without inventing numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable
import math

from .errors import InputError
from .fca import (
    DEFAULT_CONCEPT_CAP,
    ConceptLattice,
    _indices_from_mask,
    assemble_lattice,
    enumerate_closed_extents,
    read_object_table,
)


@dataclass(frozen=True)
class IntervalDescription:
    """One ``[low, high]`` interval per numeric attribute."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.intervals:
            if lo > hi:
                raise InputError(f"interval [{lo}, {hi}] has low > high")

    @classmethod
    def from_point(cls, values: Iterable[float]) -> "IntervalDescription":
        return cls(tuple((float(v), float(v)) for v in values))

    def __len__(self) -> int:
        return len(self.intervals)


def interval_meet(d1: IntervalDescription, d2: IntervalDescription) -> IntervalDescription:
    """Component-wise convex hull; the similarity operation on descriptions."""
    if len(d1) != len(d2):
        raise InputError(f"description widths differ: {len(d1)} vs {len(d2)}")
    return IntervalDescription(
        tuple(
            (min(a, c), max(b, d))
            for (a, b), (c, d) in zip(d1.intervals, d2.intervals)
        )
    )


def subsumes(c: IntervalDescription, d: IntervalDescription) -> bool:
    """True iff ``c`` is more general than ``d``: every component of ``c``
    contains the corresponding component of ``d`` (equivalently
    ``interval_meet(c, d) == c``)."""
    if len(c) != len(d):
        raise InputError(f"description widths differ: {len(c)} vs {len(d)}")
    return all(
        a <= lo and hi <= b
        for (a, b), (lo, hi) in zip(c.intervals, d.intervals)
    )


@dataclass(frozen=True)
class IntervalPatternStructure:
    """Objects plus one interval description per object."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    descriptions: tuple[IntervalDescription, ...]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise InputError("object identifiers must be unique")
        if len(set(self.attributes)) != len(self.attributes):
            raise InputError("attribute identifiers must be unique")
        if len(self.descriptions) != len(self.objects):
            raise InputError("one description per object required")
        for name, desc in zip(self.objects, self.descriptions):
            if len(desc) != len(self.attributes):
                raise InputError(
                    f"object {name!r}: description width {len(desc)} does not match "
                    f"{len(self.attributes)} attributes"
                )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def delta(self, index: int) -> IntervalDescription:
        """The description of one object."""
        return self.descriptions[index]


@dataclass(frozen=True)
class PatternConcept:
    """A pattern concept; ``intent is None`` marks the formal bottom
    (empty extent, most-specific description)."""

    extent: frozenset[int]
    intent: IntervalDescription | None


def build_pattern_lattice(
    ps: IntervalPatternStructure, concept_cap: int = DEFAULT_CONCEPT_CAP
) -> ConceptLattice:
    """All pattern concepts of the structure, ordered by extent inclusion.

    Equals the deduplicated closures of every non-empty subset of objects,
    plus the bottom concept ``(empty, None)``.

    The closure works on the structure's rank tables (see
    :func:`_rank_tables`): for every attribute end it finds the rank of
    the object set's outermost member and intersects the objects inside
    those ranks.  The ranks found for each closed extent are kept, so each
    hull is computed once: the intent and the elementary refinements are
    read from them without another pass over the members.
    """
    if ps.n_objects == 0:
        raise InputError("pattern structure has no objects")
    ends = _rank_tables(ps)
    full = (1 << ps.n_objects) - 1
    ranks: dict[int, list[int]] = {}  # closed extent -> rank per end

    def close(mask: int) -> int:
        if mask == 0:
            return 0  # the formal bottom: no real object matches it
        extent = full
        found = []
        for at, inside, _ in ends:
            k = 0
            while not at[k] & mask:
                k += 1
            found.append(k)
            extent &= inside[k]
        ranks[extent] = found
        return extent

    masks = enumerate_closed_extents(ps.n_objects, close, concept_cap)

    def make(mask: int) -> PatternConcept:
        if not mask:
            return PatternConcept(extent=frozenset(), intent=None)
        # each end's value from the lowest-index member at its rank, as the
        # member-by-member hull takes it (so -0.0 and 0.0 tie the same way)
        values = []
        for (at, _, value), k in zip(ends, ranks[mask]):
            hit = mask & at[k]
            values.append(value[(hit & -hit).bit_length() - 1])
        return PatternConcept(
            extent=_indices_from_mask(mask),
            intent=IntervalDescription(tuple(zip(values[::2], values[1::2]))),
        )

    def refine(mask: int) -> list[int]:
        # Dropping the objects that attain one end of the hull tightens that
        # end, so A minus them is closed; any closed B ⊊ A has a tighter end
        # somewhere and so lies inside one of these.
        if not mask:
            return []
        # with no attributes every non-empty set closes to the top, whose
        # only lower cover is the bottom
        return [mask & ~at[k] for (at, _, _), k in zip(ends, ranks[mask])] or [0]

    return assemble_lattice(ps.objects, masks, make, refine)


def _rank_tables(
    ps: IntervalPatternStructure,
) -> list[tuple[list[int], list[int], tuple[float, ...]]]:
    """Per attribute end (low then high of each attribute): ``at``,
    ``inside`` and the objects' values at that end.

    An end's distinct values are ranked from the outside inward: ascending
    for a low end, descending for a high end.  ``at[k]`` is the mask of the
    objects whose value has rank ``k``, and ``inside[k]`` the mask of those
    whose value has rank ``k`` or further in, i.e. lies within the
    rank-``k`` value.  An object set whose outermost member has rank
    ``k_e`` at each end ``e`` therefore closes to the AND of the
    ``inside_e[k_e]``.
    """
    tables = []
    for j in range(len(ps.attributes)):
        for side, descending in ((0, False), (1, True)):
            value = tuple(d.intervals[j][side] for d in ps.descriptions)
            by_value: dict[float, int] = {}  # -0.0 and 0.0 share one key
            for g, v in enumerate(value):
                by_value[v] = by_value.get(v, 0) | 1 << g
            at = [by_value[v] for v in sorted(by_value, reverse=descending)]
            inside = list(at)
            for k in range(len(at) - 2, -1, -1):
                inside[k] |= inside[k + 1]
            tables.append((at, inside, value))
    return tables


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def format_interval(lo: float, hi: float) -> str:
    """Serialize an interval cell; degenerate intervals stay plain reals."""
    if lo == hi:
        return repr(float(lo))
    return f"{float(lo)!r}..{float(hi)!r}"


def parse_interval_cell(cell: str) -> tuple[float, float]:
    """Parse a CSV cell: either a real (degenerate interval) or ``lo..hi``,
    with finite ends."""
    text = cell.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = float(lo_s), float(hi_s)
        else:
            lo = hi = float(text)
    except ValueError as exc:
        raise InputError(f"unparseable interval cell {cell!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"non-finite interval cell {cell!r}")
    if lo > hi:
        raise InputError(f"interval cell {cell!r} has low > high")
    return lo, hi


def read_interval_csv(path: str) -> IntervalPatternStructure:
    """Read a numeric context whose cells are finite reals or ``lo..hi``
    intervals (see :func:`read_object_table` for the layout and errors)."""
    objects, attributes, table = read_object_table(path, parse_interval_cell, "context")
    return IntervalPatternStructure(
        objects, attributes, tuple(IntervalDescription(tuple(cells)) for cells in table)
    )
