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
(:func:`spindlemine.fca.enumerate_closed_extents`).

Lattice construction never folds member descriptions into a hull.  Each
of the ``2m`` attribute ends (the low and the high end of each
attribute) is one chain of :class:`spindlemine.fca.NestedChains`, built
once per structure (:attr:`IntervalPatternStructure.chains`): member
``k`` holds the objects whose value lies within the end's ``k``-th
distinct value, ranked from the outside inward.  The hull of ``A`` is
fixed by each chain's tightest member holding ``A``, so the closure and
the gaps to the lower covers (the objects that attain one end of the
hull) are the chains' own.  A concept's intent is read off the members
at those tightest members (:meth:`IntervalPatternStructure.concept`)
when its payload is built.

The lattice always includes a distinguished bottom concept with empty
extent whose intent is a formal "most specific" description (represented
as ``None``): it is the identity of the meet and keeps the concept set a
complete lattice without inventing numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable
import math

from .errors import InputError, check_unique
from .fca import (
    DEFAULT_CONCEPT_CAP,
    ConceptLattice,
    NestedChains,
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
        check_unique("object identifier", self.objects)
        check_unique("attribute identifier", self.attributes)
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

    @cached_property
    def chains(self) -> NestedChains:
        """One chain per attribute end, low then high end of each attribute
        (see the module docstring), closed by an empty member, the formal
        bottom; with no attributes the chain ``[G, ∅]`` gives ``{G, ∅}``."""
        chains = []
        for k, values in enumerate(self._end_values):
            by_value: dict[float, int] = {}  # -0.0 and 0.0 share one key
            for g, v in enumerate(values):
                by_value[v] = by_value.get(v, 0) | 1 << g
            inside = [0]  # from the empty member outward: a low end's largest value first
            for v in sorted(by_value, reverse=k % 2 == 0):
                inside.append(inside[-1] | by_value[v])
            chains.append(inside[::-1])
        return NestedChains(len(self.objects), chains or [[(1 << len(self.objects)) - 1, 0]])

    def delta(self, index: int) -> IntervalDescription:
        """The description of one object."""
        return self.descriptions[index]

    @cached_property
    def _end_values(self) -> list[tuple[float, ...]]:
        """Per chain, low then high end of each attribute, every object's
        value at that end."""
        return [tuple(d.intervals[j][side] for d in self.descriptions)
                for j, side in product(range(len(self.attributes)), (0, 1))]

    def ends(self, extent_mask: int) -> list[float]:
        """The hull of the non-empty closed set ``extent_mask``: per chain
        (low then high end of each attribute), the value of its tightest
        member holding the set.  An end's value is that of the lowest-index
        object the set has at that member, as in the member-by-member hull
        (-0.0 and 0.0 tie alike); zip drops a no-attribute ``[G, ∅]`` chain."""
        return [values[(hit & -hit).bit_length() - 1]
                for values, hit in zip(self._end_values, self.chains.hits(extent_mask))]

    def concept(self, extent_mask: int) -> "PatternConcept":
        """The pattern concept whose extent is the closed set
        ``extent_mask``; the empty extent gets the formal bottom."""
        if not extent_mask:
            return PatternConcept(extent_mask=0, intent=None)
        values = self.ends(extent_mask)
        intent = IntervalDescription(tuple(zip(values[::2], values[1::2])))
        return PatternConcept(extent_mask, intent)


@dataclass(frozen=True)
class PatternConcept:
    """A pattern concept; ``intent is None`` marks the formal bottom
    (empty extent, most-specific description).  ``extent``, the object
    indices of ``extent_mask``, is built on its first read."""

    extent_mask: int
    intent: IntervalDescription | None

    @cached_property
    def extent(self) -> frozenset[int]:
        return _indices_from_mask(self.extent_mask)


def build_pattern_lattice(
    ps: IntervalPatternStructure, concept_cap: int = DEFAULT_CONCEPT_CAP
) -> ConceptLattice:
    """All pattern concepts of the structure, ordered by extent inclusion.

    Equals the deduplicated closures of every non-empty subset of objects,
    plus the bottom concept ``(empty, None)``.
    """
    if ps.n_objects == 0:
        raise InputError("pattern structure has no objects")
    up, close = ps.chains.up, ps.chains.close_hull
    return assemble_lattice(ps, enumerate_closed_extents(up, close, concept_cap))


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
