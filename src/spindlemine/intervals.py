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

Lower covers come from each concept's elementary refinements: for every
attribute ``t``, drop from the extent ``A`` the objects that attain the
hull's low end of ``t`` (or its high end).  The result is closed, every
closed proper subset of ``A`` lies inside one of these at most ``2m``
sets, and the maximal ones are the lower covers
(:func:`spindlemine.fca.assemble_lattice`).  One value-to-object-mask
table per attribute and end, built once per structure, makes each
refinement one lookup and one mask operation.

The lattice always includes a distinguished bottom concept with empty
extent whose intent is a formal "most specific" description (represented
as ``None``): it is the identity of the meet and keeps the concept set a
complete lattice without inventing numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar
import csv
import math

from .errors import InputError
from .fca import (
    DEFAULT_CONCEPT_CAP,
    ConceptLattice,
    _indices_from_mask,
    _iter_bits,
    _mask_from_indices,
    assemble_lattice,
    enumerate_closed_extents,
)

T = TypeVar("T")


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


def extent_to_description(
    ps: IntervalPatternStructure, objects: Iterable[int]
) -> IntervalDescription:
    """Meet (convex hull) of the members' descriptions.

    The empty set has no numeric description — its intent is the formal
    bottom, represented as ``None`` on :class:`PatternConcept` — so empty
    input is rejected here.
    """
    mask = _mask_from_indices(objects, ps.n_objects, "object")
    return _hull_of_mask(ps, mask)


def _hull_of_mask(ps: IntervalPatternStructure, mask: int) -> IntervalDescription:
    if mask == 0:
        raise InputError("cannot build a description for an empty object set")
    members = list(_iter_bits(mask))
    intervals = list(ps.descriptions[members[0]].intervals)
    for g in members[1:]:
        d = ps.descriptions[g].intervals
        intervals = [
            (min(a, c), max(b, h)) for (a, b), (c, h) in zip(intervals, d)
        ]
    return IntervalDescription(tuple(intervals))


def description_to_extent(
    ps: IntervalPatternStructure, d: IntervalDescription
) -> frozenset[int]:
    """All objects whose description lies inside ``d``."""
    if len(d) != len(ps.attributes):
        raise InputError(
            f"description width {len(d)} does not match {len(ps.attributes)} attributes"
        )
    return _indices_from_mask(_extent_mask(ps, d))


def _extent_mask(ps: IntervalPatternStructure, d: IntervalDescription) -> int:
    mask = 0
    for g, desc in enumerate(ps.descriptions):
        if all(
            a <= lo and hi <= b
            for (a, b), (lo, hi) in zip(d.intervals, desc.intervals)
        ):
            mask |= 1 << g
    return mask


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
    """
    if ps.n_objects == 0:
        raise InputError("pattern structure has no objects")

    def close(mask: int) -> int:
        if mask == 0:
            return 0  # the formal bottom: no real object matches it
        return _extent_mask(ps, _hull_of_mask(ps, mask))

    masks = enumerate_closed_extents(ps.n_objects, close, concept_cap)

    def make(mask: int) -> PatternConcept:
        intent = _hull_of_mask(ps, mask) if mask else None
        return PatternConcept(extent=_indices_from_mask(mask), intent=intent)

    # per attribute and end: value -> mask of the objects attaining it
    lows: list[dict[float, int]] = [{} for _ in ps.attributes]
    highs: list[dict[float, int]] = [{} for _ in ps.attributes]
    for g, desc in enumerate(ps.descriptions):
        bit = 1 << g
        for low, high, (lo, hi) in zip(lows, highs, desc.intervals):
            low[lo] = low.get(lo, 0) | bit
            high[hi] = high.get(hi, 0) | bit

    def refine(mask: int, concept: PatternConcept) -> list[int]:
        # Dropping the objects S_t that attain one end of the hull on one
        # attribute tightens that end, so A \ S_t is closed; any closed
        # B ⊊ A has a tighter end somewhere and so lies inside one A \ S_t.
        if concept.intent is None:
            return []
        out = []
        for low, high, (lo, hi) in zip(lows, highs, concept.intent.intervals):
            out.append(mask & ~low[lo])
            out.append(mask & ~high[hi])
        # with no attributes every non-empty set closes to the top, whose
        # only lower cover is the bottom
        return out or [0]

    return assemble_lattice(ps.objects, masks, make, refine)


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


def read_object_table(
    path: str, parse: Callable[[str], T]
) -> tuple[tuple[str, ...], tuple[str, ...], list[list[T]]]:
    """Read a CSV with header ``id,<attributes...>`` and one row per
    object: the object ids, the attribute names and each row's cells passed
    through ``parse``.  A ragged row, a repeated id or a cell ``parse``
    rejects raises :class:`InputError` naming the file and the rows (file
    lines), and for a cell its column."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read context {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "id":
        raise InputError(f"{path}: first header cell must be 'id'")
    attributes = tuple(header[1:])
    lines: dict[str, int] = {}  # id -> file line, in row order
    table: list[list[T]] = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {line} has {len(row)} cells, expected {len(header)}")
        if row[0] in lines:
            raise InputError(f"{path}: id {row[0]!r} repeated in rows {lines[row[0]]} and {line}")
        lines[row[0]] = line
        cells = []
        for attribute, cell in zip(attributes, row[1:]):
            try:
                cells.append(parse(cell))
            except InputError as exc:
                raise InputError(f"{path}: row {line}, column {attribute!r}: {exc}") from exc
        table.append(cells)
    return tuple(lines), attributes, table


def read_interval_csv(path: str) -> IntervalPatternStructure:
    """Read a numeric context whose cells are finite reals or ``lo..hi``
    intervals (see :func:`read_object_table` for the layout and errors)."""
    objects, attributes, table = read_object_table(path, parse_interval_cell)
    return IntervalPatternStructure(
        objects, attributes, tuple(IntervalDescription(tuple(cells)) for cells in table)
    )


def write_interval_csv(ps: IntervalPatternStructure, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(ps.attributes))
        for name, desc in zip(ps.objects, ps.descriptions):
            writer.writerow([name] + [format_interval(lo, hi) for lo, hi in desc.intervals])
