"""Binary formal contexts and concept-lattice construction.

A formal context is a triple ``(G, M, I)`` of objects, attributes and an
incidence relation.  The two derivation operators

* ``A' = {m in M | g I m for all g in A}`` (common attributes), and
* ``B' = {g in G | g I m for all m in B}`` (common objects)

form a Galois connection; their composition is a closure operator on
object sets.  A concept is a pair ``(extent, intent)`` where each derives
the other, and the set of all concepts ordered by extent inclusion is a
complete lattice.

Object and attribute sets are represented internally as Python integer
bitmasks (bit ``i`` set means index ``i`` is a member), which keeps the
closure operator — the hot loop of lattice construction — down to a few
``&`` operations.  Concept payloads hold ``frozenset`` of indices.

Enumeration uses Close-by-One: a depth-first walk over closures with a
canonicity test that guarantees every closed extent is visited exactly
once, without keeping a global "seen" set.  It adds the inherited-failure
test of Fast Close-by-One: an extension by object ``g`` whose closure
failed canonicity at an ancestor is skipped, with no closure call, while
that failed closure still holds an object below ``g`` outside the
current extent, since by monotonicity the new closure would hold it too.
The same enumerator is reused by :mod:`spindlemine.intervals` for
interval pattern structures — it only needs a monotone closure callable
on extent masks.

The lattice is built on demand.  Enumeration yields the closed extents,
which are sorted once; a concept's payload (extent and intent as index
sets) and its lower covers are computed the first time something reads
them, so a run that keeps only the frequent concepts never builds the
others.

Lower covers are computed locally, one concept at a time.  Every closed
proper subset of an extent ``A`` lies inside one of ``A``'s *elementary
refinements*, each of which is itself a closed extent; for a binary
context these are ``A ∩ column(m)`` for the attributes ``m`` outside the
intent.  The lower covers of ``A`` are therefore the maximal distinct
sets among its refinements, found without looking at any other concept.
With ``k`` refinements per concept (``k <= |M|``) the cover relation of
``L`` concepts costs ``O(L·k²)`` mask operations, where comparing every
pair of concepts would cost ``O(L²)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence, TypeVar
import csv

from .errors import CapacityError, InputError, input_file

#: Default ceiling on the number of concepts a single enumeration may
#: produce before aborting with :class:`CapacityError`.
DEFAULT_CONCEPT_CAP = 10_000_000

T = TypeVar("T")


def _indices_from_mask(mask: int) -> frozenset[int]:
    return frozenset(_iter_bits(mask))


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def names_in(names: Sequence[str], mask: int) -> list[str]:
    """The names of the objects in ``mask``, in object order."""
    return [names[g] for g in _iter_bits(mask)]


@dataclass(frozen=True)
class FormalContext:
    """A binary context ``(G, M, I)``.

    ``incidence`` holds (object-index, attribute-index) pairs; conceptually
    it is a ``|G| x |M|`` boolean matrix.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise InputError("object identifiers must be unique")
        if len(set(self.attributes)) != len(self.attributes):
            raise InputError("attribute identifiers must be unique")
        for g, m in self.incidence:
            if not 0 <= g < len(self.objects):
                raise InputError(f"incidence object index {g} out of range")
            if not 0 <= m < len(self.attributes):
                raise InputError(f"incidence attribute index {m} out of range")

    @classmethod
    def from_rows(
        cls,
        objects: Sequence[str],
        attributes: Sequence[str],
        rows: Sequence[Sequence[int]],
    ) -> "FormalContext":
        """Build a context from a row-major boolean matrix."""
        if len(rows) != len(objects):
            raise InputError("row count does not match object count")
        incidence = set()
        for g, row in enumerate(rows):
            if len(row) != len(attributes):
                raise InputError(f"row {g} has {len(row)} cells, expected {len(attributes)}")
            for m, cell in enumerate(row):
                if cell:
                    incidence.add((g, m))
        return cls(tuple(objects), tuple(attributes), frozenset(incidence))

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def object_mask(self) -> int:
        """The bitmask of every object: ``G`` itself."""
        return (1 << len(self.objects)) - 1

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per object, the bitmask of its attributes."""
        rows = [0] * len(self.objects)
        for g, m in self.incidence:
            rows[g] |= 1 << m
        return tuple(rows)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per attribute, the bitmask of objects that have it."""
        cols = [0] * len(self.attributes)
        for g, m in self.incidence:
            cols[m] |= 1 << g
        return tuple(cols)

    # -- mask-level derivation ------------------------------------------

    def derive_attr_mask(self, extent_mask: int) -> int:
        result = 0
        for m, col in enumerate(self.column_masks):
            if not extent_mask & ~col:
                result |= 1 << m
        return result

    def closure_mask(self, extent_mask: int) -> int:
        # A'' is the AND of the columns that contain A: one subset test per
        # attribute, with no intent mask built in between
        result = self.object_mask
        for col in self.column_masks:
            if not extent_mask & ~col:
                result &= col
        return result


@dataclass(frozen=True)
class Concept:
    """A formal concept: extent and intent derive each other."""

    extent: frozenset[int]
    intent: frozenset[int]


_UNSET: Any = object()


class OnDemand(Sequence[T]):
    """A read-only sequence whose item ``i`` is ``build(i)``, computed on
    first access and kept."""

    def __init__(self, length: int, build: Callable[[int], T]):
        self._values: list[Any] = [_UNSET] * length
        self._build = build

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> T:  # type: ignore[override]
        value = self._values[index]
        if value is _UNSET:
            value = self._values[index] = self._build(index % len(self._values))
        return value


class ConceptLattice:
    """All concepts of a context (or pattern structure), ordered by extent
    inclusion, built on demand.

    ``extent_masks`` is sorted by (extent size descending, extent indices
    lexicographically ascending), so index 0 is the top; it is the only
    part computed up front.  ``concepts[i]`` (the payload: :class:`Concept`
    for binary contexts, :class:`spindlemine.intervals.PatternConcept` for
    pattern structures) and ``children[i]`` (the lower covers, ascending)
    are computed the first time they are read.  ``children[i]`` are the
    maximal sets among ``refine(extent_masks[i])``, the concept's
    elementary refinements (see :func:`assemble_lattice`).  ``covers``
    holds every ``(parent_index, child_index)`` pair, sorted ascending,
    i.e. the transitive reduction of the extent-inclusion order; reading
    it computes the children of every concept.
    """

    def __init__(
        self,
        object_names: Sequence[str],
        extent_masks: Sequence[int],
        make_concept: Callable[[int], Any],
        refine: Callable[[int], Iterable[int]],
    ):
        self.object_names = tuple(object_names)
        self.extent_masks = masks = tuple(extent_masks)
        index = {m: i for i, m in enumerate(masks)}
        self.concepts: Sequence[Any] = OnDemand(len(masks), lambda i: make_concept(masks[i]))
        self.children: Sequence[tuple[int, ...]] = OnDemand(len(masks), lambda i: tuple(
            sorted(index[c] for c in _maximal_masks(refine(masks[i])))))
        self.top_index = 0
        self.bottom_index = len(masks) - 1

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, kids in enumerate(self.children) for j in kids)

    def __eq__(self, other: object) -> bool:
        """Same objects, extents, payloads and covers (reading them all)."""
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return (self.object_names, self.extent_masks, tuple(self.concepts), self.covers) == (
            other.object_names, other.extent_masks, tuple(other.concepts), other.covers)

    __hash__ = None  # type: ignore[assignment]

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    def __len__(self) -> int:
        return len(self.extent_masks)

    def extent_names(self, index: int) -> tuple[str, ...]:
        """Object names of a concept's extent, in object order."""
        if not 0 <= index < len(self):
            raise InputError(f"concept index {index} out of range")
        return tuple(names_in(self.object_names, self.extent_masks[index]))


def enumerate_closed_extents(
    n_objects: int,
    close: Callable[[int], int],
    concept_cap: int = DEFAULT_CONCEPT_CAP,
) -> list[int]:
    """Enumerate every fixpoint of a closure operator on object bitmasks.

    Close-by-One over object indices: starting from ``close(0)``, each
    closed extent is extended by one object ``g`` at a time; the extension
    is kept only if the closure introduces no new object below ``g``
    (canonicity), which makes every closed set reachable along exactly one
    path.

    Extensions that must fail are skipped without a closure call, as in
    Fast Close-by-One (Outrata & Vychodil, 2012).  Each extent on the stack
    carries, per object ``g``, the objects below ``g`` of the closure ``D``
    of the extension by ``g`` that last failed canonicity on its path from
    the root (0 if none).  The extent contains the one whose extension
    failed, so, ``close`` being monotone, extending it by ``g`` closes to a
    superset of ``D``: if ``D`` holds an object below ``g`` that the extent
    lacks, the extension fails again and is skipped.  A node's children
    share a one-item list holding its record; they are popped only after
    every extension of the node is tried, so they inherit all of its
    failures.  A node with no failure hands its parent's record on
    uncopied.

    Raises :class:`CapacityError` once more than ``concept_cap`` extents
    are found.  Runs iteratively with an explicit stack, so deep lattices
    do not hit the interpreter recursion limit.
    """
    root = close(0)
    out = [root]
    stack: list[tuple[int, int, list[Sequence[int]]]] = [(root, 0, [(0,) * n_objects])]
    while stack:
        if len(out) > concept_cap:
            raise CapacityError(f"concept count exceeded the configured cap ({concept_cap})")
        extent, start, handed = stack.pop()
        inherited = failed = handed[0]
        record = [inherited]
        outside = ~extent
        for g in range(start, n_objects):
            bit = 1 << g
            if extent & bit or failed[g] & outside:
                continue
            child = close(extent | bit)
            below = bit - 1
            if (child ^ extent) & below:
                if failed is inherited:
                    failed = record[0] = list(inherited)
                failed[g] = child & below
            else:
                out.append(child)
                stack.append((child, g + 1, record))
    return out


def assemble_lattice(
    object_names: Sequence[str],
    extent_masks: Iterable[int],
    make_concept: Callable[[int], Any],
    refine: Callable[[int], Iterable[int]],
) -> ConceptLattice:
    """Order closed extents into a lattice whose payloads and covers are
    computed on demand.

    ``make_concept`` maps an extent mask to the concept payload.
    ``refine`` maps an extent mask to the concept's elementary
    refinements: closed extents strictly inside it such that every closed
    proper subset of the extent lies inside at least one of them (none for
    the bottom).  The lower covers of a concept are then the maximal
    distinct refinements, so with ``k`` refinements per concept the covers
    of ``L`` concepts cost ``O(L·k²)`` mask operations plus one dictionary
    lookup per cover edge.
    """
    # format(m, "b")[::-1] spells membership from object 0 up, so among
    # extents of one size a larger string is a lexicographically smaller
    # index list: sorting both parts descending is the documented order
    masks = sorted(set(extent_masks), key=lambda m: (m.bit_count(), format(m, "b")[::-1]),
                   reverse=True)
    return ConceptLattice(object_names, masks, make_concept, refine)


def _maximal_masks(candidates: Iterable[int]) -> list[int]:
    """The distinct candidates not strictly inside another candidate."""
    kept: list[int] = []
    # a strict superset has more bits, so it is seen (or dominated) first
    for c in sorted(set(candidates), key=int.bit_count, reverse=True):
        for k in kept:
            if not c & ~k:
                break
        else:
            kept.append(c)
    return kept


def build_lattice(
    context: FormalContext, concept_cap: int = DEFAULT_CONCEPT_CAP
) -> ConceptLattice:
    """Construct the full concept lattice of a binary context.

    The result matches brute-force enumeration of all ``2^|G|`` extent
    closures, deduplicated.  Raises :class:`CapacityError` when the number
    of concepts exceeds ``concept_cap``.
    """
    masks = enumerate_closed_extents(context.n_objects, context.closure_mask, concept_cap)

    def make(mask: int) -> Concept:
        return Concept(
            extent=_indices_from_mask(mask),
            intent=_indices_from_mask(context.derive_attr_mask(mask)),
        )

    columns = context.column_masks

    def refine(mask: int) -> list[int]:
        # A ∩ column(m) is the extent of intent ∪ {m}; any closed B ⊊ A has
        # some attribute m outside A's intent (a column not containing A)
        # and so lies inside it
        return [mask & col for col in columns if mask & ~col]

    return assemble_lattice(context.objects, masks, make, refine)


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Render the cover relation as a Graphviz digraph (debugging aid);
    each node is labelled with its extent.  A backslash or double quote
    in an object name is escaped, so every label stays one DOT string."""
    names = [name.replace("\\", "\\\\").replace('"', '\\"')
             for name in lattice.object_names]
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, mask in enumerate(lattice.extent_masks):
        extent = ",".join(names_in(names, mask))
        lines.append(f'  n{i} [label="{{{extent}}}"];')
    # children ascend and are read in parent order: the order of covers
    lines += [f"  n{child} -> n{parent};"
              for parent, kids in enumerate(lattice.children) for child in kids]
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def read_object_table(
    path: str, parse: Callable[[str], T], what: str
) -> tuple[tuple[str, ...], tuple[str, ...], list[list[T]]]:
    """Read a CSV with header ``id,<attributes...>`` and one row per
    object: the object ids, the attribute names and each row's cells
    passed through ``parse``.  A file that cannot be read raises
    :class:`InputError` naming it as ``what`` (``features``, say); a
    ragged row, a repeated id or a cell ``parse`` rejects, naming the file
    and the rows (file lines), and for a cell its column."""
    with input_file(path, what, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file")
    header = rows[0]
    if header[:1] != ["id"]:
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
