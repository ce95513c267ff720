"""Binary formal contexts and concept-lattice construction.

A formal context is a triple ``(G, M, I)`` of objects, attributes and an
incidence relation.  The two derivation operators

* ``A' = {m in M | g I m for all g in A}`` (common attributes), and
* ``B' = {g in G | g I m for all m in B}`` (common objects)

form a Galois connection; their composition is a closure operator on
object sets.  A concept is a pair ``(extent, intent)`` where each derives
the other, and the set of all concepts ordered by extent inclusion is a
complete lattice.  Object and attribute sets are Python integer bitmasks
(bit ``i`` set means index ``i`` is a member); concept payloads hold
``frozenset`` of indices.

Both lattice builders, this module's for binary contexts and
:mod:`spindlemine.intervals`'s for interval pattern structures, close
object sets on one structure, :class:`NestedChains`: per attribute (or
attribute end), a chain of nested object masks ``G = inside[0] ⊇
inside[1] ⊇ …``.  The closure of ``A`` is the AND, over the chains, of
the tightest member holding ``A``.  A binary attribute is the chain
``[G, column]``, so this is ``A''``; an interval attribute end is the
chain of its distinct values ranked from the outside inward, which is
interordinal scaling (Kaytoue et al., Information Sciences 2011) stored
as chains rather than as one column per value.  Every closed proper
subset of a closed ``A`` lies inside ``A & inside[k + 1]`` for a chain
whose tightest member ``k`` is not its last, and each such set is
closed.  So the lower covers of ``A`` are ``A`` minus its *gaps*, the
minimal distinct sets among ``A & at[k]``, found without looking at any
other concept.  Stability is scored from the gaps; the cover relation
is built only for DOT output and the exact count's down-set walk.

The closure never walks the chains.  Each chain owns one *slot* of ``n``
bits (``n = |G|``) in a Python int, and object ``g``'s word holds in
each slot the chain's tightest member holding ``g``.  Members are nested,
so the OR of a set's words, its *hull*, holds in each slot the tightest
member holding the set, and the closure is the AND of the hull's slots:
``⌈log2 c⌉`` folds, each ANDing the word with itself shifted down by half
the slots still open.  Closing a set leaves its hull where it was, so
enumeration keeps each extent's hull and closes the extension by ``g``
from the hull OR ``g``'s word: one OR and the folds.

Enumeration is Fast Close-by-One (:func:`enumerate_closed_extents`),
which branches once per object.  A binary context with at least 2.5
times as many objects as attributes is enumerated on its transpose, whose
chains are ``[M, row]`` per object and whose fixpoints are the closed
intents; each intent ``B`` is then mapped to its extent ``B'``, the AND of
its columns (:func:`build_lattice`).  A lattice holds its
structure and the closed extents, sorted largest first, so the concepts
of at least a given support are a prefix of it (the iceberg of Stumme
et al., DKE 2002).  The structure's ``concept`` and
``chains`` give any extent's payload and gaps, so a run that reports only
a few concepts reads only theirs; the list of every payload and the lower
covers are each built in one pass, the covers on their first read or by
exact-dp's count pass.  Once the covers are built, a concept's gaps are
read off them instead of the chains, so a run that needs the covers
anyway (DOT output) pays for one cover pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, count
from operator import and_, or_
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar
import csv
import io

from .errors import CapacityError, InputError, check_unique, input_file

#: Default ceiling on the number of concepts a single enumeration may
#: produce before aborting with :class:`CapacityError`.
DEFAULT_CONCEPT_CAP = 10_000_000

T = TypeVar("T")


#: Maps the digits of ``format(mask, "b")`` to the bytes 0 and 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


#: Byte ``b`` with its bit order reversed, at index ``b``.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _bit_flags(mask: int) -> bytes:
    """Byte ``i`` is 1 if bit ``i`` of ``mask`` is set, else 0: selectors
    for :func:`itertools.compress`."""
    return format(mask, "b")[::-1].encode().translate(_DIGIT_BYTES)


def _indices_from_mask(mask: int) -> frozenset[int]:
    return frozenset(compress(count(), _bit_flags(mask)))


def names_in(names: Sequence[str], mask: int) -> list[str]:
    """The names of the objects in ``mask``, in object order."""
    return list(compress(names, _bit_flags(mask)))


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
        check_unique("object identifier", self.objects)
        check_unique("attribute identifier", self.attributes)
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

    @cached_property
    def chains(self) -> "NestedChains":
        """The closure system: one chain ``[G, column]`` per attribute."""
        return NestedChains(len(self.objects), [[self.object_mask, c] for c in self.column_masks])

    # -- mask-level derivation ------------------------------------------

    def derive_attr_mask(self, extent_mask: int) -> int:
        return sum(1 << m for m, col in enumerate(self.column_masks) if not extent_mask & ~col)

    def concept(self, extent_mask: int) -> "Concept":
        """The concept whose extent is the closed set ``extent_mask``."""
        return Concept(_indices_from_mask(extent_mask),
                       _indices_from_mask(self.derive_attr_mask(extent_mask)))


@dataclass(frozen=True)
class Concept:
    """A formal concept: extent and intent derive each other."""

    extent: frozenset[int]
    intent: frozenset[int]


class ConceptLattice:
    """All concepts of a structure (a :class:`FormalContext` or an
    :class:`spindlemine.intervals.IntervalPatternStructure`), ordered by
    extent inclusion.

    ``extent_masks`` is sorted by (extent size descending, extent indices
    lexicographically ascending), so index 0 is the top and the concepts
    of at least a given support are a prefix; it is the only part computed
    up front.  ``concepts[i]`` (the payload
    ``structure.concept(extent_masks[i])``: a :class:`Concept` or a
    :class:`spindlemine.intervals.PatternConcept`) is built for every
    concept in one pass on the first read; a caller that needs a few
    payloads asks the structure for them.  ``children[i]`` (the lower
    covers, ascending) is built for every concept by :func:`lower_covers`,
    on the first read or by exact-dp's count pass.  ``gaps(i)`` is
    computed on every call: from the structure's :meth:`NestedChains.gaps`
    until ``children`` is built, and as ``extent - child`` over the covers
    after that (the same set, in cover order).  ``covers`` holds every
    ``(parent_index, child_index)`` pair, sorted ascending, i.e. the
    transitive reduction of the extent-inclusion order.
    """

    def __init__(self, structure: Any, extent_masks: Sequence[int]):
        self.structure = structure
        self.object_names = tuple(structure.objects)
        self.extent_masks = tuple(extent_masks)
        self.top_index = 0
        self.bottom_index = len(self.extent_masks) - 1

    def gaps(self, index: int) -> list[int]:
        """The gaps of concept ``index`` to its lower covers: read off
        ``children`` once it has been built, else off the chains."""
        masks = self.extent_masks
        mask = masks[index]
        children = self.__dict__.get("children")
        if children is None:
            return self.structure.chains.gaps(mask)
        return [mask & ~masks[j] for j in children[index]]

    @cached_property
    def concepts(self) -> list[Any]:
        return list(map(self.structure.concept, self.extent_masks))

    @cached_property
    def children(self) -> list[tuple[int, ...]]:
        for _ in lower_covers(self):
            pass
        return vars(self)["children"]  # stored by the pass

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, kids in enumerate(self.children) for j in kids)

    def __eq__(self, other: object) -> bool:
        """Same objects, extents, payloads and covers (reading them all)."""
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return (self.object_names, self.extent_masks, self.concepts, self.covers) == (
            other.object_names, other.extent_masks, other.concepts, other.covers)

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


def lower_covers(lattice: ConceptLattice) -> Iterator[tuple[int, list[int], list[Any]]]:
    """From the last concept to the first, yield each one's index, its gaps
    (``lattice.gaps(i)``) and the list of lower covers (ascending), filled
    for it and every concept below it: ``lattice.children`` if built, else
    built here from the gaps off the chains and stored as
    ``lattice.children`` once full."""
    masks = lattice.extent_masks
    built = "children" in vars(lattice)
    children = lattice.children if built else [()] * len(masks)
    index = {} if built else {m: i for i, m in enumerate(masks)}
    gaps_of = lattice.structure.chains.gaps
    for i in reversed(range(len(masks))):
        if built:
            gaps = lattice.gaps(i)
        else:
            mask = masks[i]
            gaps = gaps_of(mask)
            children[i] = tuple(sorted([index[mask & ~gap] for gap in gaps]))
        yield i, gaps, children
    lattice.children = children


class NestedChains:
    """Chains of nested object masks (see the module docstring).  With
    ``at[k] = inside[k] & ~inside[k + 1]`` (the last ``at`` is the last
    member), a non-empty set's tightest member is the first ``at[k]`` it meets.

    ``up[g]`` is object ``g``'s word: per chain ``c``, its tightest member
    holding ``g``, shifted into slot ``c`` (bits ``c·n`` to ``c·n + n - 1``).
    :meth:`hull` ORs the words of a set (0 for the empty set), and
    :meth:`close_hull` ANDs a hull's slots: each shift in ``folds`` takes
    the ``k`` slots still open to ``k - ⌊k/2⌋``, so ``c`` chains take
    ``⌈log2 c⌉`` folds.  A system with no chains has one slot, holding ``G``.
    """

    def __init__(self, n_objects: int, chains: Iterable[Sequence[int]]):
        self.full = full = (1 << n_objects) - 1
        self.chains = [([a & ~b for a, b in zip(inside, inside[1:])] + [inside[-1]], inside)
                       for inside in chains]  # (at, inside) per chain
        self.bottom = reduce(and_, [inside[-1] for _, inside in self.chains], full)
        self.up = up = [0] * n_objects
        for c, (at, inside) in enumerate(self.chains or [([full], [full])]):
            for a, member in zip(at, inside):
                word = member << c * n_objects
                for g in compress(count(), _bit_flags(a)):
                    up[g] |= word
        self.folds: list[int] = []  # the shift of each fold
        slots = max(len(self.chains), 1)
        while slots > 1:
            self.folds.append(slots // 2 * n_objects)
            slots -= slots // 2

    def hull(self, mask: int) -> int:
        """The OR of the words of the objects in ``mask``."""
        return reduce(or_, compress(self.up, _bit_flags(mask)), 0)

    def close_hull(self, hull: int) -> int:
        """The closure of any set whose hull is ``hull``: the AND of its
        slots, or the AND of the last members for the empty set's 0."""
        if not hull:
            return self.bottom
        for shift in self.folds:
            hull &= hull >> shift
        return hull & self.full

    def close(self, mask: int) -> int:
        """The AND of each chain's tightest member holding ``mask``."""
        return self.close_hull(self.hull(mask))

    def hits(self, mask: int) -> list[int]:
        """Per chain, ``mask & at[k]`` for the non-empty ``mask``'s tightest member ``k``."""
        found = []
        for at, _ in self.chains:
            k = 0
            while not at[k] & mask:
                k += 1
            found.append(at[k] & mask)
        return found

    def gaps(self, mask: int) -> list[int]:
        """The gaps of the closed set ``mask`` to its lower covers: the
        distinct minimal sets among ``mask & at[k]``, over the chains whose
        tightest member ``k`` holding ``mask`` is not their last."""
        if not mask:
            return []
        found = set()
        for at, _ in self.chains:
            # find the tightest member as hits does; the last opens no gap
            hit = at[0] & mask
            if not hit:
                k = 1
                while not at[k] & mask:
                    k += 1
                if k + 1 == len(at):
                    continue
                hit = at[k] & mask
            found.add(hit)
        kept: list[int] = []
        # a strict subset has fewer bits, so it is seen (and kept) first
        for gap in sorted(found, key=int.bit_count):
            for small in kept:
                if not small & ~gap:
                    break
            else:
                kept.append(gap)
        return kept


def enumerate_closed_extents(
    up: Sequence[int],
    close: Callable[[int], int],
    concept_cap: int = DEFAULT_CONCEPT_CAP,
) -> list[int]:
    """Enumerate every fixpoint of a closure operator on object bitmasks.

    The operator is given on hulls: a set's hull is the OR of the words
    ``up[g]`` of its objects ``g`` (0 for the empty set), and ``close(h)``
    is the closure of any set whose hull is ``h``.  With ``up[g] = 1 << g``
    the hull is the set itself; :class:`NestedChains` gives bit-sliced
    hulls.  Each extent on the stack keeps the hull ``h`` of the set it was
    closed from, and its extension by ``g`` is closed as
    ``close(h | up[g])``, one OR with no walk over the extent's objects: a
    set and its closure, each extended by ``g``, have one closure.

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
    n_objects = len(up)
    root = close(0)
    out = [root]
    stack: list[tuple[int, int, int, list[Sequence[int]]]] = [(root, 0, 0, [(0,) * n_objects])]
    while stack:
        if len(out) > concept_cap:
            raise CapacityError(f"concept count exceeded the configured cap ({concept_cap})")
        extent, hull, start, handed = stack.pop()
        inherited = failed = handed[0]
        record = [inherited]
        outside = ~extent
        for g in range(start, n_objects):
            bit = 1 << g
            if extent & bit or failed[g] & outside:
                continue
            grown = hull | up[g]
            child = close(grown)
            below = bit - 1
            if (child ^ extent) & below:
                if failed is inherited:
                    failed = record[0] = list(inherited)
                failed[g] = child & below
            else:
                out.append(child)
                stack.append((child, grown, g + 1, record))
    return out


def assemble_lattice(structure: Any, extent_masks: Iterable[int]) -> ConceptLattice:
    """Order the closed extents of ``structure`` into a lattice that reads
    payloads (``structure.concept``) and gaps (``gaps(i)``, from
    ``structure.chains``) on demand; see :class:`ConceptLattice`."""
    # the key puts the size above the mask's bits reversed over whole bytes,
    # object 0 highest: among extents of one size, the one holding the
    # lowest object of their first difference has the larger key, so sorting
    # descending is the documented order
    width = (len(structure.objects) + 7) // 8
    shift = 8 * width
    masks = sorted(set(extent_masks), reverse=True, key=lambda m: m.bit_count() << shift | (
        int.from_bytes(m.to_bytes(width, "little").translate(_REVERSED_BITS), "big")))
    return ConceptLattice(structure, masks)


def build_lattice(
    context: FormalContext, concept_cap: int = DEFAULT_CONCEPT_CAP
) -> ConceptLattice:
    """Construct the full concept lattice of a binary context.

    The result matches brute-force enumeration of all ``2^|G|`` extent
    closures, deduplicated.  Raises :class:`CapacityError` when the number
    of concepts exceeds ``concept_cap``.

    Fast Close-by-One closes object sets on ``context.chains``, except
    when there are at least 2.5 times as many objects as attributes: then
    it closes attribute sets on the transposed context, one chain
    ``[M, row]`` per object, which gives each concept's closed intent
    once, and maps each intent to its extent, the AND of its columns.
    The extents are the same set either way, so the lattice, its order
    and the concept count the cap is checked against do not change.  The
    2.5 keeps the switch where the transposed side measured faster on
    random contexts of density 0.45 (0.5 to 0.98 times the object side's
    time from 30 x 12 to 60 x 20); near-square ones (16 x 8, 18 x 18,
    30 x 25) took it 1.1 to 1.4 times as long.  Contexts smaller than
    30 x 12 lose a few tens of microseconds on that side.
    """
    if 2 * context.n_objects >= 5 * context.n_attributes:
        # the transposed context: one chain [M, row] per object
        full = (1 << context.n_attributes) - 1
        chains = NestedChains(context.n_attributes, [[full, row] for row in context.row_masks])
        intents = enumerate_closed_extents(chains.up, chains.close_hull, concept_cap)
        columns, objects = context.column_masks, context.object_mask
        return assemble_lattice(context, [
            reduce(and_, compress(columns, _bit_flags(intent)), objects) for intent in intents])
    chains = context.chains
    return assemble_lattice(
        context, enumerate_closed_extents(chains.up, chains.close_hull, concept_cap))


def lattice_to_dot(lattice: ConceptLattice, out: TextIO | None = None) -> str | None:
    """Render the cover relation as a Graphviz digraph (debugging aid);
    each node is labelled with its extent.  A backslash or double quote
    in an object name is escaped, so every label stays one DOT string.

    Returns the text, or writes it to the text file ``out`` and returns
    ``None``: in two parts, the node lines and then the edge lines, each
    dropped once written, so the whole text is never held at once."""
    fh = io.StringIO() if out is None else out
    names = [name.replace("\\", "\\\\").replace('"', '\\"')
             for name in lattice.object_names]
    ids = [f"n{i}" for i in range(len(lattice))]
    fh.write("\n".join(["digraph lattice {", "  rankdir=BT;",
                        *[f'  {node} [label="{{{",".join(names_in(names, mask))}}}"];'
                          for node, mask in zip(ids, lattice.extent_masks)], ""]))
    # children ascend and are read in parent order: the order of covers
    fh.write("\n".join([*[f"  {ids[child]} -> {parent};"
                          for parent, kids in zip(ids, lattice.children) for child in kids], "}"]))
    return fh.getvalue() if out is None else None


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
    repeated header name or id, a ragged row or a cell ``parse`` rejects
    names the file, the columns or rows (file lines) and a cell's column."""
    with input_file(path, what, newline="") as fh:
        # an Excel "CSV UTF-8" export starts with a byte-order mark
        first = fh.readline().removeprefix("\ufeff")
        rows = list(csv.reader(chain([first] if first else [], fh)))
    if not rows:
        raise InputError(f"{path}: empty file")
    header = rows[0]
    if header[:1] != ["id"]:
        raise InputError(f"{path}: first header cell must be 'id'")
    check_unique(f"{path}: header name", header, "in columns", 1)
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
