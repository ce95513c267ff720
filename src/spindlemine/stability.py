"""Concept stability: exact computation, logarithmic scale, and bounds.

The (intensional) stability of a concept with extent ``A`` and intent
``B`` is the fraction of subsets of ``A`` whose derivation still yields
``B``:

    ``Stab(A, B) = |{C subset of A : C' = B}| / 2^|A|``

It measures how robust the concept is to removing objects.  Because
``Stab`` saturates near 1, ranking uses the logarithmic scale
``LStab = -log2(1 - Stab)``, with ``Stab = 1`` mapped to an explicit
``+inf`` sentinel.

Exact stability is computed one way, by :func:`stability_lattice_dp`,
which reads each concept's gaps ``A \\ child`` to its lower covers off
the chains, or off the covers once they are built
(``ConceptLattice.gaps(i)``): a subset of ``A`` closes to ``A`` exactly
when it lies inside no lower cover, i.e. when it
meets every gap.  When the one-object gaps already meet every gap, the
count is the closed form ``q = 2^(|A| - |F|)``, with ``F`` the union of
the one-object gaps; with continuous features every gap is one object,
so this is the common case.  Otherwise every subset of ``A`` closes to
exactly one concept with extent inside ``A``, so
``q(c) = 2^|A| - sum of q(e) over the strict down-set of c`` (the
down-set count of Roth, Obiedkov & Kourie, 2008).  The subsets of the
largest lower cover ``A_k`` are ``2^|A_k|`` of those, all closing inside
``A_k``, so the walk over the cover relation starts from the other lower
covers and skips every concept inside ``A_k``:
``q(c) = 2^|A| - 2^|A_k| - sum of q(e)`` over the rest.  Counts are
kept as arbitrary-precision integers, so the identity ``sum of q over
all concepts = 2^|G|`` is exact at any size.
:func:`stability_bruteforce` enumerates the subsets of one concept's
extent (capped, since there are ``2^|A|``); it is the reference the
exact counts are checked against, not a mining method.

:func:`score_lattice` scores the frequent concepts, those whose support
is at least ``min_support``, and returns a dict from concept index to
score.  Extents are sorted largest first, so these concepts are a prefix
of the lattice, its iceberg (Stumme et al., DKE 2002), and
:func:`frequent_count` gives its length; :func:`filter_concepts` reads
the scores of the same prefix.

When the lattice is too large for exact work, :func:`lstab_bounds`
derives the chain

    ``dmin - log2(|M|) <= -log2(sum over direct descendants of 2^-d)
    <= LStab <= dmin``

where ``d = |extent(c) \\ extent(child)|`` is a gap's size and ``dmin``
is its minimum.
The lower bound is only as good as the ``attribute_count`` (``|M|``)
supplied: the chain is guaranteed when ``attribute_count`` is at least
the number of direct descendants.  That holds for the structure's chain
count ``r``, the refinement directions: one chain per binary attribute,
two per interval attribute (each interval can tighten at its lower or its
upper end), and one when there are none: the default ``attribute_count``,
read from the chains of the structure the lattice was built from.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import CapacityError, InputError
from .fca import Concept, ConceptLattice, FormalContext
from .intervals import IntervalPatternStructure, PatternConcept, interval_meet

METHOD_TAGS = ("brute-force", "lattice-dp", "bounds")
#: The mining methods :func:`score_lattice` runs.
STABILITY_METHODS = ("exact-dp", "bounds")
BOUND_POLICIES = ("lower", "mid", "upper")
#: Each report key of a score and the :class:`StabilityScore` attribute it
#: reads, in report order; a bound policy names its bound's key.
SCORE_FIELDS = {"stab": "stab", "lstab": "lstab", "lower": "lower_bound",
                "mid": "mid_bound", "upper": "upper_bound"}

#: Largest extent size stability_bruteforce will accept (2^20 subsets).
DEFAULT_BRUTEFORCE_CAP = 20


@dataclass(frozen=True)
class StabilityScore:
    """Stability figures for one concept.

    ``stab``/``lstab`` are present for exact methods; the three bounds are
    present only for ``method="bounds"``.  ``exact_count`` is the integer
    numerator ``q`` (count of qualifying subsets), kept exact so callers
    can do rational-arithmetic comparisons.
    """

    method: str
    extent_size: int
    stab: float | None = None
    lstab: float | None = None
    exact_count: int | None = None
    lower_bound: float | None = None
    mid_bound: float | None = None
    upper_bound: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHOD_TAGS:
            raise InputError(f"method must be one of {METHOD_TAGS}, got {self.method!r}")
        if self.extent_size < 0:
            raise InputError("extent_size must be non-negative")
        if self.stab is not None:
            if not 0.0 <= self.stab <= 1.0:
                raise InputError(f"stab {self.stab} outside [0, 1]")
            if self.exact_count is not None:
                # the integer count is the authority: stab may round to 1.0
                # for huge extents while lstab stays finite
                if (self.exact_count == 1 << self.extent_size) != (self.lstab == math.inf):
                    raise InputError("lstab sentinel inconsistent with exact_count")
            elif self.stab == 1.0 and self.lstab != math.inf:
                raise InputError("stab == 1 requires the +inf lstab sentinel")

    @classmethod
    def from_exact_count(cls, method: str, extent_size: int, count: int) -> "StabilityScore":
        """Build an exact score from the qualifying-subset count ``q``.

        ``lstab`` is computed as ``|A| - log2(2^|A| - q)`` so it stays
        accurate even when ``1 - stab`` underflows in floating point.
        """
        total = 1 << extent_size
        if not 0 <= count <= total:
            raise InputError(f"count {count} outside [0, 2^{extent_size}]")
        stab = count / total  # int true division rounds correctly at any size
        if count == total:
            lstab = math.inf
        else:
            lstab = extent_size - math.log2(total - count) + 0.0
        return cls(method=method, extent_size=extent_size, stab=stab,
                   lstab=lstab, exact_count=count)

    def gate_value(self, bound_policy: str = "upper") -> float:
        """The number an LStab threshold is compared against."""
        if self.lstab is not None:
            return self.lstab
        _check_bound_policy(bound_policy)
        value = getattr(self, SCORE_FIELDS[bound_policy])
        if value is None:
            raise InputError("score carries neither lstab nor bounds")
        return value


def lstab(stab: float) -> float:
    """Logarithmic stability ``-log2(1 - stab)``; ``+inf`` at ``stab = 1``."""
    if not 0.0 <= stab <= 1.0:
        raise InputError(f"stab {stab} outside [0, 1]")
    if stab == 1.0:
        return math.inf
    return -math.log2(1.0 - stab) + 0.0


# ---------------------------------------------------------------------------
# Exact stability
# ---------------------------------------------------------------------------


def _count_cell(
    members: Sequence[Any],
    identity: Any,
    meet: Callable[[Any, Any], Any],
    target: Any,
) -> int:
    """Count subsets of ``members`` whose meet-fold equals ``target``.

    Folds are monotone (adding a member can only specialize the running
    description toward ``target``), so once the fold reaches ``target``
    every completion qualifies and the whole subtree is counted at once.
    """
    n = len(members)

    def walk(i: int, running: Any) -> int:
        if running == target:
            return 1 << (n - i)
        if i == n:
            return 0
        without = walk(i + 1, running)
        merged = members[i] if running is identity else meet(running, members[i])
        return without + walk(i + 1, merged)

    return walk(0, identity)


def _bruteforce_adapter(structure: Any, concept: Any):
    """Return (member descriptions, identity, meet, target) for a concept."""
    if isinstance(structure, FormalContext):
        if not isinstance(concept, Concept):
            raise InputError("expected a Concept for a FormalContext")
        full_m = (1 << structure.n_attributes) - 1
        members = [structure.row_masks[g] for g in sorted(concept.extent)]
        target = 0
        for m in concept.intent:
            target |= 1 << m
        return members, full_m, (lambda a, b: a & b), target
    if isinstance(structure, IntervalPatternStructure):
        if not isinstance(concept, PatternConcept):
            raise InputError("expected a PatternConcept for an IntervalPatternStructure")
        members = [structure.descriptions[g] for g in sorted(concept.extent)]
        return members, None, interval_meet, concept.intent
    raise InputError(f"unsupported structure type {type(structure).__name__}")


def stability_bruteforce(
    structure: Any,
    concept: Any,
    max_extent: int = DEFAULT_BRUTEFORCE_CAP,
) -> StabilityScore:
    """Exact stability by enumerating every subset of the extent.

    ``structure`` is a :class:`FormalContext` (with a :class:`Concept`) or
    an :class:`IntervalPatternStructure` (with a :class:`PatternConcept`).
    Extents larger than ``max_extent`` raise :class:`CapacityError`.
    """
    size = len(concept.extent)
    if size > max_extent:
        raise CapacityError(
            f"extent size {size} exceeds brute-force cap {max_extent}"
        )
    members, identity, meet, target = _bruteforce_adapter(structure, concept)
    if not members:
        # Only the empty subset exists and it folds to the identity,
        # which is exactly the bottom concept's intent.
        count = 1 if identity == target else 0
    else:
        count = _count_cell(members, identity, meet, target)
    return StabilityScore.from_exact_count("brute-force", size, count)


def stability_lattice_dp(
    lattice: ConceptLattice, min_support: float = 0.0
) -> dict[int, StabilityScore]:
    """Exact stability, by concept index, of each concept whose support is
    at least ``min_support`` (every concept by default), from its gaps to
    its lower covers.

    A subset ``C`` of an extent ``A`` closes to ``A`` exactly when it lies
    inside no lower cover, i.e. when it meets every gap ``A \\ child``
    (``lattice.gaps(i)``).  One-object gaps force their object into ``C``;
    when every gap meets the union ``F`` of those objects, forcing ``F``
    suffices and ``q = 2^(|A| - |F|)``.  Otherwise ``q`` follows from the
    subset-partition identity: every subset of ``A`` closes to exactly one
    concept inside ``A``.  The subsets of the largest lower cover ``A_k``
    (``lattice.children[i][0]``) close inside ``A_k``, ``2^|A_k|`` of them,
    so ``q = 2^|A| - 2^|A_k| - sum of q(d)`` over the concepts ``d`` below
    the concept whose extents are not inside ``A_k``.  These are found by a
    walk down the lower covers from the other covers that stops at every
    concept inside ``A_k``.  The counts the walk reads are settled first,
    with an explicit stack rather than recursion, and kept for the
    concepts scored later.  Counts are integers throughout, so results are
    exact for any lattice size.

    The closed form costs a few mask operations per gap and builds no
    cover.  The first concept it does not settle walks the covers, which
    builds every lower cover in one pass (``lattice.children``); from then
    on ``lattice.gaps(i)`` reads each concept's gaps off its covers.
    """
    masks = lattice.extent_masks
    counts: list[int | None] = [None] * len(masks)

    def walk(i: int) -> tuple[int, set[int]]:
        """The largest lower cover ``k`` of ``i``, and the concepts below
        ``i`` that hold an object of ``A \\ A_k``."""
        children = lattice.children
        k, *rest = children[i]
        outside = masks[i] & ~masks[k]
        seen = {d for d in rest if masks[d] & outside}
        stack = list(seen)
        while stack:
            for d in children[stack.pop()]:
                if d not in seen and masks[d] & outside:
                    seen.add(d)
                    stack.append(d)
        return k, seen

    def count(i: int) -> int:
        # a walked concept goes back on the stack with its walk, under the
        # unknown counts the walk reads; they lie below it, so each is
        # settled (or itself walked and put back) before it is popped again
        todo: list[tuple[int, tuple[int, set[int]] | None]] = [(i, None)]
        while todo:
            j, walked = todo.pop()
            if walked is not None:
                k, below = walked
                counts[j] = ((1 << masks[j].bit_count()) - (1 << masks[k].bit_count())
                             - sum(map(counts.__getitem__, below)))
            elif counts[j] is None:
                gaps = lattice.gaps(j)
                forced = 0
                for gap in gaps:
                    if gap & (gap - 1) == 0:  # gaps are non-empty: one object
                        forced |= gap
                if all(gap & forced for gap in gaps):
                    counts[j] = 1 << (masks[j].bit_count() - forced.bit_count())
                else:
                    walked = walk(j)
                    todo.append((j, walked))
                    todo += [(d, None) for d in walked[1] if counts[d] is None]
        return counts[i]  # type: ignore[return-value]

    return {i: StabilityScore.from_exact_count("lattice-dp", masks[i].bit_count(), count(i))
            for i in range(frequent_count(lattice, min_support))}


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def lstab_bounds(
    lattice: ConceptLattice, index: int, attribute_count: int | None = None
) -> StabilityScore:
    """Bound LStab from the gaps to the direct descendants alone.

    Returns ``lower = dmin - log2(attribute_count)``,
    ``mid = -log2(sum of 2^-d)`` and ``upper = dmin`` where ``d`` ranges
    over the sizes of the gaps ``lattice.gaps(index)``, with the module
    docstring's default ``attribute_count``.
    A concept with no gap (the lattice bottom) has ``Stab = 1`` exactly —
    every subset of its extent closes back onto it — so it gets the
    ``stab = 1 / lstab = +inf`` convention instead of bounds.
    """
    if not 0 <= index < len(lattice):
        raise InputError(f"concept index {index} out of range")
    if attribute_count is None:
        attribute_count = _chain_count(lattice)
    if attribute_count < 1:
        raise InputError("attribute_count must be >= 1")
    return _bounds(lattice.extent_masks[index].bit_count(), lattice.gaps(index),
                   attribute_count)


def _chain_count(lattice: ConceptLattice) -> int:
    # a binary context with no attributes has no chains
    return max(len(lattice.structure.chains.chains), 1)


def _bounds(size: int, gaps: list[int], attribute_count: int) -> StabilityScore:
    """:func:`lstab_bounds` of an extent of ``size`` objects with ``gaps``."""
    deltas = [gap.bit_count() for gap in gaps]
    if not deltas:
        return StabilityScore(method="bounds", extent_size=size, stab=1.0, lstab=math.inf)
    dmin = min(deltas)
    dmax = max(deltas)
    # sum of 2^-d written as (sum of 2^(dmax-d)) / 2^dmax keeps it integral
    numerator = sum([1 << (dmax - d) for d in deltas])
    return StabilityScore(
        method="bounds",
        extent_size=size,
        lower_bound=dmin - math.log2(attribute_count) + 0.0,
        mid_bound=dmax - math.log2(numerator) + 0.0,
        upper_bound=float(dmin),
    )


def score_lattice(
    lattice: ConceptLattice, method: str, min_support: float = 0.0
) -> dict[int, StabilityScore]:
    """Scores, by concept index, of the concepts whose support is at least
    ``min_support`` (the first :func:`frequent_count`; every concept by
    default), with the chosen method.

    ``method`` is ``exact-dp`` (exact counts from each concept's gaps to
    its lower covers, see :func:`stability_lattice_dp`) or ``bounds`` (see
    :func:`lstab_bounds`, with its default ``attribute_count``).
    """
    check_stability_method(method)
    if method == "exact-dp":
        return stability_lattice_dp(lattice, min_support)
    masks, gaps, attribute_count = lattice.extent_masks, lattice.gaps, _chain_count(lattice)
    return {i: _bounds(masks[i].bit_count(), gaps(i), attribute_count)
            for i in range(frequent_count(lattice, min_support))}


# ---------------------------------------------------------------------------
# Filtering and export
# ---------------------------------------------------------------------------


def check_thresholds(min_support: float, min_lstab: float, bound_policy: str) -> None:
    """Raise :class:`InputError` for a :func:`filter_concepts` setting outside its domain."""
    _check_min_support(min_support)
    if not 0.0 <= min_lstab:
        raise InputError(f"min_lstab {min_lstab} must be non-negative")
    _check_bound_policy(bound_policy)


def check_stability_method(method: str) -> None:
    """Raise :class:`InputError` unless ``method`` is one of :data:`STABILITY_METHODS`."""
    if method not in STABILITY_METHODS:
        raise InputError(f"stability_method must be one of {STABILITY_METHODS}, got {method!r}")


def _check_min_support(min_support: float) -> None:
    if not 0.0 <= min_support <= 1.0:
        raise InputError(f"min_support {min_support} outside [0, 1]")


def _check_bound_policy(bound_policy: str) -> None:
    if bound_policy not in BOUND_POLICIES:
        raise InputError(f"bound_policy must be one of {BOUND_POLICIES}, got {bound_policy!r}")


def filter_concepts(
    lattice: ConceptLattice,
    scores: Mapping[int, StabilityScore],
    min_support: float,
    min_lstab: float,
    bound_policy: str = "upper",
) -> list[int]:
    """Concept indices passing both the support and the LStab thresholds.

    ``min_support`` is relative (``|extent| / |G|``).  For bound-based
    scores, ``bound_policy`` picks which bound is compared against
    ``min_lstab``; the default ``upper`` keeps any concept that could
    still meet the threshold.  Only the frequent concepts' scores are
    read (:func:`frequent_count`), and each of them must be in ``scores``.
    """
    check_thresholds(min_support, min_lstab, bound_policy)
    kept = []
    for i in range(frequent_count(lattice, min_support)):
        if i not in scores:
            raise InputError(f"missing stability score for concept {i}")
        if scores[i].gate_value(bound_policy) < min_lstab:
            continue
        kept.append(i)
    return kept


def support(size: int, n_objects: int) -> float:
    """The relative support ``size / n_objects`` of an extent of ``size``
    objects; 1.0 when there are no objects."""
    return 1.0 if n_objects == 0 else size / n_objects


def frequent_count(lattice: ConceptLattice, min_support: float) -> int:
    """The number of concepts whose support is at least ``min_support``.
    Extents come largest first, so these are the concepts ``0`` to
    ``frequent_count - 1``: the lattice's iceberg."""
    _check_min_support(min_support)
    n = lattice.n_objects
    return bisect_left(lattice.extent_masks, True,
                       key=lambda mask: support(mask.bit_count(), n) < min_support)


def score_fields(score: StabilityScore) -> dict[str, Any]:
    """A score's report entry: each :data:`SCORE_FIELDS` value it holds, in
    order (``+inf`` becomes ``"inf"``), then its ``method``."""
    out: dict[str, Any] = {}
    for key, attribute in SCORE_FIELDS.items():
        value = getattr(score, attribute)
        if value is not None:
            out[key] = "inf" if value == math.inf else value
    out["method"] = score.method
    return out
