"""Concept stability: exact computation, logarithmic scale, and bounds.

The (intensional) stability of a concept with extent ``A`` and intent
``B`` is the fraction of subsets of ``A`` whose derivation still yields
``B``:

    ``Stab(A, B) = |{C subset of A : C' = B}| / 2^|A|``

It measures how robust the concept is to removing objects.  Because
``Stab`` saturates near 1, ranking uses the logarithmic scale
``LStab = -log2(1 - Stab)``, with ``Stab = 1`` mapped to an explicit
``+inf`` sentinel.

Exact computation is available two ways, which agree everywhere:

* :func:`stability_bruteforce` enumerates subsets of one concept's extent
  (capped, since the count is ``2^|A|``);
* :func:`stability_lattice_dp` reads each concept's lower covers: a
  subset of ``A`` closes to ``A`` exactly when it lies inside no lower
  cover, i.e. when it meets every gap ``A \\ child``.  When the
  one-object gaps already meet every gap, the count is the closed form
  ``q = 2^(|A| - |F|)``, with ``F`` the union of the one-object gaps;
  with continuous features every gap is one object, so this is the
  common case.  Otherwise every subset of ``A`` closes to exactly one
  concept with extent inside ``A``, so
  ``q(c) = 2^|A| - sum of q(e) over the strict down-set of c``, found by
  walking the cover relation.  Counts are kept as arbitrary-precision
  integers, so the identity ``sum of q over all concepts = 2^|G|`` is
  exact at any size.

When the lattice is too large for exact work, :func:`lstab_bounds`
derives the chain

    ``dmin - log2(|M|) <= -log2(sum over direct descendants of 2^-d)
    <= LStab <= dmin``

where ``d = |extent(c) \\ extent(child)|`` and ``dmin`` is its minimum.
The lower bound is only as good as the ``attribute_count`` (``|M|``)
supplied: the chain is guaranteed when ``attribute_count`` is at least
the number of direct descendants, which holds for binary contexts with
``|M|`` attributes and for interval pattern structures with ``2 * m``
refinement directions (each of ``m`` interval components can tighten at
its lower or its upper end).  An auxiliary field reports the variant
computed with ``log2(#descendants)`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import CapacityError, InputError
from .fca import Concept, ConceptLattice, FormalContext, _iter_bits
from .intervals import IntervalPatternStructure, PatternConcept, interval_meet

METHOD_TAGS = ("brute-force", "lattice-dp", "bounds")
BOUND_POLICIES = ("lower", "mid", "upper")

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
    lower_bound_dd: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHOD_TAGS:
            raise InputError(f"unknown stability method tag {self.method!r}")
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
        if bound_policy not in BOUND_POLICIES:
            raise InputError(f"unknown bound policy {bound_policy!r}")
        value = {
            "lower": self.lower_bound,
            "mid": self.mid_bound,
            "upper": self.upper_bound,
        }[bound_policy]
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


def stability_lattice_dp(lattice: ConceptLattice) -> dict[int, StabilityScore]:
    """Exact stability for every concept from its lower covers.

    A subset ``C`` of an extent ``A`` closes to ``A`` exactly when it lies
    inside no lower cover, i.e. when it meets every gap ``A \\ child``.
    One-object gaps force their object into ``C``; when every gap meets
    the union ``F`` of those objects, forcing ``F`` suffices and
    ``q = 2^(|A| - |F|)``.  Otherwise ``q`` follows from the
    subset-partition identity ``q = 2^|A| - sum of q(d)`` over the
    concept's strict down-set, found by walking ``children``.  Concepts
    are scored from the bottom up (children have larger indices), with
    integer arithmetic throughout, so results are exact for any lattice
    size.

    The closed form costs a few mask operations per cover edge; only the
    concepts it does not settle pay for a walk over their down-set.
    """
    masks = lattice.extent_masks
    children = lattice.children
    counts = [0] * len(masks)
    for i in range(len(masks) - 1, -1, -1):
        mask = masks[i]
        size = mask.bit_count()
        gaps = [mask & ~masks[j] for j in children[i]]
        forced = 0
        for gap in gaps:
            if gap & (gap - 1) == 0:  # gaps are non-empty: one object
                forced |= gap
        if all(gap & forced for gap in gaps):
            counts[i] = 1 << (size - forced.bit_count())
            continue
        seen = set(children[i])
        stack = list(seen)
        while stack:
            for d in children[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        counts[i] = (1 << size) - sum(counts[d] for d in seen)
    return {
        i: StabilityScore.from_exact_count("lattice-dp", masks[i].bit_count(), q)
        for i, q in enumerate(counts)
    }


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def lstab_bounds(
    lattice: ConceptLattice, index: int, attribute_count: int
) -> StabilityScore:
    """Bound LStab from the direct descendants alone.

    Returns ``lower = dmin - log2(attribute_count)``,
    ``mid = -log2(sum of 2^-d)`` and ``upper = dmin`` where ``d`` ranges
    over extent-difference sizes to direct descendants.  A concept with no
    descendant (the lattice bottom) has ``Stab = 1`` exactly — every
    subset of its extent closes back onto it — so it gets the
    ``stab = 1 / lstab = +inf`` convention instead of bounds.
    """
    if not 0 <= index < len(lattice):
        raise InputError(f"concept index {index} out of range")
    if attribute_count < 1:
        raise InputError("attribute_count must be >= 1")
    size = lattice.extent_masks[index].bit_count()
    kids = lattice.children[index]
    if not kids:
        return StabilityScore(method="bounds", extent_size=size, stab=1.0, lstab=math.inf)

    deltas = [size - lattice.extent_masks[j].bit_count() for j in kids]
    if min(deltas) < 1:
        raise InputError("cover edge with empty extent difference")
    dmin = min(deltas)
    dmax = max(deltas)
    # sum of 2^-d written as (sum of 2^(dmax-d)) / 2^dmax keeps it integral
    numerator = sum(1 << (dmax - d) for d in deltas)
    mid = dmax - math.log2(numerator) + 0.0
    return StabilityScore(
        method="bounds",
        extent_size=size,
        lower_bound=dmin - math.log2(attribute_count) + 0.0,
        mid_bound=mid,
        upper_bound=float(dmin),
        lower_bound_dd=dmin - math.log2(len(deltas)) + 0.0,
    )


def score_lattice(
    lattice: ConceptLattice,
    method: str,
    *,
    structure: Any = None,
    attribute_count: int | None = None,
    max_extent: int = DEFAULT_BRUTEFORCE_CAP,
) -> dict[int, StabilityScore]:
    """Score every concept with the chosen method.

    ``method`` is one of ``exact-dp`` (exact counts from each concept's
    lower covers, see :func:`stability_lattice_dp`), ``bounds`` (needs
    ``attribute_count``) or ``brute-force`` (needs the originating
    ``structure``).
    """
    if method == "exact-dp":
        return stability_lattice_dp(lattice)
    if method == "bounds":
        if attribute_count is None:
            raise InputError("bounds method requires attribute_count")
        return {i: lstab_bounds(lattice, i, attribute_count) for i in range(len(lattice))}
    if method == "brute-force":
        if structure is None:
            raise InputError("brute-force method requires the originating structure")
        return {
            i: stability_bruteforce(structure, lattice.concepts[i], max_extent)
            for i in range(len(lattice))
        }
    raise InputError(f"unknown stability method {method!r}")


# ---------------------------------------------------------------------------
# Filtering and export
# ---------------------------------------------------------------------------


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
    still meet the threshold.
    """
    if not 0.0 <= min_support <= 1.0:
        raise InputError(f"min_support {min_support} outside [0, 1]")
    if min_lstab < 0.0:
        raise InputError(f"min_lstab {min_lstab} must be non-negative")
    if bound_policy not in BOUND_POLICIES:
        raise InputError(f"unknown bound policy {bound_policy!r}")
    n = lattice.n_objects
    kept = []
    for i in range(len(lattice)):
        if i not in scores:
            raise InputError(f"missing stability score for concept {i}")
        support = 1.0 if n == 0 else lattice.extent_masks[i].bit_count() / n
        if support < min_support:
            continue
        if scores[i].gate_value(bound_policy) < min_lstab:
            continue
        kept.append(i)
    return kept


def _json_number(value: float) -> Any:
    return "inf" if value == math.inf else value


def score_to_json(score: StabilityScore, n_objects: int) -> dict[str, Any]:
    """One score as a JSON-ready mapping (``+inf`` becomes ``"inf"``)."""
    out: dict[str, Any] = {
        "extent_size": score.extent_size,
        "support": 1.0 if n_objects == 0 else score.extent_size / n_objects,
    }
    if score.stab is not None:
        out["stab"] = score.stab
    if score.lstab is not None:
        out["lstab"] = _json_number(score.lstab)
    if score.lower_bound is not None:
        out["lower"] = score.lower_bound
    if score.mid_bound is not None:
        out["mid"] = score.mid_bound
    if score.upper_bound is not None:
        out["upper"] = score.upper_bound
    out["method"] = score.method
    return out


def scores_to_json(
    scores: Mapping[int, StabilityScore], n_objects: int
) -> list[dict[str, Any]]:
    """All scores, ordered by concept index, as JSON-ready mappings."""
    return [score_to_json(scores[i], n_objects) for i in sorted(scores)]
