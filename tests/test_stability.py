"""Stability: exact counts, the log scale, bounds, and filtering."""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import CapacityError, InputError
from spindlemine.fca import (
    ConceptLattice,
    FormalContext,
    assemble_lattice,
    build_lattice,
    enumerate_closed_extents,
    read_object_table,
)
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    build_pattern_lattice,
)
from spindlemine.stability import (
    StabilityScore,
    filter_concepts,
    frequent_count,
    lstab,
    lstab_bounds,
    score_fields,
    score_lattice,
    stability_bruteforce,
    stability_lattice_dp,
    support,
)

from conftest import (
    make_three_point_structure,
    needs_down_set,
    oracle_binary_closure,
    oracle_interval_closure,
    oracle_stability,
    oracle_subset_counts,
    random_context,
    random_interval_structure,
    tie_heavy_structures,
)


# ---------------------------------------------------------------------------
# the log scale
# ---------------------------------------------------------------------------


def test_lstab_values():
    assert lstab(0.0) == 0.0
    assert lstab(0.5) == 1.0
    assert lstab(0.75) == 2.0
    assert lstab(1.0) == math.inf
    with pytest.raises(InputError):
        lstab(1.5)
    with pytest.raises(InputError):
        lstab(-0.1)


def test_from_exact_count():
    s = StabilityScore.from_exact_count("lattice-dp", 2, 2)
    assert s.stab == 0.5 and s.lstab == 1.0 and s.exact_count == 2
    full = StabilityScore.from_exact_count("brute-force", 3, 8)
    assert full.stab == 1.0 and full.lstab == math.inf
    with pytest.raises(InputError):
        StabilityScore.from_exact_count("lattice-dp", 2, 5)


def test_from_exact_count_precise_at_large_extents():
    # float(stab) rounds to 1.0 here, but the log scale must stay finite
    # and exact because it is computed off the integer count
    s = StabilityScore.from_exact_count("lattice-dp", 100, (1 << 100) - 1)
    assert s.stab == 1.0
    assert s.lstab == 100.0
    s2 = StabilityScore.from_exact_count("lattice-dp", 80, (1 << 80) - (1 << 17))
    assert s2.lstab == 63.0


def test_score_validation():
    with pytest.raises(InputError):
        StabilityScore(method="magic", extent_size=1)
    with pytest.raises(InputError):
        StabilityScore(method="lattice-dp", extent_size=-1)
    with pytest.raises(InputError):
        StabilityScore(method="lattice-dp", extent_size=1, stab=1.5)
    with pytest.raises(InputError):
        # manual stab=1 must carry the sentinel
        StabilityScore(method="lattice-dp", extent_size=1, stab=1.0, lstab=3.0)


def test_gate_value():
    exact = StabilityScore(method="lattice-dp", extent_size=2, stab=0.5, lstab=1.0)
    assert exact.gate_value("lower") == 1.0  # exact value wins over any policy
    b = StabilityScore(method="bounds", extent_size=4, lower_bound=0.5,
                       mid_bound=1.0, upper_bound=2.0)
    assert b.gate_value("lower") == 0.5
    assert b.gate_value("mid") == 1.0
    assert b.gate_value("upper") == 2.0
    # the wording of check_thresholds, the one bound-policy rule
    with pytest.raises(InputError, match=r"^bound_policy must be one of .*, got 'sideways'$"):
        b.gate_value("sideways")
    with pytest.raises(InputError):
        StabilityScore(method="bounds", extent_size=1).gate_value("upper")


# ---------------------------------------------------------------------------
# exact stability, both ways
# ---------------------------------------------------------------------------


def test_tiny_context_stability(tiny_context):
    lat = build_lattice(tiny_context)
    scores = stability_lattice_dp(lat)
    # ({g1,g2},{a}): subsets {g1} and {g1,g2} qualify -> 2/4
    assert scores[0].stab == 0.5 and scores[0].lstab == 1.0
    # ({g2},{a,b}): both subsets of {g2} derive {a,b} -> 2/2
    assert scores[1].stab == 1.0 and scores[1].lstab == math.inf
    for i in (0, 1):
        bf = stability_bruteforce(tiny_context, lat.concepts[i])
        assert bf.exact_count == scores[i].exact_count


def test_empty_extent_is_fully_stable():
    ps = IntervalPatternStructure(
        ("g0",), ("a",), (IntervalDescription(((1.0, 1.0),)),)
    )
    lat = build_pattern_lattice(ps)
    bottom = lat.concepts[lat.bottom_index]
    assert bottom.extent == frozenset()
    score = stability_bruteforce(ps, bottom)
    assert score.stab == 1.0 and score.lstab == math.inf


def test_dp_matches_bruteforce_and_oracle_binary():
    rng = random.Random(987)
    for _ in range(25):
        ctx = random_context(rng, max_objects=6, max_attributes=5)
        lat = build_lattice(ctx)
        dp = stability_lattice_dp(lat)
        for i, concept in enumerate(lat.concepts):
            bf = stability_bruteforce(ctx, concept)
            assert bf.exact_count == dp[i].exact_count
            want = oracle_stability(
                concept.extent, lambda s: oracle_binary_closure(ctx, s)
            )
            assert Fraction(dp[i].exact_count, 1 << dp[i].extent_size) == want


def test_dp_matches_bruteforce_and_oracle_interval():
    rng = random.Random(654)
    for _ in range(20):
        ps = random_interval_structure(rng, max_objects=6, max_attributes=3)
        lat = build_pattern_lattice(ps)
        dp = stability_lattice_dp(lat)
        for i, concept in enumerate(lat.concepts):
            bf = stability_bruteforce(ps, concept)
            assert bf.exact_count == dp[i].exact_count
            want = oracle_stability(
                concept.extent, lambda s: oracle_interval_closure(ps, s)
            )
            assert Fraction(dp[i].exact_count, 1 << dp[i].extent_size) == want


def test_counts_partition_the_powerset():
    # every subset of G closes to exactly one concept
    rng = random.Random(31337)
    for _ in range(20):
        ctx = random_context(rng, max_objects=8, max_attributes=6)
        lat = build_lattice(ctx)
        counts = stability_lattice_dp(lat)
        assert sum(s.exact_count for s in counts.values()) == 1 << ctx.n_objects
    for _ in range(15):
        ps = random_interval_structure(rng, max_objects=8, max_attributes=3)
        lat = build_pattern_lattice(ps)
        counts = stability_lattice_dp(lat)
        assert sum(s.exact_count for s in counts.values()) == 1 << ps.n_objects


def _assert_dp_matches_oracle(lattice):
    """Every exact-dp count equals the pair oracle's; returns the concepts
    the closed form does not settle, by their number of lower covers."""
    dp = stability_lattice_dp(lattice)
    assert {i: s.exact_count for i, s in dp.items()} == oracle_subset_counts(lattice)
    return Counter(len(lattice.children[i]) for i in range(len(lattice))
                   if needs_down_set(lattice, i))


def test_dp_matches_pair_oracle_on_binary_context_with_duplicate_rows():
    rng = random.Random(2024)
    rows = [[int(rng.random() < 0.5) for _ in range(18)] for _ in range(40)]
    rows += [list(rows[rng.randrange(40)]) for _ in range(10)]
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(50)], [f"m{j}" for j in range(18)], rows
    )
    lattice = build_lattice(ctx)
    # built over the 18 attributes
    chains = ctx.chains
    assert lattice.extent_masks == assemble_lattice(
        ctx, enumerate_closed_extents(chains.up, chains.close_hull)).extent_masks
    walked = _assert_dp_matches_oracle(lattice)
    # both the closed form and the walk must be exercised
    assert 0 < sum(walked.values()) < len(lattice)


@st.composite
def binary_contexts_with_repeated_rows(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)) for _ in range(n)]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))]
    return FormalContext.from_rows(
        [f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(m)], rows)


def test_dp_matches_pair_oracle_on_drawn_structures():
    walked = Counter()

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(tie_heavy_structures().map(build_pattern_lattice),
                     binary_contexts_with_repeated_rows().map(build_lattice)))
    def check(lattice):
        walked.update(_assert_dp_matches_oracle(lattice))

    check()
    # the draws walk concepts with one lower cover (no walk is needed
    # beyond the largest cover) and with several, whose walks stop at
    # the concepts inside the largest cover's extent
    assert walked[1] > 0 and sum(n for covers, n in walked.items() if covers > 1) > 0


@settings(deadline=None, max_examples=300)
@given(structure=st.one_of(tie_heavy_structures(), binary_contexts_with_repeated_rows()),
       min_support=st.floats(0.0, 1.0), prebuilt=st.booleans())
def test_exact_dp_pass_counts_and_leaves_the_covers(structure, min_support, prebuilt):
    # prebuilt: the covers are read before scoring, as a --dot run does
    build = build_lattice if isinstance(structure, FormalContext) else build_pattern_lattice
    lattice = build(structure)
    if prebuilt:
        lattice.children
    scores = stability_lattice_dp(lattice, min_support)
    frequent = frequent_count(lattice, min_support)
    want = oracle_subset_counts(lattice)
    assert {i: s.exact_count for i, s in scores.items()} == {i: want[i] for i in range(frequent)}
    # the pass leaves every concept's covers; the closed form alone, none
    fresh = ConceptLattice(structure, lattice.extent_masks)
    walked = any(needs_down_set(fresh, i) for i in range(frequent))
    assert ("children" in vars(lattice)) == (prebuilt or walked)
    if prebuilt or walked:
        assert lattice.children == fresh.children


BINARY_DP = Path(__file__).parent / "fixtures" / "binary_dp"


def test_binary_lattice_and_exact_dp_match_committed_outputs():
    # a 30 x 12 context drawn at density 0.45; lattice.json was written by
    # the object-side Close-by-One and the full down-set walk, so this pins
    # the transposed enumeration (2.5 objects per attribute) and the pruned
    # walk
    objects, attributes, table = read_object_table(
        str(BINARY_DP / "context.csv"), int, "context")
    lattice = build_lattice(FormalContext.from_rows(objects, attributes, table))
    scores = score_lattice(lattice, "exact-dp")
    want = json.loads((BINARY_DP / "lattice.json").read_text())
    assert [[g for g in range(len(objects)) if m >> g & 1]
            for m in lattice.extent_masks] == want["extents"]
    assert [list(pair) for pair in lattice.covers] == want["covers"]
    assert [scores[i].exact_count for i in range(len(lattice))] == want["exact_counts"]
    assert filter_concepts(lattice, scores, min_support=0.05, min_lstab=1.0) == want["kept"]


def test_dp_matches_pair_oracle_on_integer_ties():
    rng = random.Random(2024)
    n = 14
    ps = IntervalPatternStructure(
        tuple(f"g{i}" for i in range(n)),
        ("a", "b", "c"),
        tuple(
            IntervalDescription.from_point([rng.randint(0, 3) for _ in range(3)])
            for _ in range(n)
        ),
    )
    lattice = build_pattern_lattice(ps)
    walked = _assert_dp_matches_oracle(lattice)
    assert 0 < sum(walked.values()) < len(lattice)


def test_bruteforce_capacity():
    n = 21
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], ["a"], [[1]] * n
    )
    lat = build_lattice(ctx)
    with pytest.raises(CapacityError):
        stability_bruteforce(ctx, lat.concepts[0])
    # a generous cap admits it again
    score = stability_bruteforce(ctx, lat.concepts[0], max_extent=21)
    assert score.lstab == math.inf  # single concept: everything closes to it


def test_bruteforce_type_checks(tiny_context):
    lat = build_lattice(tiny_context)
    with pytest.raises(InputError):
        stability_bruteforce(object(), lat.concepts[0])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_single_child(tiny_context):
    lat = build_lattice(tiny_context)
    b = lstab_bounds(lat, 0, attribute_count=2)
    # one child at distance 1: lower = 1 - log2(2), mid = upper = 1
    assert b.lower_bound == 0.0
    assert b.mid_bound == 1.0
    assert b.upper_bound == 1.0
    assert b.stab is None and b.lstab is None


def test_bounds_two_children_at_distance_two():
    ctx = FormalContext.from_rows(
        ["g1", "g2", "g3", "g4"],
        ["a", "b"],
        [[1, 0], [1, 0], [0, 1], [0, 1]],
    )
    lat = build_lattice(ctx)
    assert lat.extent_masks[0] == 0b1111
    b = lstab_bounds(lat, 0, attribute_count=2)
    assert b.upper_bound == 2.0
    assert b.mid_bound == 1.0  # -log2(2 * 2^-2)
    assert b.lower_bound == 1.0
    true = stability_lattice_dp(lat)[0].lstab
    assert b.mid_bound <= true <= b.upper_bound
    assert true == pytest.approx(4 - math.log2(7))


def test_bounds_bottom_convention():
    ps = IntervalPatternStructure(
        ("g0",), ("a",), (IntervalDescription(((0.0, 0.0),)),)
    )
    lat = build_pattern_lattice(ps)
    b = lstab_bounds(lat, lat.bottom_index, attribute_count=2)
    assert b.stab == 1.0 and b.lstab == math.inf
    assert b.lower_bound is None


def test_bounds_validation(tiny_context):
    lat = build_lattice(tiny_context)
    with pytest.raises(InputError):
        lstab_bounds(lat, 99, attribute_count=2)
    with pytest.raises(InputError):
        lstab_bounds(lat, 0, attribute_count=0)


def test_bound_chain_on_random_binary_lattices():
    rng = random.Random(777)
    for _ in range(30):
        ctx = random_context(rng, max_objects=8, max_attributes=6)
        lat = build_lattice(ctx)
        exact = stability_lattice_dp(lat)
        for i in range(len(lat)):
            b = lstab_bounds(lat, i, attribute_count=ctx.n_attributes)
            if not lat.children[i]:
                assert b.lstab == math.inf
                continue
            true = exact[i].lstab
            if true == math.inf:
                continue
            assert b.lower_bound <= b.mid_bound + 1e-12
            assert b.mid_bound <= true + 1e-12
            assert true <= b.upper_bound + 1e-12


def test_interval_lattices_need_both_refinement_directions():
    """With m numeric attributes a concept can have up to 2*m direct
    descendants (each component can tighten at either end), so the
    guaranteed lower bound must divide by 2*m, not m."""
    points = [(0.0, 1.0), (1.0, 3.0), (2.0, 0.0), (3.0, 2.0)]
    ps = IntervalPatternStructure(
        objects=("p0", "p1", "p2", "p3"),
        attributes=("x", "y"),
        descriptions=tuple(IntervalDescription.from_point(p) for p in points),
    )
    lat = build_pattern_lattice(ps)
    kids = lat.children[lat.top_index]
    assert len(kids) == 4  # more than m = 2
    exact = stability_lattice_dp(lat)[lat.top_index].lstab
    b4 = lstab_bounds(lat, lat.top_index, attribute_count=4)
    assert b4.lower_bound <= b4.mid_bound <= exact <= b4.upper_bound
    # dividing by m only is NOT a lower bound here: it exceeds the mid
    b2 = lstab_bounds(lat, lat.top_index, attribute_count=2)
    assert b2.lower_bound > b2.mid_bound


def test_score_lattice_dispatch(tiny_context):
    lat = build_lattice(tiny_context)
    dp = score_lattice(lat, "exact-dp")
    assert dp[0].method == "lattice-dp"
    bounds = score_lattice(lat, "bounds")
    assert bounds[0].method == "bounds"
    # the bounds divide by the structure's chain count: one per binary
    # attribute, two per interval attribute, and 1 for a binary context
    # with no attributes (it has no chains)
    no_attributes = build_lattice(FormalContext.from_rows(["g1", "g2"], [], [[], []]))
    for lattice, chains in ((lat, 2), (build_pattern_lattice(make_three_point_structure()), 4),
                            (no_attributes, 1)):
        explicit = [lstab_bounds(lattice, i, attribute_count=chains) for i in range(len(lattice))]
        assert list(score_lattice(lattice, "bounds").values()) == explicit
        assert [lstab_bounds(lattice, i) for i in range(len(lattice))] == explicit
    # subset enumeration is a reference (stability_bruteforce), not a method
    with pytest.raises(InputError):
        score_lattice(lat, "brute-force")
    with pytest.raises(InputError):
        score_lattice(lat, "guesswork")
    for bad in (-0.1, 1.5, float("nan")):
        for score in (lambda: score_lattice(lat, "bounds", bad),
                      lambda: stability_lattice_dp(lat, bad)):
            with pytest.raises(InputError, match="min_support"):
                score()


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


@pytest.fixture
def scored_lattice(tiny_context):
    lat = build_lattice(tiny_context)
    return lat, stability_lattice_dp(lat)


def test_filter_no_thresholds_keeps_all(scored_lattice):
    lat, scores = scored_lattice
    assert filter_concepts(lat, scores, min_support=0.0, min_lstab=0.0) == [0, 1]


def test_filter_by_support(scored_lattice):
    lat, scores = scored_lattice
    assert filter_concepts(lat, scores, min_support=1.0, min_lstab=0.0) == [0]
    assert filter_concepts(lat, scores, min_support=0.5, min_lstab=0.0) == [0, 1]


def test_filter_by_lstab(scored_lattice):
    lat, scores = scored_lattice
    # concept 0 has lstab 1.0, concept 1 has +inf
    assert filter_concepts(lat, scores, min_support=0.0, min_lstab=1.5) == [1]
    assert filter_concepts(lat, scores, min_support=0.0, min_lstab=1.0) == [0, 1]


def test_filter_monotone(scored_lattice):
    lat, scores = scored_lattice
    previous = None
    for lo in (0.0, 0.5, 1.0):
        kept = set(filter_concepts(lat, scores, min_support=lo, min_lstab=0.0))
        if previous is not None:
            assert kept <= previous
        previous = kept


def test_filter_with_bounds_policies():
    ctx = FormalContext.from_rows(
        ["g1", "g2", "g3", "g4"],
        ["a", "b"],
        [[1, 0], [1, 0], [0, 1], [0, 1]],
    )
    lat = build_lattice(ctx)
    scores = score_lattice(lat, "bounds")
    # top: lower=1, mid=1, upper=2; the policy decides which one gates
    upper = filter_concepts(lat, scores, 0.0, 1.5, bound_policy="upper")
    mid = filter_concepts(lat, scores, 0.0, 1.5, bound_policy="mid")
    assert 0 in upper and 0 not in mid
    assert set(mid) <= set(upper)  # upper is the permissive policy


def test_filter_validation(scored_lattice):
    lat, scores = scored_lattice
    with pytest.raises(InputError):
        filter_concepts(lat, scores, min_support=-0.1, min_lstab=0.0)
    with pytest.raises(InputError):
        filter_concepts(lat, scores, min_support=0.0, min_lstab=-1.0)
    with pytest.raises(InputError):
        filter_concepts(lat, scores, min_support=0.0, min_lstab=float("nan"))
    with pytest.raises(InputError):
        filter_concepts(lat, scores, min_support=0.0, min_lstab=0.0, bound_policy="nope")
    with pytest.raises(InputError):
        filter_concepts(lat, {0: scores[0]}, min_support=0.0, min_lstab=0.0)


def test_filter_rejects_a_missing_score_of_a_frequent_concept(scored_lattice):
    lat, scores = scored_lattice
    # concept 1 ({g2}) has support 0.5: at 0.5 its score is read, at 1.0 not
    assert filter_concepts(lat, {0: scores[0]}, min_support=1.0, min_lstab=0.0) == [0]
    with pytest.raises(InputError, match="concept 1"):
        filter_concepts(lat, {0: scores[0]}, min_support=0.5, min_lstab=0.0)
    with pytest.raises(InputError, match="concept 0"):
        filter_concepts(lat, {1: scores[1]}, min_support=0.5, min_lstab=0.0)


# ---------------------------------------------------------------------------
# JSON projection
# ---------------------------------------------------------------------------


def test_score_fields_exact():
    s = StabilityScore.from_exact_count("lattice-dp", 2, 2)
    assert score_fields(s) == {"stab": 0.5, "lstab": 1.0, "method": "lattice-dp"}
    assert support(s.extent_size, 4) == 0.5
    assert support(0, 0) == 1.0


def test_score_fields_infinity_is_a_string():
    s = StabilityScore.from_exact_count("brute-force", 1, 2)
    assert score_fields(s)["lstab"] == "inf"
