"""What a lattice builds and what a run reads: payloads and lower covers
equal the brute-force oracles whatever the order of reading, the scores
cover exactly the frequent concepts, and ``mine`` builds payloads only for
the kept concepts and scores only the frequent ones."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine import intervals, stability
from spindlemine.fca import Concept, FormalContext, build_lattice
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    build_pattern_lattice,
)
from spindlemine.pipeline import mine
from spindlemine.stability import (
    BOUND_POLICIES,
    STABILITY_METHODS,
    filter_concepts,
    lstab_bounds,
    score_lattice,
    stability_lattice_dp,
)

from conftest import (
    oracle_binary_closed_extents,
    oracle_binary_intent,
    oracle_covers,
    oracle_interval_closed_extents,
    oracle_interval_hull,
    oracle_subset_counts,
    random_interval_structure,
    reference_lattice_to_dot,
    tie_heavy_structures,
)

ORDERS = ("forward", "reverse", "random")


def _read_order(order, n, rng):
    indices = list(range(n))
    if order == "reverse":
        indices.reverse()
    elif order == "random":
        rng.shuffle(indices)
    return indices


@st.composite
def binary_contexts(draw):
    """Small binary contexts, some with repeated rows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)) for _ in range(n)]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    return FormalContext.from_rows(
        [f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(m)], rows)


def _binary_payload(ctx, extent):
    return Concept(extent=extent, intent=oracle_binary_intent(ctx, extent))


def _reprs(intent):
    return None if intent is None else [(repr(lo), repr(hi)) for lo, hi in intent.intervals]


def _check_lazy_lattice(build, structure, closed, payload, same, order, rng):
    """Read ``children[i]`` and ``concepts[i]`` in ``order`` on a fresh
    lattice, then ``covers``; and ``covers`` first on another."""
    lat = build(structure)
    assert {frozenset(_bits(m)) for m in lat.extent_masks} == closed
    n = len(lat)
    extents = [frozenset(_bits(m)) for m in lat.extent_masks]
    by_extent = {e: i for i, e in enumerate(extents)}
    want_covers = {(by_extent[big], by_extent[small]) for big, small in oracle_covers(closed)}
    for i in _read_order(order, n, rng):
        kids = lat.children[i]
        assert list(kids) == sorted(j for p, j in want_covers if p == i)
        assert same(lat.concepts[i], payload(extents[i]))
    assert lat.covers == tuple(sorted(want_covers))

    fresh = build(structure)
    assert fresh.covers == lat.covers
    assert all(same(fresh.concepts[i], payload(extents[i])) for i in _read_order(order, n, rng))


def _bits(mask):
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


@pytest.mark.parametrize("order", ORDERS)
@settings(deadline=None, max_examples=100)
@given(ctx=binary_contexts(), seed=st.integers(0, 2**16))
def test_binary_lattice_read_in_any_order_matches_oracles(order, ctx, seed):
    _check_lazy_lattice(build_lattice, ctx, oracle_binary_closed_extents(ctx),
                        lambda e: _binary_payload(ctx, e), lambda a, b: a == b,
                        order, random.Random(seed))


@pytest.mark.parametrize("order", ORDERS)
@settings(deadline=None, max_examples=100)
@given(ps=tie_heavy_structures(), seed=st.integers(0, 2**16))
def test_pattern_lattice_read_in_any_order_matches_oracles(order, ps, seed):
    def payload(extent):
        return extent, _reprs(oracle_interval_hull(ps, extent))

    # repr tells -0.0 from 0.0, which == does not
    _check_lazy_lattice(build_pattern_lattice, ps, oracle_interval_closed_extents(ps), payload,
                        lambda c, want: (c.extent, _reprs(c.intent)) == want,
                        order, random.Random(seed))


def _needs_down_set(lattice, index):
    """True when the closed form ``2^(|A| - |F|)`` does not settle the
    concept, so its count comes from the down-set walk."""
    mask = lattice.extent_masks[index]
    gaps = [mask & ~lattice.extent_masks[j] for j in lattice.children[index]]
    forced = 0
    for gap in gaps:
        if gap.bit_count() == 1:
            forced |= gap
    return any(gap & forced == 0 for gap in gaps)


def _count_structures():
    rng = random.Random(4096)
    out = []
    for _ in range(12):
        rows = [[int(rng.random() < 0.5) for _ in range(5)] for _ in range(7)]
        rows += [list(rows[rng.randrange(7)]) for _ in range(2)]
        out.append((build_lattice, FormalContext.from_rows(
            [f"g{i}" for i in range(9)], [f"m{j}" for j in range(5)], rows)))
    for _ in range(12):
        ps = random_interval_structure(rng, max_objects=8, max_attributes=3, hi=3)
        out.append((build_pattern_lattice, IntervalPatternStructure(
            ps.objects + ("dup",), ps.attributes, ps.descriptions + ps.descriptions[:1])))
    return out


@pytest.mark.parametrize("order", ORDERS)
def test_exact_dp_counts_read_in_any_order_match_the_oracle(order):
    rng = random.Random(order)
    closed_form = walked = 0
    for build, structure in _count_structures():
        lat = build(structure)
        want = oracle_subset_counts(lat)  # reads extent masks only
        scores = stability_lattice_dp(lat)
        for i in _read_order(order, len(lat), rng):
            assert scores[i].exact_count == want[i]
        walks = sum(_needs_down_set(lat, i) for i in range(len(lat)))
        walked += walks
        closed_form += len(lat) - walks
    # both the closed form and the down-set walk are exercised
    assert closed_form > 0 and walked > 0


def test_scores_are_a_dict_over_concept_indices():
    ctx = FormalContext.from_rows(["g1", "g2", "g3"], ["a", "b"], [[1, 0], [1, 1], [0, 1]])
    lat = build_lattice(ctx)
    for scores in (score_lattice(lat, "exact-dp"),
                   score_lattice(lat, "bounds")):
        assert list(scores) == list(range(len(lat))) and len(scores) == len(lat)
        assert -1 not in scores and len(lat) not in scores and "0" not in scores
        with pytest.raises(KeyError):
            scores[len(lat)]


#: A support threshold, often exactly the support of some extent.
_min_supports = st.floats(0.0, 1.0) | st.integers(1, 7).flatmap(
    lambda n: st.integers(0, n).map(lambda k: k / n))


@settings(deadline=None, max_examples=150)
@given(ps=tie_heavy_structures(), min_support=_min_supports, min_lstab=st.floats(0.0, 4.0))
def test_scores_of_the_frequent_prefix_equal_the_full_run(ps, min_support, min_lstab):
    lat = build_pattern_lattice(ps)
    frequent = [i for i, mask in enumerate(lat.extent_masks)
                if mask.bit_count() / ps.n_objects >= min_support]
    assert frequent == list(range(len(frequent)))
    for method in STABILITY_METHODS:
        full = score_lattice(build_pattern_lattice(ps), method)
        scores = score_lattice(lat, method, min_support)
        assert list(scores) == frequent
        assert all(scores[i] == full[i] for i in frequent)
        for policy in BOUND_POLICIES:
            assert (filter_concepts(lat, scores, min_support, min_lstab, policy)
                    == filter_concepts(lat, full, min_support, min_lstab, policy))
    assert list(stability_lattice_dp(lat, min_support)) == frequent


def _random_points(n):
    """``n`` random points in the unit square, seeded with ``n``."""
    rng = random.Random(n)
    return IntervalPatternStructure(
        tuple(f"g{i}" for i in range(n)), ("a", "b"),
        tuple(IntervalDescription.from_point((rng.random(), rng.random())) for _ in range(n)))


@pytest.mark.parametrize("method", STABILITY_METHODS)
def test_mine_scores_only_the_frequent_concepts(monkeypatch, method):
    # 11 random points; support 0.75 leaves the concepts with at least 9 of
    # the 11 objects, a small share of the lattice
    made = []

    class SpyScore(stability.StabilityScore):
        def __post_init__(self):
            super().__post_init__()
            made.append(self.extent_size)

    monkeypatch.setattr(stability, "StabilityScore", SpyScore)
    flags = SimpleNamespace(min_support=0.75, min_lstab=0.0, stability_method=method,
                            bound_policy="upper", concept_cap=10**6, dot=None)
    lattice, patterns = mine(_random_points(11), {}, flags)
    frequent = sum(mask.bit_count() >= 9 for mask in lattice.extent_masks)
    assert 0 < frequent < len(lattice) // 10
    assert len(made) == frequent and min(made) >= 9
    assert len(patterns) == frequent


def test_mine_builds_payloads_only_for_the_kept_concepts(monkeypatch):
    # support 0.75 keeps only the concepts with at least 9 of the 11
    # objects, a small share of the lattice
    ps = _random_points(11)
    made = []

    class SpyConcept(intervals.PatternConcept):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.extent)

    monkeypatch.setattr(intervals, "PatternConcept", SpyConcept)
    flags = SimpleNamespace(min_support=0.75, min_lstab=0.0, stability_method="exact-dp",
                            bound_policy="upper", concept_cap=10**6, dot=None)
    lattice, patterns = mine(ps, {}, flags)
    kept = [frozenset(ps.objects.index(name) for name in p["extent"]) for p in patterns]
    assert 0 < len(kept) < len(lattice) // 10
    assert sorted(made, key=sorted) == sorted(kept, key=sorted)


def test_scores_on_a_tie_free_structure_build_no_cover_relation(tmp_path):
    # tie-free points: every gap is one object, so the closed form and the
    # bounds settle every concept from its gaps
    ps = _random_points(9)
    lat = build_pattern_lattice(ps)
    want = oracle_subset_counts(lat)
    exact = stability_lattice_dp(lat)
    for i in range(len(lat)):
        assert exact[i].exact_count == want[i]
        # every gap is one object; the bottom has none
        bounds = lstab_bounds(lat, i, attribute_count=4)
        assert bounds.upper_bound == (None if i == lat.bottom_index else 1.0)
    # children, and the extent→index table behind them, are built on first read
    assert "children" not in vars(lat)

    dot = tmp_path / "lattice.dot"
    flags = SimpleNamespace(min_support=0.5, min_lstab=0.0, stability_method="bounds",
                            bound_policy="upper", concept_cap=10**6, dot=str(dot))
    lattice, _ = mine(ps, {}, flags)
    extents = [frozenset(_bits(m)) for m in lattice.extent_masks]
    by_extent = {e: i for i, e in enumerate(extents)}
    assert set(lattice.covers) == {(by_extent[big], by_extent[small])
                                   for big, small in oracle_covers(set(extents))}
    assert dot.read_text() == reference_lattice_to_dot(lattice) + "\n"

