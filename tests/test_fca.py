"""Binary contexts, derivation operators, and lattice construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import CapacityError, InputError
from spindlemine.fca import (
    Concept,
    FormalContext,
    build_lattice,
    closure,
    derive_attributes,
    derive_objects,
    lattice_to_dot,
    read_context_csv,
    write_context_csv,
)
from spindlemine.stability import stability_lattice_dp

from conftest import oracle_binary_closed_extents, oracle_binary_closure, random_context


# ---------------------------------------------------------------------------
# derivation operators
# ---------------------------------------------------------------------------


def test_tiny_context_derivations(tiny_context):
    ctx = tiny_context
    # indices: g1=0, g2=1, a=0, b=1
    assert derive_attributes(ctx, {0, 1}) == {0}
    assert derive_attributes(ctx, {1}) == {0, 1}
    assert derive_objects(ctx, {0}) == {0, 1}
    assert derive_objects(ctx, {0, 1}) == {1}


def test_empty_set_derivations(tiny_context):
    ctx = tiny_context
    assert derive_attributes(ctx, set()) == {0, 1}  # empty extent -> all attributes
    assert derive_objects(ctx, set()) == {0, 1}  # empty intent -> all objects


def test_closure_examples(tiny_context):
    assert closure(tiny_context, {0}) == {0, 1}  # {g1}'' = {g1, g2} (both have 'a')
    assert closure(tiny_context, {1}) == {1}
    # empty set: '' goes through the full intent, landing on g2 only
    assert closure(tiny_context, set()) == {1}


def test_derivation_rejects_bad_indices(tiny_context):
    with pytest.raises(InputError):
        derive_attributes(tiny_context, {5})
    with pytest.raises(InputError):
        derive_objects(tiny_context, {-1})


def test_context_validation():
    with pytest.raises(InputError):
        FormalContext(("g", "g"), ("a",), frozenset())
    with pytest.raises(InputError):
        FormalContext(("g",), ("a", "a"), frozenset())
    with pytest.raises(InputError):
        FormalContext(("g",), ("a",), frozenset({(1, 0)}))
    with pytest.raises(InputError):
        FormalContext.from_rows(["g"], ["a", "b"], [[1]])


# ---------------------------------------------------------------------------
# closure / Galois laws (property tests)
# ---------------------------------------------------------------------------


@st.composite
def contexts_and_subsets(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )
    a = draw(st.sets(st.integers(0, n - 1)))
    b = draw(st.sets(st.integers(0, n - 1)))
    return ctx, frozenset(a), frozenset(b)


@settings(deadline=None, max_examples=200)
@given(contexts_and_subsets())
def test_closure_is_a_closure_operator(data):
    ctx, a, b = data
    ca = closure(ctx, a)
    assert a <= ca  # extensive
    assert closure(ctx, ca) == ca  # idempotent
    if a <= b:
        assert ca <= closure(ctx, b)  # monotone


@settings(deadline=None, max_examples=200)
@given(contexts_and_subsets())
def test_derivation_galois_laws(data):
    ctx, a, b = data
    if a <= b:  # antitone
        assert derive_attributes(ctx, b) <= derive_attributes(ctx, a)
    # adjunction: A <= B'  <=>  B <= A'  (with B a set of attributes)
    attrs = frozenset(i for i in b if i < ctx.n_attributes)
    lhs = a <= derive_objects(ctx, attrs)
    rhs = attrs <= derive_attributes(ctx, a)
    assert lhs == rhs


@settings(deadline=None, max_examples=150)
@given(contexts_and_subsets())
def test_closure_matches_oracle(data):
    ctx, a, _ = data
    assert closure(ctx, a) == oracle_binary_closure(ctx, a)


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------


def test_tiny_context_lattice(tiny_context):
    lat = build_lattice(tiny_context)
    assert len(lat) == 2
    assert lat.concepts[0] == Concept(extent=frozenset({0, 1}), intent=frozenset({0}))
    assert lat.concepts[1] == Concept(extent=frozenset({1}), intent=frozenset({0, 1}))
    assert lat.covers == ((0, 1),)
    assert lat.top_index == 0 and lat.bottom_index == 1
    assert lat.extent_names(0) == ("g1", "g2")


def test_empty_incidence_context():
    ctx = FormalContext.from_rows(["g0", "g1"], ["a", "b"], [[0, 0], [0, 0]])
    lat = build_lattice(ctx)
    # only the top (all objects, no attributes) and bottom (no objects, all)
    assert len(lat) == 2
    assert lat.extent_masks == (0b11, 0)
    assert lat.concepts[1].intent == frozenset({0, 1})


def test_single_full_cell_collapses_to_one_concept():
    ctx = FormalContext.from_rows(["g"], ["a"], [[1]])
    lat = build_lattice(ctx)
    assert len(lat) == 1
    assert lat.top_index == lat.bottom_index == 0
    assert lat.covers == ()
    assert lat.direct_descendants(0) == ()


def test_lattice_matches_bruteforce_enumeration():
    rng = random.Random(20240817)
    for _ in range(60):
        ctx = random_context(rng, max_objects=7, max_attributes=6)
        lat = build_lattice(ctx)
        got = {frozenset(c.extent) for c in lat.concepts}
        assert got == oracle_binary_closed_extents(ctx)
        # intents must derive their extents and vice versa
        for c in lat.concepts:
            assert derive_attributes(ctx, c.extent) == c.intent
            assert derive_objects(ctx, c.intent) == c.extent


def test_concept_ordering_is_deterministic():
    rng = random.Random(7)
    ctx = random_context(rng, max_objects=7, max_attributes=5)
    lat = build_lattice(ctx)
    sizes = [m.bit_count() for m in lat.extent_masks]
    assert sizes == sorted(sizes, reverse=True)
    assert lat.extent_masks[0] == max(lat.extent_masks, key=int.bit_count)
    # rebuilding yields the identical ordering
    assert build_lattice(ctx).extent_masks == lat.extent_masks


def test_covers_are_transitive_reduction():
    rng = random.Random(99)
    for _ in range(40):
        ctx = random_context(rng, max_objects=7, max_attributes=5)
        lat = build_lattice(ctx)
        masks = lat.extent_masks
        expected = set()
        for i, big in enumerate(masks):
            for j, small in enumerate(masks):
                if small == big or small & ~big:
                    continue
                # direct edge iff no closed extent strictly between them
                between = any(
                    mid != big and mid != small
                    and (mid & ~big) == 0 and (small & ~mid) == 0
                    for mid in masks
                )
                if not between:
                    expected.add((i, j))
        assert set(lat.covers) == expected
        assert list(lat.covers) == sorted(lat.covers)


def test_every_concept_pair_has_meet_and_join():
    rng = random.Random(5150)
    for _ in range(25):
        ctx = random_context(rng, max_objects=6, max_attributes=5)
        lat = build_lattice(ctx)
        masks = lat.extent_masks
        for x in masks:
            for y in masks:
                lower = [z for z in masks if (z & ~x) == 0 and (z & ~y) == 0]
                upper = [z for z in masks if (x & ~z) == 0 and (y & ~z) == 0]
                meet = max(lower, key=int.bit_count)
                join = min(upper, key=int.bit_count)
                assert all((z & ~meet) == 0 for z in lower), "meet is not unique"
                assert all((join & ~z) == 0 for z in upper), "join is not unique"


def test_three_chain_direct_descendants():
    ctx = FormalContext.from_rows(
        ["g0", "g1", "g2"],
        ["a", "b", "c"],
        [[1, 1, 1], [1, 1, 0], [1, 0, 0]],
    )
    lat = build_lattice(ctx)
    assert len(lat) == 3
    assert lat.direct_descendants(0) == (1,)
    assert lat.direct_descendants(1) == (2,)
    assert lat.direct_descendants(2) == ()
    with pytest.raises(InputError):
        lat.direct_descendants(3)


def test_concept_cap_enforced():
    # a contranominal scale has 2^n concepts
    n = 5
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(n)], rows
    )
    assert len(build_lattice(ctx)) == 2 ** n
    with pytest.raises(CapacityError):
        build_lattice(ctx, concept_cap=10)


def test_contranominal_covers_at_scale():
    # every object set is closed and covers the sets one object smaller:
    # 2^n concepts and n * 2^(n-1) cover edges.  Covers are found locally,
    # so this stays fast where a scan over all concept pairs would not.
    n = 13
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(n)], rows
    )
    lat = build_lattice(ctx)
    assert len(lat) == 2 ** n
    assert len(lat.covers) == n * 2 ** (n - 1)


def test_contranominal_stability_at_scale():
    # with every object set closed, only the extent itself closes onto a
    # concept: every count is 1, and the 2^n counts partition 2^G
    n = 13
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(n)], rows
    )
    scores = stability_lattice_dp(build_lattice(ctx))
    assert {s.exact_count for s in scores.values()} == {1}
    assert sum(s.exact_count for s in scores.values()) == 2 ** n


# ---------------------------------------------------------------------------
# CSV and DOT
# ---------------------------------------------------------------------------


def test_context_csv_round_trip(tmp_path):
    rng = random.Random(11)
    ctx = random_context(rng, max_objects=6, max_attributes=5)
    path = tmp_path / "ctx.csv"
    write_context_csv(ctx, str(path))
    back = read_context_csv(str(path))
    assert back == ctx


def test_context_csv_accepts_x_cells(tmp_path):
    path = tmp_path / "ctx.csv"
    path.write_text(",a,b\ng1,x,\ng2,X,1\n")
    ctx = read_context_csv(str(path))
    assert ctx.incidence == frozenset({(0, 0), (1, 0), (1, 1)})


def test_context_csv_rejects_garbage(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(",a,b\ng1,1\n")
    with pytest.raises(InputError):
        read_context_csv(str(ragged))
    weird = tmp_path / "weird.csv"
    weird.write_text(",a\ng1,yes\n")
    with pytest.raises(InputError):
        read_context_csv(str(weird))
    with pytest.raises(InputError):
        read_context_csv(str(tmp_path / "missing.csv"))


def test_dot_export(tiny_context):
    lat = build_lattice(tiny_context)
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph lattice {")
    assert dot.count(" -> ") == len(lat.covers)
    assert "{g1,g2}" in dot and "{g2}" in dot
