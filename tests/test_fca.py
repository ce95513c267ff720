"""Binary contexts, derivation operators, and lattice construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import CapacityError, InputError
from spindlemine.fca import (
    Concept,
    FormalContext,
    assemble_lattice,
    _indices_from_mask,
    build_lattice,
    lattice_to_dot,
    names_in,
)
from spindlemine.intervals import build_pattern_lattice
from spindlemine.stability import stability_lattice_dp

from conftest import (
    oracle_binary_closed_extents,
    oracle_binary_closure,
    oracle_binary_intent,
    random_context,
    reference_lattice_to_dot,
    tie_heavy_structures,
)


# ---------------------------------------------------------------------------
# bit iteration
# ---------------------------------------------------------------------------

#: (width, a mask of at most ``width`` bits): empty and full masks, single
#: bits and random masks, over widths past 64 objects
_masks_and_widths = st.integers(0, 150).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.sampled_from([0, (1 << n) - 1]),
    st.integers(0, max(n - 1, 0)).map(lambda i: (1 << i) & ((1 << n) - 1)),
    st.integers(0, (1 << n) - 1))))


@settings(deadline=None, max_examples=400)
@given(_masks_and_widths)
def test_bit_iteration_matches_a_per_bit_reference(drawn):
    n, mask = drawn
    members = [g for g in range(n) if mask >> g & 1]
    names = [f"g{g}" for g in range(n)]
    assert names_in(names, mask) == [names[g] for g in members]
    assert _indices_from_mask(mask) == frozenset(members)


# ---------------------------------------------------------------------------
# derivation operators
# ---------------------------------------------------------------------------


def test_tiny_context_derivations(tiny_context):
    ctx = tiny_context
    # masks: g1=0b01, g2=0b10, a=0b01, b=0b10
    assert ctx.derive_attr_mask(0b11) == 0b01
    assert ctx.derive_attr_mask(0b10) == 0b11
    assert ctx.column_masks == (0b11, 0b10)  # the objects of a, of b


def test_empty_set_derivations(tiny_context):
    ctx = tiny_context
    assert ctx.derive_attr_mask(0) == 0b11  # empty extent -> all attributes
    assert ctx.object_mask == 0b11  # what the empty intent derives


def test_closure_examples(tiny_context):
    close = tiny_context.chains.close
    assert close(0b01) == 0b11  # {g1}'' = {g1, g2} (both have 'a')
    assert close(0b10) == 0b10
    # empty set: '' goes through the full intent, landing on g2 only
    assert close(0) == 0b10


def test_derivation_rejects_bad_indices():
    # object and attribute indices enter a context only as incidence pairs
    with pytest.raises(InputError):
        FormalContext(("g",), ("a",), frozenset({(0, 5)}))
    with pytest.raises(InputError):
        FormalContext(("g",), ("a",), frozenset({(-1, 0)}))


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
    m = draw(st.integers(0, 5))
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


def _mask(indices):
    return sum(1 << i for i in indices)


def _derive_objects(ctx, intent_mask):
    """B': the objects whose rows hold every attribute of ``intent_mask``."""
    return _mask(g for g, row in enumerate(ctx.row_masks) if not intent_mask & ~row)


@settings(deadline=None, max_examples=200)
@given(contexts_and_subsets())
def test_closure_is_a_closure_operator(data):
    ctx, a, b = data
    ma, mb = _mask(a), _mask(b)
    close = ctx.chains.close
    ca = close(ma)
    assert ca == _mask(oracle_binary_closure(ctx, a))
    assert not ma & ~ca  # extensive
    assert close(ca) == ca  # idempotent
    if a <= b:
        assert not ca & ~close(mb)  # monotone


@settings(deadline=None, max_examples=200)
@given(contexts_and_subsets())
def test_derivation_galois_laws(data):
    ctx, a, b = data
    ma, mb = _mask(a), _mask(b)
    if a <= b:  # antitone
        assert not ctx.derive_attr_mask(mb) & ~ctx.derive_attr_mask(ma)
    # adjunction: A <= B'  <=>  B <= A'  (with B a set of attributes)
    attrs = _mask(i for i in b if i < ctx.n_attributes)
    lhs = not ma & ~_derive_objects(ctx, attrs)
    rhs = not attrs & ~ctx.derive_attr_mask(ma)
    assert lhs == rhs


@settings(deadline=None, max_examples=150)
@given(contexts_and_subsets())
def test_closure_matches_oracle(data):
    ctx, a, _ = data
    mask = _mask(a)
    closed = ctx.chains.close(mask)
    assert closed == _mask(oracle_binary_closure(ctx, a))
    assert ctx.derive_attr_mask(mask) == _mask(oracle_binary_intent(ctx, a))
    assert closed == _derive_objects(ctx, ctx.derive_attr_mask(mask))
    assert ctx.derive_attr_mask(0) == (1 << ctx.n_attributes) - 1


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
    assert lat.children[0] == ()


def test_lattice_matches_bruteforce_enumeration():
    rng = random.Random(20240817)
    for _ in range(60):
        ctx = random_context(rng, max_objects=7, max_attributes=6)
        lat = build_lattice(ctx)
        got = {frozenset(c.extent) for c in lat.concepts}
        assert got == oracle_binary_closed_extents(ctx)
        # intents must derive their extents and vice versa
        for c in lat.concepts:
            assert oracle_binary_intent(ctx, c.extent) == c.intent
            assert oracle_binary_closure(ctx, c.extent) == c.extent


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
    assert tuple(lat.children) == ((1,), (2,), ())
    with pytest.raises(InputError):
        lat.extent_names(3)


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
# DOT
# ---------------------------------------------------------------------------


def test_dot_export(tiny_context):
    lat = build_lattice(tiny_context)
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph lattice {")
    assert dot.count(" -> ") == len(lat.covers)
    assert "{g1,g2}" in dot and "{g2}" in dot
    assert dot == reference_lattice_to_dot(lat)

    # a double quote or a backslash in an id (a context CSV allows both)
    # is escaped, so the label does not end early
    quoted = build_lattice(FormalContext.from_rows(
        ['q"1', "g\\2", "plain"], ["a"], [[1], [1], [1]]))
    dot = lattice_to_dot(quoted)
    assert '  n0 [label="{q\\"1,g\\\\2,plain}"];' in dot.splitlines()
    assert dot == reference_lattice_to_dot(quoted)


@settings(deadline=None, max_examples=150)
@given(tie_heavy_structures())
def test_dot_matches_the_reference_renderer(structure):
    # each side gets its own lattice, so neither reads covers the other built
    assert lattice_to_dot(build_pattern_lattice(structure)) == reference_lattice_to_dot(
        build_pattern_lattice(structure))


@settings(deadline=None, max_examples=300)
# up to 70 objects: the masks cross the byte and 64-bit word borders of the key
@given(st.integers(0, 70).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))))
def test_assemble_lattice_order_is_the_documented_key(drawn):
    n, masks = drawn
    lattice = assemble_lattice(FormalContext.from_rows([f"g{i}" for i in range(n)], [], [[]] * n),
                               masks)
    # extent size descending, then extent indices lexicographically ascending
    assert list(lattice.extent_masks) == sorted(
        set(masks), key=lambda m: (-m.bit_count(), [g for g in range(n) if m >> g & 1]))
