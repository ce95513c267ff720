"""Closed-extent enumeration: the pruned Close-by-One, over bit-sliced
hulls and over plain masks, against the plain one, and the concept cap of
both lattice builders."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import CapacityError
from spindlemine.fca import (
    FormalContext,
    assemble_lattice,
    build_lattice,
    enumerate_closed_extents,
)
from spindlemine.intervals import build_pattern_lattice

from conftest import (
    oracle_binary_closed_extents,
    oracle_binary_closure,
    oracle_interval_closed_extents,
    oracle_interval_closure,
    reference_close_by_one,
    tie_heavy_structures,
)


@st.composite
def binary_contexts(draw):
    """Random binary contexts whose rows repeat often; zero objects and
    zero attributes included.  Up to 9 attributes come with up to 12
    objects, so ``build_lattice`` runs on both sides of its switch to the
    transposed context at 2.5 objects per attribute."""
    m = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 17]))
    n = draw(st.integers(0, 8 if m == 17 else 12))
    row = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return FormalContext.from_rows([f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)


def _recording(close, closures):
    """``close``, recording every closure it returns."""
    def recorded(argument):
        closures.append(close(argument))
        return closures[-1]
    return recorded


def _check_pruned_against_reference(n_objects, close_indices, chains, closed):
    """The pruned walk over the chains' hulls and over plain masks finds the
    extents of plain Close-by-One, in its order."""
    def close_mask(mask):
        members = frozenset(g for g in range(n_objects) if mask >> g & 1)
        return sum(1 << g for g in close_indices(members))

    plain_closures = []
    plain = reference_close_by_one(n_objects, _recording(close_mask, plain_closures))
    assert len(plain) == len(set(plain))
    assert {frozenset(g for g in range(n_objects) if m >> g & 1) for m in plain} == closed
    for up, close in ((chains.up, chains.close_hull),
                      ([1 << g for g in range(n_objects)], close_mask)):
        closures = []
        assert enumerate_closed_extents(up, _recording(close, closures)) == plain
        # the pruned walk's closures are a sub-multiset of the plain walk's:
        # no more of them, and only sets the plain walk finds as often
        assert not Counter(closures) - Counter(plain_closures)


@settings(deadline=None, max_examples=300)
@given(binary_contexts())
def test_pruned_enumeration_matches_plain_close_by_one_on_binary_contexts(ctx):
    _check_pruned_against_reference(
        ctx.n_objects, lambda a: oracle_binary_closure(ctx, a), ctx.chains,
        oracle_binary_closed_extents(ctx))


@settings(deadline=None, max_examples=300)
@given(binary_contexts())
def test_binary_lattice_matches_the_object_side_and_the_oracle(ctx):
    # from 2.5 objects per attribute, build_lattice enumerates the
    # transposed context and maps each closed intent to its extent
    lattice = build_lattice(ctx)
    chains = ctx.chains
    assert lattice == assemble_lattice(ctx, enumerate_closed_extents(chains.up, chains.close_hull))
    assert {frozenset(g for g in range(ctx.n_objects) if m >> g & 1)
            for m in lattice.extent_masks} == oracle_binary_closed_extents(ctx)


@settings(deadline=None, max_examples=300)
@given(tie_heavy_structures())
def test_pruned_enumeration_matches_plain_close_by_one_on_interval_structures(ps):
    _check_pruned_against_reference(
        ps.n_objects, lambda a: oracle_interval_closure(ps, a), ps.chains,
        oracle_interval_closed_extents(ps))


@settings(deadline=None, max_examples=100)
@given(binary_contexts())
def test_binary_concept_cap_is_exact(ctx):
    size = len(build_lattice(ctx))
    with pytest.raises(CapacityError):
        build_lattice(ctx, concept_cap=size - 1)
    assert len(build_lattice(ctx, concept_cap=size)) == size


@settings(deadline=None, max_examples=100)
@given(tie_heavy_structures())
def test_pattern_concept_cap_is_exact(ps):
    size = len(build_pattern_lattice(ps))
    with pytest.raises(CapacityError):
        build_pattern_lattice(ps, concept_cap=size - 1)
    assert len(build_pattern_lattice(ps, concept_cap=size)) == size
