"""The chains of nested object masks that both lattice builders close
on and read lower-cover gaps from, checked on arbitrary object sets
against the brute-force oracles, and their bit-sliced hulls against a
walk over the chains."""

from hypothesis import given, settings, strategies as st

from spindlemine.fca import FormalContext, NestedChains

from conftest import (
    oracle_binary_closed_extents,
    oracle_binary_closure,
    oracle_covers,
    oracle_interval_closed_extents,
    oracle_interval_closure,
    tie_heavy_structures,
)


def _mask(indices):
    return sum(1 << i for i in indices)


def _indices(mask):
    return frozenset(g for g in range(mask.bit_length()) if mask >> g & 1)


#: chain counts, powers of two or not; a fold halves the open slots
CHAIN_COUNTS = st.sampled_from([0, 1, 2, 3, 4, 5, 17])


@st.composite
def binary_contexts(draw):
    """Contexts of 0 to 6 objects and 0 to 17 attributes, each column empty,
    full or drawn at random."""
    n = draw(st.integers(0, 6))
    columns = [draw(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
               for _ in range(draw(CHAIN_COUNTS))]
    rows = [[col >> g & 1 for col in columns] for g in range(n)]
    return FormalContext.from_rows([f"g{g}" for g in range(n)],
                                   [f"m{j}" for j in range(len(columns))], rows)


def _check_gaps(chains, extent, closed):
    """Every gap of ``extent`` is non-empty, distinct and inside it, and
    ``extent`` minus each gap gives exactly its lower covers among ``closed``."""
    gaps = chains.gaps(extent)
    assert len(set(gaps)) == len(gaps)
    for gap in gaps:
        assert gap and not gap & ~extent
    covers = {small for big, small in oracle_covers(closed) if big == _indices(extent)}
    assert {_indices(extent & ~gap) for gap in gaps} == covers


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_binary_chains_close_and_gap_as_the_oracle(data):
    ctx = data.draw(binary_contexts())
    mask = data.draw(st.integers(0, ctx.object_mask))
    chains = ctx.chains
    extent = chains.close(mask)
    assert extent == _mask(oracle_binary_closure(ctx, _indices(mask)))
    assert chains.close(0) == _mask(oracle_binary_closure(ctx, frozenset()))
    _check_gaps(chains, extent, oracle_binary_closed_extents(ctx))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_interval_chains_close_and_gap_as_the_oracle(data):
    ps = data.draw(tie_heavy_structures())
    mask = data.draw(st.integers(0, (1 << ps.n_objects) - 1))
    chains = ps.chains
    extent = chains.close_hull(chains.hull(mask))
    assert extent == _mask(oracle_interval_closure(ps, _indices(mask)))
    assert chains.close(0) == 0  # the formal bottom
    _check_gaps(chains, extent, oracle_interval_closed_extents(ps))


def _tightest_members(chains, mask):
    """Per chain, by a walk, the last member holding ``mask``."""
    return [[member for member in inside if not mask & ~member][-1] for inside in chains]


@st.composite
def nested_chains(draw):
    """Chains over 0 to 7 objects, each shrinking from ``G`` by random
    steps (a step may remove nothing, a tie) to an empty or non-empty
    last member."""
    n = draw(st.integers(0, 7))
    chains = []
    for _ in range(draw(CHAIN_COUNTS)):
        inside = [(1 << n) - 1]
        for _ in range(draw(st.integers(0, 4))):
            inside.append(inside[-1] & draw(st.integers(0, (1 << n) - 1)))
        chains.append(inside)
    return n, chains


@settings(deadline=None, max_examples=300)
@given(nested_chains(), st.data())
def test_closure_of_the_hull_is_the_walk_over_the_chains(system, data):
    n, chains = system
    closure = NestedChains(n, chains)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    hull = closure.hull(mask)
    tightest = _tightest_members(chains, mask)
    closed = (1 << n) - 1
    for member in tightest:
        closed &= member
    assert closure.close_hull(hull) == closure.close(mask) == closed
    if mask:
        # slot c holds chain c's tightest member (G with no chains)
        slots = tightest or [(1 << n) - 1]
        assert hull == sum(member << c * n for c, member in enumerate(slots))
        # closing never moves the hull
        assert closure.hull(closed) == hull
    else:
        assert hull == 0
