"""Interval descriptions, the hull meet, and pattern-concept lattices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import CapacityError, InputError
from spindlemine.intervals import (
    IntervalDescription,
    IntervalPatternStructure,
    build_pattern_lattice,
    description_to_extent,
    extent_to_description,
    format_interval,
    interval_meet,
    parse_interval_cell,
    read_interval_csv,
    subsumes,
    write_interval_csv,
)
from spindlemine.stability import stability_lattice_dp

from conftest import (
    oracle_interval_closed_extents,
    oracle_interval_closure,
    random_interval_structure,
)


def desc(*pairs):
    return IntervalDescription(tuple((float(a), float(b)) for a, b in pairs))


# ---------------------------------------------------------------------------
# descriptions, meet, subsumption
# ---------------------------------------------------------------------------


def test_description_validation():
    with pytest.raises(InputError):
        desc((2, 1))
    assert len(desc((1, 1), (0, 3))) == 2
    assert IntervalDescription.from_point((1, 2)) == desc((1, 1), (2, 2))


def test_meet_examples():
    assert interval_meet(desc((1, 1), (1, 1)), desc((2, 2), (2, 2))) == desc((1, 2), (1, 2))
    assert interval_meet(desc((2, 2), (2, 2)), desc((3, 3), (2, 2))) == desc((2, 3), (2, 2))
    d = desc((0, 4), (1, 2))
    assert interval_meet(d, d) == d


def test_meet_width_mismatch():
    with pytest.raises(InputError):
        interval_meet(desc((1, 2)), desc((1, 2), (3, 4)))


def test_subsumes_examples():
    assert subsumes(desc((1, 2), (1, 2)), desc((1, 1), (1, 1)))
    assert not subsumes(desc((1, 2), (1, 2)), desc((3, 3), (2, 2)))
    d = desc((0, 1), (5, 9))
    assert subsumes(d, d)
    with pytest.raises(InputError):
        subsumes(desc((1, 2)), desc((1, 2), (3, 4)))


intervals_st = st.tuples(
    st.integers(-5, 5), st.integers(0, 5)
).map(lambda p: (float(p[0]), float(p[0] + p[1])))


@st.composite
def descriptions(draw, width=None):
    w = width if width is not None else draw(st.integers(1, 3))
    return IntervalDescription(tuple(draw(st.lists(intervals_st, min_size=w, max_size=w))))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3).flatmap(
    lambda w: st.tuples(descriptions(width=w), descriptions(width=w), descriptions(width=w))
))
def test_meet_is_commutative_associative_idempotent(trio):
    a, b, c = trio
    assert interval_meet(a, b) == interval_meet(b, a)
    assert interval_meet(interval_meet(a, b), c) == interval_meet(a, interval_meet(b, c))
    assert interval_meet(a, a) == a


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3).flatmap(
    lambda w: st.tuples(descriptions(width=w), descriptions(width=w))
))
def test_subsumption_agrees_with_meet(pair):
    c, d = pair
    assert subsumes(c, d) == (interval_meet(c, d) == c)


# ---------------------------------------------------------------------------
# the pattern Galois connection
# ---------------------------------------------------------------------------


def test_extent_to_description(three_point_structure):
    ps = three_point_structure
    assert extent_to_description(ps, {0, 1}) == desc((1, 2), (1, 2))
    assert extent_to_description(ps, {2}) == desc((3, 3), (2, 2))
    assert extent_to_description(ps, {0, 1, 2}) == desc((1, 3), (1, 2))
    with pytest.raises(InputError):
        extent_to_description(ps, set())


def test_description_to_extent(three_point_structure):
    ps = three_point_structure
    assert description_to_extent(ps, desc((1, 2), (1, 2))) == {0, 1}
    assert description_to_extent(ps, desc((1, 3), (1, 2))) == {0, 1, 2}
    assert description_to_extent(ps, desc((2, 2), (2, 2))) == {1}
    with pytest.raises(InputError):
        description_to_extent(ps, desc((1, 2)))


@st.composite
def structures_and_descriptions(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    ps = random_interval_structure(rng, max_objects=6, max_attributes=3)
    d = draw(descriptions(width=len(ps.attributes)))
    a = draw(st.sets(st.integers(0, ps.n_objects - 1), min_size=1))
    return ps, d, frozenset(a)


@settings(deadline=None, max_examples=150)
@given(structures_and_descriptions())
def test_pattern_galois_adjunction(data):
    ps, d, a = data
    # A <= d*  <=>  d subsumes A*
    lhs = a <= description_to_extent(ps, d)
    rhs = subsumes(d, extent_to_description(ps, a))
    assert lhs == rhs


@settings(deadline=None, max_examples=150)
@given(structures_and_descriptions())
def test_pattern_closure_laws(data):
    ps, _, a = data

    def close(s):
        return description_to_extent(ps, extent_to_description(ps, s))

    ca = close(a)
    assert a <= ca
    assert close(ca) == ca
    assert ca == oracle_interval_closure(ps, a)


# ---------------------------------------------------------------------------
# pattern lattices
# ---------------------------------------------------------------------------


def test_three_point_lattice(three_point_structure):
    lat = build_pattern_lattice(three_point_structure)
    nonempty = {
        frozenset(lat.extent_names(i))
        for i in range(len(lat))
        if lat.extent_masks[i]
    }
    assert nonempty == {
        frozenset({"g1", "g2", "g3"}),
        frozenset({"g1", "g2"}),
        frozenset({"g2", "g3"}),
        frozenset({"g1"}),
        frozenset({"g2"}),
        frozenset({"g3"}),
    }
    # {g1,g3} is not closed: its hull covers g2 as well
    assert oracle_interval_closure(three_point_structure, frozenset({0, 2})) == {0, 1, 2}
    # the formal bottom is always there
    bottom = lat.concepts[lat.bottom_index]
    assert bottom.extent == frozenset() and bottom.intent is None
    assert len(lat) == 7
    # intents are the member hulls
    top = lat.concepts[lat.top_index]
    assert top.intent == desc((1, 3), (1, 2))


def test_single_object_structure():
    ps = IntervalPatternStructure(("g0",), ("a",), (desc((2, 5)),))
    lat = build_pattern_lattice(ps)
    assert len(lat) == 2
    assert lat.concepts[0].extent == frozenset({0})
    assert lat.concepts[0].intent == desc((2, 5))
    assert lat.concepts[1].intent is None
    assert lat.covers == ((0, 1),)


def test_identical_descriptions_collapse():
    d = desc((1, 2), (0, 0))
    ps = IntervalPatternStructure(("g0", "g1"), ("a", "b"), (d, d))
    lat = build_pattern_lattice(ps)
    assert len(lat) == 2  # the pair plus the bottom
    assert lat.concepts[0].extent == frozenset({0, 1})


def test_zero_object_structure_rejected():
    ps = IntervalPatternStructure((), ("a",), ())
    with pytest.raises(InputError):
        build_pattern_lattice(ps)


def test_structure_validation():
    with pytest.raises(InputError):
        IntervalPatternStructure(("g", "g"), ("a",), (desc((1, 1)), desc((2, 2))))
    with pytest.raises(InputError):
        IntervalPatternStructure(("g",), ("a", "b"), (desc((1, 1)),))
    with pytest.raises(InputError):
        IntervalPatternStructure(("g",), ("a",), ())


def test_lattice_matches_bruteforce_enumeration():
    rng = random.Random(424242)
    for _ in range(40):
        ps = random_interval_structure(rng, max_objects=7, max_attributes=3)
        lat = build_pattern_lattice(ps)
        got = {frozenset(c.extent) for c in lat.concepts}
        assert got == oracle_interval_closed_extents(ps)
        for c in lat.concepts:
            if c.intent is None:
                assert c.extent == frozenset()
            else:
                assert extent_to_description(ps, c.extent) == c.intent
                assert description_to_extent(ps, c.intent) == c.extent


def test_five_point_lattice_frozen():
    """A larger instance with non-trivial covers, pinned once against the
    subset-enumeration oracle."""
    points = [(5.0, 7.0), (6.0, 8.0), (4.0, 8.0), (4.0, 9.0), (5.0, 8.0)]
    ps = IntervalPatternStructure(
        objects=tuple(f"g{i + 1}" for i in range(5)),
        attributes=("a1", "a2"),
        descriptions=tuple(IntervalDescription.from_point(p) for p in points),
    )
    lat = build_pattern_lattice(ps)
    assert len(lat) == 18
    assert {frozenset(c.extent) for c in lat.concepts} == oracle_interval_closed_extents(ps)
    assert lat.extent_names(0) == ("g1", "g2", "g3", "g4", "g5")
    assert lat.concepts[0].intent == desc((4, 6), (7, 9))
    assert lat.direct_descendants(0) == (1, 2, 3)
    assert lat.direct_descendants(lat.bottom_index) == ()


def _oracle_covers(closed: set[frozenset[int]]) -> set[tuple[frozenset, frozenset]]:
    """Transitive reduction of extent inclusion, by trying every triple."""
    return {
        (big, small)
        for big in closed
        for small in closed
        if small < big and not any(small < mid < big for mid in closed)
    }


def test_covers_are_transitive_reduction():
    rng = random.Random(31337)
    structures = []
    for _ in range(15):
        # integer points on a narrow range: ties and duplicate descriptions
        structures.append(random_interval_structure(rng, max_objects=7, max_attributes=3, hi=2))
        structures.append(random_interval_structure(rng, max_objects=7, max_attributes=3,
                                                    integers=False))
        ps = random_interval_structure(rng, max_objects=6, max_attributes=3)
        copied = ps.descriptions + (ps.descriptions[0],)
        structures.append(IntervalPatternStructure(
            ps.objects + ("dup",), ps.attributes, copied))
        structures.append(random_interval_structure(rng, max_objects=1, max_attributes=3,
                                                    integers=False))
    structures.append(IntervalPatternStructure(
        ("g0", "g1"), (), (IntervalDescription(()), IntervalDescription(()))))
    for ps in structures:
        lat = build_pattern_lattice(ps)
        got = {(lat.concepts[i].extent, lat.concepts[j].extent) for i, j in lat.covers}
        assert got == _oracle_covers(oracle_interval_closed_extents(ps))
        assert len(got) == len(lat.covers)
        assert list(lat.covers) == sorted(lat.covers)


def test_one_hot_covers_at_scale():
    # one-hot points: every object set is closed and covers the sets one
    # object smaller, so 2^n concepts and n * 2^(n-1) cover edges
    n = 13
    ps = IntervalPatternStructure(
        objects=tuple(f"g{i}" for i in range(n)),
        attributes=tuple(f"a{j}" for j in range(n)),
        descriptions=tuple(
            IntervalDescription.from_point([1.0 if i == j else 0.0 for j in range(n)])
            for i in range(n)
        ),
    )
    lat = build_pattern_lattice(ps)
    assert len(lat) == 2 ** n
    assert len(lat.covers) == n * 2 ** (n - 1)


def test_one_hot_stability_at_scale():
    # with every object set closed, only the extent itself closes onto a
    # concept: every count is 1, and the 2^n counts partition 2^G
    n = 13
    ps = IntervalPatternStructure(
        objects=tuple(f"g{i}" for i in range(n)),
        attributes=tuple(f"a{j}" for j in range(n)),
        descriptions=tuple(
            IntervalDescription.from_point([1.0 if i == j else 0.0 for j in range(n)])
            for i in range(n)
        ),
    )
    scores = stability_lattice_dp(build_pattern_lattice(ps))
    assert {s.exact_count for s in scores.values()} == {1}
    assert sum(s.exact_count for s in scores.values()) == 2 ** n


def test_pattern_concept_cap():
    rng = random.Random(3)
    ps = random_interval_structure(rng, max_objects=7, max_attributes=3, integers=False)
    with pytest.raises(CapacityError):
        build_pattern_lattice(ps, concept_cap=1)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_format_and_parse_interval_cells():
    assert format_interval(2.0, 2.0) == "2.0"
    assert format_interval(1.5, 2.25) == "1.5..2.25"
    assert parse_interval_cell("2.0") == (2.0, 2.0)
    assert parse_interval_cell(" 1.5..2.25 ") == (1.5, 2.25)
    with pytest.raises(InputError):
        parse_interval_cell("3..1")
    with pytest.raises(InputError):
        parse_interval_cell("abc")


def test_interval_csv_round_trip(tmp_path):
    ps = IntervalPatternStructure(
        ("s1", "s2"),
        ("width", "height"),
        (desc((1.25, 3.5), (2, 2)), desc((0, 0), (-1.5, 4))),
    )
    path = tmp_path / "ctx.csv"
    write_interval_csv(ps, str(path))
    assert read_interval_csv(str(path)) == ps


def test_interval_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("name,a\ng1,1\n")
    with pytest.raises(InputError):
        read_interval_csv(str(bad_header))
    ragged = tmp_path / "r.csv"
    ragged.write_text("id,a,b\ng1,1\n")
    with pytest.raises(InputError):
        read_interval_csv(str(ragged))
    with pytest.raises(InputError):
        read_interval_csv(str(tmp_path / "nope.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1..inf", "nan..2", "abc", "1..x"])
def test_interval_csv_names_the_bad_cell(tmp_path, cell):
    path = tmp_path / "ctx.csv"
    path.write_text(f"id,width,height\ng1,1.0,2.0\ng2,0.5,{cell}\n")
    with pytest.raises(InputError) as err:
        read_interval_csv(str(path))
    message = str(err.value)
    assert str(path) in message
    assert "row 3" in message and "'height'" in message and repr(cell) in message


def test_interval_csv_names_both_rows_of_a_repeated_id(tmp_path):
    path = tmp_path / "ctx.csv"
    path.write_text("id,a\ng1,1.0\ng1,0..2\n")
    with pytest.raises(InputError) as err:
        read_interval_csv(str(path))
    message = str(err.value)
    assert str(path) in message and "'g1'" in message and "rows 2 and 3" in message
