"""Numeric contexts, correlation pruning, and information-gain ranking."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindlemine.errors import InputError
from spindlemine.selection import (
    NumericContext,
    _equal_width_bins,
    build_numeric_context,
    correlation_prune,
    information_gain_rank,
    read_labels_csv,
    read_numeric_csv,
    select_attributes,
    to_pattern_structure,
    write_numeric_csv,
    write_selection_json,
)
from spindlemine.signals import feature_columns, feature_row

from conftest import reference_correlation_prune, reference_information_gain_rank, sine


def ctx_from_columns(columns: dict[str, list[float]], labels=None) -> NumericContext:
    names = tuple(columns)
    values = np.array(list(zip(*columns.values())), dtype=float)
    return NumericContext(
        objects=tuple(f"o{i}" for i in range(values.shape[0])),
        attributes=names,
        values=values,
        labels=tuple(labels) if labels is not None else None,
    )


# ---------------------------------------------------------------------------
# context assembly
# ---------------------------------------------------------------------------


def test_build_from_feature_rows():
    fs = 200.0
    rows = [
        ("s1", feature_row(sine(10.0, 20.0, 200, fs), fs)),
        ("s2", feature_row(sine(12.0, 35.0, 220, fs), fs)),
    ]
    ctx = build_numeric_context(rows)
    assert ctx.objects == ("s1", "s2")
    assert ctx.attributes == feature_columns()
    assert ctx.n_attributes == 20
    assert ctx.values.shape == (2, 20)
    assert ctx.values[0, 1] == 20.0  # max amplitude column
    assert ctx.labels is None


def test_build_rejects_duplicate_ids():
    fs = 200.0
    row = feature_row(sine(10.0, 1.0, 200, fs), fs)
    with pytest.raises(InputError):
        build_numeric_context([("s1", row), ("s1", row)])


def test_build_rejects_mixed_band_layouts():
    fs = 200.0
    a = feature_row(sine(10.0, 1.0, 200, fs), fs)
    b = feature_row(sine(10.0, 1.0, 200, fs), fs, bands=[(5.0, 15.0)])
    with pytest.raises(InputError):
        build_numeric_context([("s1", a), ("s2", b)])


def test_build_with_labels():
    fs = 200.0
    row = feature_row(sine(10.0, 1.0, 200, fs), fs)
    ctx = build_numeric_context(
        [("s1", row), ("s2", row)], labels={"s1": "alpha", "s2": "beta"}
    )
    assert ctx.labels == ("alpha", "beta")
    with pytest.raises(InputError):
        build_numeric_context([("s1", row), ("s2", row)], labels={"s1": "alpha"})


def test_with_labels_follows_object_order():
    ctx = NumericContext(("s2", "s1"), ("a",), np.zeros((2, 1)))
    labelled = ctx.with_labels({"s1": "alpha", "s2": "beta", "s9": "gamma"})
    assert labelled.labels == ("beta", "alpha")
    assert labelled.objects == ctx.objects and labelled.values is ctx.values
    with pytest.raises(InputError, match=r"labels missing for ids \['s1'\]"):
        ctx.with_labels({"s2": "beta"})


def test_numeric_context_validation():
    with pytest.raises(InputError):
        ctx_from_columns({"a": [1.0, math.nan]})
    with pytest.raises(InputError):
        NumericContext(("o1",), ("a",), np.zeros((2, 1)))
    with pytest.raises(InputError):
        NumericContext(("o1", "o2"), ("a",), np.zeros((2, 1)), labels=("x",))
    ctx = ctx_from_columns({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    assert ctx.restrict([1]).attributes == ("b",)


# ---------------------------------------------------------------------------
# correlation pruning
# ---------------------------------------------------------------------------


def test_prune_drops_duplicate_and_negated_columns():
    base = [1.0, 4.0, 2.0, 8.0, 5.0]
    ctx = ctx_from_columns({
        "a": base,
        "copy": base,
        "neg": [-v for v in base],
        "other": [0.3, -2.0, 9.0, 1.0, 1.5],
    })
    pruned, report = correlation_prune(ctx, threshold=0.95)
    assert pruned.attributes == ("a", "other")
    assert report["retained"] == ["a", "other"]
    assert {d["attribute"]: d["partner"] for d in report["dropped"]} == {
        "copy": "a",
        "neg": "a",
    }
    assert all(d["abs_r"] == pytest.approx(1.0) for d in report["dropped"])


def test_prune_never_drops_the_first_of_a_group():
    base = [1.0, 2.0, 3.0]
    ctx = ctx_from_columns({"x": base, "y": [2 * v for v in base]})
    pruned, _ = correlation_prune(ctx)
    assert pruned.attributes == ("x",)


def test_prune_keeps_independent_columns():
    rng = np.random.default_rng(5)
    cols = {f"c{i}": list(rng.normal(size=40)) for i in range(4)}
    ctx = ctx_from_columns(cols)
    pruned, report = correlation_prune(ctx, threshold=0.95)
    assert pruned.attributes == ctx.attributes
    assert report["dropped"] == []


def test_prune_is_idempotent():
    base = [1.0, 4.0, 2.0, 8.0]
    ctx = ctx_from_columns({"a": base, "b": base, "c": [0.0, 1.0, 0.0, 1.0]})
    once, _ = correlation_prune(ctx)
    twice, again = correlation_prune(once)
    assert twice.attributes == once.attributes
    assert again["dropped"] == []


@pytest.mark.parametrize("flat1, flat2", [(3.0, 7.0), (0.1, 0.1)])  # 0.1: the mean rounds
def test_prune_zero_variance_pair_warns_and_drops(flat1, flat2):
    ctx = ctx_from_columns({
        "flat1": [flat1] * 3,
        "flat2": [flat2] * 3,
        "vary": [1.0, 2.0, 3.0],
    })
    with pytest.warns(UserWarning, match="zero variance"):
        pruned, report = correlation_prune(ctx)
    assert pruned.attributes == ("flat1", "vary")
    assert report["dropped"][0] == {"attribute": "flat2", "partner": "flat1", "abs_r": 1.0}


def test_prune_rejects_varying_columns_whose_sum_of_squares_underflows():
    # each squared deviation underflows to 0, yet neither column is flat
    ctx = ctx_from_columns({"a": [0.0, 1e-170, 2e-170], "b": [0.0, 3e-170, 1e-170]})
    with pytest.raises(InputError, match=r"^attributes 'a' and 'b': "):
        correlation_prune(ctx)


def test_prune_zero_variance_against_varying_is_kept():
    ctx = ctx_from_columns({"vary": [1.0, 2.0, 3.0], "flat": [5.0, 5.0, 5.0]})
    pruned, _ = correlation_prune(ctx)
    assert pruned.attributes == ("vary", "flat")  # convention: r := 0


def test_prune_strict_inequality_at_threshold_one():
    # |r| is clamped to 1.0 and the rule is "strictly greater", so a
    # threshold of exactly 1.0 disables pruning even for exact duplicates
    base = [1.0, 2.0, 5.0]
    ctx = ctx_from_columns({"a": base, "b": base})
    pruned, report = correlation_prune(ctx, threshold=1.0)
    assert pruned.attributes == ("a", "b")
    assert report["dropped"] == []


def test_prune_validation():
    ctx = ctx_from_columns({"a": [1.0]})
    with pytest.raises(InputError):
        correlation_prune(ctx)  # a single object has no correlations
    two = ctx_from_columns({"a": [1.0, 2.0]})
    # the wording of check_selection_settings, the one corr_threshold rule
    with pytest.raises(InputError, match=r"^corr_threshold 0.0 outside \(0, 1\]$"):
        correlation_prune(two, threshold=0.0)
    with pytest.raises(InputError, match=r"^corr_threshold 1.5 outside \(0, 1\]$"):
        correlation_prune(two, threshold=1.5)


@st.composite
def pruning_contexts(draw) -> NumericContext:
    """Contexts of 2-24 objects whose columns are drawn, flat, or an earlier
    column copied, negated, nudged in one cell or scaled by 1e170 or
    1e-170 (whose sums of squares overflow or underflow)."""
    n = draw(st.integers(2, 24))
    cell = st.one_of(st.integers(-5, 5).map(float),
                     st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    columns: list[list[float]] = []
    unscaled: list[list[float]] = []  # scaling one of these twice would overflow
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["drawn", "flat", "copy", "negated", "nudged", "scaled"])
                    if columns else st.sampled_from(["drawn", "flat"]))
        if kind == "scaled":
            factor = draw(st.sampled_from([1e170, 1e-170, -1e170]))
            columns.append([factor * v for v in draw(st.sampled_from(unscaled))])
            continue
        if kind == "drawn":
            column = draw(st.lists(cell, min_size=n, max_size=n))
        elif kind == "flat":
            column = [draw(cell)] * n
        else:  # a copy, negation or nudge of an unscaled column stays unscaled
            sign = -1.0 if kind == "negated" else 1.0
            column = [sign * v for v in draw(st.sampled_from(unscaled))]
            if kind == "nudged":  # |r| near 1 but below it: abs_r keeps its last bits
                column[draw(st.integers(0, n - 1))] += draw(st.floats(0.01, 100.0))
        columns.append(column)
        unscaled.append(column)
    return ctx_from_columns({f"c{k}": column for k, column in enumerate(columns)})


@settings(deadline=None, max_examples=300)
@given(pruning_contexts(), st.sampled_from([0.5, 0.9, 0.95, 0.999999, 1.0]))
def test_prune_matches_the_per_pair_reference(ctx, threshold):
    # a column centred once gives every pair the bits of centring both per pair
    def outcome(prune):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = prune()
            except InputError as exc:
                result = str(exc)
        return result, [(w.category, str(w.message)) for w in caught]

    def pruned():
        context, report = correlation_prune(ctx, threshold)
        assert report["retained"] == list(context.attributes)
        return report["retained"], report["dropped"]

    assert outcome(pruned) == outcome(lambda: reference_correlation_prune(ctx, threshold))


# ---------------------------------------------------------------------------
# information gain
# ---------------------------------------------------------------------------


def test_ig_perfect_separator_scores_full_entropy():
    ctx = ctx_from_columns(
        {"sep": [1.0, 1.1, 9.0, 9.2], "noise": [5.0, 1.0, 5.0, 1.0]},
        labels=["a", "a", "b", "b"],
    )
    ranking = information_gain_rank(ctx, bins=5)
    assert ranking[0] == ("sep", 1.0)  # H(labels) = 1 bit, fully explained
    assert ranking[1][0] == "noise"
    assert ranking[1][1] < 1.0


def test_ig_constant_attribute_gains_nothing():
    ctx = ctx_from_columns(
        {"flat": [2.0, 2.0, 2.0, 2.0], "sep": [0.0, 0.0, 1.0, 1.0]},
        labels=["a", "a", "b", "b"],
    )
    ranking = dict(information_gain_rank(ctx))
    assert ranking["flat"] == 0.0
    assert ranking["sep"] == 1.0


def test_ig_single_class_is_all_zero():
    ctx = ctx_from_columns(
        {"x": [1.0, 2.0, 3.0], "y": [5.0, 1.0, 2.0]}, labels=["a", "a", "a"]
    )
    assert all(g == 0.0 for _, g in information_gain_rank(ctx))


def test_ig_bounded_by_label_entropy():
    rng = np.random.default_rng(123)
    labels = ["a", "b", "c", "a", "b", "c", "a", "b"]
    base = -sum(
        (labels.count(c) / len(labels)) * math.log2(labels.count(c) / len(labels))
        for c in set(labels)
    )
    ctx = ctx_from_columns(
        {f"c{i}": list(rng.normal(size=len(labels))) for i in range(5)}, labels=labels
    )
    for _, gain in information_gain_rank(ctx):
        assert 0.0 <= gain <= base + 1e-12


def test_ig_ties_keep_column_order():
    ctx = ctx_from_columns(
        {"later": [0.0, 1.0], "earlier": [0.0, 1.0]}, labels=["a", "b"]
    )
    ranking = information_gain_rank(ctx)
    assert [name for name, _ in ranking] == ["later", "earlier"]


def test_ig_requires_labels_and_sane_bins():
    unlabeled = ctx_from_columns({"a": [1.0, 2.0]})
    with pytest.raises(InputError):
        information_gain_rank(unlabeled)
    labeled = ctx_from_columns({"a": [1.0, 2.0]}, labels=["x", "y"])
    with pytest.raises(InputError, match=r"^ig_bins must be >= 2, got 1$"):
        information_gain_rank(labeled, bins=1)


def _int64_bins(column, bins):
    """Equal-width bins through an int64 cast, right while the column's
    range and the bin indices fit."""
    lo, hi = float(column.min()), float(column.max())
    if hi == lo:
        return np.zeros(len(column), dtype=int)
    return np.clip(np.floor((column - lo) / ((hi - lo) / bins)).astype(int), 0, bins - 1)


_normal_floats = st.one_of(st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_normal_floats, min_size=1, max_size=12), bins=st.integers(2, 49))
def test_ig_bins_match_the_int64_formula_on_normal_floats(values, bins):
    column = np.array(values)
    assert _equal_width_bins(column, bins).tolist() == _int64_bins(column, bins).tolist()


@pytest.mark.parametrize("column, bins, want", [
    ([0.0, 0.5, 1.0], 2 ** 63, [0.0, 2.0 ** 62, 2.0 ** 63]),
    ([0.0, 0.5, 1.0], 10 ** 20, [0.0, 5e19, 1e20]),
    ([-1e308, 1e308, 0.0], 5, [0.0, 4.0, 2.0]),  # hi - lo overflows
    ([0.0, 5e-324, 1e-323], 5, [0.0, 2.0, 4.0]),  # the width underflows
    ([0.0, 1e-300], 10 ** 300, [0.0, float(10 ** 300 - 1)]),
], ids=["2**63-bins", "10**20-bins", "range-overflows", "subnormal-width", "tiny-width"])
def test_ig_bins_stay_apart_beyond_int64_and_the_float_range(column, bins, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _equal_width_bins(np.array(column), bins).tolist() == want


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=2, max_size=12),
       labels=st.data(), bins=st.integers(2, 49))
def test_ig_gains_of_a_subnormal_column_equal_its_scaled_copy(steps, labels, bins):
    # multiples of the smallest subnormal, and the same column scaled by
    # 2**1000 into the normal range, where the width no longer underflows
    column = np.array(steps) * 5e-324
    names = labels.draw(st.lists(st.sampled_from("xyz"), min_size=len(steps),
                                 max_size=len(steps)))
    tiny = ctx_from_columns({"a": column}, labels=names)
    normal = ctx_from_columns({"a": column * 2.0 ** 1000}, labels=names)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert information_gain_rank(tiny, bins) == information_gain_rank(normal, bins)


@st.composite
def labelled_contexts(draw) -> NumericContext:
    """Contexts of 1-30 objects with 1-3 distinct labels, whose columns are
    drawn, flat, or drawn from a few tied values (with -0.0 and 0.0)."""
    n = draw(st.integers(1, 30))
    names = "xyz"[:draw(st.integers(1, 3))]
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    cell = st.one_of(st.integers(-3, 3).map(float),
                     st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["drawn", "flat", "tied"]))
        if kind == "flat":
            columns.append([draw(cell)] * n)
        elif kind == "tied":
            tie = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
            columns.append(draw(st.lists(tie, min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return ctx_from_columns({f"c{k}": column for k, column in enumerate(columns)}, labels)


@settings(max_examples=300, deadline=None)
@given(labelled_contexts(), st.one_of(st.integers(2, 12), st.integers(2, 2 ** 70)))
def test_ig_ranking_matches_the_per_bin_reference(ctx, bins):
    # == on the floats: the one-pass counts give every gain its exact bits
    assert information_gain_rank(ctx, bins) == reference_information_gain_rank(ctx, bins)


# ---------------------------------------------------------------------------
# combined selection
# ---------------------------------------------------------------------------


def test_select_attributes_top_k_then_prune():
    base = [1.0, 1.2, 9.0, 9.4]
    ctx = ctx_from_columns(
        {
            "sep": base,
            "sep_copy": [2 * v for v in base],
            "noise": [5.0, 1.0, 4.0, 2.0],
        },
        labels=["a", "a", "b", "b"],
    )
    selected, report = select_attributes(ctx, ig_top_k=2)
    # top-2 by gain are the two separators; pruning then drops the copy
    assert selected.attributes == ("sep",)
    assert report["ig_top_k"] == 2
    assert [r["attribute"] for r in report["ig_ranking"]][:2] == ["sep", "sep_copy"]
    assert report["dropped"][0]["attribute"] == "sep_copy"


def test_select_attributes_without_labels_skips_ranking():
    ctx = ctx_from_columns({"a": [1.0, 2.0, 3.0], "b": [9.0, 1.0, 4.0]})
    selected, report = select_attributes(ctx)
    assert selected.attributes == ("a", "b")
    assert "ig_ranking" not in report
    assert "no labels" in report["ig_skipped"]
    with pytest.raises(InputError):
        select_attributes(ctx, ig_top_k=1)


def test_select_attributes_top_k_validation():
    ctx = ctx_from_columns({"a": [1.0, 2.0]}, labels=["x", "y"])
    with pytest.raises(InputError):
        select_attributes(ctx, ig_top_k=0)


def test_to_pattern_structure():
    ctx = ctx_from_columns({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    ps = to_pattern_structure(ctx)
    assert ps.objects == ctx.objects
    assert ps.attributes == ctx.attributes
    assert ps.descriptions[1].intervals == ((2.0, 2.0), (4.0, 4.0))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_numeric_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    values = rng.normal(size=(3, 4)) * math.pi
    ctx = NumericContext(
        objects=("s1", "s2", "s3"),
        attributes=("w", "x", "y", "z"),
        values=values,
    )
    path = tmp_path / "ctx.csv"
    write_numeric_csv(ctx, str(path))
    back = read_numeric_csv(str(path))
    assert back.objects == ctx.objects
    assert back.attributes == ctx.attributes
    assert np.array_equal(back.values, ctx.values)  # repr() cells: no rounding


def test_numeric_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,a\ns1,1.0\n")
    with pytest.raises(InputError):
        read_numeric_csv(str(bad))
    nonnum = tmp_path / "nn.csv"
    nonnum.write_text("id,a\ns1,high\n")
    with pytest.raises(InputError):
        read_numeric_csv(str(nonnum))
    with pytest.raises(InputError):
        read_numeric_csv(str(tmp_path / "gone.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc", ""])
def test_numeric_csv_names_the_bad_cell(tmp_path, cell):
    path = tmp_path / "features.csv"
    path.write_text(f"id,width,height\ns1,1.0,2.0\ns2,0.5,{cell}\n")
    with pytest.raises(InputError) as err:
        read_numeric_csv(str(path))
    message = str(err.value)
    assert str(path) in message
    assert "row 3" in message and "'height'" in message and repr(cell) in message


def test_numeric_csv_names_both_rows_of_a_repeated_id(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,a\ns1,1.0\ns2,2.0\ns1,3.0\n")
    with pytest.raises(InputError) as err:
        read_numeric_csv(str(path))
    message = str(err.value)
    assert str(path) in message and "'s1'" in message and "rows 2 and 4" in message


def test_labels_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,class\ns1,alpha\ns2,beta\n")
    assert read_labels_csv(str(path)) == {"s1": "alpha", "s2": "beta"}
    path.write_text("id,label\ns1,alpha\n")
    with pytest.raises(InputError):
        read_labels_csv(str(path))
    path.write_text("id,class\ns1,alpha,extra\n")
    with pytest.raises(InputError):
        read_labels_csv(str(path))
    path.write_text("id,class\ns1,alpha\ns1,beta\n")
    with pytest.raises(InputError):
        read_labels_csv(str(path))
    with pytest.raises(InputError):
        read_labels_csv(str(tmp_path / "missing.csv"))


def test_labels_csv_names_both_rows_of_a_repeated_id(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,class\ns1,alpha\ns2,beta\ns1,beta\n")
    with pytest.raises(InputError) as err:
        read_labels_csv(str(path))
    message = str(err.value)
    assert str(path) in message and "'s1'" in message and "rows 2 and 4" in message


def test_write_selection_json(tmp_path):
    path = tmp_path / "sel.json"
    write_selection_json({"retained": ["a"], "dropped": []}, str(path))
    assert json.loads(path.read_text()) == {"retained": ["a"], "dropped": []}
