"""Numeric contexts and attribute selection.

Feature rows become a numeric context: objects (spindle ids) x attributes
(feature names with units) with a dense real matrix and optional class
labels.  Two selection mechanisms operate on it before mining:

* correlation pruning — greedily drops the later attribute of any pair
  whose absolute Pearson correlation exceeds a threshold, scanning in
  column order, so the first member of a correlated group always
  survives;
* information-gain ranking — available only when labels are present:
  ``IG(attr) = H(labels) - H(labels | attr binned equal-width)`` in bits,
  attributes ranked descending with ties resolved by column order, and an
  optional top-k cut applied before pruning.

Zero-variance attributes (all values equal) have no defined correlation;
against another zero-variance attribute they are treated as perfectly
correlated (dropped with a warning), against a varying one as
uncorrelated.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from .errors import InputError, check_unique, lazy_import
from .fca import read_object_table
from .intervals import IntervalDescription, IntervalPatternStructure
from .signals import FeatureRow

# loaded on first use, so the lattice and mining commands start without it
np = lazy_import("numpy")


@dataclass(frozen=True)
class NumericContext:
    """Objects x numeric attributes, no missing cells."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_unique("object id", self.objects)
        check_unique("attribute name", self.attributes)
        if self.values.shape != (len(self.objects), len(self.attributes)):
            raise InputError(
                f"value matrix shape {self.values.shape} does not match "
                f"{len(self.objects)} objects x {len(self.attributes)} attributes"
            )
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise InputError("value matrix contains non-finite cells")
        if self.labels is not None and len(self.labels) != len(self.objects):
            raise InputError("labels must cover every object")

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def with_labels(self, labels: Mapping[str, str]) -> "NumericContext":
        """This context with each object's class taken from ``labels``,
        which must cover every object."""
        missing = [o for o in self.objects if o not in labels]
        if missing:
            raise InputError(f"labels missing for ids {missing}")
        return replace(self, labels=tuple(labels[o] for o in self.objects))

    def restrict(self, keep: Sequence[int]) -> "NumericContext":
        """Context restricted to the given attribute indices (order kept)."""
        return replace(
            self,
            attributes=tuple(self.attributes[i] for i in keep),
            values=self.values[:, list(keep)].copy(),
        )


def build_numeric_context(
    rows: Sequence[tuple[str, FeatureRow]],
    labels: Mapping[str, str] | None = None,
) -> NumericContext:
    """Assemble feature rows into a numeric context.

    All rows must share the same band layout; ids must be unique.  When a
    labels mapping is given it must cover every id.
    """
    if not rows:
        raise InputError("no feature rows")
    first = rows[0][1]
    columns = first.columns()
    matrix = []
    ids = []
    for obj_id, row in rows:
        if row.bands != first.bands:
            raise InputError(f"row {obj_id!r} has a different band layout")
        ids.append(obj_id)
        matrix.append(row.values())
    ctx = NumericContext(
        objects=tuple(ids),
        attributes=columns,
        values=np.asarray(matrix, dtype=float),
    )
    return ctx if labels is None else ctx.with_labels(labels)


def _centred(column: np.ndarray) -> tuple[np.ndarray, float]:
    """A column minus its mean, and its sum of squares (inf or nan once it
    overflows, so the caller may silence numpy's overflow warnings)."""
    centred = column - column.mean()
    return centred, float(np.dot(centred, centred))


def _pairwise_abs_r(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float],
                    names: tuple[str, str], flat: tuple[bool, bool]) -> tuple[float, bool]:
    """|Pearson r| of two columns given as :func:`_centred` pairs, plus a
    flag marking the zero-variance-pair convention.

    ``flat`` tells which of the two columns holds one value only: two such
    columns have |r| 1 by convention, one has |r| 0 against a varying one.
    Raises :class:`InputError` naming the attribute pair when the product
    of the two sums of squares of varying columns leaves the float range,
    which would make r 0 (overflow) or divide by 0 (underflow, also of a
    single sum of squares)."""
    if all(flat):
        return 1.0, True
    if any(flat):
        return 0.0, False
    (xc, sx), (yc, sy) = x, y
    product = sx * sy
    if not 0.0 < product < math.inf:
        raise InputError(f"attributes {names[0]!r} and {names[1]!r}: the product of their "
                         "sums of squares is outside the float range, so r cannot be computed")
    r = float(np.dot(xc, yc)) / math.sqrt(product)
    # rounding can push |r| of perfectly correlated columns past 1.0,
    # which would make them "exceed" a threshold of exactly 1
    return min(abs(r), 1.0), False


def correlation_prune(
    ctx: NumericContext, threshold: float = 0.95
) -> tuple[NumericContext, dict[str, Any]]:
    """Drop the later attribute of every pair with ``|r| > threshold``.

    Returns the pruned context and a report
    ``{"dropped": [{attribute, partner, abs_r}...], "retained": [...]}``.
    Pruning is idempotent and never drops the first member (in column
    order) of a correlated group.
    """
    if ctx.n_objects < 2:
        raise InputError("correlation pruning needs at least 2 objects")
    _check_corr_threshold(threshold)
    kept: list[int] = []
    centred: list[tuple[np.ndarray, float]] = []  # _centred of each kept column
    dropped: list[dict[str, Any]] = []
    # a column is flat when all its values are equal, whatever its rounded mean
    flat = (ctx.values == ctx.values[:1]).all(axis=0).tolist()
    for j in range(ctx.n_attributes):
        partner = None
        with np.errstate(over="ignore", invalid="ignore"):  # _pairwise_abs_r rejects overflow
            column = _centred(ctx.values[:, j])
            for i, kept_column in zip(kept, centred):
                abs_r, both_flat = _pairwise_abs_r(kept_column, column,
                                                   (ctx.attributes[i], ctx.attributes[j]),
                                                   (flat[i], flat[j]))
                if abs_r > threshold:
                    partner = (i, abs_r, both_flat)
                    break
        if partner is None:
            kept.append(j)
            centred.append(column)
        else:
            i, abs_r, both_flat = partner
            if both_flat:
                warnings.warn(
                    f"attribute {ctx.attributes[j]!r} has zero variance (as does "
                    f"{ctx.attributes[i]!r}); treated as |r|=1 and dropped",
                    UserWarning, stacklevel=2,
                )
            dropped.append(
                {
                    "attribute": ctx.attributes[j],
                    "partner": ctx.attributes[i],
                    "abs_r": abs_r,
                }
            )
    pruned = ctx.restrict(kept)
    report = {"dropped": dropped, "retained": list(pruned.attributes)}
    return pruned, report


def _entropy_bits(counts: Sequence[int]) -> float:
    """The entropy in bits of the distribution with these counts, summed
    in their order: callers pass labels in order of first occurrence."""
    n = sum(counts)
    h = 0.0
    for c in counts:
        p = c / n
        h -= p * math.log2(p)
    return h + 0.0


def _equal_width_bins(column: np.ndarray, bins: int) -> np.ndarray:
    """Each value's bin index, as a float: ``bins`` may exceed any int64."""
    lo = float(column.min())
    hi = float(column.max())
    if hi == lo:
        return np.zeros(len(column))
    # from halves, hi - lo cannot overflow; halving a normal float is exact,
    # so the indices are those of (column - lo) / ((hi - lo) / bins)
    width = (hi / 2 - lo / 2) / bins
    if not width >= sys.float_info.min:
        # the width underflows, and halving a subnormal is not exact: bin
        # the column scaled by an exact power of two, at least 2**54, that
        # puts the width at 2**-968 or more and the range below 2**58, so
        # every nonzero value and difference of halves is normal and no
        # value overflows
        scale = math.frexp(float(bins))[1] - math.frexp(hi - lo)[1] - 966
        return _equal_width_bins(np.ldexp(column, scale), bins)
    return np.minimum(np.floor((column / 2 - lo / 2) / width), float(bins - 1))


def information_gain_rank(
    ctx: NumericContext, bins: int = 5
) -> list[tuple[str, float]]:
    """Rank attributes by information gain about the labels, descending.

    Gain is ``H(labels) - H(labels | attribute)`` in bits after equal-width
    binning of the attribute; ties keep column order.  Requires labels.
    """
    if ctx.labels is None:
        raise InputError("information gain requires class labels")
    _check_ig_bins(bins)
    base = _entropy_bits(list(Counter(ctx.labels).values()))
    n = ctx.n_objects
    gains: list[tuple[str, float]] = []
    for j, name in enumerate(ctx.attributes):
        # one pass counts the (bin, label) pairs; within a bin, the labels
        # keep the order of their first occurrence
        per_bin: dict[float, list[int]] = {}
        pairs = Counter(zip(_equal_width_bins(ctx.values[:, j], bins).tolist(), ctx.labels))
        for (b, _), c in pairs.items():
            per_bin.setdefault(b, []).append(c)
        conditional = 0.0
        for b in sorted(per_bin):
            counts = per_bin[b]
            conditional += sum(counts) / n * _entropy_bits(counts)
        gains.append((name, max(base - conditional, 0.0) + 0.0))
    order = sorted(range(len(gains)), key=lambda j: (-gains[j][1], j))
    return [gains[j] for j in order]


def _check_corr_threshold(corr_threshold: float) -> None:
    if not 0.0 < corr_threshold <= 1.0:
        raise InputError(f"corr_threshold {corr_threshold} outside (0, 1]")


def _check_ig_bins(ig_bins: int) -> None:
    if ig_bins < 2:
        raise InputError(f"ig_bins must be >= 2, got {ig_bins}")
    # binning divides a float by it
    if ig_bins > sys.float_info.max:
        raise InputError(f"ig_bins must be within the float range, got {ig_bins}")


def check_selection_settings(corr_threshold: float, ig_bins: int, ig_top_k: int | None,
                             labelled: bool) -> None:
    """Raise :class:`InputError` for a :func:`select_attributes` setting
    outside its domain; ``ig_top_k`` also needs a ``labelled`` context."""
    _check_corr_threshold(corr_threshold)
    _check_ig_bins(ig_bins)
    if ig_top_k is not None:
        if ig_top_k < 1:
            raise InputError(f"ig_top_k must be >= 1, got {ig_top_k}")
        if not labelled:
            raise InputError("ig_top_k requires labels")


def select_attributes(
    ctx: NumericContext,
    corr_threshold: float = 0.95,
    ig_bins: int = 5,
    ig_top_k: int | None = None,
) -> tuple[NumericContext, dict[str, Any]]:
    """Full selection: optional IG ranking/top-k cut, then correlation prune.

    The settings are checked first (:func:`check_selection_settings`).
    The gain ranking runs only when the context carries labels; without
    them the report records why it was skipped.  Attribute order is always
    a subsequence of the input order.
    """
    check_selection_settings(corr_threshold, ig_bins, ig_top_k, ctx.labels is not None)
    report: dict[str, Any] = {}
    working = ctx
    if ctx.labels is not None:
        ranking = information_gain_rank(ctx, bins=ig_bins)
        report["ig_ranking"] = [{"attribute": a, "gain": g} for a, g in ranking]
        if ig_top_k is not None:
            chosen = {a for a, _ in ranking[:ig_top_k]}
            keep = [j for j, a in enumerate(ctx.attributes) if a in chosen]
            working = ctx.restrict(keep)
            report["ig_top_k"] = ig_top_k
    else:
        report["ig_skipped"] = (
            "no labels supplied: information-gain ranking needs a class per object"
        )
    pruned, prune_report = correlation_prune(working, threshold=corr_threshold)
    report.update(prune_report)
    return pruned, report


def to_pattern_structure(ctx: NumericContext) -> IntervalPatternStructure:
    """Each numeric value becomes the degenerate interval ``[v, v]``."""
    return IntervalPatternStructure(
        objects=ctx.objects,
        attributes=ctx.attributes,
        descriptions=tuple(
            IntervalDescription.from_point(row) for row in ctx.values
        ),
    )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def write_numeric_csv(ctx: NumericContext, path: str) -> None:
    """Header ``id,<attributes...>``; cells use ``repr`` so values
    round-trip bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(ctx.attributes))
        for name, row in zip(ctx.objects, ctx.values):
            writer.writerow([name] + [repr(float(v)) for v in row])


def _real_cell(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise InputError(f"non-numeric cell {cell!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"non-finite cell {cell!r}")
    return value


def read_numeric_csv(path: str) -> NumericContext:
    """Read a context written by :func:`write_numeric_csv`; cells must be
    finite reals.  Errors name the file and the rows (file lines), and a
    bad cell its column."""
    objects, attributes, table = read_object_table(path, _real_cell, "features")
    values = np.asarray(table, dtype=float).reshape(len(objects), len(attributes))
    return NumericContext(objects=objects, attributes=attributes, values=values)


def write_selection_json(report: Mapping[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dict(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_labels_csv(path: str) -> dict[str, str]:
    """Labels file: header ``id,class`` then one row per object, read by
    :func:`read_object_table`, whose errors name the file and the rows."""
    objects, attributes, table = read_object_table(path, str, "labels")
    if attributes != ("class",):
        raise InputError(f"{path}: expected header 'id,class'")
    return {obj: label for obj, [label] in zip(objects, table)}
