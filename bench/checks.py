"""Independent checks of the program's outputs.

Everything here is computed with numpy from the generated inputs, or
from properties the method must have; nothing imports ``spindlemine``.
Each ``check_*`` function returns a list of problems (empty when the
outputs are correct).

Subset counts use one dynamic program over bitmasks: the description of
subset ``S`` is that of ``S`` without its highest member, met with that
member's description.  Processing member ``b`` fills subsets
``[2^b, 2^(b+1))`` from ``[0, 2^b)`` in one vectorised step.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

# Ignore correlation pairs this close to the pruning threshold: the
# program and numpy may round |r| differently in the last bits.
R_TOLERANCE = 1e-9
LSTAB_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# interval (point) data
# ---------------------------------------------------------------------------


def subset_hulls(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per subset ``S`` of the rows of ``values``, the low and high ends of
    its hull.  The empty subset gets ``+inf`` / ``-inf``."""
    n, m = values.shape
    lo = np.empty((1 << n, m))
    hi = np.empty((1 << n, m))
    lo[0], hi[0] = np.inf, -np.inf
    for b in range(n):
        lo[1 << b: 2 << b] = np.minimum(lo[: 1 << b], values[b])
        hi[1 << b: 2 << b] = np.maximum(hi[: 1 << b], values[b])
    return lo, hi


def hull_closure(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Boolean mask of the objects inside the hull of ``members``."""
    lo = values[members].min(axis=0)
    hi = values[members].max(axis=0)
    return np.all((values >= lo) & (values <= hi), axis=1)


def closed_extents(values: np.ndarray) -> np.ndarray:
    """Every closed non-empty object set of a point context, as bitmasks.

    Per attribute, the objects inside ``[low, high]`` are the objects
    ranked at least ``low`` and at most ``high``; with the per-rank masks
    precomputed, the closure of every subset is ``2m`` table lookups.
    """
    n, m = values.shape
    ranks = np.column_stack([np.unique(values[:, j], return_inverse=True)[1]
                             for j in range(m)]).astype(np.int64)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # rank n stands for the empty subset's missing hull: no object qualifies
    at_least = np.array([[bits[ranks[:, j] >= r].sum() for r in range(n + 1)]
                         for j in range(m)])
    at_most = np.array([[bits[ranks[:, j] <= r].sum() if r < n else 0
                         for r in range(n + 1)] for j in range(m)])
    lo, hi = subset_hulls(ranks.astype(float))
    lo = np.where(np.isinf(lo), n, lo).astype(np.int64)
    hi = np.where(np.isinf(hi), n, hi).astype(np.int64)
    closure = np.full(1 << n, (1 << n) - 1, dtype=np.int64)
    for j in range(m):
        closure &= at_least[j][lo[:, j]] & at_most[j][hi[:, j]]
    subsets = np.arange(1 << n, dtype=np.int64)
    return subsets[1:][closure[1:] == subsets[1:]]


def count_interval_concepts(values: np.ndarray) -> int:
    """Pattern concepts: closed non-empty sets plus the formal bottom."""
    return len(closed_extents(values)) + 1


def interval_qualifying_count(member_values: np.ndarray) -> int:
    """Subsets of the members whose hull equals the members' hull."""
    lo, hi = subset_hulls(member_values)
    target_lo = member_values.min(axis=0)
    target_hi = member_values.max(axis=0)
    return int(np.count_nonzero(np.all((lo == target_lo) & (hi == target_hi), axis=1)))


def lstab_from_count(size: int, count: int) -> float:
    total = 1 << size
    return math.inf if count == total else size - math.log2(total - count)


def _lstab_value(field) -> float:
    return math.inf if field == "inf" else float(field)


def check_interval_patterns(values: np.ndarray, ids: list[str], attributes: list[str],
                            report: dict, *, min_support: float, min_lstab: float,
                            exact: bool, sample, max_brute: int) -> list[str]:
    """Extents closed, intents the hull, both gates met, stability right.

    ``exact`` reports carry an LStab that must equal the brute-force
    count; bound reports must satisfy ``lower <= mid <= upper`` and
    bracket the brute-force LStab between ``mid`` and ``upper``.  The
    brute force runs on the patterns ``sample`` picks with at most
    ``max_brute`` objects.
    """
    problems = []
    n = len(ids)
    index = {name: i for i, name in enumerate(ids)}
    if report["attributes"] != attributes:
        problems.append(f"report attributes {report['attributes']} != context {attributes}")
        return problems
    brute = []
    for k, pattern in enumerate(report["patterns"]):
        members = np.zeros(n, dtype=bool)
        members[[index[name] for name in pattern["extent"]]] = True
        size = int(members.sum())
        if size != pattern["extent_size"] or size / n < min_support:
            problems.append(f"pattern {k}: size {size} vs support gate {min_support}")
        if size == 0:
            continue
        if not np.array_equal(hull_closure(values, members), members):
            problems.append(f"pattern {k}: extent is not closed")
        hull = [[float(values[members, j].min()), float(values[members, j].max())]
                for j in range(len(attributes))]
        if [pattern["intent"][a] for a in attributes] != hull:
            problems.append(f"pattern {k}: intent is not the hull of its extent")
        stab = pattern["stability"]
        if not exact and not (stab["lower"] <= stab["mid"] <= stab["upper"]):
            problems.append(f"pattern {k}: bounds out of order {stab}")
        if _lstab_value(stab["lstab"] if exact else stab["upper"]) < min_lstab:
            problems.append(f"pattern {k}: kept below the LStab gate {min_lstab}")
        if size <= max_brute:
            brute.append((k, members, size, stab))
    for k, members, size, stab in sample(brute):
        value = lstab_from_count(size, interval_qualifying_count(values[members]))
        if exact:
            if not math.isclose(value, _lstab_value(stab["lstab"]), rel_tol=0.0,
                                abs_tol=LSTAB_TOLERANCE):
                problems.append(f"pattern {k}: lstab {stab['lstab']} != brute force {value}")
        elif not stab["mid"] - LSTAB_TOLERANCE <= value <= stab["upper"] + LSTAB_TOLERANCE:
            problems.append(f"pattern {k}: brute-force lstab {value} outside [mid, upper] {stab}")
    return problems


def parse_dot(text: str) -> tuple[dict[int, frozenset[str]], list[tuple[int, int]]]:
    nodes = {int(i): frozenset(filter(None, label.split(",")))
             for i, label in re.findall(r'^\s*n(\d+) \[label="\{([^}]*)\}"\];$', text, re.M)}
    edges = [(int(a), int(b)) for a, b in re.findall(r"^\s*n(\d+) -> n(\d+);$", text, re.M)]
    return nodes, edges


def check_dot(values: np.ndarray, ids: list[str], text: str, concepts: int) -> list[str]:
    """One node per concept, every node closed, every edge from a strict
    subset to a superset."""
    problems = []
    nodes, edges = parse_dot(text)
    if len(nodes) != concepts:
        problems.append(f"DOT has {len(nodes)} nodes, expected {concepts} concepts")
    if len(set(nodes.values())) != len(nodes):
        problems.append("DOT repeats an extent")
    index = {name: i for i, name in enumerate(ids)}
    for i, extent in nodes.items():
        if not extent:
            continue
        members = np.zeros(len(ids), dtype=bool)
        members[[index[name] for name in extent]] = True
        if not np.array_equal(hull_closure(values, members), members):
            problems.append(f"DOT node n{i} is not a closed extent")
            break
    if not edges:
        problems.append("DOT has no edges")
    for child, parent in edges:
        if child not in nodes or parent not in nodes or not nodes[child] < nodes[parent]:
            problems.append(f"DOT edge n{child} -> n{parent} is not strict subset -> superset")
            break
    return problems


# ---------------------------------------------------------------------------
# binary data
# ---------------------------------------------------------------------------


def _bitmasks(bool_matrix: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as an integer bitmask (column j = bit j)."""
    if bool_matrix.shape[1] > 64:
        raise ValueError("bitmask checks handle at most 64 objects or attributes")
    weights = np.left_shift(np.uint64(1), np.arange(bool_matrix.shape[1], dtype=np.uint64))
    return (bool_matrix.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def count_binary_concepts(rows: np.ndarray) -> int:
    """Distinct extents ``B'`` over every attribute set ``B``."""
    columns = _bitmasks(rows.T.astype(bool))
    m = len(columns)
    extents = np.empty(1 << m, dtype=np.uint64)
    extents[0] = np.uint64((1 << rows.shape[0]) - 1)
    for b in range(m):
        extents[1 << b: 2 << b] = extents[: 1 << b] & columns[b]
    return len(np.unique(extents))


def binary_qualifying_count(member_rows: np.ndarray, intent_mask: int) -> int:
    """Subsets of the members whose common attributes are exactly the intent."""
    masks = _bitmasks(member_rows.astype(bool))
    k, m = member_rows.shape
    common = np.empty(1 << k, dtype=np.uint64)
    common[0] = np.uint64((1 << m) - 1)
    for b in range(k):
        common[1 << b: 2 << b] = common[: 1 << b] & masks[b]
    return int(np.count_nonzero(common == np.uint64(intent_mask)))


def check_binary_result(rows: np.ndarray, result: dict, *, min_support: float,
                        min_lstab: float, sample, max_brute: int) -> list[str]:
    """Closed extents, derived intents, exact counts summing to ``2^|G|``,
    the filter's choice, and brute-force counts on a sample."""
    problems = []
    n, m = rows.shape
    bool_rows = rows.astype(bool)
    concepts = result["concepts"]
    if len(concepts) != count_binary_concepts(rows):
        problems.append(f"{len(concepts)} concepts, expected {count_binary_concepts(rows)}")
    total = 0
    expected_kept = []
    brute = []
    for i, c in enumerate(concepts):
        extent = np.zeros(n, dtype=bool)
        extent[c["extent"]] = True
        intent = np.all(bool_rows[extent], axis=0) if extent.any() else np.ones(m, dtype=bool)
        if sorted(np.flatnonzero(intent).tolist()) != c["intent"]:
            problems.append(f"concept {i}: intent is not the extent's common attributes")
        if not np.array_equal(np.all(bool_rows[:, intent], axis=1), extent):
            problems.append(f"concept {i}: extent is not closed")
        count = int(c["exact_count"])
        total += count
        size = int(extent.sum())
        if not math.isclose(lstab_from_count(size, count), _lstab_value(c["lstab"]),
                            rel_tol=0.0, abs_tol=LSTAB_TOLERANCE):
            problems.append(f"concept {i}: lstab inconsistent with its count")
        if size / n >= min_support and lstab_from_count(size, count) >= min_lstab:
            expected_kept.append(i)
        if 0 < size <= max_brute:
            brute.append((i, extent, intent, count))
        if len(problems) > 5:
            return problems
    if total != 1 << n:
        problems.append(f"exact counts sum to {total}, not 2^{n}")
    if result["kept"] != expected_kept:
        problems.append("kept concepts differ from the support/LStab gate")
    kept = set(result["kept"])
    for i, extent, intent, count in sample([b for b in brute if b[0] in kept]):
        intent_mask = int(_bitmasks(intent[None, :])[0])
        expected = binary_qualifying_count(rows[extent], intent_mask)
        if expected != count:
            problems.append(f"concept {i}: exact count {count} != brute force {expected}")
    return problems


# ---------------------------------------------------------------------------
# signal side
# ---------------------------------------------------------------------------


def read_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """A numeric CSV with an ``id`` column: (ids, attributes, values)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = [r[0] for r in rows[1:]]
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return ids, rows[0][1:], values


def padded_bin_hz(n_samples: int, fs: float) -> float:
    return fs / (1 << (4 * n_samples - 1).bit_length())


def check_segments(path: str, rec: dict) -> list[str]:
    """One segment per annotation, holding exactly the generated samples."""
    with open(path) as fh:
        segments = json.load(fh)
    spindles = rec["spindles"]
    if len(segments) != len(spindles):
        return [f"{len(segments)} segments for {len(spindles)} annotations"]
    for seg, s in zip(segments, spindles):
        expected = rec["signal"][s.channel, s.i0:s.i1]
        if seg["id"] != s.id or not np.array_equal(np.asarray(seg["samples"]), expected):
            return [f"segment {s.id}: samples differ from the generated signal"]
    return []


def check_features(path: str, rec: dict, freq_jitter_hz: float) -> list[str]:
    """Amplitudes equal a numpy recomputation; each dominant frequency lies
    within one padded bin plus the generator's jitter of the nominal one."""
    problems = []
    ids, attributes, values = read_table(path)
    spindles = rec["spindles"]
    if ids != [s.id for s in spindles]:
        return [f"feature rows {len(ids)} do not match the {len(spindles)} annotations"]
    col = {a: j for j, a in enumerate(attributes)}
    for row, s in zip(values, spindles):
        x = rec["signal"][s.channel, s.i0:s.i1]
        for name, expected in (("mean_amplitude_uV", np.mean(np.abs(x))),
                               ("max_amplitude_uV", np.max(np.abs(x)))):
            if not math.isclose(row[col[name]], expected, rel_tol=1e-12):
                problems.append(f"{s.id}: {name} {row[col[name]]} != numpy {expected}")
        tolerance = padded_bin_hz(len(x), rec["fs"]) + freq_jitter_hz
        dominant = row[col["dominant_frequency_Hz"]]
        if abs(dominant - s.nominal_freq_hz) > tolerance:
            problems.append(f"{s.id}: dominant {dominant} Hz not within {tolerance:.3f} Hz "
                            f"of {s.nominal_freq_hz} Hz")
        if len(problems) > 5:
            break
    return problems


def check_selection(features_path: str, context_path: str, selection_path: str,
                    corr_threshold: float) -> list[str]:
    """The context is a column subset of the features; no retained pair is
    correlated beyond the threshold; every dropped attribute is."""
    problems = []
    f_ids, f_attrs, f_values = read_table(features_path)
    c_ids, c_attrs, c_values = read_table(context_path)
    with open(selection_path) as fh:
        selection = json.load(fh)
    if c_ids != f_ids:
        problems.append("context objects differ from the feature rows")
    if selection["retained"] != c_attrs or c_attrs != [a for a in f_attrs if a in c_attrs]:
        problems.append("retained attributes are not an ordered subset of the features")
        return problems
    column = {a: f_values[:, j] for j, a in enumerate(f_attrs)}
    if not np.array_equal(c_values, np.column_stack([column[a] for a in c_attrs])):
        problems.append("context values differ from the feature values")
    r = np.abs(np.corrcoef(np.column_stack([column[a] for a in f_attrs]), rowvar=False))
    pos = {a: j for j, a in enumerate(f_attrs)}
    for i, a in enumerate(c_attrs):
        for b in c_attrs[i + 1:]:
            if r[pos[a], pos[b]] > corr_threshold + R_TOLERANCE:
                problems.append(f"retained {a} and {b} have |r| = {r[pos[a], pos[b]]}")
    for item in selection["dropped"]:
        a, b = item["attribute"], item["partner"]
        if b not in c_attrs or r[pos[a], pos[b]] < corr_threshold - R_TOLERANCE:
            problems.append(f"dropped {a} without a correlated retained partner")
    gains = [g["gain"] for g in selection.get("ig_ranking", [])]
    if len(gains) != len(f_attrs) or gains != sorted(gains, reverse=True) or min(gains) < 0:
        problems.append("information-gain ranking is missing, unsorted or negative")
    return problems
