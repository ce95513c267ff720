"""EEG recordings, spindle annotations, and per-segment features.

A recording is a set of equally long channels sampled at a fixed rate,
amplitudes in microvolts; channel names follow whatever montage the data
uses (e.g. 10-20 labels like ``F4``).  Spindles arrive as annotations —
``(id, start_s, end_s, channel)`` — and are cut out of the raw signal by
:func:`extract_segments`; detection itself is out of scope.

Each segment is then summarized into a feature row:

* mean and maximum of the absolute amplitude (microvolts); the mean is of
  ``|x|`` because the raw mean of an oscillatory signal is near zero,
* power-weighted mean frequency (spectral centroid) over the one-sided
  periodogram, matching the usual ``meanfreq`` semantics,
* dominant frequency: DFT-magnitude argmax restricted to a search band
  (default 6-14 Hz, where spindle activity lives), after zero-padding to
  the next power of two at least 4x the segment length so the grid is
  fine enough for sub-hertz differences; ties break toward the lower
  frequency,
* mean-amplitude / dominant-frequency ratio,
* average band power over 15 contiguous 2 Hz bands, 0.5-2.5 up to
  28.5-30.5 Hz (microvolts squared).

All spectra use a rectangular window and no detrending unless asked
(``detrend=True`` removes the segment mean before spectral operations
only), which keeps the band powers an exact partition of the signal's
mean square power (Parseval).  Band power integrates the periodogram by
rectangles: bin ``k`` owns the frequency cell ``f_k +- df/2`` clipped to
``[0, Nyquist]``, and edge bins contribute fractionally when a band cuts
through their cell.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.signal import periodogram

from .errors import InputError

#: The 15 contiguous 2 Hz analysis bands, 0.5-2.5 ... 28.5-30.5 Hz.
DEFAULT_BANDS: tuple[tuple[float, float], ...] = tuple(
    (0.5 + 2.0 * k, 2.5 + 2.0 * k) for k in range(15)
)

#: Search band for the dominant frequency.
DEFAULT_DOMINANT_BAND: tuple[float, float] = (6.0, 14.0)

SCALAR_FEATURES = (
    "mean_amplitude_uV",
    "max_amplitude_uV",
    "mean_frequency_Hz",
    "dominant_frequency_Hz",
    "amp_freq_ratio_uV_per_Hz",
)


class ZeroPowerWarning(UserWarning):
    """Emitted when a spectral centroid is requested for a zero-power signal."""


# ---------------------------------------------------------------------------
# Recordings and annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recording:
    """Multi-channel signal: ``data`` has shape (n_channels, n_samples)."""

    sample_rate: float
    channels: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise InputError(f"sample_rate must be positive, got {self.sample_rate}")
        if len(set(self.channels)) != len(self.channels):
            raise InputError("channel names must be unique")
        if self.data.ndim != 2 or self.data.shape[0] != len(self.channels):
            raise InputError(
                f"data shape {self.data.shape} does not match {len(self.channels)} channels"
            )

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.data[self.channels.index(name)]
        except ValueError:
            raise InputError(f"unknown channel {name!r}") from None


@dataclass(frozen=True)
class SpindleAnnotation:
    """One annotated spindle: where it is and on which channel."""

    id: str
    start_s: float
    end_s: float
    channel: str


def read_recording_csv(path: str, sample_rate: float | None = None) -> Recording:
    """Read a recording CSV with header ``time,<ch1>,<ch2>,...``.

    The ``time`` column is optional when ``sample_rate`` is given; when
    both are present the explicit ``sample_rate`` wins.  With only a time
    column, the rate is inferred from the (required uniform) spacing.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read recording {path}: {exc}") from exc
    if not rows or len(rows) < 2:
        raise InputError(f"{path}: recording needs a header and at least one sample row")
    header = rows[0]
    has_time = bool(header) and header[0].strip().lower() == "time"
    channel_names = tuple(h.strip() for h in (header[1:] if has_time else header))
    if not channel_names:
        raise InputError(f"{path}: no channel columns")
    width = len(header)
    values = []
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise InputError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
        try:
            values.append([float(c) for c in row])
        except ValueError as exc:
            raise InputError(f"{path}: non-numeric cell in row {i + 2}") from exc
    matrix = np.asarray(values, dtype=float)
    finite = np.isfinite(matrix)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise InputError(
            f"{path}: non-finite value {rows[r + 1][c].strip()!r} in row {r + 2}, "
            f"column {header[c].strip()!r}"
        )

    if sample_rate is None:
        if not has_time:
            raise InputError(f"{path}: no time column; a sample rate must be supplied")
        t = matrix[:, 0]
        if len(t) < 2:
            raise InputError(f"{path}: cannot infer sample rate from a single sample")
        steps = np.diff(t)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-6 * steps.max():
            raise InputError(f"{path}: time column is not uniformly increasing")
        sample_rate = (len(t) - 1) / (t[-1] - t[0])

    data = matrix[:, 1:].T if has_time else matrix.T
    return Recording(sample_rate=float(sample_rate), channels=channel_names, data=data)


def read_annotations_json(path: str) -> list[SpindleAnnotation]:
    """Read annotations: a JSON array of {id, start_s, end_s, channel}
    objects.

    Each annotation gives its end either as ``end_s`` or as ``duration_s``
    (seconds after ``start_s``), never both.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read annotations {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError(f"{path}: expected a JSON array of annotations")
    out = []
    seen = set()
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InputError(f"{path}: annotation {i} is not an object")
        missing = {"id", "start_s", "channel"} - item.keys()
        if missing:
            raise InputError(f"{path}: annotation {i} missing keys {sorted(missing)}")
        end_keys = [k for k in ("end_s", "duration_s") if k in item]
        if len(end_keys) != 1:
            raise InputError(
                f"{path}: annotation {i} needs exactly one of the keys "
                f"['end_s', 'duration_s'], got {end_keys}"
            )
        ann_id = str(item["id"])
        if ann_id in seen:
            raise InputError(f"{path}: duplicate annotation id {ann_id!r}")
        seen.add(ann_id)
        start_s = _annotation_number(path, i, item, "start_s")
        if "end_s" in item:
            end_s = _annotation_number(path, i, item, "end_s")
        else:
            end_s = start_s + _annotation_number(path, i, item, "duration_s")
        out.append(
            SpindleAnnotation(
                id=ann_id,
                start_s=start_s,
                end_s=end_s,
                channel=str(item["channel"]),
            )
        )
    return out


def _annotation_number(path: str, index: int, item: dict, key: str) -> float:
    """One annotation time as a float: a finite JSON number, else InputError."""
    value = item[key]
    # bool is an int subclass, but JSON true/false is not a time; the bound
    # also rejects nan, inf and integers beyond the float range
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise InputError(
        f"{path}: annotation {index} key {key!r} must be a finite number, got {value!r}"
    )


def extract_segments(
    rec: Recording, annotations: Iterable[SpindleAnnotation]
) -> list[tuple[SpindleAnnotation, np.ndarray]]:
    """Cut each annotated span out of its channel.

    The sample index range is ``[floor(start * fs), floor(end * fs))``.
    Out-of-bounds annotations and unknown channels are rejected with the
    annotation id in the message.
    """
    out = []
    for ann in annotations:
        if ann.channel not in rec.channels:
            raise InputError(f"annotation {ann.id!r}: unknown channel {ann.channel!r}")
        if not (0.0 <= ann.start_s < ann.end_s):
            raise InputError(
                f"annotation {ann.id!r}: invalid span [{ann.start_s}, {ann.end_s}]"
            )
        i0 = math.floor(ann.start_s * rec.sample_rate)
        i1 = math.floor(ann.end_s * rec.sample_rate)
        if i1 > rec.n_samples:
            raise InputError(
                f"annotation {ann.id!r}: end {ann.end_s} s beyond recording "
                f"duration {rec.duration_s} s"
            )
        if i1 <= i0:
            raise InputError(f"annotation {ann.id!r}: span holds no complete sample")
        out.append((ann, rec.channel(ann.channel)[i0:i1].copy()))
    return out


def write_segments_json(
    path: str,
    segments: Sequence[tuple[SpindleAnnotation, np.ndarray]],
    sample_rate: float,
) -> None:
    payload = [
        {
            "id": ann.id,
            "channel": ann.channel,
            "start_s": ann.start_s,
            "end_s": ann.end_s,
            "sample_rate": sample_rate,
            "samples": [float(v) for v in samples],
        }
        for ann, samples in segments
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_segments_json(path: str) -> list[tuple[SpindleAnnotation, float, np.ndarray]]:
    """Read extracted segments: (annotation, sample_rate, samples) triples."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read segments {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError(f"{path}: expected a JSON array of segments")
    out = []
    for i, item in enumerate(raw):
        try:
            ann = SpindleAnnotation(
                id=str(item["id"]),
                start_s=float(item["start_s"]),
                end_s=float(item["end_s"]),
                channel=str(item["channel"]),
            )
            fs = float(item["sample_rate"])
            samples = np.asarray(item["samples"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed segment {i}: {exc}") from exc
        out.append((ann, fs, samples))
    return out


# ---------------------------------------------------------------------------
# Spectral helpers
# ---------------------------------------------------------------------------


def _as_segment(segment) -> np.ndarray:
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("segment must be a non-empty 1-D sequence")
    return x


def _cell_energies(x: np.ndarray, sample_rate: float, detrend: bool):
    """One-sided periodogram as per-bin energies plus each bin's cell.

    Bin ``k`` at frequency ``f_k`` carries energy ``P_k * df`` and owns
    the cell ``[f_k - df/2, f_k + df/2]`` clipped to ``[0, fs/2]`` (half
    cells at DC and, for even lengths, at Nyquist).  Summed over all bins
    the energies equal the signal's mean square power exactly.
    """
    freqs, psd = periodogram(
        x,
        fs=sample_rate,
        window="boxcar",
        detrend="constant" if detrend else False,
        scaling="density",
    )
    df = sample_rate / len(x)
    energy = psd * df
    lo = np.clip(freqs - df / 2.0, 0.0, None)
    hi = np.clip(freqs + df / 2.0, None, sample_rate / 2.0)
    return freqs, energy, lo, hi


def mean_amplitude(segment) -> float:
    """Mean of the absolute amplitude, in microvolts."""
    a = np.abs(_as_segment(segment))
    # the rounded mean of equal values can exceed them by one ulp; the
    # exact mean never exceeds the maximum
    return float(min(np.mean(a), np.max(a)))


def max_amplitude(segment) -> float:
    """Maximum absolute amplitude, in microvolts."""
    x = _as_segment(segment)
    return float(np.max(np.abs(x)))


def mean_frequency(segment, sample_rate: float, detrend: bool = False) -> float:
    """Power-weighted mean frequency of the one-sided periodogram.

    A zero-power signal has no centroid: returns 0.0 after emitting
    :class:`ZeroPowerWarning`.
    """
    x = _as_segment(segment)
    if sample_rate <= 0:
        raise InputError(f"sample_rate must be positive, got {sample_rate}")
    freqs, energy, _, _ = _cell_energies(x, sample_rate, detrend)
    total = float(np.sum(energy))
    if total == 0.0:
        warnings.warn("zero-power segment: mean frequency undefined, returning 0.0",
                      ZeroPowerWarning, stacklevel=2)
        return 0.0
    return float(np.sum(freqs * energy) / total)


def dominant_frequency(
    segment,
    sample_rate: float,
    band: tuple[float, float] = DEFAULT_DOMINANT_BAND,
    detrend: bool = False,
) -> float:
    """Frequency of the DFT-magnitude maximum within ``band``.

    The segment is zero-padded to the next power of two >= 4x its length,
    so the bin width is at most ``fs / (4 n)``.  Equal magnitudes resolve
    to the lower frequency.
    """
    x = _as_segment(segment)
    if x.size < 2:
        raise InputError("dominant_frequency needs at least 2 samples")
    if sample_rate <= 0:
        raise InputError(f"sample_rate must be positive, got {sample_rate}")
    lo, hi = band
    if not 0.0 <= lo < hi:
        raise InputError(f"invalid search band [{lo}, {hi}]")
    if sample_rate / 2.0 < hi:
        raise InputError(
            f"sample rate {sample_rate} Hz too low for band up to {hi} Hz (Nyquist below)"
        )
    if detrend:
        x = x - np.mean(x)
    nfft = 1 << (4 * x.size - 1).bit_length()
    magnitude = np.abs(np.fft.rfft(x, n=nfft))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
    in_band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if in_band.size == 0:
        raise InputError(f"no DFT bins inside [{lo}, {hi}] Hz at this resolution")
    # np.argmax takes the first maximum; freqs ascend, so ties go low.
    best = in_band[int(np.argmax(magnitude[in_band]))]
    return float(freqs[best])


def bandpower(
    segment,
    sample_rate: float,
    band: tuple[float, float],
    detrend: bool = False,
) -> float:
    """Signal power inside a frequency band, in microvolts squared.

    Rectangle-rule integral of the one-sided periodogram; bins whose cell
    is only partially covered by the band contribute proportionally.
    Summed over a partition of ``[0, Nyquist]`` this reproduces the total
    mean square power exactly.
    """
    x = _as_segment(segment)
    if sample_rate <= 0:
        raise InputError(f"sample_rate must be positive, got {sample_rate}")
    lo, hi = band
    if not (0.0 <= lo < hi <= sample_rate / 2.0):
        raise InputError(
            f"invalid band [{lo}, {hi}] for Nyquist {sample_rate / 2.0} Hz"
        )
    _, energy, cell_lo, cell_hi = _cell_energies(x, sample_rate, detrend)
    return _integrate_cells(energy, cell_lo, cell_hi, lo, hi)


def _integrate_cells(energy, cell_lo, cell_hi, lo: float, hi: float) -> float:
    width = cell_hi - cell_lo
    overlap = np.clip(np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        fraction = np.where(width > 0.0, overlap / np.where(width > 0.0, width, 1.0), 0.0)
    return float(np.sum(energy * fraction))


# ---------------------------------------------------------------------------
# Feature rows
# ---------------------------------------------------------------------------


def band_column_name(lo: float, hi: float) -> str:
    return f"bandpower_{lo:g}_{hi:g}_uV2"


def feature_columns(bands: Sequence[tuple[float, float]] = DEFAULT_BANDS) -> tuple[str, ...]:
    """Column names in canonical order: the 5 scalars, then the bands."""
    return SCALAR_FEATURES + tuple(band_column_name(lo, hi) for lo, hi in bands)


@dataclass(frozen=True)
class FeatureRow:
    """The per-spindle feature vector, in canonical column order."""

    mean_amplitude: float
    max_amplitude: float
    mean_frequency: float
    dominant_frequency: float
    amp_freq_ratio: float
    bandpowers: tuple[float, ...]
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS

    def __post_init__(self) -> None:
        if len(self.bandpowers) != len(self.bands):
            raise InputError(
                f"{len(self.bandpowers)} band powers for {len(self.bands)} bands"
            )
        if self.mean_amplitude < 0 or self.max_amplitude < self.mean_amplitude:
            raise InputError("amplitudes must satisfy 0 <= mean <= max")
        if any(p < 0 for p in self.bandpowers):
            raise InputError("band powers must be non-negative")
        if self.dominant_frequency <= 0:
            raise InputError("dominant frequency must be positive")
        if self.amp_freq_ratio != self.mean_amplitude / self.dominant_frequency:
            raise InputError("amp_freq_ratio must equal mean_amplitude / dominant_frequency")

    def values(self) -> tuple[float, ...]:
        return (
            self.mean_amplitude,
            self.max_amplitude,
            self.mean_frequency,
            self.dominant_frequency,
            self.amp_freq_ratio,
        ) + self.bandpowers

    def columns(self) -> tuple[str, ...]:
        return feature_columns(self.bands)


def feature_row(
    segment,
    sample_rate: float,
    bands: Sequence[tuple[float, float]] = DEFAULT_BANDS,
    dominant_band: tuple[float, float] = DEFAULT_DOMINANT_BAND,
    detrend: bool = False,
) -> FeatureRow:
    """Compute the full feature vector for one segment."""
    x = _as_segment(segment)
    dom = dominant_frequency(x, sample_rate, band=dominant_band, detrend=detrend)
    if dom <= 0.0:
        raise InputError("dominant frequency is 0 Hz; amp/freq ratio undefined "
                         "(search band must exclude DC)")
    mean_amp = mean_amplitude(x)
    _, energy, cell_lo, cell_hi = _cell_energies(x, sample_rate, detrend)
    powers = []
    for lo, hi in bands:
        if not (0.0 <= lo < hi <= sample_rate / 2.0):
            raise InputError(f"invalid band [{lo}, {hi}] for Nyquist {sample_rate / 2.0} Hz")
        powers.append(_integrate_cells(energy, cell_lo, cell_hi, lo, hi))
    return FeatureRow(
        mean_amplitude=mean_amp,
        max_amplitude=max_amplitude(x),
        mean_frequency=mean_frequency(x, sample_rate, detrend=detrend),
        dominant_frequency=dom,
        amp_freq_ratio=mean_amp / dom,
        bandpowers=tuple(powers),
        bands=tuple((float(lo), float(hi)) for lo, hi in bands),
    )
