"""Seeded input generators for the benchmark.

Every draw comes from a ``numpy.random.Generator``.  The writers put
plain input files (CSV and JSON in the formats the CLI reads) on disk,
and the recording generators also return the ground truth they used, so
the checks can recompute expected values without asking the program.
Nothing here imports ``spindlemine``.

Cells are written with 17 significant digits, which round-trips every
double exactly, so the program parses the very values the generator
holds.  Annotation bounds sit half a sample past a sample instant, so
``floor(t * fs)`` is the intended index whatever rounding the program's
sample-rate inference does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Two spindle populations: (label, nominal frequency Hz, nominal amplitude uV).
# Both frequencies stay inside the program's default 6-14 Hz search band for
# the dominant frequency, jitter included.
POPULATIONS = (("slow", 10.5, 40.0), ("fast", 13.0, 24.0))
FREQ_JITTER_HZ = 0.4
AMP_JITTER = 0.15


@dataclass
class Spindle:
    id: str
    channel: int
    label: str
    nominal_freq_hz: float
    i0: int
    i1: int


def _envelope(n: int) -> np.ndarray:
    """Waxing and waning over the outer quarters, flat in the middle half
    (a Tukey window with ratio 0.5)."""
    ramp = n // 4
    env = np.ones(n)
    rise = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    env[:ramp] = rise
    env[n - ramp:] = rise[::-1]
    return env


def _spindle_wave(rng, n: int, fs: float, freq: float, amp: float) -> np.ndarray:
    """One spindle: an enveloped sinusoid with random phase.

    The flat middle keeps the spectral peak narrow, so with the noise
    level used here the zero-padded DFT peak stays within one padded bin
    of ``freq``: in a simulation of 30,000 spindles at each sample rate
    the largest error was 0.84 bins.
    """
    k = np.arange(n)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return amp * _envelope(n) * np.sin(2.0 * np.pi * freq * k / fs + phase)


def _draw_spindle(rng, sid: str, channel: int, pop: int, i0: int, n: int, fs: float,
                  signal: np.ndarray) -> Spindle:
    label, f_nom, a_nom = POPULATIONS[pop]
    freq = f_nom + rng.uniform(-FREQ_JITTER_HZ, FREQ_JITTER_HZ)
    amp = a_nom * (1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER))
    signal[channel, i0:i0 + n] += _spindle_wave(rng, n, fs, freq, amp)
    return Spindle(sid, channel, label, f_nom, i0, i0 + n)


def _write_recording(path: str, fs: float, channels: list[str], signal: np.ndarray) -> None:
    t = np.arange(signal.shape[1]) / fs
    table = np.column_stack([t, signal.T])
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header="time," + ",".join(channels), comments="")


def _write_annotations(path: str, fs: float, channels: list[str], spindles) -> None:
    payload = [
        {
            "id": s.id,
            "channel": channels[s.channel],
            "start_s": (s.i0 + 0.5) / fs,
            "end_s": (s.i1 + 0.5) / fs,
        }
        for s in spindles
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _write_labels(path: str, spindles) -> None:
    with open(path, "w") as fh:
        fh.write("id,class\n")
        for s in spindles:
            fh.write(f"{s.id},{s.label}\n")


def spindle_recording(rng, out_dir: str, *, fs: float, channels: list[str],
                      n_spindles: int, gap_s: tuple[float, float],
                      dur_s: tuple[float, float], noise_uv: float) -> dict:
    """A recording with ``n_spindles`` spindles from the two populations.

    Spindles follow one another in time, each on a random channel, with
    a random gap before each; half come from each population, in an
    order shuffled by ``rng``.  Writes ``recording.csv``, ``annotations.json`` and
    ``labels.csv`` and returns their paths with the signal and spindles.
    """
    pops = np.arange(n_spindles) % 2
    rng.shuffle(pops)
    chans = rng.integers(0, len(channels), size=n_spindles)
    lengths = [int(round(rng.uniform(*dur_s) * fs)) for _ in range(n_spindles)]
    gaps = [int(round(rng.uniform(*gap_s) * fs)) for _ in range(n_spindles)]
    n_samples = sum(lengths) + sum(gaps) + int(fs)
    signal = rng.normal(0.0, noise_uv, size=(len(channels), n_samples))
    spindles = []
    cursor = 0
    for k in range(n_spindles):
        cursor += gaps[k]
        spindles.append(_draw_spindle(rng, f"s{k:04d}", int(chans[k]), int(pops[k]),
                                      cursor, lengths[k], fs, signal))
        cursor += lengths[k]
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "recording": os.path.join(out_dir, "recording.csv"),
        "annotations": os.path.join(out_dir, "annotations.json"),
        "labels": os.path.join(out_dir, "labels.csv"),
    }
    _write_recording(files["recording"], fs, channels, signal)
    _write_annotations(files["annotations"], fs, channels, spindles)
    _write_labels(files["labels"], spindles)
    return {"files": files, "fs": fs, "signal": signal, "spindles": spindles}


def two_population_recording(rng, out_dir: str, n_spindles: int) -> dict:
    """Short single-channel recording: the ``pipeline-twopop`` input."""
    return spindle_recording(rng, out_dir, fs=256.0, channels=["C3"],
                             n_spindles=n_spindles, gap_s=(1.0, 2.0),
                             dur_s=(0.8, 1.6), noise_uv=3.0)


def nightly_recording(rng, out_dir: str, n_spindles: int, channels: list[str]) -> dict:
    """Long multi-channel recording with sparse spindles: ``stages-nightly``."""
    return spindle_recording(rng, out_dir, fs=128.0, channels=channels,
                             n_spindles=n_spindles, gap_s=(0.5, 4.0),
                             dur_s=(0.8, 2.0), noise_uv=3.0)


def point_values(rng, n_objects: int, n_attributes: int) -> np.ndarray:
    """Random continuous points: one row per object."""
    return rng.normal(0.0, 1.0, size=(n_objects, n_attributes))


def write_point_context(path: str, values: np.ndarray) -> list[str]:
    """Write points as a numeric context CSV; returns the object ids."""
    ids = [f"g{i:03d}" for i in range(values.shape[0])]
    with open(path, "w") as fh:
        fh.write("id," + ",".join(f"a{j}" for j in range(values.shape[1])) + "\n")
        for name, row in zip(ids, values):
            fh.write(name + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return ids


def binary_rows(rng, n_objects: int, n_attributes: int, density: float) -> np.ndarray:
    """Random binary context: 0/1 cells, each set with probability ``density``."""
    return (rng.random((n_objects, n_attributes)) < density).astype(np.int64)


def write_binary_context(path: str, rows: np.ndarray) -> None:
    """Write a binary context as JSON object names, attribute names and rows."""
    with open(path, "w") as fh:
        json.dump({
            "objects": [f"g{i:03d}" for i in range(rows.shape[0])],
            "attributes": [f"m{j:02d}" for j in range(rows.shape[1])],
            "rows": rows.tolist(),
        }, fh)
