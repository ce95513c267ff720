"""Spectral and amplitude features of extracted segments.

The frozen constants in here were derived independently with plain rfft
arithmetic before being pinned; they double as regression anchors for the
bin-cell integration and the zero-padded dominant-frequency grid.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spindlemine.errors import InputError
from spindlemine.signals import (
    DEFAULT_BANDS,
    DEFAULT_DOMINANT_BAND,
    SCALAR_FEATURES,
    FeatureRow,
    ZeroPowerWarning,
    _band_powers,
    _cell_energies,
    band_column_name,
    bandpower,
    dominant_frequency,
    feature_columns,
    feature_row,
    max_amplitude,
    mean_amplitude,
    mean_frequency,
)

from conftest import oracle_integrate_cells, sine

FS = 200.0
SPINDLE = sine(10.0, 20.0, 200, FS)  # one second of a clean 10 Hz, 20 uV spindle


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------


def test_amplitudes_of_constant():
    x = np.full(50, -5.0)
    assert mean_amplitude(x) == 5.0
    assert max_amplitude(x) == 5.0


def test_amplitudes_of_sine():
    assert max_amplitude(SPINDLE) == 20.0
    got = mean_amplitude(SPINDLE)
    assert got == pytest.approx(12.627503029350091, rel=1e-12)
    # sampled |sin| mean approaches 2A/pi
    assert got == pytest.approx(2 * 20.0 / math.pi, rel=0.01)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
def test_max_amplitude_dominates_mean(xs):
    assert max_amplitude(xs) >= mean_amplitude(xs)


def test_mean_amplitude_of_equal_values_is_not_above_max():
    # np.mean of these three equal values rounds one ulp above them
    xs = [349526.00326510717] * 3
    assert mean_amplitude(xs) == max_amplitude(xs) == xs[0]


def test_amplitudes_reject_bad_segments():
    with pytest.raises(InputError):
        mean_amplitude([])
    with pytest.raises(InputError):
        max_amplitude(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# mean frequency
# ---------------------------------------------------------------------------


def test_mean_frequency_of_pure_tone():
    assert mean_frequency(SPINDLE, FS) == pytest.approx(10.0, abs=1e-9)


def test_mean_frequency_of_two_equal_tones():
    mix = sine(5.0, 1.0, 200, FS) + sine(15.0, 1.0, 200, FS)
    assert mean_frequency(mix, FS) == pytest.approx(10.0, abs=1e-9)


def test_mean_frequency_of_constant_is_dc():
    # all power sits in the DC bin; the centroid is 0 without any warning
    assert mean_frequency(np.full(100, 3.0), FS) == pytest.approx(0.0, abs=1e-9)


def test_mean_frequency_of_silence_warns():
    with pytest.warns(ZeroPowerWarning):
        assert mean_frequency(np.zeros(100), FS) == 0.0


def test_mean_frequency_detrend_removes_offset():
    shifted = SPINDLE + 1000.0
    pulled_down = mean_frequency(shifted, FS)
    assert pulled_down < 1.0  # the huge DC term dominates the centroid
    assert mean_frequency(shifted, FS, detrend=True) == pytest.approx(10.0, abs=1e-6)


def test_mean_frequency_validation():
    with pytest.raises(InputError):
        mean_frequency(SPINDLE, 0.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("compute", [
    lambda rate: mean_frequency(SPINDLE, rate),
    lambda rate: dominant_frequency(SPINDLE, rate),
    lambda rate: bandpower(SPINDLE, rate, (8.5, 10.5)),
    lambda rate: feature_row(SPINDLE, rate),
], ids=["mean_frequency", "dominant_frequency", "bandpower", "feature_row"])
def test_spectral_features_reject_a_rate_that_is_not_finite_and_positive(compute, rate):
    with pytest.raises(InputError, match="^sample_rate must be finite and positive"):
        compute(rate)


# ---------------------------------------------------------------------------
# dominant frequency
# ---------------------------------------------------------------------------


def test_dominant_frequency_of_spindle():
    # 200 samples pad to nfft=1024 -> grid step 200/1024 = 0.1953125 Hz
    assert dominant_frequency(SPINDLE, FS) == 9.9609375


def test_dominant_frequency_grid_is_fine_enough():
    for n in (2, 50, 200, 500, 1023):
        nfft = 1 << (4 * n - 1).bit_length()
        assert nfft >= 4 * n
        assert FS / nfft <= FS / (4 * n)


def test_dominant_frequency_ignores_out_of_band_peaks():
    # the 25 Hz tone towers over the 10 Hz one but sits outside the band;
    # its sidelobe leakage may nudge the in-band argmax by a fraction of Hz
    mix = sine(10.0, 1.0, 200, FS) + sine(25.0, 50.0, 200, FS)
    assert dominant_frequency(mix, FS) == pytest.approx(10.0, abs=0.5)
    # a band that admits the 25 Hz component finds it instead
    assert dominant_frequency(mix, FS, band=(20.0, 30.0)) == pytest.approx(25.0, abs=0.2)


def test_dominant_frequency_tie_breaks_low():
    # an all-zero segment makes every magnitude equal; first maximum wins,
    # which is the lowest in-band grid point: ceil(6 / 0.1953125) = bin 31
    assert dominant_frequency(np.zeros(200), FS) == 31 * (FS / 1024)


def test_dominant_frequency_detrend():
    shifted = SPINDLE + 1000.0
    assert dominant_frequency(shifted, FS, detrend=True) == 9.9609375


def test_dominant_frequency_validation():
    with pytest.raises(InputError):
        dominant_frequency([1.0], FS)
    with pytest.raises(InputError):
        dominant_frequency(SPINDLE, 20.0)  # Nyquist 10 < band top 14
    with pytest.raises(InputError):
        dominant_frequency(SPINDLE, FS, band=(14.0, 6.0))
    with pytest.raises(InputError):
        # 2 samples pad to nfft=8 -> grid step 25 Hz, nothing inside [6, 14]
        dominant_frequency([0.0, 1.0], FS)


# ---------------------------------------------------------------------------
# band power
# ---------------------------------------------------------------------------


def test_bandpower_captures_the_tone():
    # A^2/2 = 200 uV^2, all inside one bin of the 200-sample periodogram
    assert bandpower(SPINDLE, FS, (8.5, 10.5)) == pytest.approx(200.0, rel=1e-9)


def test_bandpower_far_band_is_empty():
    assert bandpower(SPINDLE, FS, (20.5, 22.5)) == pytest.approx(0.0, abs=1e-12)


def test_bandpower_fractional_edge():
    # the 10 Hz bin owns the cell [9.5, 10.5]; half of it lies in the band
    assert bandpower(SPINDLE, FS, (10.0, 10.5)) == pytest.approx(100.0, rel=1e-9)


@pytest.mark.parametrize("n", [64, 100, 137, 256])
def test_bandpower_partition_reproduces_total_power(n):
    x = np.random.default_rng(n).normal(scale=12.0, size=n)
    msp = float(np.mean(x * x))
    edges = [0.0, 3.0, 7.25, 30.0, 77.5, FS / 2]
    parts = sum(bandpower(x, FS, (a, b)) for a, b in zip(edges, edges[1:]))
    assert parts == pytest.approx(msp, rel=1e-9)


def test_bandpower_scaling_is_quadratic():
    x = np.random.default_rng(7).normal(size=100)
    base = bandpower(x, FS, (4.0, 12.0))
    assert bandpower(3.0 * x, FS, (4.0, 12.0)) == pytest.approx(9.0 * base, rel=1e-9)


def test_bandpower_validation():
    with pytest.raises(InputError):
        bandpower(SPINDLE, FS, (10.0, 5.0))
    with pytest.raises(InputError):
        bandpower(SPINDLE, FS, (-1.0, 5.0))
    with pytest.raises(InputError):
        bandpower(SPINDLE, FS, (5.0, 150.0))  # beyond Nyquist
    with pytest.raises(InputError):
        bandpower([], FS, (1.0, 2.0))


# ---------------------------------------------------------------------------
# reference checks: the rfft periodogram and the all-bands integral
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 1024),
    rate=st.sampled_from([128.0, 256.0, 173.61, 200.0, 1000.0 / 3.0]),
    detrend=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, rate=128.0, detrend=False, seed=0)
@example(n=1, rate=173.61, detrend=True, seed=0)
@example(n=1023, rate=173.61, detrend=False, seed=1)
@example(n=1024, rate=256.0, detrend=True, seed=2)
def test_cell_energies_match_scipy_periodogram(n, rate, detrend, seed):
    periodogram = pytest.importorskip("scipy.signal").periodogram
    x = np.random.default_rng(seed).normal(scale=20.0, size=n) + 5.0
    freqs, energy, _, _ = _cell_energies(x, rate, detrend)
    ref_freqs, psd = periodogram(x, fs=rate, window="boxcar",
                                 detrend="constant" if detrend else False,
                                 scaling="density")
    assert np.array_equal(freqs, ref_freqs)
    assert np.array_equal(energy, psd * (rate / n))


BAND_CASES = {
    "aligned": [(8.5, 10.5)],
    "cutting-cells": [(10.0, 10.5), (0.3, 7.77), (33.3, 33.4)],
    "to-nyquist": [(61.2, FS / 2), (0.0, FS / 2)],
    "default": list(DEFAULT_BANDS),
    "none": [],
}


@pytest.mark.parametrize("n", [1, 2, 137, 200])
@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_band_powers_match_per_band_integral(n, case):
    bands = BAND_CASES[case]
    x = np.random.default_rng(n).normal(scale=12.0, size=n) + 3.0
    _, energy, cell_lo, cell_hi = _cell_energies(x, FS, False)
    powers = _band_powers(energy, cell_lo, cell_hi, bands)
    assert powers.shape == (len(bands),)
    assert powers.tolist() == [
        oracle_integrate_cells(energy, cell_lo, cell_hi, lo, hi) for lo, hi in bands
    ]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 600),
    detrend=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=12, unique=True),
)
def test_band_powers_match_per_band_integral_on_random_bands(n, detrend, seed, cuts):
    x = np.random.default_rng(seed).normal(scale=12.0, size=n)
    _, energy, cell_lo, cell_hi = _cell_energies(x, FS, detrend)
    edges = sorted(c * FS / 2 for c in cuts)
    bands = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    assert _band_powers(energy, cell_lo, cell_hi, bands).tolist() == [
        oracle_integrate_cells(energy, cell_lo, cell_hi, lo, hi) for lo, hi in bands
    ]


# ---------------------------------------------------------------------------
# feature rows
# ---------------------------------------------------------------------------


def test_default_band_layout():
    assert len(DEFAULT_BANDS) == 15
    assert DEFAULT_BANDS[0] == (0.5, 2.5)
    assert DEFAULT_BANDS[-1] == (28.5, 30.5)
    for (_, hi), (lo, _) in zip(DEFAULT_BANDS, DEFAULT_BANDS[1:]):
        assert lo == hi  # contiguous
    assert DEFAULT_DOMINANT_BAND == (6.0, 14.0)


def test_feature_columns():
    cols = feature_columns()
    assert len(cols) == 20
    assert cols[:5] == SCALAR_FEATURES
    assert cols[5] == "bandpower_0.5_2.5_uV2"
    assert cols[-1] == "bandpower_28.5_30.5_uV2"
    assert band_column_name(8.5, 10.5) == "bandpower_8.5_10.5_uV2"


def test_feature_row_of_spindle():
    row = feature_row(SPINDLE, FS)
    assert row.mean_amplitude == pytest.approx(12.627503029350091, rel=1e-12)
    assert row.max_amplitude == 20.0
    assert row.dominant_frequency == 9.9609375
    assert row.amp_freq_ratio == row.mean_amplitude / row.dominant_frequency
    assert len(row.bandpowers) == 15
    # the 10 Hz tone lands in band index 4 ([8.5, 10.5])
    assert row.bandpowers[4] == pytest.approx(200.0, rel=1e-9)
    assert sum(row.bandpowers) == pytest.approx(200.0, rel=1e-6)
    assert row.values() == (
        row.mean_amplitude,
        row.max_amplitude,
        row.mean_frequency,
        row.dominant_frequency,
        row.amp_freq_ratio,
    ) + row.bandpowers
    assert row.columns() == feature_columns()


def test_feature_row_custom_bands():
    row = feature_row(SPINDLE, FS, bands=[(5.0, 15.0)], dominant_band=(8.0, 12.0))
    assert len(row.bandpowers) == 1
    assert row.bandpowers[0] == pytest.approx(200.0, rel=1e-9)
    assert row.bands == ((5.0, 15.0),)


def test_feature_row_band_validation():
    with pytest.raises(InputError):
        feature_row(SPINDLE, FS, bands=[(5.0, 150.0)])


def test_feature_row_detrend_affects_spectra_only():
    shifted = SPINDLE + 50.0
    row = feature_row(shifted, FS, detrend=True)
    assert row.mean_amplitude == pytest.approx(mean_amplitude(shifted))  # raw amplitude
    assert row.dominant_frequency == 9.9609375
    assert row.mean_frequency == pytest.approx(10.0, abs=1e-6)


def test_feature_row_dataclass_validation():
    with pytest.raises(InputError):
        FeatureRow(1.0, 2.0, 3.0, 4.0, 0.25, bandpowers=(1.0,) * 3)
    with pytest.raises(InputError):
        FeatureRow(5.0, 2.0, 3.0, 4.0, 1.25, bandpowers=(0.0,) * 15)  # mean > max
    with pytest.raises(InputError):
        FeatureRow(1.0, 2.0, 3.0, 0.0, 0.0, bandpowers=(0.0,) * 15)  # dc dominant
    with pytest.raises(InputError):
        FeatureRow(1.0, 2.0, 3.0, 4.0, 0.3, bandpowers=(0.0,) * 15)  # ratio wrong
    with pytest.raises(InputError):
        FeatureRow(1.0, 2.0, 3.0, 4.0, 0.25, bandpowers=(-1.0,) + (0.0,) * 14)
