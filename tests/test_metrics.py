"""Error norms, off-pulse leakage, and peak-location extraction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xft.errors import ComplexAbscissaeError, InvalidSizeError
from xft.hermite import asymptotic_grid
from xft.metrics import leakage_mean, max_norm_error, peak_frequency
from xft.signals import SignalSpec, sample
from xft.transform import frft_forward, xft_forward


class TestMaxNormError:
    def test_identical_inputs(self):
        x = np.array([1.0 + 2j, -0.5j, 3.0])
        assert max_norm_error(x, x) == {"max_norm": 0.0, "max_norm_real": 0.0, "max_norm_imag": 0.0}

    def test_single_bump(self):
        got = np.array([0.0, 0.5, 0.0], dtype=np.complex128)
        ref = np.zeros(3, dtype=np.complex128)
        report = max_norm_error(got, ref)
        assert report["max_norm"] == 0.5
        assert report["max_norm_real"] == 0.5
        assert report["max_norm_imag"] == 0.0

    def test_component_bounds(self):
        rng = np.random.default_rng(1)
        got = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        ref = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        r = max_norm_error(got, ref)
        assert max(r["max_norm_real"], r["max_norm_imag"]) <= r["max_norm"] + 1e-15
        assert r["max_norm"] <= math.hypot(r["max_norm_real"], r["max_norm_imag"]) + 1e-15

    def test_length_mismatch(self):
        with pytest.raises(InvalidSizeError):
            max_norm_error(np.ones(4), np.ones(5))


class TestLeakageMean:
    def test_pure_two_pulse_has_zero_leakage(self):
        v = np.zeros(64, dtype=np.complex128)
        v[10] = 3.0
        v[53] = 3.0
        assert leakage_mean(v) == 0.0

    def test_uniform_background(self):
        # two pulses of height 5 over a unit background: mean of the rest
        n = 10
        v = np.ones(n, dtype=np.complex128)
        v[2] = 5.0
        v[7] = 5.0
        assert_allclose(leakage_mean(v), (n - 2) / n, rtol=1e-15)

    def test_phase_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        rotated = v * np.exp(0.7j)
        assert_allclose(leakage_mean(rotated), leakage_mean(v), rtol=1e-13)

    def test_scales_linearly(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert_allclose(leakage_mean(2.5 * v), 2.5 * leakage_mean(v), rtol=1e-13)

    def test_requires_three_entries(self):
        with pytest.raises(InvalidSizeError):
            leakage_mean(np.ones(2))


class TestPeakFrequency:
    def test_cosine_peak_location(self):
        n, m = 9, 2
        grid = asymptotic_grid(n)
        result = xft_forward(sample(SignalSpec("harmonic", {"m": m}), grid))
        peak = peak_frequency(result)
        assert isinstance(peak, float)
        # the positive pulse sits at symmetric index m, abscissa 4m/sqrt(2n)
        assert_allclose(peak, 4.0 * m / math.sqrt(2.0 * n), rtol=1e-12)

    def test_peak_tracks_angular_frequency_within_a_bin(self):
        omega0 = 5.156
        for n in (512, 1024):
            g = sample(SignalSpec("harmonic", {"omega0": omega0}), asymptotic_grid(n))
            peak = peak_frequency(xft_forward(g))
            bin_width = 4.0 / math.sqrt(2.0 * n)
            assert abs(peak - omega0) <= bin_width

    def test_single_bin_has_no_positive_abscissa(self):
        # N = 1 puts its only node at t = 0
        with pytest.raises(InvalidSizeError, match="no positive abscissae"):
            peak_frequency(xft_forward(np.ones(1)))

    def test_interior_parameter_has_no_real_axis(self):
        result = frft_forward(np.ones(16), 0.5 * np.exp(0.8j))
        with pytest.raises(ComplexAbscissaeError):
            peak_frequency(result)

    def test_first_of_tied_peaks_wins(self):
        n, m = 16, 2.5
        g = sample(SignalSpec("harmonic", {"m": m}), asymptotic_grid(n))
        result = xft_forward(g)
        # both pulses have equal magnitude; only the positive abscissa counts
        peak = peak_frequency(result)
        assert peak > 0
