"""Positive-exponent DFT against a direct-summation oracle, inverse
consistency, and input validation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xft.dft_engine import as_complex_signal, dft_forward, dft_inverse
from xft.errors import InvalidSizeError, NonFiniteSignalError


def naive_forward(x):
    """O(n^2) direct summation with the positive exponent convention."""
    n = x.size
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (np.exp(2j * np.pi * j * k / n) @ x).astype(np.complex128)


class TestValidation:
    def test_accepts_real_input(self):
        out = as_complex_signal([1.0, 2.0, 3.0])
        assert out.dtype == np.complex128
        assert out.shape == (3,)

    def test_rejects_empty(self):
        with pytest.raises(InvalidSizeError):
            as_complex_signal(np.array([]))

    def test_rejects_matrix(self):
        with pytest.raises(InvalidSizeError):
            as_complex_signal(np.zeros((2, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteSignalError):
            as_complex_signal([1.0, np.nan])
        with pytest.raises(NonFiniteSignalError):
            as_complex_signal([np.inf, 0.0])
        with pytest.raises(NonFiniteSignalError):
            as_complex_signal([1.0 + 1j * np.inf, 0.0])


class TestForward:
    def test_impulse_becomes_constant(self):
        x = np.zeros(8, dtype=np.complex128)
        x[0] = 1.0
        assert_allclose(dft_forward(x), np.ones(8), rtol=0, atol=1e-15)

    def test_constant_becomes_scaled_impulse(self):
        n = 16
        out = dft_forward(np.ones(n, dtype=np.complex128))
        expected = np.zeros(n, dtype=np.complex128)
        expected[0] = n
        assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_single_point_identity(self):
        x = np.array([2.5 - 1j])
        assert_allclose(dft_forward(x), x, rtol=0, atol=0)

    def test_exponent_sign_is_positive(self):
        # one period of e^{-2 pi i k / n} must land in bin 1 under the
        # positive-exponent convention: sum_k e^{+2 pi i jk/n} e^{-2 pi i k/n} = n delta_{j,1}
        n = 8
        x = np.exp(-2j * np.pi * np.arange(n) / n)
        out = dft_forward(x)
        assert abs(out[1] - n) < 1e-12
        assert np.max(np.abs(np.delete(out, 1))) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_pow2_path_matches_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(dft_forward(x), naive_forward(x), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 48, 100, 997, 1000, 1009])
    def test_general_sizes_match_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(dft_forward(x), naive_forward(x), rtol=1e-10, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        a, b = 1.7 - 0.3j, -0.9 + 2.1j
        lhs = dft_forward(a * x + b * y)
        rhs = a * dft_forward(x) + b * dft_forward(y)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        lhs = np.sum(np.abs(dft_forward(x)) ** 2)
        rhs = 512 * np.sum(np.abs(x) ** 2)
        assert_allclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 100, 2**16])
    def test_out_buffer(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = v.copy()
        assert dft_forward(y, out=y) is y
        assert np.array_equal(y, dft_forward(v))
        out = np.empty_like(v)
        dft_forward(v.copy(), out=out)
        assert np.array_equal(out, dft_forward(v))

    def test_does_not_mutate_input(self):
        x = np.arange(8, dtype=np.complex128)
        copy = x.copy()
        dft_forward(x)
        assert np.array_equal(x, copy)


class TestInverse:
    @pytest.mark.parametrize("n", [1, 7, 64, 100, 256, 997, 1000, 1009])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = dft_inverse(dft_forward(x))
        assert_allclose(back, x, rtol=0, atol=1e-10)

    def test_inverse_of_constant(self):
        n = 32
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[0] = n
        assert_allclose(dft_inverse(spectrum), np.ones(n), rtol=0, atol=1e-13)

    def test_rejects_empty(self):
        with pytest.raises(InvalidSizeError):
            dft_inverse(np.array([], dtype=np.complex128))
