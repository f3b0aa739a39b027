"""Fast chirp-FFT-chirp transforms against dense matrix references."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xft import transform
from xft.errors import (
    AbsentScalingError,
    CapabilityError,
    InvalidSizeError,
    OutOfDomainError,
    SingularParameterError,
)
from xft.hermite import asymptotic_grid
from xft.kernel_dense import make_params
from xft.transform import (
    frft_dense_check,
    frft_forward,
    xft_forward,
    xft_inverse,
)


def dense_boundary_matrix(n):
    """Entrywise definition of the discrete operator at the quarter turn:
    (pi / sqrt(2n)) e^{2 pi i (j - (n-1)/2)(k - (n-1)/2) / n}."""
    k_sym = np.arange(n) - (n - 1) / 2.0
    phase = np.outer(k_sym, k_sym)
    return (math.pi / math.sqrt(2.0 * n)) * np.exp(2j * math.pi * phase / n)


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBoundaryTransform:
    @pytest.mark.parametrize("n", [32, 64])
    def test_factorization_matches_dense_matrix(self, n):
        dense = dense_boundary_matrix(n)
        columns = np.empty((n, n), dtype=np.complex128)
        eye = np.eye(n)
        for k in range(n):
            columns[:, k] = xft_forward(eye[:, k]).values
        assert np.max(np.abs(columns - dense)) < 1e-12

    def test_gaussian_maps_to_gaussian(self):
        n = 512
        result = xft_forward(np.exp(-asymptotic_grid(n).nodes ** 2 / 2.0))
        w = result.abscissae.real
        expected = math.sqrt(2.0 * math.pi) * np.exp(-w * w / 2.0)
        assert np.max(np.abs(result.values - expected)) < 1e-8

    def test_abscissae_scaling(self):
        n = 64
        result = xft_forward(np.ones(n))
        grid = asymptotic_grid(n)
        assert_allclose(result.scale_a, 4.0 / math.pi, rtol=1e-15)
        assert_allclose(result.abscissae, result.scale_a * grid.nodes, rtol=0, atol=0)
        assert np.max(np.abs(np.asarray(result.abscissae).imag)) < 1e-12

    def test_cosine_becomes_two_pulses(self):
        n, m = 9, 2
        k_sym = np.arange(n) - (n - 1) / 2.0
        g = np.cos(2.0 * math.pi * m * k_sym / n)
        out = xft_forward(g).values
        height = math.pi * n / (2.0 * math.sqrt(2.0 * n))
        hits = np.where(np.abs(k_sym) == m)[0]
        assert hits.size == 2
        assert np.max(np.abs(out[hits] - height)) < 1e-9 * height
        rest = np.delete(out, hits)
        assert np.max(np.abs(rest)) < 1e-9 * height

    def test_lorentzian_converges_to_exponential(self):
        errs = []
        for n in (256, 1024, 4096):
            t = asymptotic_grid(n).nodes
            result = xft_forward(1.0 / (1.0 + t * t))
            w = result.abscissae.real
            errs.append(np.max(np.abs(result.values - math.pi * np.exp(-np.abs(w)))))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < 1e-2

    def test_rejects_empty(self):
        with pytest.raises(InvalidSizeError):
            xft_forward(np.array([]))


class TestInverse:
    @pytest.mark.parametrize("n", [9, 64, 256, 300, 1009])
    def test_roundtrip(self, n):
        g = random_signal(n, n)
        back = xft_inverse(xft_forward(g).values)
        assert np.max(np.abs(back - g)) < 1e-10 * np.max(np.abs(g))

    def test_dense_product_is_identity(self):
        n = 32
        forward = dense_boundary_matrix(n)
        eye = np.eye(n)
        inverse = np.empty((n, n), dtype=np.complex128)
        for k in range(n):
            inverse[:, k] = xft_inverse(eye[:, k])
        assert np.max(np.abs(inverse @ forward - eye)) < 1e-12

    def test_two_pulses_invert_to_cosine(self):
        n, m = 17, 3
        k_sym = np.arange(n) - (n - 1) / 2.0
        height = math.pi * n / (2.0 * math.sqrt(2.0 * n))
        spectrum = np.where(np.abs(k_sym) == m, height, 0.0)
        back = xft_inverse(spectrum)
        assert_allclose(back, np.cos(2.0 * math.pi * m * k_sym / n), rtol=0, atol=1e-12)


class TestFractional:
    def test_quarter_turn_collapses_to_boundary_path(self):
        g = random_signal(128, 42)
        fast = xft_forward(g)
        frac = frft_forward(g, 1j)
        scale = np.max(np.abs(fast.values))
        assert np.max(np.abs(frac.values - fast.values)) <= 1e-14 * scale
        assert np.array_equal(np.asarray(frac.abscissae), np.asarray(fast.abscissae))

    @pytest.mark.parametrize("z", [1j, np.exp(0.5j), 0.7 * np.exp(0.5j)])
    def test_matches_dense_kernel_application(self, z):
        for n in (128, 1021):
            g = random_signal(n, 3)
            fast = frft_forward(g, z).values
            dense = frft_dense_check(g, z)
            rel = np.max(np.abs(fast - dense)) / np.max(np.abs(dense))
            assert rel < 1e-9, f"n={n}: {rel:.2e}"

    def test_delta_extracts_kernel_column(self):
        n, col = 64, 20
        z = np.exp(0.3j)
        delta = np.zeros(n)
        delta[col] = 1.0
        fast = frft_forward(delta, z).values
        dense = frft_dense_check(delta, z)
        assert np.max(np.abs(fast - dense)) < 1e-11 * np.max(np.abs(dense))

    def test_linearity(self):
        z = 0.8 * np.exp(0.9j)
        x, y = random_signal(64, 1), random_signal(64, 2)
        a, b = 0.3 - 1.1j, 2.0 + 0.5j
        lhs = frft_forward(a * x + b * y, z).values
        rhs = a * frft_forward(x, z).values + b * frft_forward(y, z).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_interior_abscissae_are_complex(self):
        result = frft_forward(np.ones(16), 0.5 * np.exp(0.8j))
        assert np.max(np.abs(np.asarray(result.abscissae).imag)) > 1e-3

    def test_params_attached(self):
        result = frft_forward(np.ones(8), np.exp(0.25j))
        assert result.params.z == np.exp(0.25j)
        assert result.scale_a == result.params.a

    def test_repeat_call_uses_cached_chirps(self):
        g = random_signal(32, 8)
        first = frft_forward(g, np.exp(0.7j)).values
        second = frft_forward(g, np.exp(0.7j)).values
        assert np.array_equal(first, second)

    def test_chirp_cache_is_bounded(self):
        for k in range(2 * transform._CHIRP_CACHE_SIZE):
            frft_forward(np.ones(16), np.exp(1j * (0.1 + 0.01 * k)))
        assert transform._frft_chirps.cache_info().currsize == transform._CHIRP_CACHE_SIZE

    def test_origin_has_no_transform(self):
        with pytest.raises(AbsentScalingError):
            frft_forward(np.ones(8), 0.0)

    def test_non_finite_parameter(self):
        with pytest.raises(OutOfDomainError, match="not a finite number"):
            frft_forward(np.ones(8), complex("nan"))

    def test_singular_parameter(self):
        with pytest.raises(SingularParameterError):
            frft_forward(np.ones(8), 1.0)

    def test_dense_check_size_cap(self):
        with pytest.raises(CapabilityError):
            frft_dense_check(np.ones(1025), 1j)


class TestHalfIntegerPulses:
    @pytest.mark.parametrize("n,m", [(8, 1.5), (256, 3.5)])
    def test_even_grids_admit_half_integer_frequencies(self, n, m):
        # on even grids the symmetric index takes half-integer values, so the
        # exact two-pulse identity holds for half-integer m as well
        k_sym = np.arange(n) - (n - 1) / 2.0
        g = np.cos(2.0 * math.pi * m * k_sym / n)
        out = xft_forward(g).values
        height = math.pi * n / (2.0 * math.sqrt(2.0 * n))
        hits = np.where(np.abs(k_sym) == m)[0]
        assert hits.size == 2
        assert np.max(np.abs(out[hits] - height)) < 1e-9 * height
        assert np.max(np.abs(np.delete(out, hits))) < 1e-9 * height
