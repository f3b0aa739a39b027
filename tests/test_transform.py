"""Fast chirp-FFT-chirp transforms against dense matrix references."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xft import transform
from xft.dft_engine import dft_forward, dft_inverse
from xft.errors import (
    AbsentScalingError,
    CapabilityError,
    InvalidSizeError,
    NonFiniteSignalError,
    OutOfDomainError,
    SingularParameterError,
    XftError,
)
from xft.hermite import asymptotic_grid
from xft.kernel_dense import make_params, outer_exponents
from xft.signals import SignalSpec, reference_transform, sample
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
        assert_allclose(result.params.a, 4.0 / math.pi, rtol=1e-15)
        assert_allclose(result.abscissae, result.params.a * grid.nodes, rtol=0, atol=0)
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

    @pytest.mark.parametrize("n", [2**19, 100003])
    def test_impulse_matches_high_precision_entries(self, n):
        # the entry phase reaches about pi n / 2, so a chirp phase rounded
        # before its reduction mod 2 pi is off by about n ulps here
        mpmath = pytest.importorskip("mpmath")
        k = n // 3
        delta = np.zeros(n)
        delta[k] = 1.0
        out = xft_forward(delta).values
        scale = math.pi / math.sqrt(2.0 * n)
        with mpmath.workdps(40):
            half = mpmath.mpf(n - 1) / 2
            for j in (0, 1, n // 7, n // 2, n - 2, n - 1):
                ref = scale * complex(mpmath.expjpi(2 * (j - half) * (k - half) / n))
                assert abs(out[j] - ref) < 1e-13 * scale, f"j={j}: {abs(out[j] - ref) / scale:.2e}"

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

    def test_repeat_call_uses_cached_chirps(self):
        g = random_signal(32, 8)
        first = frft_forward(g, np.exp(0.7j)).values
        second = frft_forward(g, np.exp(0.7j)).values
        assert np.array_equal(first, second)

    def test_chirp_cache_is_bounded(self):
        for k in range(2 * transform._CHIRP_CACHE_SIZE):
            frft_forward(np.ones(16), np.exp(1j * (0.1 + 0.01 * k)))
        assert transform._plan.cache_info().currsize == transform._CHIRP_CACHE_SIZE

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

    def test_dense_check_refuses_damped_overflow(self):
        # the dense Mehler kernel forms the same outer exponents as the fast
        # path's chirps; its cross factor e^{(4i/pi) t_j t_k} is unimodular
        with pytest.raises(CapabilityError, match="N = 1024.*exponent real part"):
            frft_dense_check(np.ones(1024), 0.5 * np.exp(0.1j))

    def test_damped_chirp_overflow_is_refused(self):
        # arg z = 0.1 lies outside the sector where both chirps decay; at
        # N = 1024 the exponent's real part passes log(float64 max)
        g = np.exp(-asymptotic_grid(1024).nodes ** 2 / 2.0)
        with pytest.raises(CapabilityError, match="N = 1024.*exponent real part"):
            frft_forward(g, 0.5 * np.exp(0.1j))


def _plan_of(n, z):
    z = complex(z)
    return transform._plan(n, z.real.hex(), z.imag.hex())


class TestCore:
    """The one-pass core against the chirp * DFT * chirp product it evaluates."""

    @pytest.mark.parametrize("n", [1, 2, 1009, 4096, 2**16])
    @pytest.mark.parametrize("z", [1j, np.exp(0.7j), 0.9 * np.exp(1.2j)])
    def test_forward_bitwise_equals_product(self, n, z):
        g = random_signal(n, n)
        _, front, back = _plan_of(n, z)
        # in place like the core: numpy multiplies one element in place by a
        # scalar loop and out of place by a fused one, which round differently
        expected = dft_forward(back * g)
        expected *= front
        assert np.array_equal(frft_forward(g, z).values, expected)

    @pytest.mark.parametrize("n", [1, 2, 1009, 4096, 2**16])
    def test_inverse_bitwise_equals_product(self, n):
        G = random_signal(n, n + 1)
        _, front, back = _plan_of(n, 1j)
        expected = dft_inverse(G / front) / back
        assert np.array_equal(xft_inverse(G), expected)

    @pytest.mark.parametrize("n", [64, 2**16])
    def test_input_is_left_alone(self, n):
        g = random_signal(n, 5)
        copy = g.copy()
        result = frft_forward(g, np.exp(0.7j))
        assert np.array_equal(g, copy)
        assert not np.shares_memory(result.values, g)
        back = xft_inverse(g)
        assert np.array_equal(g, copy)
        assert not np.shares_memory(back, g)

    @pytest.mark.parametrize("bad,error", [
        (np.array([1.0, np.nan, 2.0]), NonFiniteSignalError),
        (np.array([np.inf, 1.0, 2.0]), NonFiniteSignalError),
        (np.array([1.0, complex(0.0, -np.inf), 2.0]), NonFiniteSignalError),
        (np.array([]), InvalidSizeError),
        (np.ones((2, 2)), InvalidSizeError),
    ])
    def test_bad_input_errors(self, bad, error):
        with pytest.raises(error):
            frft_forward(bad, np.exp(0.7j))
        with pytest.raises(error):
            xft_inverse(bad)

    def test_abscissae_computed_once(self):
        result = frft_forward(np.ones(16), 0.8 * np.exp(1.0j))
        assert result.abscissae is result.abscissae
        assert np.array_equal(result.abscissae, result.params.a * asymptotic_grid(16).nodes)


def _full_grid_plan(n, z):
    """The two exponents and the plan's (front, back) with an exp of every entry."""
    params = make_params(z)
    fe, be = outer_exponents(params, params.require_a(), asymptotic_grid(n).nodes)
    s = transform._base_chirp(n)
    c = math.pi * np.exp(1j * math.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)
    return fe, be, (params.prefactor * c) * (np.exp(fe) * s), np.exp(be) * s


_PLAN_ZS = [1j, -1j, np.exp(0.7j), np.exp(2.9j), np.exp(0.05j), 0.9 * np.exp(1.2j),
            0.5 * np.exp(1.5j), 0.99 * np.exp(0.9j), 0.7 * np.exp(2.0j), 1e-3 * np.exp(1.0j)]


class TestPlan:
    """_plan takes one exp per mirrored pair of entries; its diagonals stay
    bitwise those of an exp over the whole grid."""

    @pytest.mark.parametrize("n", [*range(1, 40), 997, 1000, 1009, 1832, 2999, 4096, 16383,
                                   16384, 65536, 100003, 2**18])
    def test_bitwise_equals_full_grid_exp(self, n):
        for z in _PLAN_ZS:
            fe, be, front, back = _full_grid_plan(n, z)
            # the invariant the half-grid exp rests on
            assert np.array_equal(fe, fe[::-1]) and np.array_equal(be, be[::-1]), z
            _, got_front, got_back = _plan_of(n, z)
            assert np.array_equal(got_front, front), z
            assert np.array_equal(got_back, back), z


# wall time per example varies with machine load; a slow example is no failure
@settings(deadline=None)
@given(st.integers(1, 4096), st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_max=True)),
       st.floats(-math.pi, math.pi))
def test_plan_bitwise_equals_full_grid_exp(n, mod, arg):
    z = mod * np.exp(1j * arg)
    try:
        _, _, front, back = _full_grid_plan(n, z)
    except XftError:  # z near +-1, or a damped chirp that overflows: refused
        assume(False)
    _, got_front, got_back = _plan_of(n, z)
    assert np.array_equal(got_front, front)
    assert np.array_equal(got_back, back)


@settings(deadline=None)
@given(st.integers(1, 4096), st.integers(0, 2**32 - 1))
def test_roundtrip_at_every_size(n, seed):
    g = random_signal(n, seed)
    back = xft_inverse(xft_forward(g).values)
    assert np.max(np.abs(back - g)) < 1e-10 * np.max(np.abs(g))


@settings(deadline=None)
@given(st.integers(1, 4096), st.integers(0, 2**32 - 1), st.floats(0.05, math.pi - 0.05))
def test_unit_circle_norm_identity(n, seed, phi):
    # on |z| = 1 both chirps are unimodular, |c| = pi / sqrt(2N) and D_F is
    # sqrt(N) times a unitary matrix
    g = random_signal(n, seed)
    result = frft_forward(g, np.exp(1j * phi))
    expected = abs(result.params.prefactor) * math.pi / math.sqrt(2.0) * np.linalg.norm(g)
    assert abs(np.linalg.norm(result.values) - expected) < 1e-9 * expected


# inside this sector of arg z both damped chirp exponents decay, so the fast
# path is finite at every N
_DECAYING_ARG = (math.pi / 4 + 0.15, 3 * math.pi / 4 - 0.15)


@settings(deadline=None)
@given(st.floats(0.5, 1.0, exclude_max=True), st.floats(*_DECAYING_ARG), st.integers(80, 4096),
       st.floats(-2.0, 2.0))
def test_damped_gauss_beta_matches_whole_disk_closed_form(mod, arg, n, beta):
    # below N = 80 quadrature truncation, not the transform, sets the error:
    # at N = 64, |z| -> 1 and |beta| = 2 it is 2.8e-12 of max|ref| while the
    # fast path still agrees with frft_dense_check to 1.3e-15
    spec = SignalSpec("gauss_beta", {"beta": beta})
    z = mod * np.exp(1j * arg)
    result = frft_forward(sample(spec, asymptotic_grid(n)), z)
    ref = reference_transform(spec, z, result.abscissae)
    assert np.max(np.abs(result.values - ref)) < 1e-12 * np.max(np.abs(ref))


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


def hermite_functions(k_max, w):
    """psi_0(w)..psi_{k_max}(w), the normalized Hermite functions, by the
    three-term recurrence seeded with psi_0 = pi^{-1/4} e^{-w^2/2}.

    The seed underflows to 0 past |w| of about 38.6, which the nodes of
    N = 4096 reach, so the oracle stops at N = 1009 (|w| <= 35.2).
    """
    psi = np.empty((k_max + 1,) + np.shape(w), dtype=np.result_type(w, float))
    psi[0] = math.pi ** -0.25 * np.exp(-w * w / 2.0)
    if k_max >= 1:
        psi[1] = math.sqrt(2.0) * w * psi[0]
    for k in range(1, k_max):
        psi[k + 1] = math.sqrt(2.0 / (k + 1)) * w * psi[k] - math.sqrt(k / (k + 1.0)) * psi[k - 1]
    return psi


@pytest.mark.parametrize("n", [256, 512, 1000, 1009])
@pytest.mark.parametrize("phi", [1.0, math.pi / 2, 2.3])
def test_hermite_functions_are_eigenfunctions(n, phi):
    # F_z psi_k = sqrt(2 pi) z^k psi_k holds for the continuous transform, so the
    # samples at the abscissae a t_j check every k without a closed form per
    # signal; the worst case on this sector is 2.8e-13 (N = 1000, phi = 2.3)
    z = np.exp(1j * phi)
    k_max = int(0.3 * n)
    psi = hermite_functions(k_max, asymptotic_grid(n).nodes)
    images = hermite_functions(k_max, frft_forward(psi[0], z).abscissae)
    for k in range(k_max + 1):
        want = math.sqrt(2.0 * math.pi) * z ** k * images[k]
        err = np.max(np.abs(frft_forward(psi[k], z).values - want))
        assert err < 1e-11 * np.max(np.abs(want)), f"k = {k}"
