"""Transform parameters and the two dense kernel constructions."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xft.errors import (
    AbsentScalingError,
    CapabilityError,
    InvalidSizeError,
    OutOfDomainError,
    SingularParameterError,
)
from xft.hermite import DENSE_ORACLE_LIMIT, asymptotic_grid, orthonormal_basis
from xft.kernel_dense import (
    _EXP_MAX,
    SQRT_2PI,
    apply_kernel,
    asymptotic_kernel,
    exact_kernel,
    make_params,
    outer_exponents,
)


class TestMakeParams:
    def test_boundary_quarter_turn(self):
        p = make_params(1j)
        assert p.mu == 0
        assert_allclose(p.nu, 1j, rtol=0, atol=1e-15)
        assert_allclose(p.a, 4.0 / math.pi, rtol=1e-15)
        assert_allclose(p.prefactor, 1.0, rtol=0, atol=1e-15)

    def test_boundary_angle_one_has_real_scaling(self):
        p = make_params(np.exp(1j))
        assert_allclose(p.a.real, 4.0 * math.sin(1.0) / math.pi, rtol=1e-14)
        assert abs(p.a.imag) < 1e-15

    def test_interior_point_scaling_is_complex(self):
        # purely imaginary z keeps a real; a generic interior point does not
        assert abs(make_params(0.5j).a.imag) < 1e-15
        assert abs(make_params(0.5 * np.exp(0.8j)).a.imag) > 1e-3

    def test_origin_has_no_scaling(self):
        # the message names the measured |z| and the threshold, also for a
        # z that is not exactly 0
        for z, shown in ((0.0, "0.0e+00"), (1e-7j, "1.0e-07")):
            p = make_params(z)
            assert p.a is None
            with pytest.raises(AbsentScalingError, match=re.escape(f"|z| = {shown} below 1e-06")):
                p.require_a()

    def test_prefactor_principal_branch(self):
        # sqrt(2/(1-z^2)) with positive real part on the right half plane
        p = make_params(0.3 + 0.4j)
        expected = np.sqrt(2.0 / (1.0 - (0.3 + 0.4j) ** 2))
        assert_allclose(p.prefactor, expected, rtol=1e-15)
        assert p.prefactor.real > 0

    def test_rejects_singular_points(self):
        with pytest.raises(SingularParameterError):
            make_params(1.0)
        with pytest.raises(SingularParameterError):
            make_params(-1.0)
        with pytest.raises(SingularParameterError):
            make_params(1.0 + 1e-9j)

    def test_rejects_outside_disk(self):
        with pytest.raises(OutOfDomainError):
            make_params(1.1j)
        with pytest.raises(OutOfDomainError):
            make_params(-1.02)

    @pytest.mark.parametrize("z", [complex("nan"), complex(0, float("inf")), complex("nan+1j")])
    def test_rejects_non_finite(self, z):
        with pytest.raises(OutOfDomainError, match="not a finite number"):
            make_params(z)


class TestExactKernel:
    def test_non_integral_size_is_refused(self):
        with pytest.raises(InvalidSizeError, match="must be an integer"):
            exact_kernel(3.0, 1j)

    def test_identity_at_z_one(self):
        for n in (8, DENSE_ORACLE_LIMIT):
            k = exact_kernel(n, 1.0)
            assert_allclose(k, SQRT_2PI * np.eye(n), rtol=0, atol=1e-12)

    def test_rank_one_at_origin(self):
        n = 6
        k = exact_kernel(n, 0.0)
        u0 = orthonormal_basis(n).u[0]
        assert_allclose(k, SQRT_2PI * np.outer(u0, u0), rtol=0, atol=1e-13)

    def test_symmetric_bitwise(self):
        k = exact_kernel(32, 0.7 * np.exp(0.5j))
        assert np.array_equal(k, k.T)

    def test_parity_at_z_minus_one(self):
        # z = -1 flips the argument of even/odd eigenfunctions; on the
        # symmetric zero set this reverses the coordinate order
        n = 16
        k = exact_kernel(n, -1.0)
        rng = np.random.default_rng(2)
        g = rng.standard_normal(n)
        out = apply_kernel(k, g)
        assert_allclose(out, SQRT_2PI * g[::-1], rtol=0, atol=1e-10)

    def test_semigroup_product(self):
        z1, z2 = np.exp(1j / 3.0), np.exp(1j / 4.0)
        for n in (24, DENSE_ORACLE_LIMIT):
            lhs = exact_kernel(n, z1) @ exact_kernel(n, z2)
            rhs = SQRT_2PI * exact_kernel(n, z1 * z2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_fourth_power_at_boundary(self):
        for n in (16, DENSE_ORACLE_LIMIT):
            k = exact_kernel(n, 1j)
            fourth = np.linalg.matrix_power(k, 4)
            assert np.max(np.abs(fourth - (2.0 * math.pi) ** 2 * np.eye(n))) < 1e-8

    def test_gaussian_is_near_eigenfunction(self):
        # e^{-t^2/2} transforms to itself up to the total-mass factor; the
        # quadrature error at n = 16 is about 2e-2 and shrinks with n
        errs = []
        for n in (16, 64):
            k = exact_kernel(n, 1j)
            t = orthonormal_basis(n).zeros
            g = np.exp(-t * t / 2.0)
            err = np.max(np.abs(apply_kernel(k, g) - SQRT_2PI * g))
            errs.append(err)
        assert errs[0] < 0.1
        assert errs[1] < errs[0]

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            exact_kernel(513, 1j)

    def test_rejects_outside_disk(self):
        with pytest.raises(OutOfDomainError):
            exact_kernel(8, 1.5)

    def test_rejects_non_finite(self):
        with pytest.raises(OutOfDomainError, match="not a finite number"):
            exact_kernel(8, complex("nan"))


class TestAsymptoticKernel:
    def test_non_integral_size_is_refused(self):
        with pytest.raises(InvalidSizeError, match="must be an integer"):
            asymptotic_kernel(4.5, 0.5j)

    def test_boundary_quarter_turn_entries(self):
        # mu = 0, nu = i, prefactor = 1: entries reduce to e^{i t_j t_k} dt
        n = 32
        grid = asymptotic_grid(n)
        k = asymptotic_kernel(n, 1j)
        t = grid.nodes
        expected = np.exp(1j * np.outer(t, t)) * grid.spacing
        assert_allclose(k, expected, rtol=0, atol=1e-12)

    def test_origin_entries(self):
        n = 4
        grid = asymptotic_grid(n)
        k = asymptotic_kernel(n, 0.0)
        t = grid.nodes
        expected = math.sqrt(2.0) * np.exp(-0.5 * np.add.outer(t * t, t * t)) * grid.spacing
        assert_allclose(k, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n,z", [
        (48, 1j),
        (48, 0.6 * np.exp(0.9j)),
        # damped z where the cross factor alone would overflow
        (1024, 0.5),
        (1024, 0.5 * np.exp(0.1j)),
        (1024, 0.9 * np.exp(0.3j)),
    ])
    def test_symmetric_bitwise(self, n, z):
        k = asymptotic_kernel(n, z)
        assert np.isfinite(k).all()
        assert np.array_equal(k, k.T)

    def test_agrees_with_exact_kernel_increasingly_well(self):
        # both quadratures converge to the same operator; compare applied to
        # a Gaussian sampled on each kernel's own nodes
        for z in (1j, np.exp(0.5j), 0.5j):
            errs = []
            for n in (64, 128, 256):
                exact = exact_kernel(n, z)
                asym = asymptotic_kernel(n, z)
                t_exact = orthonormal_basis(n).zeros
                t_asym = asymptotic_grid(n).nodes
                out_exact = apply_kernel(exact, np.exp(-t_exact * t_exact / 2.0))
                out_asym = apply_kernel(asym, np.exp(-t_asym * t_asym / 2.0))
                errs.append(np.max(np.abs(out_exact - out_asym)))
            assert errs[2] < errs[0], f"no improvement for z={z}: {errs}"

    def test_size_cap_before_allocation(self):
        # a 1025 x 1025 complex kernel would take 16.8 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError):
                asymptotic_kernel(1025, 0.5j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@settings(deadline=None)
@given(st.integers(1, 256), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
def test_mehler_entries_bounded_by_prefactor(n, mod, arg):
    # Re of the one exponent is <= 0 on the whole disk at output scale 1.  On
    # |z| = 1 it is 0, so its rounding shows: mu and nu carry a relative error
    # of about eps / |1 - z^2| and reach 1 / |1 - z^2|, times t^2 <= t_max^2.
    z = mod * complex(math.cos(arg), math.sin(arg))
    assume(abs(1.0 - z * z) > 1e-3)
    k = asymptotic_kernel(n, z)
    grid = asymptotic_grid(n)
    slack = 16 * np.finfo(float).eps * grid.nodes[-1] ** 2 / abs(1.0 - z * z) ** 2
    bound = abs(make_params(z).prefactor) * grid.spacing * math.exp(slack)
    assert np.abs(k).max() <= (1.0 + 1e-12) * bound


def _exponents(n, z):
    params = make_params(z)
    return outer_exponents(n, params, params.require_a(), asymptotic_grid(n).nodes)


class TestOuterExponents:
    @pytest.mark.parametrize("n", [341, 1000, 1001])
    @pytest.mark.parametrize("z", [0.5j, 0.9j, -0.7j, 0.75, -0.6, np.exp(0.7j), 0.9 * np.exp(1.2j)])
    def test_rows_are_even_in_bytes(self, n, z):
        # on an axis the exponents' imaginary or real parts are zeros, whose signs must not
        # follow the node's: the plan's half-grid exp takes entry n-1-j from entry j
        e = _exponents(n, z)
        assert np.array_equal(e.view(np.uint64), e[:, ::-1].copy().view(np.uint64))

    @pytest.mark.parametrize("n", [341, 1000, 1001])
    @pytest.mark.parametrize("z", [0.5j, 0.9j, -0.7j, 0.75, -0.6, np.exp(0.7j), 0.9 * np.exp(1.2j)])
    def test_leading_nodes_fill_the_leading_columns(self, n, z):
        # the plan's call: on the first ceil(n/2) nodes the array is still (2, n), and its
        # first ceil(n/2) columns are those of the call on all n nodes, in bytes
        h, params = (n + 1) // 2, make_params(z)
        e = outer_exponents(n, params, params.require_a(), asymptotic_grid(n).nodes[:h])
        assert e.shape == (2, n)
        assert np.array_equal(e[:, :h].view(np.uint64), _exponents(n, z)[:, :h].view(np.uint64))

    @pytest.mark.parametrize("z,largest", [(0.9 * np.exp(0.3j), 8104), (0.5 * np.exp(0.1j), 774),
                                           (0.7 * np.exp(2.9j), 2069), (0.75, 2338), (-0.6, 1176)])
    def test_refusal_edge_is_the_peak_of_the_exponent(self, z, largest):
        # the scalar check and the array agree: at the largest accepted N the left real part
        # peaks at node 0 within the bound, and one point more is refused
        lo, hi = 1, 2**16  # accepted, refused
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _exponents(mid, z)
                lo = mid
            except CapabilityError:
                hi = mid
        assert lo == largest
        left = _exponents(lo, z)[0].real
        assert left.max() == left[0] <= _EXP_MAX
        with pytest.raises(CapabilityError, match=f"N = {lo + 1},"):
            _exponents(lo + 1, z)


class TestApplyKernel:
    def test_size_mismatch(self):
        k = exact_kernel(8, 1j)
        with pytest.raises(InvalidSizeError):
            apply_kernel(k, np.ones(9))

    def test_matches_matmul(self):
        rng = np.random.default_rng(9)
        k = asymptotic_kernel(16, 1j)
        g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(apply_kernel(k, g), k @ g, rtol=0, atol=0)
