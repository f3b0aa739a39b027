"""Grid construction, scaled Hermite evaluation, zero finding, eigenbasis."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval
from numpy.testing import assert_allclose

from xft.errors import CapabilityError, InvalidSizeError
from xft.hermite import (
    DENSE_ORACLE_LIMIT,
    asymptotic_grid,
    exact_hermite_zeros,
    orthonormal_basis,
    scaled_hermite_sequence,
)


def scaled_reference(m, t):
    """Independent evaluation of the m-th scaled Hermite function via the
    physicists' polynomial from numpy.polynomial."""
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0
    norm = math.sqrt(2.0**m * math.factorial(m) * math.sqrt(math.pi))
    return hermval(t, coeffs) / norm


class TestAsymptoticGrid:
    def test_single_node_is_zero(self):
        grid = asymptotic_grid(1)
        assert grid.nodes.shape == (1,)
        assert grid.nodes[0] == 0.0
        assert grid.spacing == math.pi / math.sqrt(2.0)

    def test_two_nodes(self):
        grid = asymptotic_grid(2)
        assert_allclose(grid.nodes, [-math.pi / 4.0, math.pi / 4.0], rtol=0, atol=0)

    def test_spacing_formula(self):
        for n in (9, 64, 512):
            grid = asymptotic_grid(n)
            assert grid.spacing == math.pi / math.sqrt(2.0 * n)
            diffs = np.diff(grid.nodes)
            assert_allclose(diffs, grid.spacing, rtol=1e-12)

    def test_nodes_exactly_antisymmetric(self):
        # bitwise, not merely within tolerance
        for n in (7, 8, 129, 1024):
            nodes = asymptotic_grid(n).nodes
            assert np.array_equal(nodes, -nodes[::-1])

    def test_odd_grid_contains_exact_zero(self):
        nodes = asymptotic_grid(257).nodes
        assert nodes[128] == 0.0

    def test_strictly_increasing(self):
        nodes = asymptotic_grid(300).nodes
        assert np.all(np.diff(nodes) > 0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InvalidSizeError):
            asymptotic_grid(0)
        with pytest.raises(InvalidSizeError):
            asymptotic_grid(-3)


class TestScaledHermiteSequence:
    def test_degree_zero_value(self):
        vals = scaled_hermite_sequence(0, 0.7)
        assert vals.shape == (1,)
        assert vals[0] == math.pi ** (-0.25)

    def test_degree_one_at_origin(self):
        vals = scaled_hermite_sequence(3, 0.0)
        assert vals[1] == 0.0
        assert vals[3] == 0.0

    def test_matches_polynomial_reference(self):
        ts = np.array([-2.5, -0.3, 0.0, 0.9, 3.1])
        vals = scaled_hermite_sequence(12, ts)
        for m in range(13):
            assert_allclose(vals[m], scaled_reference(m, ts), rtol=1e-12, atol=1e-14)

    def test_scalar_and_vector_agree(self):
        t = 1.37
        scalar = scaled_hermite_sequence(8, t)
        vector = scaled_hermite_sequence(8, np.array([t]))
        assert_allclose(scalar, vector[:, 0], rtol=0, atol=0)

    def test_no_overflow_on_working_domain(self):
        # the Gaussian envelope keeps every value finite for |t| <= 32 even
        # at degree 4096
        ts = np.array([-32.0, -17.3, 0.0, 17.3, 32.0])
        vals = scaled_hermite_sequence(4096, ts)
        assert np.all(np.isfinite(vals))

    def test_rejects_negative_degree(self):
        with pytest.raises(InvalidSizeError):
            scaled_hermite_sequence(-1, 0.0)


class TestExactHermiteZeros:
    def test_small_closed_forms(self):
        assert_allclose(exact_hermite_zeros(1), [0.0], rtol=0, atol=0)
        assert_allclose(exact_hermite_zeros(2), [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rtol=1e-15)
        assert_allclose(
            exact_hermite_zeros(3),
            [-math.sqrt(1.5), 0.0, math.sqrt(1.5)],
            rtol=1e-15,
            atol=0,
        )

    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_agrees_with_gauss_hermite_oracle(self, n):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            oracle, _ = hermgauss(n)
        ours = exact_hermite_zeros(n)
        assert np.max(np.abs(ours - oracle)) < 5e-13

    def test_zeros_are_newton_fixed_points(self):
        # at a true zero the Newton step h_n / h_n' with h_n' = sqrt(2n) h_{n-1}
        # must be at machine scale
        for n in (10, 65, 200):
            zeros = exact_hermite_zeros(n)
            vals = scaled_hermite_sequence(n, zeros)
            steps = vals[n] / (math.sqrt(2.0 * n) * vals[n - 1])
            assert np.max(np.abs(steps)) < 1e-13

    def test_exactly_antisymmetric_and_sorted(self):
        for n in (5, 6, 31, 128):
            zeros = exact_hermite_zeros(n)
            assert np.array_equal(zeros, -zeros[::-1])
            assert np.all(np.diff(zeros) > 0)
            if n % 2 == 1:
                assert zeros[n // 2] == 0.0

    def test_interlacing(self):
        inner = exact_hermite_zeros(20)
        outer = exact_hermite_zeros(21)
        assert np.all(outer[:-1] < inner)
        assert np.all(inner < outer[1:])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InvalidSizeError):
            exact_hermite_zeros(0)

    def test_high_precision_sign_changes_at_dense_limit(self):
        # independent of the recurrence and of hermgauss: the physicists'
        # H_n at 40 digits changes sign across each float zero
        mpmath = pytest.importorskip("mpmath")
        n = DENSE_ORACLE_LIMIT
        zeros = exact_hermite_zeros(n)
        with mpmath.workdps(40):
            for k in (n // 2, 3 * n // 4, n - 1):
                t = mpmath.mpf(float(zeros[k]))
                delta = 4e-14 * max(1.0, abs(t))
                below = mpmath.hermite(n, t - delta)
                above = mpmath.hermite(n, t + delta)
                assert mpmath.sign(below) * mpmath.sign(above) < 0


class TestOrthonormalBasis:
    def test_two_point_basis(self):
        basis = orthonormal_basis(2)
        r = 1.0 / math.sqrt(2.0)
        assert_allclose(basis.zeros, [-r, r], rtol=1e-15)
        assert_allclose(basis.u, [[r, r], [-r, r]], rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 16, 64, 371, DENSE_ORACLE_LIMIT])
    def test_columns_orthonormal(self, n):
        u = orthonormal_basis(n).u
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12

    def test_first_components_positive(self):
        for n in (33, DENSE_ORACLE_LIMIT):
            basis = orthonormal_basis(n)
            assert np.all(basis.u[0] > 0)

    @pytest.mark.parametrize("n", [8, 64, 371, DENSE_ORACLE_LIMIT])
    def test_columns_are_jacobi_eigenvectors(self, n):
        # the recurrence matrix J with off-diagonal sqrt(m/2) has the same
        # eigenvectors; residual J u_k - t_k u_k must be tiny
        basis = orthonormal_basis(n)
        off = np.sqrt(np.arange(1, n) / 2.0)
        jac = np.diag(off, 1) + np.diag(off, -1)
        residual = jac @ basis.u - basis.u * basis.zeros
        assert np.max(np.abs(residual)) < 1e-10

    def test_component_ratios_match_polynomials(self):
        rng = np.random.default_rng(7)
        basis = orthonormal_basis(48)
        for _ in range(5):
            m = int(rng.integers(1, 20))
            k = int(rng.integers(0, 48))
            t = basis.zeros[k]
            expected = scaled_reference(m, t) / scaled_reference(0, t)
            got = basis.u[m, k] / basis.u[0, k]
            assert abs(got - expected) < 1e-8 * max(1.0, abs(expected))

    def test_dense_size_cap(self):
        with pytest.raises(CapabilityError):
            orthonormal_basis(DENSE_ORACLE_LIMIT + 1)
        with pytest.raises(CapabilityError):
            exact_hermite_zeros(DENSE_ORACLE_LIMIT + 1)


class TestKernelSummationIdentity:
    def test_christoffel_darboux_at_asymptotic_nodes(self):
        # closed form for sum_m h_m(x) h_m(y): distinct nodes of the n-point
        # asymptotic grid stay away from the degenerate x == y case
        n = 16
        nodes = asymptotic_grid(n).nodes
        rng = np.random.default_rng(3)
        for _ in range(3):
            j, k = rng.choice(n, size=2, replace=False)
            x, y = nodes[j], nodes[k]
            hx = scaled_hermite_sequence(n, x)
            hy = scaled_hermite_sequence(n, y)
            direct = float(np.dot(hx[:n], hy[:n]))
            closed = math.sqrt(n / 2.0) * (hx[n] * hy[n - 1] - hx[n - 1] * hy[n]) / (x - y)
            assert abs(direct - closed) < 1e-10 * max(1.0, abs(direct))

    def test_central_zero_spacing_approaches_grid_spacing(self):
        # over the central eighth of the axis the exact zeros drift toward the
        # uniform asymptotic nodes as n grows
        errs = []
        for n in (16, 64, 256):
            zeros = exact_hermite_zeros(n)
            nodes = asymptotic_grid(n).nodes
            lo, hi = (7 * n) // 16, (9 * n) // 16 + 1
            errs.append(np.max(np.abs(zeros[lo:hi] - nodes[lo:hi])))
        assert errs[0] > errs[1] > errs[2]
