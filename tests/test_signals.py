"""Closed-form test corpus: sampling, reference transforms, the kernel's scale."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xft.errors import CapabilityError, NoClosedFormError, NonFiniteSignalError, SignalSpecError
from xft.hermite import Grid, asymptotic_grid
from xft.signals import (
    CORPUS_NAMES,
    PARAM_NAMES,
    SignalSpec,
    reference_transform,
    resolve_convention,
    sample,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# the parameters a family needs before it samples
REQUIRED = {"harmonic": {"m": 1.0}, "gauss_beta": {"beta": 1.0}}


def fractional_quadrature(g_of_t, phi, w, span=24.0, points=400001):
    """Independent trapezoid quadrature of the fractional integral with kernel
    sqrt(1 + i cot(phi)) / sqrt(2 pi) * e^{-i (t^2+w^2) cot(phi)/2 + i t w csc(phi)},
    scaled by sqrt(2 pi); reduces to the plain e^{i w t} integral at phi = pi/2."""
    t = np.linspace(-span, span, points)
    cot, csc = 1.0 / math.tan(phi), 1.0 / math.sin(phi)
    pref = np.sqrt(np.complex128(1.0 + 1j * cot))
    kern = np.exp(-1j * ((t * t + w * w) / 2.0) * cot + 1j * t * w * csc)
    return pref * np.trapezoid(kern * g_of_t(t), t)


class TestSample:
    def test_constant(self):
        g = sample(SignalSpec("constant_one"), asymptotic_grid(5))
        assert_allclose(g, np.ones(5), rtol=0, atol=0)

    def test_chirp_center_value(self):
        g = sample(SignalSpec("chirp_cos"), asymptotic_grid(9))
        assert g[4] == 1.0  # cos(0^2)

    def test_chirp_formula(self):
        grid = asymptotic_grid(16)
        g = sample(SignalSpec("chirp_cos"), grid)
        assert_allclose(g.real, np.cos(grid.nodes**2), rtol=0, atol=0)
        assert np.all(g.imag == 0)

    def test_harmonic_matches_cosine(self):
        n, m = 9, 2
        grid = asymptotic_grid(n)
        g = sample(SignalSpec("harmonic", {"m": m}), grid)
        k_sym = np.arange(n) - (n - 1) / 2.0
        assert_allclose(g.real, np.cos(2.0 * math.pi * m * k_sym / n), rtol=0, atol=1e-15)

    def test_harmonic_angular_frequency_alias(self):
        # omega0 and m parameterize the same cosine: m = omega0 sqrt(2n) / 4
        n, omega0 = 64, 5.156
        grid = asymptotic_grid(n)
        via_omega = sample(SignalSpec("harmonic", {"omega0": omega0}), grid)
        via_m = sample(SignalSpec("harmonic", {"m": omega0 * math.sqrt(2.0 * n) / 4.0}), grid)
        assert np.array_equal(via_omega, via_m)

    def test_gauss_beta_zero_drift_is_gaussian(self):
        grid = asymptotic_grid(32)
        g = sample(SignalSpec("gauss_beta", {"beta": 0.0}), grid)
        assert_allclose(g.real, np.exp(-grid.nodes**2 / 2.0), rtol=0, atol=0)

    def test_rect_interior_and_exterior(self):
        grid = asymptotic_grid(64)
        g = sample(SignalSpec("rect"), grid).real
        inside = np.abs(grid.nodes) < 0.5
        assert np.all(g[inside] == 1.0)
        assert np.all(g[~inside] == 0.0)

    def test_rect_boundary_value(self):
        # a grid whose nodes hit the jump exactly must get the midpoint value
        grid = Grid(n=3, nodes=np.array([-0.5, 0.0, 0.5]), spacing=0.5)
        g = sample(SignalSpec("rect"), grid).real
        assert_allclose(g, [0.5, 1.0, 0.5], rtol=0, atol=0)

    def test_cauchy_exp_odd_symmetry(self):
        # b = 1 reduces to 1 / (2 sinh(t/2)), an odd function
        grid = asymptotic_grid(64)
        g = sample(SignalSpec("cauchy_exp", {"b": 1.0}), grid)
        assert_allclose(g, -g[::-1], rtol=1e-13, atol=0)

    def test_cauchy_exp_pole_on_grid(self):
        # odd grids contain t = 0 where the b = 1 signal diverges
        with pytest.raises(NonFiniteSignalError):
            sample(SignalSpec("cauchy_exp", {"b": 1.0}), asymptotic_grid(9))

    @pytest.mark.parametrize("spec,n", [
        (SignalSpec("harmonic", {"m": math.inf}), 16),
        (SignalSpec("harmonic", {"omega0": math.inf}), 16),
        (SignalSpec("gauss_beta", {"beta": 40.0}), 600),
    ], ids=["m-inf", "omega0-inf", "beta-40-overflow"])
    def test_non_finite_samples_raise_without_warning(self, spec, n):
        with pytest.raises(NonFiniteSignalError):
            sample(spec, asymptotic_grid(n))

    def test_unknown_name(self):
        with pytest.raises(SignalSpecError):
            sample(SignalSpec("sawtooth"), asymptotic_grid(8))

    def test_non_real_parameter(self):
        with pytest.raises(SignalSpecError, match="must be a real number"):
            sample(SignalSpec("gauss_beta", {"beta": 1j}), asymptotic_grid(8))

    def test_missing_required_parameter(self):
        with pytest.raises(SignalSpecError):
            sample(SignalSpec("gauss_beta"), asymptotic_grid(8))

    def test_rejects_nonpositive_pole_parameter(self):
        with pytest.raises(SignalSpecError):
            sample(SignalSpec("cauchy_exp", {"b": -1.0}), asymptotic_grid(8))

    def test_harmonic_frequency_must_be_unambiguous(self):
        grid = asymptotic_grid(8)
        with pytest.raises(SignalSpecError):
            sample(SignalSpec("harmonic", {"m": 1.0, "omega0": 1.0}), grid)
        with pytest.raises(SignalSpecError):
            sample(SignalSpec("harmonic"), grid)

    def test_corpus_names_all_sample(self):
        grid = asymptotic_grid(16)
        for name in CORPUS_NAMES:
            g = sample(SignalSpec(name, REQUIRED.get(name, {})), grid)
            assert g.shape == (16,)


class TestParameterNames:
    def test_table_lists_the_corpus(self):
        assert tuple(PARAM_NAMES) == CORPUS_NAMES

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_parameter_the_family_does_not_take(self, name):
        # a misspelt key, or one of another family, raises rather than being ignored
        accepted = PARAM_NAMES[name]
        foreign = next(k for keys in PARAM_NAMES.values() for k in keys if k not in accepted)
        message = f"signal '{name}' does not take {{}}; accepted: {', '.join(accepted) or 'none'}$"
        for key in ("c", foreign):
            spec = SignalSpec(name, {**REQUIRED.get(name, {}), key: 2.0})
            with pytest.raises(SignalSpecError, match=message.format(key)):
                sample(spec, asymptotic_grid(16))
            with pytest.raises(SignalSpecError, match=message.format(key)):
                reference_transform(spec, 1j, 0.0)


class TestReferenceTransform:
    def test_chirp_at_zero_frequency(self):
        val = reference_transform(SignalSpec("chirp_cos"), 1j, 0.0)
        assert isinstance(val, complex)
        assert_allclose(val, math.sqrt(math.pi / 2.0), rtol=1e-14)

    def test_chirp_even_in_frequency(self):
        w = np.array([-1.7, 1.7])
        vals = reference_transform(SignalSpec("chirp_cos"), 1j, w)
        assert vals.shape == (2,)
        assert_allclose(vals[0], vals[1], rtol=1e-14)

    def test_cauchy_exp_known_odd_pair(self):
        # for b = 1 the transform of 1/(2 sinh(t/2)) is i pi tanh(pi w)
        w = 0.7
        val = reference_transform(SignalSpec("cauchy_exp", {"b": 1.0}), 1j, w)
        assert_allclose(val, 1j * math.pi * math.tanh(math.pi * w), rtol=1e-12)

    def test_rect_is_sinc(self):
        spec = SignalSpec("rect")
        assert_allclose(reference_transform(spec, 1j, 0.0), 1.0, rtol=1e-15)
        for w in (0.3, 2.0, 7.7):
            # integrate over exactly the unit support so the jump does not
            # pollute the trapezoid rule
            quad = fractional_quadrature(np.ones_like, math.pi / 2.0, w, span=0.5)
            assert_allclose(reference_transform(spec, 1j, w), quad, rtol=0, atol=1e-8)

    def test_rect_series_branch_is_continuous(self):
        # the near-zero series takes over below |w| = 1e-8 without a jump
        spec = SignalSpec("rect")
        assert abs(reference_transform(spec, 1j, 1e-9) - 1.0) < 1e-15
        assert abs(reference_transform(spec, 1j, 1e-7) - 1.0) < 1e-14

    def test_gauss_beta_matches_quadrature(self):
        phi, beta = 1.0, 2.0
        spec = SignalSpec("gauss_beta", {"beta": beta})
        z = np.exp(1j * phi)
        for w in (0.0, 0.9, -2.3):
            quad = fractional_quadrature(lambda t: np.exp(-t * t / 2.0 + beta * t), phi, w)
            ref = reference_transform(spec, z, w)
            assert abs(ref - quad) < 1e-9 * max(1.0, abs(quad))

    def test_gauss_beta_no_drift_is_fixed_point(self):
        spec = SignalSpec("gauss_beta", {"beta": 0.0})
        for phi in (0.3, 1.0, math.pi / 2.0):
            val = reference_transform(spec, np.exp(1j * phi), 0.0) / SQRT_2PI
            assert_allclose(val, 1.0, rtol=0, atol=1e-15)
        val = reference_transform(spec, 1j, 0.0)
        assert_allclose(val, SQRT_2PI, rtol=1e-15)

    def test_constant_one_at_origin(self):
        phi = math.pi / 3.0
        val = reference_transform(SignalSpec("constant_one"), np.exp(1j * phi), 0.0) / SQRT_2PI
        expected = np.exp(-0.5j * phi) / math.sqrt(math.cos(phi))
        assert_allclose(val, expected, rtol=1e-14)

    def test_constant_one_has_constant_modulus(self):
        phi = 0.6774
        w = np.array([-3.0, -0.4, 0.0, 1.9])
        vals = reference_transform(SignalSpec("constant_one"), np.exp(1j * phi), w)
        assert_allclose(np.abs(vals), SQRT_2PI / math.sqrt(math.cos(phi)), rtol=1e-13)

    def test_harmonic_has_no_closed_form(self):
        with pytest.raises(NoClosedFormError):
            reference_transform(SignalSpec("harmonic", {"m": 2.0}), 1j, 0.0)

    def test_chirp_requires_quarter_turn(self):
        with pytest.raises(NoClosedFormError):
            reference_transform(SignalSpec("chirp_cos"), np.exp(0.5j), 0.0)

    def test_constant_one_degenerate_at_quarter_turn(self):
        with pytest.raises(NoClosedFormError):
            reference_transform(SignalSpec("constant_one"), 1j, 0.0)

    def test_unknown_name(self):
        with pytest.raises(SignalSpecError, match="unknown signal"):
            reference_transform(SignalSpec("sawtooth"), 1j, 0.0)

    def test_constant_one_needs_unit_modulus(self):
        with pytest.raises(NoClosedFormError, match=r"only on \|z\| = 1"):
            reference_transform(SignalSpec("constant_one"), 0.5j, 0.0)

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_cauchy_exp_needs_positive_b(self, b):
        # the rule sample applies; without it b = -1 gives a finite value and b = 0 warns
        with pytest.raises(SignalSpecError, match=r"^cauchy_exp requires b > 0$"):
            reference_transform(SignalSpec("cauchy_exp", {"b": b}), 1j, 0.3)

    def test_overflowing_closed_form_is_a_capability_error(self):
        # e^{beta^2 / 2} at z = i passes float64 max from beta ~ 37.7; the samples stay finite.
        # The filterwarnings = error setting turns an overflow warning into a failure here.
        spec = SignalSpec("gauss_beta", {"beta": 38.0})
        assert np.all(np.isfinite(sample(spec, asymptotic_grid(64))))
        with pytest.raises(CapabilityError, match="closed form of 'gauss_beta' overflows float64"):
            reference_transform(spec, 1j, np.linspace(-3.0, 3.0, 7))


class TestDiscretizationAgainstReferences:
    def test_rect_error_decreases(self):
        from xft.transform import xft_forward

        spec = SignalSpec("rect")
        errs = []
        for n in (128, 256, 512):
            g = sample(spec, asymptotic_grid(n))
            res = xft_forward(g)
            ref = reference_transform(spec, 1j, res.abscissae)
            errs.append(np.max(np.abs(res.values - ref)))
        assert errs[0] > errs[1] > errs[2]

    def test_gauss_beta_error_at_machine_floor(self):
        from xft.transform import frft_forward

        spec = SignalSpec("gauss_beta", {"beta": 2.0})
        z = np.exp(1j)
        for n in (128, 256, 512):
            g = sample(spec, asymptotic_grid(n))
            res = frft_forward(g, z)
            ref = reference_transform(spec, z, res.abscissae)
            assert np.max(np.abs(res.values - ref)) < 1e-10


class TestResolveConvention:
    def test_paper_scaling_selected(self):
        assert resolve_convention() == "paper"

    def test_stable_across_sizes(self):
        assert resolve_convention(48) == "paper"
