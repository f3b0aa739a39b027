"""Fast chirp-FFT-chirp transforms against dense matrix references."""

import collections
import concurrent.futures
import functools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xft import transform
from xft.dft_engine import dft_forward
from xft.errors import (
    AbsentScalingError,
    CapabilityError,
    InvalidSizeError,
    NonFiniteSignalError,
    OutOfDomainError,
    SingularParameterError,
    XftError,
)
from xft.hermite import asymptotic_grid, hermite_functions
from xft.kernel_dense import (
    SINGULARITY_EPS,
    UNIT_TOL,
    asymptotic_kernel,
    make_params,
    mehler_entries,
    outer_exponents,
)
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

    @pytest.mark.parametrize("n", [2**19, 131074, 100003])
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

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 1009, 4096, 100003, 2**16])
    def test_quarter_turn_squared_is_scaled_reversal(self, n):
        # on the symmetric grid M^2 = (pi^2/2) P exactly, P the index reversal
        g = random_signal(n, n + 2)
        twice = xft_forward(xft_forward(g).values).values
        assert np.max(np.abs(twice - (math.pi ** 2 / 2) * g[::-1])) <= 1e-13 * np.max(np.abs(g))

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

    def test_chirp_cache_is_bounded_by_bytes(self, monkeypatch):
        # a 1 MiB budget and fresh z at 4096 points, 128 KiB a plan, interleaved with z = i and -i,
        # whose plans share the cached S: the bytes held, each array once, are at most the bytes
        # counted, which never pass the budget, and the z most recently used still hits; each z
        # is requested twice, since a plan is stored on its second request
        _empty_cache(monkeypatch, 2**20)
        shared = False
        for k in range(40):
            for z in (np.exp(1j * (0.1 + 0.01 * k)), (1j, -1j)[k % 2]):
                for _ in range(2):
                    frft_forward(np.ones(4096), z)
                _assert_counts()
                held = sum({id(a): a.nbytes for v, _ in transform._cache.values() for a in _arrays(v)}.values())
                assert held <= transform._cache_bytes <= 2**20
                shared |= held < transform._cache_bytes
        assert shared and len(transform._cache) < 10
        assert _plan_of(4096, z) is _plan_of(4096, z)
        _assert_counts()

    @pytest.mark.parametrize("n, z, per_point", [
        (4096, 1j, 32), (4096, -1j, 32), (4096, np.exp(0.7j), 32),
        (2**17, 1j, 16), (2**17, -1j, 16), (2**17, np.exp(0.7j), 32)])
    def test_chirp_cache_counts_every_array_of_an_entry(self, monkeypatch, n, z, per_point):
        # a plan counts all its arrays, the S a z = +-i plan shares too: at +-i the one pass
        # caches front and S (32N), the split pass only S (16N, front is a scalar); the second
        # request stores the plan
        _empty_cache(monkeypatch, transform._CACHE_BYTES)
        _plan_of(n, z)
        _plan_of(n, z)
        z = complex(z)
        assert transform._cache["_plan", (n, z.real.hex(), z.imag.hex())][1] == per_point * n
        assert transform._cache["_base_chirp", (n,)][1] == 16 * n
        _assert_counts()

    def test_chirp_cache_is_bounded_by_entries(self, monkeypatch):
        # fresh z at 16 points hold a few KiB in all: the bound on entries per builder binds,
        # and drops plans only, not the base chirp every call uses
        _empty_cache(monkeypatch, 2**20)
        for k in range(2 * transform._CACHE_ENTRIES):
            frft_forward(np.ones(16), np.exp(1j * (0.1 + 0.01 * k)))
        assert transform._counts["_plan"] == transform._CACHE_ENTRIES
        assert list(transform._cache)[-2] == ("_base_chirp", (16,))
        _assert_counts()

    def test_chirp_cache_counts_hold_under_racing_threads(self, monkeypatch):
        # four threads, switched every microsecond, hit, build and evict plans of twelve z under
        # a budget that holds about seven: a lost update to the counts shows as a mismatch
        _empty_cache(monkeypatch, 2**18)
        zs = [np.exp(1j * (0.1 + 0.05 * k)) for k in range(12)]
        errors = []

        def work(seed):
            try:
                for k in np.random.default_rng(seed).integers(0, len(zs), 150):
                    frft_forward(np.ones(1024), zs[k])
            except Exception as error:  # reported below, with the thread's counts
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        _assert_counts()
        assert transform._cache_bytes <= 2**18 and len(transform._cache) > 1

    def test_entry_over_the_budget_is_returned_unstored(self, monkeypatch):
        # under a 60 KiB budget, S (16 KiB) and the plan (32 KiB) at 1024 points stay; at 8192
        # points S alone takes 128 KiB: each call builds it and its plan afresh, with the bits
        # of the cached path, and evicts nothing.  The plan at 1024 points is stored on its second call
        _empty_cache(monkeypatch, 60 * 2**10)
        z = np.exp(0.7j)
        frft_forward(np.ones(1024), z)
        frft_forward(np.ones(1024), z)
        kept = list(transform._cache.items())
        _assert_counts()
        assert transform._cache_bytes == 48 * 2**10
        g = random_signal(8192, 3)
        first, second = _plan_of(8192, z), _plan_of(8192, z)
        assert first is not second and first[2] is not second[2]
        expected = dft_forward(second[2] * g)
        expected *= second[3]
        assert np.array_equal(frft_forward(g, z).values.view(np.uint64), expected.view(np.uint64))
        assert list(transform._cache.items()) == kept
        _assert_counts()
        assert transform._cache_bytes == 48 * 2**10

    def test_fresh_z_stream_stores_no_plan_array(self, monkeypatch):
        # each z is requested once: its plan is built, returned and dropped, and the cache keeps
        # only its key, an entry of 0 bytes, besides the base chirp every z at this N shares
        _empty_cache(monkeypatch, transform._CACHE_BYTES)
        for k in range(40):
            frft_forward(np.ones(4096), 0.9 * np.exp(1j * (1.0 + 0.01 * k)))
        plans = [value for (name, _), value in transform._cache.items() if name == "_plan"]
        assert len(plans) == transform._CACHE_ENTRIES and set(plans) == {(None, 0)}
        assert transform._cache_bytes == 16 * 4096
        _assert_counts()

    def test_plan_is_stored_on_its_second_request(self, monkeypatch):
        # the first request remembers the key, the second stores the plan it builds, and the
        # third returns that very plan
        _empty_cache(monkeypatch, transform._CACHE_BYTES)
        z = complex(np.exp(0.7j))
        key = "_plan", (4096, z.real.hex(), z.imag.hex())
        first = _plan_of(4096, z)
        assert transform._cache[key] == (None, 0)
        second = _plan_of(4096, z)
        assert second is not first and transform._cache[key] == (second, 32 * 4096)
        assert _plan_of(4096, z) is second
        _assert_counts()

    def test_oversize_plan_stores_neither_key_nor_value(self, monkeypatch):
        # under a 200 KiB budget the base chirp at 8192 points (128 KiB) is stored, and the plan
        # (256 KiB) is built afresh on every request, with no key left behind to count
        _empty_cache(monkeypatch, 200 * 2**10)
        for _ in range(3):
            _plan_of(8192, np.exp(0.7j))
            assert list(transform._cache) == [("_base_chirp", (8192,))]
        _assert_counts()

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

    def test_dense_check_follows_the_rotated_scale(self):
        # at 0.5e^{0.1i} the one-pass scale a(z) overflows the Mehler kernel's outer exponent at
        # N = 1024, and mehler_entries still refuses it; frft_forward rotates this z, and the dense
        # check evaluates the same one kernel at its abscissae a(z/z2), where no exponent grows
        z = 0.5 * np.exp(0.1j)
        params = make_params(z)
        with pytest.raises(CapabilityError, match="N = 1024.*exponent real part"):
            mehler_entries(1024, params, params.a)
        g = random_signal(1024, 5)
        dense = frft_dense_check(g, z)
        fast = frft_forward(g, z).values
        assert np.max(np.abs(fast - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_damped_z_past_the_one_pass_overflow_is_rotated(self, n):
        # arg z = 0.1 lies outside the sector where both chirps decay; at N = 1024 the one pass's
        # exponent real part passes log(float64 max).  The two passes match the closed form at a(z/z2)
        spec = SignalSpec("gauss_beta", {"beta": 1.3})
        z = 0.5 * np.exp(0.1j)
        result = frft_forward(sample(spec, asymptotic_grid(n)), z)
        assert result.params.z == z and result.scale == make_params(z / transform._Z2[1]).a
        assert np.array_equal(result.abscissae, result.scale * asymptotic_grid(n).nodes)
        ref = reference_transform(spec, z, result.abscissae)
        assert np.max(np.abs(result.values - ref)) < 1e-14 * np.max(np.abs(ref))

    def test_rotated_call_builds_one_exponent_pair(self, monkeypatch):
        # a fresh rotated z at a size seen before makes one outer_exponents call, as a sector z
        # does: the first pass's chirp is cached per N and shared by the z2 of its sign
        calls = []
        monkeypatch.setattr(transform, "outer_exponents",
                            lambda *args: calls.append(args[0]) or outer_exponents(*args))
        g = random_signal(1000, 6)
        for k in range(4):
            frft_forward(g, 0.7 * np.exp(1j * (0.2 + 1e-3 * k)))  # Im(z^2) > 0
            frft_forward(g, 0.7 * np.exp(-1j * (0.2 + 1e-3 * k)))  # Im(z^2) < 0
        assert calls == [1000] * 8
        assert transform._stage_one(1000, 1) is transform._stage_one(1000, 1)

    def test_every_call_makes_one_plan_request(self, monkeypatch):
        # _plan builds every plan: a call at z = i, at a unit z, in the sector and at a rotated z
        # of either sign makes one request.  A rotated plan is stored on its second request like
        # any plan, and later calls hit it, building no exponent
        _empty_cache(monkeypatch, transform._CACHE_BYTES)
        plan, requests, built = transform._plan, [], []
        monkeypatch.setattr(transform, "_plan", lambda *key: requests.append(key) or plan(*key))
        monkeypatch.setattr(transform, "outer_exponents",
                            lambda *args: built.append(args[0]) or outer_exponents(*args))
        g = random_signal(1000, 9)
        for z in (1j, np.exp(0.7j), 0.9 * np.exp(1.2j), 0.8 * np.exp(0.3j), 0.8 * np.exp(-0.3j)):
            z = complex(z)
            requests.clear()
            frft_forward(g, z)
            assert requests == [(1000, z.real.hex(), z.imag.hex())]
        z = complex(0.8 * np.exp(0.3j))
        stored = frft_forward(g, z).values
        assert built == [1000] * 5  # one per first request at a z with mu != 0, one that stores
        for _ in range(2):
            assert np.array_equal(frft_forward(g, z).values.view(np.uint64), stored.view(np.uint64))
        assert built == [1000] * 5 and len(requests) == 4
        assert _plan_of(1000, z) is _plan_of(1000, z)
        assert set(transform._counts) == {"_base_chirp", "_plan", "_stage_one"}
        _assert_counts()

    def test_rotated_passes_fold_two_one_pass_calls(self):
        # F_z = F_w F_z2 / sqrt(2 pi) with w = z / z2: the folded chirps give the two one-pass
        # transforms' result, z2 on the unit circle at a(z2) = 1 to rounding
        g = random_signal(512, 7)
        for z in (0.8 * np.exp(0.3j), 0.8 * np.exp(-0.3j), 0.6 * np.exp(2.9j), 0.9):
            z = complex(z)
            z2 = transform._Z2[transform._rotation(z)]
            assert abs(make_params(z2).a - 1) < 1e-15
            want = frft_forward(frft_forward(g, z2).values, z / z2)
            got = frft_forward(g, z)
            assert got.scale == want.scale == make_params(z / z2).a
            err = np.max(np.abs(got.values - want.values / math.sqrt(2 * math.pi)))
            assert err < 1e-13 * np.max(np.abs(got.values))

    def test_unit_z_whose_modulus_rounds_below_one_keeps_one_pass(self):
        # |z| is half an ulp below 1 and Re(z^2) > 0: within UNIT_TOL of the unit circle, so the
        # one pass of _plan runs, bit for bit, at the scale a(z)
        z = complex(np.exp(0.5621553884711781j))
        assert abs(z) < 1 and (z * z).real > 0
        g = random_signal(1024, 8)
        params, scale, back, front = _plan_of(1024, z)
        expected = dft_forward(back * g)
        expected *= front
        result = frft_forward(g, z)
        assert np.array_equal(result.values.view(np.uint64), expected.view(np.uint64))
        assert result.scale == scale == params.a

    def test_rotated_split_pass_matches_closed_form(self):
        # at even N >= 2^17 both passes take the four-step pass, the second with no back chirp
        spec = SignalSpec("gauss_beta", {"beta": 1.3})
        n = 2 * transform._SPLIT_MIN
        z = 0.5 * np.exp(0.1j)
        result = frft_forward(sample(spec, asymptotic_grid(n)), z)
        ref = reference_transform(spec, z, result.abscissae)
        assert np.max(np.abs(result.values - ref)) < 1e-13 * np.max(np.abs(ref))


def _plan_of(n, z):
    z = complex(z)
    return transform._plan(n, z.real.hex(), z.imag.hex())


def _empty_cache(monkeypatch, budget):
    """Give the chirp cache no entries and this byte budget until the test ends."""
    for name, value in (("_cache", collections.OrderedDict()), ("_cache_bytes", 0),
                        ("_counts", collections.Counter()), ("_CACHE_BYTES", budget)):
        monkeypatch.setattr(transform, name, value)


def _arrays(value):
    return [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]


def _assert_counts():
    """The cache's counts match its entries: each entry's size is the bytes of its own arrays,
    the bytes counted are the sum of the sizes, and the entries per builder."""
    for value, size in transform._cache.values():
        assert size == sum(a.nbytes for a in _arrays(value))
    assert transform._cache_bytes == sum(size for _, size in transform._cache.values())
    assert +transform._counts == collections.Counter(name for name, _ in transform._cache)


def _scalar_front(n, z):
    """K c for z = +-i: the factor the split pass multiplies S by to form front = K c S."""
    c = math.pi * np.exp(1j * math.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)
    return make_params(z).prefactor * c


class TestCore:
    """The one-pass core against the chirp * DFT * chirp product it evaluates."""

    @pytest.mark.parametrize("n", [1, 2, 1009, 4096, 2**16, 131071])  # 131071: odd and prime
    @pytest.mark.parametrize("z", [1j, np.exp(0.7j), 0.9 * np.exp(1.2j)])
    def test_forward_bitwise_equals_product(self, n, z):
        g = random_signal(n, n)
        _, _, back, front = _plan_of(n, z)
        # in place like the core: numpy multiplies one element in place by a
        # scalar loop and out of place by a fused one, which round differently
        expected = dft_forward(back * g)
        expected *= front
        assert np.array_equal(frft_forward(g, z).values, expected)

    @pytest.mark.parametrize("n", [1, 2, 1009, 4096, 2**16])
    def test_inverse_bitwise_equals_product(self, n):
        # xft_inverse is (2/pi^2) M P: the forward pass on the reversed spectrum
        G = random_signal(n, n + 1)
        expected = frft_forward(G[::-1], 1j).values
        expected *= 2 / math.pi ** 2
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

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's fresh pages through ru_minflt")
    @pytest.mark.parametrize("z", ["1j", "np.exp(0.7j)"])
    def test_hot_one_pass_call_touches_no_fresh_pages(self, z):
        # at 2^16 the buffer and pocketfft's scratch (about 1.9 MiB) came from fresh mmaps, 480
        # pages on every call; the arena grown on import now serves them, and at e^{0.7i} the plan
        # a call builds and drops: the second call builds it again and stores it
        code = (
            "import resource, numpy as np, xft\n"
            "g = np.ones(2**16, dtype=complex)\n"
            f"xft.frft_forward(g, {z})\n"
            "for _ in range(5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"    xft.frft_forward(g, {z})\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 5 and max(faults) < 64, faults

    def test_abscissae_computed_once(self):
        result = frft_forward(np.ones(16), 0.8 * np.exp(1.0j))
        assert result.abscissae is result.abscissae
        assert np.array_equal(result.abscissae, result.params.a * asymptotic_grid(16).nodes)


def _run_python(code, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=str(Path(transform.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestSplitPass:
    """Even N >= 2^17: the DFT as a four-step pass on two threads, whatever the CPU count."""

    # every row shape: n1 = 16 (2^17, 2^19), n1 = 8 (131080 = 8 * 16385), n1 = 2 with
    # prime rows that pocketfft runs as Bluestein (131074 = 2 * 65537), and n1 = 16 with
    # Bluestein rows (131344 = 16 * 8209)
    @pytest.mark.parametrize("n", [2**17, 131074, 2**19, 131080, 131344])
    @pytest.mark.parametrize("z", [1j, -1j, np.exp(0.7j), 0.99 * np.exp(1.3j)])
    def test_agrees_with_one_pass_product(self, n, z):
        g = random_signal(n, n)
        _, _, back, front = _plan_of(n, z)
        if z in (1j, -1j):  # the plan keeps only K c; back is S
            front = np.multiply(front, back)
        ref = front * np.fft.ifft(back * g, norm="forward")
        out = frft_forward(g, z).values
        assert any(thread.name.startswith("xft-dft") for thread in threading.enumerate())
        assert np.max(np.abs(out - ref)) <= 4e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2**17, 131074, 2**19, 131080, 131344])
    def test_scalar_front_gives_the_bytes_of_an_explicit_front(self, n):
        # at z = +-i the pass forms front = K c S in its output slices; the bytes must be those
        # of the pass handed that front as an array, and so must xft_inverse's
        g = random_signal(n, n + 2)
        s = transform._base_chirp(n)
        for z in (1j, -1j):
            _, _, back, kc = _plan_of(n, z)
            assert back is s and np.ndim(kc) == 0
            assert np.array_equal(np.array([kc]).view(np.uint64), np.array([_scalar_front(n, z)]).view(np.uint64))
            expected = transform._split_pass(g, np.multiply(_scalar_front(n, z), s), s)
            assert np.array_equal(frft_forward(g, z).values.view(np.uint64), expected.view(np.uint64))
        expected = transform._split_pass(g[::-1], np.multiply(_scalar_front(n, 1j), s), s)
        np.multiply(expected, 2 / math.pi ** 2, out=expected)
        assert np.array_equal(xft_inverse(g).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [2**17, 131074, 2**19, 131080, 131344])
    def test_twiddle_is_gathered_from_the_base_chirp(self, n):
        tw = transform._twiddle(n)
        n1, n2 = tw.shape
        assert n1 == min(n & -n, 16) and n1 * n2 == n
        m = np.arange(n1)[:, None] * np.arange(n2) % n  # the phase k1 j2, reduced mod N in integers
        s = transform._base_chirp(n)
        low = m < n // 2
        assert np.array_equal(tw[low].view(np.float64), s[2 * m[low]].view(np.float64))
        assert np.array_equal(tw[~low].view(np.float64), (-s[2 * m[~low] - n]).view(np.float64))
        # both sides round a phase of up to 2 pi: they differ by at most 6.1 eps at these N
        assert np.max(np.abs(tw - np.exp(2j * np.pi * m / n))) <= 8 * np.finfo(np.float64).eps

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's fresh pages through ru_minflt")
    def test_calls_after_the_first_touch_no_fresh_pages(self):
        # a 1-D DFT of 2^19 points takes a 2N scratch, a fresh mmap that faults in about
        # 2N * 16 / 4096 pages on every call; the four-step's short DFTs need none that large
        code = (
            "import resource, numpy as np, xft\n"
            "g = np.ones(2**19, dtype=complex)\n"
            "xft.xft_forward(g)\n"
            "for _ in range(5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    xft.xft_forward(g)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 5 and max(faults) < 2**19 * 16 // 4096 // 4, faults

    @pytest.fixture(scope="class")
    def fresh_values(self, tmp_path_factory):
        """frft_forward at e^{0.7i} and xft_inverse of one 2^17-point signal, from a fresh process."""
        path = tmp_path_factory.mktemp("split") / "values.npy"
        g = random_signal(2**17, 11)
        np.save(path, g)
        code = (
            "import sys, numpy as np, xft\n"
            "g = np.load(sys.argv[1])\n"
            "np.save(sys.argv[1], np.stack([xft.frft_forward(g, np.exp(0.7j)).values, xft.xft_inverse(g)]))\n")
        proc = _run_python(code, path)
        assert proc.returncode == 0, proc.stderr
        return g, np.load(path)

    @pytest.mark.parametrize("index,value", [(0, np.nan), (-1, np.inf)])
    @pytest.mark.parametrize("row,fn", [(0, lambda g: frft_forward(g, np.exp(0.7j)).values),
                                        (1, xft_inverse)], ids=["frft_forward", "xft_inverse"])
    def test_non_finite_sample_raises_then_next_call_is_clean(self, fresh_values, index, value, row, fn):
        g, fresh = fresh_values
        bad = g.copy()
        bad[index] = value
        with pytest.raises(NonFiniteSignalError):
            fn(bad)
        assert np.array_equal(fn(g), fresh[row])

    def test_worker_error_propagates_and_worker_stays_usable(self):
        here = threading.current_thread()
        worker_took_one = threading.Event()

        def task():
            if threading.current_thread() is here:
                assert worker_took_one.wait(10)
            else:
                worker_took_one.set()
                raise NonFiniteSignalError("raised on the worker")

        with pytest.raises(NonFiniteSignalError, match="on the worker"):
            transform._on_two_threads([task, task])
        ran = []
        transform._on_two_threads([functools.partial(ran.append, k) for k in range(4)])
        assert sorted(ran) == [0, 1, 2, 3]

    def test_worker_runs_under_the_callers_errstate(self):
        # frft_forward's overflow check hears the worker's FP flags only through np.errstate, which
        # a thread does not inherit: the worker runs each call in the caller's context
        here = threading.current_thread()
        worker_took_one, seen = threading.Event(), []

        def task():
            if threading.current_thread() is here:
                assert worker_took_one.wait(10)
            else:
                seen.append(np.geterr()["over"])
                worker_took_one.set()

        with np.errstate(over="raise"):
            transform._on_two_threads([task, task])
        assert seen == ["raise"]

    def test_tasks_the_worker_has_not_started_run_here(self):
        # as when another process holds the second CPU and the worker is not scheduled
        transform._on_two_threads([])  # the worker exists
        gate = threading.Event()
        busy = transform._pool["worker"].submit(gate.wait, 10)
        ran_on = []
        try:
            transform._on_two_threads([lambda: ran_on.append(threading.current_thread())] * 4)
        finally:
            gate.set()
        assert busy.result()
        assert ran_on == [threading.current_thread()] * 4

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    @pytest.mark.parametrize("n", [2**17, 131074])  # n1 = 16, and n1 = 2
    def test_one_cpu_gives_the_same_bits(self, tmp_path, n):
        g = random_signal(n, 12)
        path = tmp_path / "values.npy"
        np.save(path, g)
        # the child pins only itself, before its worker starts: the worker inherits the one CPU
        code = (
            "import os, sys, threading, numpy as np, xft\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "g = np.load(sys.argv[1])\n"
            "values = np.stack([xft.frft_forward(g, np.exp(0.7j)).values, xft.xft_inverse(g)])\n"
            "assert any(t.name.startswith('xft-dft') for t in threading.enumerate()), threading.enumerate()\n"
            "np.save(sys.argv[1], values)\n")
        proc = _run_python(code, path)
        assert proc.returncode == 0, proc.stderr
        one_cpu = np.load(path)
        assert np.array_equal(one_cpu[0], frft_forward(g, np.exp(0.7j)).values)
        assert np.array_equal(one_cpu[1], xft_inverse(g))

    @pytest.mark.parametrize("late", [
        "atexit.register(run)\n",
        "run()\natexit.register(run)\n",
        # joining the main thread returns once shutdown has begun
        "threading.Thread(target=lambda: (threading.main_thread().join(), run())).start()\n",
        "start = threading.Thread.start\n"
        "def refuse(self):\n"
        "    raise RuntimeError(\"can't start new thread\")\n"
        "threading.Thread.start = refuse\n"
        # a call that raises partway must leave no work queued for the next worker
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from xft.errors import NonFiniteSignalError\n"
        "bad = g.copy()\n"
        "bad[0] = np.nan\n"
        "try:\n"
        "    xft.xft_forward(bad)\n"
        "    sys.exit('no NonFiniteSignalError')\n"
        "except NonFiniteSignalError:\n"
        "    pass\n"
        "gc.collect()\n"
        "queued = [p._work_queue.qsize() for p in gc.get_objects() if isinstance(p, ThreadPoolExecutor)]\n"
        "assert not any(queued), queued\n"
        "run()\n"
        "threading.Thread.start = start\n"
        "run()\n",
    ], ids=["at_exit", "at_exit_after_a_call", "thread_outliving_main", "no_thread_starts"])
    def test_runs_on_this_thread_where_no_worker_can(self, tmp_path, late):
        g = random_signal(2**17, 14)
        path = tmp_path / "values.npy"
        np.save(path, g)
        code = (
            "import atexit, gc, sys, threading, numpy as np, xft\n"
            "g, out = np.load(sys.argv[1]), []\n"
            "def run():\n"
            "    out.append(xft.xft_forward(g).values)\n"
            "    np.save(sys.argv[1], np.stack(out))\n") + late
        proc = _run_python(code, path)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        values = np.load(path)
        assert values.ndim == 2 and all(np.array_equal(v, xft_forward(g).values) for v in values)

    def test_concurrent_callers_share_one_worker(self, monkeypatch):
        # more callers than CPUs, switching threads as often as the interpreter allows
        n, z = 2**17, np.exp(0.7j)
        g = random_signal(n, 13)
        expected = frft_forward(g, z).values
        monkeypatch.delitem(transform._pool, "worker")  # the callers race to start the worker
        started = []

        class SlowToStart(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.05)  # every caller reaches the check while the first is here
                super().__init__(*args, **kwargs)

            def _adjust_thread_count(self):
                threads = len(self._threads)
                super()._adjust_thread_count()
                if len(self._threads) > threads:
                    started.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowToStart)
        results = [[] for _ in range(4)]
        start = threading.Barrier(4, timeout=60)

        def call(k):
            start.wait()
            for _ in range(3):
                results[k].append(frft_forward(g, z).values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(r) == 3 and all(np.array_equal(v, expected) for v in r) for r in results)
        assert started == [transform._pool["worker"]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self):
        # the child inherits no worker thread, and the inherited pool counts its dead one as idle:
        # a child that kept that pool would start no thread, run every task on this thread and
        # leave each phase's cancelled work item queued
        code = (
            "import gc, os, signal, sys, threading, numpy as np, xft\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "g = np.ones(2**17)\n"
            "first = xft.xft_forward(g).values\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    same = np.array_equal(xft.xft_forward(g).values, first)\n"
            "    workers = [t.name for t in threading.enumerate() if t.name.startswith('xft-dft')]\n"
            # a worker still in _warm has not yet dropped the work items this thread cancelled;
            # one submitted after them runs once it has.  A kept pool never runs it: TimeoutError
            "    xft.transform._pool['worker'].submit(int).result(10)\n"
            "    gc.collect()\n"
            "    queued = [p._work_queue.qsize() for p in gc.get_objects() if isinstance(p, ThreadPoolExecutor)]\n"
            "    if not (same and workers and not any(queued)):\n"
            "        os.write(2, f'same={same} workers={workers} queued={queued}\\n'.encode())\n"
            "        os._exit(3)\n"
            "    os._exit(0)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_below_split_size_starts_no_thread(self):
        code = (
            "import sys, threading, numpy as np, xft\n"
            "for n in (65536, 131071):\n"  # odd N take the one pass at any size
            "    xft.frft_forward(np.ones(n), np.exp(0.7j))\n"
            "    xft.xft_inverse(np.ones(n))\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n")
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr


def _full_grid_plan(n, z):
    """The two exponents and the plan's (front, back) with an exp of every entry."""
    params = make_params(z)
    fe, be = outer_exponents(n, params, params.require_a(), asymptotic_grid(n).nodes)
    s = transform._base_chirp(n)
    c = math.pi * np.exp(1j * math.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)
    return fe, be, (params.prefactor * c) * (np.exp(fe) * s), np.exp(be) * s


_PLAN_ZS = [1j, -1j, np.exp(0.7j), np.exp(2.9j), np.exp(0.05j), 0.9 * np.exp(1.2j),
            0.5 * np.exp(1.5j), 0.99 * np.exp(0.9j), 0.7 * np.exp(2.0j), 1e-3 * np.exp(1.0j),
            0.5j]  # 0.5i: a z on the imaginary axis, where the exponents' imaginary parts are zeros


class TestPlan:
    """_plan takes one exp per mirrored pair of entries; its diagonals stay
    bitwise those of an exp over the whole grid."""

    @pytest.mark.parametrize("n", [*range(1, 40), 997, 1000, 1009, 1832, 2999, 4096, 16383,
                                   16384, 65536, 100003, 2**18])
    def test_bitwise_equals_full_grid_exp(self, n):
        for z in _PLAN_ZS:
            fe, be, front, back = _full_grid_plan(n, z)
            # the invariant the half-grid exp rests on, in bytes: array_equal takes -0.0 for +0.0
            assert np.array_equal(fe.view(np.uint64), fe[::-1].copy().view(np.uint64)), z
            assert np.array_equal(be.view(np.uint64), be[::-1].copy().view(np.uint64)), z
            _, _, got_back, got_front = _plan_of(n, z)
            if np.ndim(got_front) == 0:  # z = +-i at a split size: front is K c S, formed in the pass
                got_front = np.multiply(got_front, got_back)
            # bytes, not values: array_equal takes -0.0 for +0.0
            assert np.array_equal(got_front.view(np.uint64), front.view(np.uint64)), z
            assert np.array_equal(got_back.view(np.uint64), back.view(np.uint64)), z

    @pytest.mark.parametrize("z,bytes_per_point", [(1j, 0), (-1j, 0), (np.exp(0.7j), 36)])
    def test_plan_allocates_only_its_chirps(self, z, bytes_per_point):
        # at z = +-i (mu = 0) nothing N-sized: back is S, and at this split size front is the
        # scalar K c; at any other z the (2, N) chirps (32N bytes), which also take the two half
        # exponents, and the first ceil(N/2) nodes (4N) they are built from, with no N-node grid
        n = 2**18
        s = transform._base_chirp(n)
        asymptotic_grid(n)
        tracemalloc.start()
        try:
            _, _, back, front = transform._plan.__wrapped__(n, z.real.hex(), z.imag.hex())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_point * n + 2**20
        assert np.shares_memory(back, s) == (z in (1j, -1j))
        assert np.ndim(front) == 0 if z in (1j, -1j) else not np.shares_memory(front, s)

    @pytest.mark.parametrize("n", [16, 2**17])
    @pytest.mark.parametrize("z", [1j, np.exp(0.7j)])
    def test_cached_arrays_are_read_only(self, n, z):
        # the cache shares them with every caller; at z = +-i back is the base chirp itself,
        # and at a split size front is a scalar
        arrays = [a for a in (*_plan_of(n, z)[1:], transform._base_chirp(n), transform._twiddle(n))
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == (3 if (n, z) == (2**17, 1j) else 4)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(a, 2, out=a)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


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
    if transform._rotation(complex(z)):  # _plan runs this z as two passes: pin its one-pass chirps
        params = make_params(z)
        got_front, got_back = transform._chirps(n, params, params.prefactor * transform._c(n))
    else:
        _, _, got_back, got_front = _plan_of(n, z)
    assert np.array_equal(got_front.view(np.uint64), front.view(np.uint64))
    assert np.array_equal(got_back.view(np.uint64), back.view(np.uint64))


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


def _assume_damped(z):
    """Skip a draw off the damped disk: |z| that rounds to within UNIT_TOL of 1 runs as a unit z,
    whose truncation near +-1 the unit-circle tests cover, and |1 - z^2| < SINGULARITY_EPS is refused."""
    assume(abs(abs(z) - 1) > UNIT_TOL and abs(1 - z * z) >= SINGULARITY_EPS)


@settings(deadline=None)
@given(st.floats(0.5, 1.0, exclude_max=True), st.floats(-math.pi, math.pi), st.integers(80, 4096),
       st.floats(-2.0, 2.0))
def test_damped_gauss_beta_matches_whole_disk_closed_form(mod, arg, n, beta):
    # arg z covers the whole circle: outside the sector Re(z^2) <= 0 frft_forward rotates z, and
    # result.abscissae are those of the second pass.
    # Below N = 80 quadrature truncation, not the transform, sets the error:
    # at N = 64, |z| -> 1 and |beta| = 2 it is 2.8e-12 of max|ref| while the
    # fast path still agrees with frft_dense_check to 1.3e-15
    spec = SignalSpec("gauss_beta", {"beta": beta})
    z = mod * np.exp(1j * arg)
    _assume_damped(z)
    result = frft_forward(sample(spec, asymptotic_grid(n)), z)
    ref = reference_transform(spec, z, result.abscissae)
    assert np.max(np.abs(result.values - ref)) < 1e-12 * np.max(np.abs(ref))


@settings(deadline=None)
@given(st.floats(1e-3, 0.5, exclude_max=True), st.floats(-math.pi, math.pi), st.integers(80, 4096),
       st.floats(-2.0, 2.0))
def test_small_modulus_gauss_beta_matches_closed_form(mod, arg, n, beta):
    # the output scale |a| ~ 2/(pi |z|) grows as |z| falls, so the grid resolves less of the
    # transform, but the values stay right.  The bound is 1e-12 of max|ref| plus two float64 limits
    # of the comparison itself: below the smallest normal double no value carries 1e-12 of relative
    # precision, and the closed form's phase -w^2/2 at an abscissa rounded to float64 is uncertain
    # by eps |w|^2 (near arg z = 3pi/4 at |z| = 1e-3 that is 7.5e-11 of max|ref|, and a 40-digit
    # evaluation puts both sides 2-3e-11 from the exact value).  An all-zero closed form, as the
    # underflow at |z| = 1e-3 can give, needs an all-zero output
    spec = SignalSpec("gauss_beta", {"beta": beta})
    z = mod * np.exp(1j * arg)
    result = frft_forward(sample(spec, asymptotic_grid(n)), z)
    ref = reference_transform(spec, z, result.abscissae)
    peak = np.max(np.abs(ref))
    scale = max(peak, np.finfo(float).tiny) if peak else 0.0
    phase = np.finfo(float).eps * np.max(np.abs(result.abscissae) ** 2 * np.abs(ref))
    assert np.max(np.abs(result.values - ref)) <= 1e-12 * scale + 4 * phase


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


@pytest.mark.parametrize("n", [256, 512, 1000, 1009, 4096])
@pytest.mark.parametrize("phi", [1.0, math.pi / 2, 2.3])
def test_hermite_functions_are_eigenfunctions(n, phi):
    # F_z psi_k = sqrt(2 pi) z^k psi_k holds for the continuous transform, so the
    # samples at the abscissae a t_j check every k without a closed form per
    # signal; the worst case on this sector is 7.3e-13 (N = 4096, phi = 2.3)
    z = np.exp(1j * phi)
    k_max = int(0.3 * n)
    psi = hermite_functions(k_max, asymptotic_grid(n).nodes)
    images = hermite_functions(k_max, frft_forward(psi[0], z).abscissae)
    for k in range(k_max + 1):
        want = math.sqrt(2.0 * math.pi) * z ** k * images[k]
        err = np.max(np.abs(frft_forward(psi[k], z).values - want))
        assert err < 1e-11 * np.max(np.abs(want)), f"k = {k}"


@settings(deadline=None)
@given(st.integers(0, 20), st.floats(0.5, 1.0, exclude_max=True), st.floats(-math.pi, math.pi),
       st.integers(128, 4096))
def test_damped_hermite_functions_are_eigenfunctions(k, mod, arg, n):
    # below N = 128 truncation sets the error: psi_20 at the edge of the 80-point grid is
    # 2.9e-8 of its peak. The bound is the input's scale, not max|ref|: |z|^20 shrinks the
    # output to ~1e-6 while the rounding stays at the input's scale
    z = mod * np.exp(1j * arg)
    _assume_damped(z)
    psi = hermite_functions(k, asymptotic_grid(n).nodes)[k]
    result = frft_forward(psi, z)
    want = math.sqrt(2.0 * math.pi) * z ** k * hermite_functions(k, result.abscissae)[k]
    err = np.max(np.abs(result.values - want))
    assert err < 1e-12 * math.sqrt(2.0 * math.pi) * np.max(np.abs(psi))


def _no_warning(fn, *args):
    """fn(*args), failing on any warning it gave on any thread, also when it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fn(*args)
        finally:
            assert not caught, [str(w.message) for w in caught]


_DENSE_AND_FAST = {
    "asymptotic_kernel": lambda g, z: asymptotic_kernel(g.size, z),
    "frft_dense_check": frft_dense_check,
    "frft_forward": lambda g, z: frft_forward(g, z).values,
}


class TestUnitBand:
    """One band, ||z| - 1| <= UNIT_TOL, is the unit circle: past it z is refused, below it damped."""

    @pytest.mark.parametrize("name", _DENSE_AND_FAST)
    def test_z_just_past_the_band_is_refused_unwarned(self, name):
        # at 1 + 5e-13 the dense kernels' real exponents, about (|z| - 1) (t_j - t_k)^2 / (2 arg(z)^2)
        # near z = 1, reach thousands: the Mehler kernel had 238632 non-finite entries
        g, z = random_signal(1024, 21), (1 + 5e-13) * np.exp(7e-7j)
        with pytest.raises(OutOfDomainError):
            _no_warning(_DENSE_AND_FAST[name], g, z)

    @pytest.mark.parametrize("name", _DENSE_AND_FAST)
    def test_z_at_the_band_edge_gives_finite_output(self, name):
        g, z = random_signal(1024, 21), complex((1 + 2 * np.finfo(float).eps) * np.exp(7e-7j))
        assert abs(z) - 1 == UNIT_TOL
        assert np.isfinite(_no_warning(_DENSE_AND_FAST[name], g, z)).all()

    def test_refusal_names_the_excess_and_the_band(self):
        with pytest.raises(OutOfDomainError, match=re.escape("|z| - 1 = 5e-13 > UNIT_TOL = 4.44e-16: outside")):
            make_params((1 + 5e-13) * np.exp(7e-7j))

    def test_chirp_that_overflows_in_the_band_is_refused(self):
        # Re mu < 0 only past |z| = 1: at 1 + 2 eps, near z = 1, the right chirp row -mu t^2
        # passes log(float64 max) at N = 2^20, where exp gave Inf after a RuntimeWarning
        z = complex((1 + 2 * np.finfo(float).eps) * np.exp(5.0001e-7j))
        with pytest.raises(CapabilityError, match="N = 1048576, .*exponent real part"):
            _no_warning(frft_forward, np.ones(2**20), z)


@settings(deadline=None)
@given(st.integers(-8, 8), st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(-6.5, -2.0),
       st.sampled_from([-1, 1]), st.integers(1, 1024), st.sampled_from(list(_DENSE_AND_FAST)))
def test_band_decides_refusal_and_the_rest_is_finite(k, base, log_offset, sign, n, name):
    # |z| is k ulps from 1 and arg z within 1e-2 of 0, pi/2 or pi: a z past the band is refused,
    # and any other gives finite output with no warning, on the fast path and the dense oracles
    r = 1.0
    for _ in range(abs(k)):
        r = np.nextafter(r, 2.0 * k)
    arg = base + sign * 10.0 ** log_offset
    z = complex(r * math.cos(arg), r * math.sin(arg))
    assume(abs(1 - z * z) >= SINGULARITY_EPS)
    g = random_signal(n, n)
    if abs(z) > 1 + UNIT_TOL:
        with pytest.raises(OutOfDomainError):
            _no_warning(_DENSE_AND_FAST[name], g, z)
    else:
        assert np.isfinite(_no_warning(_DENSE_AND_FAST[name], g, z)).all()


class TestOverflow:
    """A finite signal whose transform passes float64's range is refused, never NaN after a warning."""

    @pytest.mark.parametrize("n", [64, 1021, 2**17])
    @pytest.mark.parametrize("z", [1j, 0.5 * np.exp(0.1j)], ids=["one_pass", "rotated"])
    def test_overflowing_transform_is_a_capability_error(self, n, z):
        # rotated, the first pass's Inf reached the second pass's finite check, which called a
        # finite signal NaN or Inf
        with pytest.raises(CapabilityError, match=re.escape(f"N = {n}, z = {complex(z):.6g} overflows float64")):
            _no_warning(frft_forward, np.full(n, 1e307), z)

    @pytest.mark.parametrize("n", [64, 2**17])
    def test_overflowing_inverse_is_a_capability_error(self, n):
        with pytest.raises(CapabilityError, match=f"N = {n}, "):
            _no_warning(xft_inverse, np.full(n, 1e307))

    def test_flag_with_finite_output_returns_the_values(self):
        # pocketfft raises the overflow flag inside this DFT while every output is finite: the
        # output, not the flag, decides
        g, z = random_signal(89, 673) * 10 ** 306.8, np.exp(2.88j)
        params, scale, back, front = _plan_of(89, z)
        fired = []
        with np.errstate(over="call", call=lambda *flag: fired.append(flag)):
            expected = dft_forward(back * g)
        assert fired
        expected *= front
        values = _no_warning(frft_forward, g, z).values
        assert np.isfinite(values).all()
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [64, 2**17])
    def test_non_finite_input_keeps_its_error(self, n):
        g = np.full(n, 1e307)
        g[3] = np.inf
        for z in (1j, 0.5 * np.exp(0.1j)):
            with pytest.raises(NonFiniteSignalError):
                _no_warning(frft_forward, g, z)
