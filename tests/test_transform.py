"""Fast chirp-FFT-chirp transforms against dense matrix references."""

import concurrent.futures
import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
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

    def test_damped_chirp_refusal_builds_no_exponent(self):
        # at 2^20 each N-sized exponent takes 16.8 MB; the refusal may trace
        # only the grid it reads t[0] from
        n = 2**20
        g = np.ones(n, dtype=np.complex128)
        tracemalloc.start()
        try:
            asymptotic_grid(n)
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(CapabilityError, match="N = 1048576.*exponent real part"):
                frft_forward(g, 0.5 * np.exp(0.1j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_peak + 2**20


def _plan_of(n, z):
    z = complex(z)
    return transform._plan(n, z.real.hex(), z.imag.hex())


class TestCore:
    """The one-pass core against the chirp * DFT * chirp product it evaluates."""

    @pytest.mark.parametrize("n", [1, 2, 1009, 4096, 2**16, 131071])  # 131071: odd and prime
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
        _, front, back = _plan_of(n, z)
        ref = front * np.fft.ifft(back * g, norm="forward")
        out = frft_forward(g, z).values
        assert any(thread.name.startswith("xft-dft") for thread in threading.enumerate())
        assert np.max(np.abs(out - ref)) <= 4e-15 * np.max(np.abs(ref))

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
@given(st.integers(0, 20), st.floats(0.5, 1.0, exclude_max=True),
       st.floats(math.pi / 4, 3 * math.pi / 4, exclude_min=True, exclude_max=True),
       st.integers(128, 4096))
def test_damped_hermite_functions_are_eigenfunctions(k, mod, arg, n):
    # below N = 128 truncation sets the error: psi_20 at the edge of the 80-point grid is
    # 2.9e-8 of its peak. The bound is the input's scale, not max|ref|: |z|^20 shrinks the
    # output to ~1e-6 while the rounding stays at the input's scale
    z = mod * np.exp(1j * arg)
    psi = hermite_functions(k, asymptotic_grid(n).nodes)[k]
    result = frft_forward(psi, z)
    want = math.sqrt(2.0 * math.pi) * z ** k * hermite_functions(k, result.abscissae)[k]
    err = np.max(np.abs(result.values - want))
    assert err < 1e-12 * math.sqrt(2.0 * math.pi) * np.max(np.abs(psi))
