"""Fast chirp-FFT-chirp transforms.

The dense scaled-Fourier matrix factors as diagonal * DFT * diagonal, so one
length-N DFT plus two diagonal multiplies evaluates the quadrature transform
at the scaled abscissae a*t_j in O(N log N).  The same factorization with
z-dependent chirp diagonals gives the fractional transform for any z in the
closed unit disk away from 0 and +-1.
"""

import functools
import os
import threading

import numpy as np

from .dft_engine import as_complex_signal, as_complex_vector, dft_forward
from .errors import NonFiniteSignalError
from .hermite import asymptotic_grid
from .kernel_dense import TransformParams, make_params, mehler_entries, outer_exponents

# Plans kept per size and per exact bit pattern of z.  The bound covers every
# (N, z) pair a caller cycling over a few sizes and z keeps hot, while a
# stream of fresh z cannot grow memory without limit.
_CHIRP_CACHE_SIZE = 32

# Even sizes from here up run the DFT as two half-length DFTs on two threads.
_SPLIT_MIN = 2**17

# Ranges of j that the split pass's butterfly and output phases run as separate tasks.
_CHUNKS = 4

# The one worker thread of the split pass, started on the first split call.
_pool = None
_pool_lock = threading.Lock()


class SpectrumResult:
    """Transform samples plus the abscissae a*t_j they approximate."""

    def __init__(self, values: np.ndarray, params: TransformParams):
        self.values, self.params = values, params

    @functools.cached_property
    def abscissae(self) -> np.ndarray:
        """a*t_j, computed on first read: most callers only need the values."""
        return self.params.a * asymptotic_grid(self.values.size).nodes


@functools.lru_cache(maxsize=_CHIRP_CACHE_SIZE)
def _base_chirp(n: int) -> np.ndarray:
    """S_jj = e^{-i pi (n-1) j / n}, the phase reduced mod 2 pi in int64 before
    the exp: rounding the unreduced argument, up to about pi n, costs n ulps."""
    return np.exp((-1j * np.pi / n) * ((n - 1) * np.arange(n, dtype=np.int64) % (2 * n)))


@functools.lru_cache(maxsize=_CHIRP_CACHE_SIZE)
def _plan(n: int, z_real_hex: str, z_imag_hex: str):
    """(params, front, back) for size n and the z with these bits.

    front = prefactor * c * S1 and back = S2, with S1 = e^{-mu a^2 t^2} S,
    S2 = e^{-mu t^2} S and c = pi e^{i pi (n-1)^2 / 2n} / sqrt(2n), whose
    phase is reduced mod 2 pi in integers like that of S.  A chirp that
    would overflow raises CapabilityError before any exp.  Errors are not
    cached, so only a valid z enters the cache.

    The nodes are bitwise antisymmetric, so both exponents are even bit for
    bit (entry j equals entry n-1-j) and exp of the first ceil(n/2) entries
    gives every value of the full-grid exp, bit for bit.  The exponents stay
    full length: outer_exponents is shared with the dense kernel and owns the
    refusal and its message, and freeing its N-sized temporaries here raises
    glibc's mmap threshold, so later 2^19 calls reuse freed pages rather than
    fault in fresh ones.
    """
    params = make_params(complex(float.fromhex(z_real_hex), float.fromhex(z_imag_hex)))
    front_exp, back_exp = outer_exponents(params, params.require_a(), asymptotic_grid(n).nodes)
    s = _base_chirp(n)
    c = np.pi * np.exp(1j * np.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)
    front = _even_chirp(front_exp, s)
    np.multiply(params.prefactor * c, front, out=front)  # scalar first: front *= K rounds differently
    return params, front, _even_chirp(back_exp, s)


def _even_chirp(exponent: np.ndarray, s: np.ndarray) -> np.ndarray:
    """e^exponent * s for an exponent even bit for bit, with one exp per mirrored pair."""
    n = s.size
    h = (n + 1) // 2
    e = np.exp(exponent[:h])
    out = np.empty(n, dtype=np.complex128)
    np.multiply(e, s[:h], out=out[:h])
    np.multiply(e[:n - h][::-1], s[h:], out=out[h:])
    return out


def xft_forward(g) -> SpectrumResult:
    """Scaled Fourier transform: approximates G((4/pi) t_j), G(w) = int e^{iwt} g(t) dt.

    out = (pi e^{i pi (N-1)^2 / 2N} / sqrt(2N)) * S * D_F * (S * g) with
    S_jj = e^{-i pi (N-1) j / N}.
    """
    return frft_forward(g, 1j)


def xft_inverse(G) -> np.ndarray:
    """Inverse of xft_forward: xft_forward of the reversed spectrum, times 2/pi^2.

    xft_forward applies M[j,l] = (pi/sqrt(2N)) e^{2 pi i a_j a_l / N}, a_j = j - (N-1)/2.
    a_j + a_l is an integer in (-N, N), so M^2 = (pi^2/2) P for the index reversal P,
    and M^{-1} = (2/pi^2) M P: one fast path and one cached plan serve both directions.
    """
    y = xft_forward(as_complex_vector(G)[::-1]).values
    return np.multiply(y, 2 / np.pi ** 2, out=y)


def frft_forward(g, z: complex) -> SpectrumResult:
    """Fractional transform at parameter z, evaluated at the abscissae a*t_j.

    out = front * D_F * (back * g) with the cached diagonals of _plan,
    front = sqrt(2/(1-z^2)) * c * S1 and back = S2.  At z = i both chirps
    collapse to S: xft_forward is that case.

    For unit z = e^{i phi} other than i, the S1 exponent -mu a^2 t^2 =
    -2i sin(2 phi) k^2 / N (k = j - (N-1)/2) reaches N |sin 2 phi| / 2 rad,
    about 2.6e5 at N = 2^19.  Its error there is conditioning in z, not
    rounding: a one-ulp change of z moves the phase about as much.

    For damped z with arg z outside about (pi/4, 3pi/4), the chirp exponents'
    real parts grow like N; once one passes log(float64 max) ~ 709.78 this
    raises CapabilityError naming N, z and the exponent, before any exp.

    For N < 2^17, odd N or a process that may run on one CPU only: one pass
    over one buffer the call owns, y = back * g, the DFT in place in y, then
    y *= front; g is never written.  g is checked only for shape here.  Its
    one finite check is dft_forward's, on back * g, which the finite chirps
    leave non-finite wherever g is, so NaN or Inf still raises
    NonFiniteSignalError.  Otherwise _split_pass computes the DFT as two
    halves on two threads.  The abscissae are computed on first read.
    """
    x = as_complex_vector(g)
    z = complex(z)
    params, front, back = _plan(x.size, z.real.hex(), z.imag.hex())
    if x.size >= _SPLIT_MIN and x.size % 2 == 0 and _two_cpus():
        return SpectrumResult(values=_split_pass(x, front, back), params=params)
    with np.errstate(invalid="ignore"):  # Inf in g: dft_forward raises NonFiniteSignalError
        y = back * x
    dft_forward(y, out=y)
    y *= front
    return SpectrumResult(values=y, params=params)


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


def _split_pass(x: np.ndarray, front: np.ndarray, back: np.ndarray) -> np.ndarray:
    """front * D_F * (back * x) for even N, as one radix-2 decimation-in-frequency step.

    With y = back * x, h = N/2 and W_j = e^{2 pi i j/N}, the even bins are
    D_F,h(y[:h] + y[h:]) and the odd bins D_F,h((y[:h] - y[h:]) W); W_j is
    S_2j of the cached base chirp.  Three phases, each a list of tasks that
    this thread and the worker share: the butterfly in place in y, in
    _CHUNKS ranges of j; each half's finite check and its DFT in place; the
    interleaved output times front, in _CHUNKS ranges.  The output is
    allocated only after both DFTs have freed their scratch, so the peak
    stays that of the one pass.  The worker calls numpy only, never a
    traced function of the package.
    """
    n = x.size
    h = n // 2
    w = _base_chirp(n)[::2]
    y = np.empty(n, dtype=np.complex128)
    cuts = [h * k // _CHUNKS for k in range(_CHUNKS + 1)]
    ranges = list(zip(cuts, cuts[1:]))

    def butterfly(lo, hi):
        a, b = y[lo:hi], y[h + lo:h + hi]
        with np.errstate(invalid="ignore"):  # Inf in x: the finite check below raises
            np.multiply(back[lo:hi], x[lo:hi], out=a)
            np.multiply(back[h + lo:h + hi], x[h + lo:h + hi], out=b)
            t = a - b
            a += b
            np.multiply(t, w[lo:hi], out=b)

    def half_dft(u):
        # NaN or Inf anywhere in back * x reaches y[:h], the sums
        if not np.isfinite(u.view(np.float64)).all():
            raise NonFiniteSignalError("signal contains NaN or Inf samples")
        np.fft.ifft(u, norm="forward", out=u)

    def interleave(lo, hi):
        np.multiply(front[2 * lo:2 * hi:2], y[lo:hi], out=out[2 * lo:2 * hi:2])
        np.multiply(front[2 * lo + 1:2 * hi:2], y[h + lo:h + hi], out=out[2 * lo + 1:2 * hi:2])

    _on_two_threads([functools.partial(butterfly, lo, hi) for lo, hi in ranges])
    _on_two_threads([functools.partial(half_dft, y[:h]), functools.partial(half_dft, y[h:])])
    out = np.empty(n, dtype=np.complex128)
    _on_two_threads([functools.partial(interleave, lo, hi) for lo, hi in ranges])
    return out


def _on_two_threads(tasks):
    """Run each callable of tasks once, on this thread or on the worker.

    Both take the next task left until none is; so when another process
    holds the second CPU, this thread runs what the worker has not started
    rather than wait for it to be scheduled.  Returns once both have ended,
    raising what this thread raised, else what the worker raised.  The
    worker stays usable after either.
    """
    global _pool
    with _pool_lock:  # callers on several threads start one worker between them
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # costs ~8 ms: only when first needed

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="xft-dft")
    left = iter(tasks)  # one next() at a time: each task is taken once

    def drain():
        for task in left:
            task()

    future = _pool.submit(drain)
    try:
        drain()
    finally:
        error = None if future.cancel() else future.exception()
    if error is not None:
        raise error


def _forget_pool():
    """A forked child has no worker thread, and its copy of the lock may be held by a
    thread it lacks: it starts its own worker on its first split call."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def frft_dense_check(g, z: complex) -> np.ndarray:
    """O(N^2) evaluation of the scaled fractional kernel; test oracle only.

    (F_z^a)_{jk} = sqrt(2/(1-z^2)) e^{-mu a^2 t_j^2} e^{a nu t_j t_k}
                   e^{-mu t_k^2} dt, applied by direct summation.
    """
    x = as_complex_signal(g)
    params = make_params(z)
    return mehler_entries(x.size, params, params.require_a()) @ x
