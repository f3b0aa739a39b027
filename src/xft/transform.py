"""Fast chirp-FFT-chirp transforms.

The dense scaled-Fourier matrix factors as diagonal * DFT * diagonal, so one
length-N DFT plus two diagonal multiplies evaluates the quadrature transform
at the scaled abscissae a*t_j in O(N log N).  The same factorization with
z-dependent chirp diagonals gives the fractional transform for any z in the
closed unit disk away from 0 and +-1: a damped z whose chirps would grow
is first rotated by a fixed z2, F_z = F_{z/z2} F_{z2} / sqrt(2 pi): two such passes.
One byte-bounded cache holds the chirp plans, and even N >= 2^17 run each DFT as a
four-step pass on two threads.
"""

import cmath
import collections
import contextvars
import functools
import math
import os
import threading

import numpy as np

from .dft_engine import as_complex_signal, as_complex_vector, dft_forward
from .errors import CapabilityError, NonFiniteSignalError
from .hermite import asymptotic_grid, leading_nodes
from .kernel_dense import SQRT_2PI, UNIT_TOL, TransformParams, make_params, mehler_entries, outer_exponents

# A damped z with Re(z^2) > 0, whose one pass has chirps and rounding error that grow like N, runs as
# F_z = F_w F_z2 / sqrt(2 pi), w = z / z2 (index additivity; the order reduction of Ozaktas, Arikan,
# Kutay & Bozdagi 1996).  z2 = e^{i phi}, sin phi = pi/4, has a(z2) = 4 sin(phi) / pi = 1: its output
# lies on the input grid, so nothing is resampled.  Keyed by the sign of Im(z^2): e^{i(pi - phi0)} for
# +1 and e^{i phi0} for -1 (phi0 = arcsin(pi/4)) put arg w within pi/2 - phi0 (0.67 rad) of pi/2 mod pi,
# inside the sector Re(w^2) <= 0 where both of F_w's chirps decay.
# -z2, at a = -1, would do as well: its pass gives the same array, read on the reversed grid.
_COS0 = math.sqrt(1 - math.pi ** 2 / 16)  # cos(phi0)
_Z2 = {1: complex(-_COS0, math.pi / 4), -1: complex(_COS0, math.pi / 4)}

# The chirp cache of its four builders, _base_chirp, _plan, _stage_one and _twiddle: (name, args) ->
# (value, size), least recently used first, holding at most _CACHE_BYTES bytes and _CACHE_ENTRIES
# entries per builder: one bound of 32 for one-pass and two-pass plans together.  size sums the
# nbytes of the entry's own arrays: a z = +-i plan also counts the S it shares, a rotated plan the
# first pass's chirp.  One (N, z) counts about 64N bytes (S 16N, plan 32N, twiddle 16N): N <= 2^22
# fits.  A plan's first request stores its key alone, as (None, 0); the count bounds those keys too.
_CACHE_BYTES, _CACHE_ENTRIES = 256 * 2**20, 32
_cache, _cache_lock = collections.OrderedDict(), threading.Lock()
_cache_bytes, _counts = 0, collections.Counter()  # the sum of the sizes; entries per builder

# Even sizes from here up run the DFT as a four-step pass on two threads, on any host: the bits do not
# depend on the CPU count.
_SPLIT_MIN = 2**17

# Split pass: n1 = N's largest power-of-two factor, at most _N1_MAX; _CHUNKS tasks per phase.
_N1_MAX = 16
_CHUNKS = 4

# The split pass's one worker pool, under the key "worker": mutated, never rebound (the fork hook holds it).
_pool = {}


class SpectrumResult:
    """Transform samples, the parameters of the z asked for, and the output scale: the samples
    approximate the transform at the abscissae scale*t_j.  scale is _plan's: params.a, or a(z/z2)
    for a z that frft_forward rotates by z2."""

    def __init__(self, values: np.ndarray, params: TransformParams, scale: complex):
        self.values, self.params, self.scale = values, params, scale

    @functools.cached_property
    def abscissae(self) -> np.ndarray:
        """scale*t_j, computed on first read: most callers only need the values."""
        return self.scale * asymptotic_grid(self.values.size).nodes


def _cached(build, second_miss=False):
    """build, memoized in the chirp cache (__wrapped__ skips it); it runs unlocked, as builders nest.
    With second_miss, a key's first miss stores the key alone, an entry of 0 bytes that counts
    toward _CACHE_ENTRIES, and its next miss stores the value: a key requested once keeps no array
    (the doorkeeper of TinyLFU, Einziger, Friedman & Manes 2017).  An entry whose own arrays pass
    _CACHE_BYTES is returned unstored, its key too, and evicts nothing."""
    name = build.__name__

    @functools.wraps(build)
    def get(*args):
        global _cache_bytes
        key = name, args  # no function object in it: the garbage collector need not track keys
        with _cache_lock:
            value = _cache.get(key, (None,))[0]  # None: a miss, the key unseen or seen once
            if value is not None:
                _cache.move_to_end(key)
                return value
        value = build(*args)
        size = 0
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False  # shared by every caller: no out= may write into it
                size += a.nbytes
        with _cache_lock:
            seen = key in _cache
            if seen and _cache[key][0] is not None:  # of two racing builds, the first stored is kept
                return _cache[key][0]
            if size > _CACHE_BYTES:
                return value
            if seen or not second_miss:
                _cache[key], _cache_bytes = (value, size), _cache_bytes + size
                _cache.move_to_end(key)
            else:
                _cache[key] = None, 0
            _counts[name] += not seen
            while _counts[name] > _CACHE_ENTRIES or _cache_bytes > _CACHE_BYTES:
                old = next(k for k in _cache if k[0] == name or _cache_bytes > _CACHE_BYTES)
                _counts[old[0]] -= 1
                _cache_bytes -= _cache.pop(old)[1]
        return value
    return get


@_cached
def _base_chirp(n: int) -> np.ndarray:
    """S_jj = e^{-i pi (n-1) j / n}, the phase reduced mod 2 pi in int64 before
    the exp: rounding the unreduced argument, up to about pi n, costs n ulps."""
    return np.exp((-1j * np.pi / n) * ((n - 1) * np.arange(n, dtype=np.int64) % (2 * n)))


@functools.partial(_cached, second_miss=True)  # a fresh z would leave a plan no later call reads
def _plan(n: int, z_real_hex: str, z_imag_hex: str):
    """(params, scale, back, *fronts) for size n and the z with these bits: frft_forward's output
    is fronts[-1] * D_F(... fronts[0] * D_F(back * g)), at the abscissae scale * t_j.

    One pass, (params, a, S2, K c S1): S1 = e^{-mu a^2 t^2} S, S2 = e^{-mu t^2} S, K the prefactor
    and c = pi e^{i pi (n-1)^2 / 2n} / sqrt(2n), its phase reduced mod 2 pi in integers like that
    of S.  At z = e^{i phi} the S1 exponent, -2i sin(2 phi) k^2 / n with k = j - (n-1)/2, reaches
    n |sin 2 phi| / 2 rad, about 2.6e5 at n = 2^19: its error there is conditioning in z, not
    rounding, as a one-ulp change of z moves the phase about as much.  At z = +-i, mu is 0: back is
    S, and for _split_pass the front is the scalar K c, so the plan holds no array of its own.
    A z that _rotation rotates by z2 runs two passes,
    (params, a(w), S2(z2), S2(z2) S2(w), K' S1(w)) with w = z / z2: the first pass's chirp is
    _stage_one's, and its front, prefactor(z2) c S2(z2) at a(z2) = 1, folds into the middle chirp,
    with K' = prefactor(w) c prefactor(z2) c / sqrt(2 pi).  params are z's: make_params refuses a
    z before any array is built, and errors are not cached, so only a valid z enters the cache.
    """
    z = complex(float.fromhex(z_real_hex), float.fromhex(z_imag_hex))
    params, c = make_params(z), _c(n)
    if params.mu == 0:  # z = +-i: both exponents are exact zeros, so S1 = S2 = S and no exp
        s, kc = _base_chirp(n), params.prefactor * c
        return params, params.a, s, kc if n >= _SPLIT_MIN and n % 2 == 0 else kc * s
    sign = _rotation(z)
    if not sign:
        front, back = _chirps(n, params, params.prefactor * c)
        return params, params.a, back, front
    z2 = _Z2[sign]
    rotated = make_params(z / z2)
    k2 = cmath.sqrt(2 / (1 - z2 * z2)) * c / SQRT_2PI  # the first pass's front over its chirp, and 1/sqrt(2 pi)
    front, middle = _chirps(n, rotated, rotated.prefactor * c * k2)
    back = _stage_one(n, sign)
    np.multiply(middle, back, out=middle)
    return params, rotated.a, back, middle, front


@functools.lru_cache(maxsize=_CACHE_ENTRIES)  # one scalar per n: its numpy scalar calls cost a fresh z 2 us
def _c(n: int) -> np.complex128:
    """c = pi e^{i pi (n-1)^2 / 2n} / sqrt(2n)."""
    return np.pi * np.exp(1j * np.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)


def _chirps(n: int, params: TransformParams, k: complex) -> np.ndarray:
    """The (2, n) array of k * S1 and S2 for params, or CapabilityError before S is built.

    Both exponents, products with t^2, are even bit for bit: one exp on the first h = ceil(n/2)
    nodes, mirrored, is the full-grid exp.  One outer_exponents call on those h nodes refuses or
    returns the (2, n) array, its first h columns holding the exponents, then their exp: a build
    holds that array and the h nodes, no more.
    """
    h = (n + 1) // 2
    chirps = outer_exponents(n, params, params.require_a(), leading_nodes(n, h))  # refused before S
    e, s = chirps[:, :h], _base_chirp(n)
    np.exp(e, out=e)
    for row in chirps:  # row by row: one (2, n - h) call within this buffer rounds back[2] differently at n = 3
        np.multiply(row[:n - h][::-1], s[h:], out=row[h:])
    np.multiply(e, s[:h], out=e)
    np.multiply(k, chirps[0], out=chirps[0])  # scalar first: front *= K rounds differently
    return chirps


@_cached
def _stage_one(n: int, sign: int) -> np.ndarray:
    """e^{-mu2 t^2} S for z2 = _Z2[sign], a pure phase: mu2 = (i/2) cot(arg z2) = -sign 2i cos(phi0) / pi.
    A rotated z's first pass takes it as its back chirp; its front, prefactor(z2) c times this
    chirp at a(z2) = 1, folds into the second pass's chirps.  Every z of one sign shares it."""
    t = leading_nodes(n, n)
    return np.exp((sign * 2j * _COS0 / np.pi) * (t * t)) * _base_chirp(n)


def _rotation(z: complex) -> int:
    """0 where frft_forward runs z in one pass, else the key of the z2 in _Z2 that it rotates z by: a damped
    z (|z| < 1 - UNIT_TOL, below the band) with Re(z^2) > 0 takes the sign of Im(z^2), +1 at Im(z^2) = 0."""
    if (z * z).real > 0 and abs(z) < 1 - UNIT_TOL:
        return 1 if z.real * z.imag >= 0 else -1
    return 0


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
    """Fractional transform at parameter z, evaluated at the abscissae scale*t_j.

    z lies in the closed unit disk, |z| <= 1 + UNIT_TOL (OutOfDomainError), away from +-1
    (SingularParameterError) and at |z| >= 1e-6 (AbsentScalingError); z = i is xft_forward.  g is never
    written; NaN or Inf in g raises NonFiniteSignalError, and a finite g whose transform overflows
    float64 CapabilityError, unwarned.  _plan gives the chirps, one pass or, for a damped z with
    Re(z^2) > 0, two, whose abscissae are the second pass's: scale = a(z/z2), while params are z's.

    The output scale is |a| ~ 2/(pi |z|), so as |z| falls the grid stops resolving the
    transform while the values stay correct.  With gauss_beta, beta = 1.3, arg z = 0.1, N = 1024:
    at |z| = 0.01, |a| = 63.7 and the error is 5.7e-16 of max|ref|; at |z| = 1e-3, |a| = 637, the
    largest output is 6.7e-45 and only the two central nodes are nonzero, as in the closed form.
    Near arg z = +-pi/4 and +-3pi/4 there, the phases' conditioning costs up to 1e-10 of max|ref|.
    On the unit circle the grid resolves psi_k to about k = 0.3N: past that the error against
    sqrt(2pi) z^k psi_k first passes 1e-11 between k = 0.35N and 0.58N, and 1e-2 by 0.5N to 0.61N.
    """
    x = as_complex_vector(g)
    z = complex(z)
    params, scale, back, *fronts = _plan(x.size, z.real.hex(), z.imag.hex())
    fired = []  # overflow or invalid flags, here or on the worker: only then is the output checked
    try:
        with np.errstate(over="call", invalid="call", call=lambda *flag: fired.append(flag)):
            if x.size >= _SPLIT_MIN and x.size % 2 == 0:
                y = x
                for front in fronts:  # a rotated z's middle chirp is its first pass's front; no second back
                    y, back = _split_pass(y, front, back), None
            else:
                y = back * x
                for front in fronts:
                    dft_forward(y, out=y)
                    y *= front
        if not fired or np.isfinite(y.view(np.float64)).all():
            return SpectrumResult(y, params, scale)
    except NonFiniteSignalError:  # NaN or Inf in g, or a second pass fed a first pass that overflowed
        if not np.isfinite(x).all():
            raise
    raise CapabilityError(f"transform at N = {x.size}, z = {z:.6g} overflows float64 for this signal")


def _split_pass(x: np.ndarray, front: np.ndarray, back: np.ndarray | None) -> np.ndarray:
    """front * D_F * (back * x) for even N, as one four-step pass (Bailey 1990).  back None reads x as
    is and writes the output over it: x is then the caller's own buffer, a rotated z's first pass output.

    With y = back * x, N = n1 n2 and W = e^{2 pi i/N}, bin k1 + n1 k2 of D_F y is
    D_F,n2 over j2 of a[k1, j2] = W^(k1 j2) D_F,n1(y[j1 n2 + j2] over j1)_k1.  Three
    phases of tasks that this thread and the worker share, each in _CHUNKS ranges:
    columns of a (y, its finite check, the length-n1 DFTs in place, the twiddle);
    the rows' DFTs in place; the output, the transpose of a times front.  No DFT
    needs an N-sized scratch.  The worker calls numpy only, never a traced function.
    A scalar front (z = +-i, where back is S) times back first fills the task's
    output slice, which then takes the product: the bits of front = scalar * S,
    with no N-sized temporary.
    """
    tw = _twiddle(x.size)
    n1, n2 = tw.shape
    a = np.empty((n1, n2), dtype=np.complex128)
    out = x if back is None else np.empty(x.size, dtype=np.complex128)  # columns have read x before any output

    def columns(lo, hi):
        u, v = a[:, lo:hi], x.reshape(n1, n2)[:, lo:hi]
        if back is None:
            u[...] = v
        else:
            np.multiply(back.reshape(n1, n2)[:, lo:hi], v, out=u)
        if not np.isfinite(u.view(np.float64)).all():
            raise NonFiniteSignalError("signal contains NaN or Inf samples")
        np.fft.ifft(u, axis=0, norm="forward", out=u)
        u *= tw[:, lo:hi]

    def rows(lo, hi):
        np.fft.ifft(a[lo:hi], axis=1, norm="forward", out=a[lo:hi])

    def transpose(lo, hi):
        o = out.reshape(n2, n1)[lo:hi]
        f = front.reshape(n2, n1)[lo:hi] if front.ndim else np.multiply(front, back.reshape(n2, n1)[lo:hi], out=o)
        np.multiply(f, a[:, lo:hi].T, out=o)  # front first: swapped operands round differently

    for task, m in ((columns, n2), (rows, n1), (transpose, n2)):
        cuts = [m * k // _CHUNKS for k in range(_CHUNKS + 1)]
        _on_two_threads([functools.partial(task, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi])
    return out


@_cached
def _twiddle(n: int) -> np.ndarray:
    """W^(k1 j2) on the split pass's (n1, n/n1) grid, W = e^{2 pi i/n}, n even, with no exp:
    W^m = S_2m for m < n/2 and -S_(2m-n) from there.  Freeing the 2n-long source raises glibc's
    mmap and trim thresholds, so later calls reuse the pass's buffers rather than fault them in."""
    n1 = min(n & -n, _N1_MAX)
    s = _base_chirp(n)
    return np.concatenate((s, -s))[2 * np.arange(n1)[:, None] * np.arange(n // n1)]  # k1 j2 < n


def _warm():  # on import and on the worker before its first task: grows the thread's malloc arena
    for _ in range(2):  # 4 MiB: the first is mmapped and freeing it raises glibc's thresholds; the second is not
        np.ones(2**18, dtype=np.complex128)


_warm()  # later calls' buffers, and the plans fresh z build and drop, up to 4 MiB reuse its pages, not fresh ones


def _on_two_threads(tasks):
    """Run each callable of tasks once, on this thread or on the worker.

    Both take the next task left until none is; so when the worker is not scheduled
    (one CPU, or another process holds the second), this thread runs what it has not
    started.  Returns once both have ended, raising what this thread raised, else
    what the worker raised.  The worker stays usable after either.  Where no worker
    can be had (interpreter shutdown, no thread can start), this thread runs every
    task, with the same bits, and drops the pool with any work a failed start left
    queued; a forked child drops it too.
    """
    left = iter(tasks)  # one next() at a time: each task is taken once

    def drain():
        for task in left:
            task()

    try:
        pool = _pool.get("worker")
        if pool is None:  # racing callers may each build one; only the stored one gets work and a thread
            from concurrent.futures import ThreadPoolExecutor  # costs ~8 ms: only when first needed
            pool = _pool.setdefault("worker", ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="xft-dft", initializer=_warm))
        future = pool.submit(contextvars.copy_context().run, drain)  # with this thread's np.errstate
    except RuntimeError:  # after shutdown began, or "can't start new thread"
        _pool.clear()
        return drain()
    try:
        drain()
    finally:
        error = None if future.cancel() else future.exception()
    if error is not None:
        raise error


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread: it builds its own pool
    os.register_at_fork(after_in_child=_pool.clear)


def frft_dense_check(g, z: complex) -> np.ndarray:
    """O(N^2) evaluation of the scaled fractional kernel at frft_forward's abscissae; test oracle only.

    (F_z^s)_{jk} = sqrt(2/(1-z^2)) e^{-mu s^2 t_j^2} e^{s nu t_j t_k}
                   e^{-mu t_k^2} dt, applied by direct summation, with s = a, or
    a(z/z2) for a z that frft_forward rotates.  It keeps the one-pass form, one
    Mehler kernel of F_z: a rotated z's two passes are another quadrature of
    F_z, which agrees with it only where both resolve the signal (1e-13 on
    random samples at z = 0.7e^{0.5i}, N = 128; 3e-4 at 0.99e^{0.3i},
    N = 1021), so closed forms check the rotated path.  At s = a(z/z2) the real
    exponent is a negative definite form in (t_j, t_k) on a dense scan of that
    region, so no entry overflows.
    """
    x = as_complex_signal(g)
    params = make_params(z)
    sign = _rotation(params.z)
    scale = make_params(params.z / _Z2[sign]).require_a() if sign else params.require_a()
    return mehler_entries(x.size, params, scale) @ x
