"""Fast chirp-FFT-chirp transforms.

The dense scaled-Fourier matrix factors as diagonal * DFT * diagonal, so one
length-N DFT plus two diagonal multiplies evaluates the quadrature transform
at the scaled abscissae a*t_j in O(N log N).  The same factorization with
z-dependent chirp diagonals gives the fractional transform for any z in the
closed unit disk away from 0 and +-1.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .dft_engine import as_complex_signal, as_complex_vector, dft_forward, dft_inverse
from .hermite import asymptotic_grid
from .kernel_dense import TransformParams, make_params, mehler_entries, outer_exponents

# Plans kept per size and per exact bit pattern of z.  The bound covers every
# (N, z) pair a caller cycling over a few sizes and z keeps hot, while a
# stream of fresh z cannot grow memory without limit.
_CHIRP_CACHE_SIZE = 32

# The _plan key of z = i, shared by xft_forward and xft_inverse.
_Z_I_KEY = ((0.0).hex(), (1.0).hex())

# numpy's NPY_MIN_ELIDE_BYTES: from this size on, numpy evaluates front * tmp,
# tmp a temporary such as an FFT result, in place as tmp *= front.
_ELIDE_BYTES = 256 * 1024


@dataclass(frozen=True)
class SpectrumResult:
    """Transform samples plus the abscissae a*t_j they approximate."""

    values: np.ndarray
    params: TransformParams

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
    """
    params = make_params(complex(float.fromhex(z_real_hex), float.fromhex(z_imag_hex)))
    front_exp, back_exp = outer_exponents(params, params.require_a(), asymptotic_grid(n).nodes)
    s = _base_chirp(n)
    c = np.pi * np.exp(1j * np.pi * ((n - 1) ** 2 % (4 * n)) / (2 * n)) / np.sqrt(2 * n)
    front = (params.prefactor * c) * (np.exp(front_exp) * s)
    back = np.exp(back_exp) * s
    return params, front, back


def xft_forward(g) -> SpectrumResult:
    """Scaled Fourier transform: approximates G((4/pi) t_j), G(w) = int e^{iwt} g(t) dt.

    out = (pi e^{i pi (N-1)^2 / 2N} / sqrt(2N)) * S * D_F * (S * g) with
    S_jj = e^{-i pi (N-1) j / N}.
    """
    return frft_forward(g, 1j)


def xft_inverse(G) -> np.ndarray:
    """Inverse of xft_forward, from the same cached z = i plan.

    xft_forward applies front * D_F * back with the diagonals front = c * S
    and back = S, so the inverse divides them out around the inverse DFT:
    g = D_F^{-1}(G / front) / back.  The round trip is algebraic, not
    iterative.  Like frft_forward it works in one buffer of its own.
    """
    x = as_complex_vector(G)
    _, front, back = _plan(x.size, *_Z_I_KEY)
    with np.errstate(invalid="ignore"):  # Inf in G: dft_inverse raises NonFiniteSignalError
        y = x / front
    dft_inverse(y, out=y)
    y /= back
    return y


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

    One pass over one buffer the call owns: y = back * g, the DFT in place in
    y, then y *= front; g is never written.  g is checked only for shape here.
    Its one finite check is dft_forward's, on back * g, which the finite
    chirps leave non-finite wherever g is, so NaN or Inf still raises
    NonFiniteSignalError.  The abscissae are computed on first read.
    """
    x = as_complex_vector(g)
    z = complex(z)
    params, front, back = _plan(x.size, z.real.hex(), z.imag.hex())
    with np.errstate(invalid="ignore"):  # Inf in g: dft_forward raises NonFiniteSignalError
        y = back * x
    dft_forward(y, out=y)
    # Fused complex multiplies round front * y and y * front differently, so
    # keep the bits of numpy's own front * dft_forward(back * g): a fresh
    # product below _ELIDE_BYTES, y *= front from there on.
    if y.nbytes < _ELIDE_BYTES:
        return SpectrumResult(values=front * y, params=params)
    y *= front
    return SpectrumResult(values=y, params=params)


def frft_dense_check(g, z: complex) -> np.ndarray:
    """O(N^2) evaluation of the scaled fractional kernel; test oracle only.

    (F_z^a)_{jk} = sqrt(2/(1-z^2)) e^{-mu a^2 t_j^2} e^{a nu t_j t_k}
                   e^{-mu t_k^2} dt, applied by direct summation.
    """
    x = as_complex_signal(g)
    params = make_params(z)
    return mehler_entries(x.size, params, params.require_a()) @ x
