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

from .dft_engine import as_complex_signal, dft_forward, dft_inverse
from .hermite import asymptotic_grid
from .kernel_dense import TransformParams, make_params, mehler_entries

# Chirp diagonals kept per size and per exact bit pattern of z.  The bound
# covers every (N, z) pair a caller cycling over a few sizes and z keeps hot,
# while a stream of fresh z cannot grow memory without limit.
_CHIRP_CACHE_SIZE = 32


@dataclass(frozen=True)
class SpectrumResult:
    """Transform samples plus the abscissae a*t_j they approximate."""

    values: np.ndarray
    abscissae: np.ndarray
    scale_a: complex
    params: TransformParams


@functools.lru_cache(maxsize=_CHIRP_CACHE_SIZE)
def _base_chirp(n: int) -> np.ndarray:
    return np.exp((-1j * np.pi * (n - 1) / n) * np.arange(n))


def _front_constant(n: int) -> complex:
    return np.pi * np.exp(1j * np.pi * (n - 1) ** 2 / (2 * n)) / np.sqrt(2 * n)


@functools.lru_cache(maxsize=_CHIRP_CACHE_SIZE)
def _frft_chirps(n: int, z_real_hex: str, z_imag_hex: str):
    """Diagonals S1 = e^{-mu a^2 t^2} S and S2 = e^{-mu t^2} S, keyed by z's bits."""
    params = make_params(complex(float.fromhex(z_real_hex), float.fromhex(z_imag_hex)))
    t = asymptotic_grid(n).nodes
    s = _base_chirp(n)
    a = params.require_a()
    s1 = np.exp(-params.mu * (a * a) * t * t) * s
    s2 = np.exp(-params.mu * t * t) * s
    return s1, s2


def xft_forward(g) -> SpectrumResult:
    """Scaled Fourier transform: approximates G((4/pi) t_j), G(w) = int e^{iwt} g(t) dt.

    out = (pi e^{i pi (N-1)^2 / 2N} / sqrt(2N)) * S * D_F * (S * g) with
    S_jj = e^{-i pi (N-1) j / N}.
    """
    return frft_forward(g, 1j)


def xft_inverse(G) -> np.ndarray:
    """Inverse of xft_forward: conjugate chirps around an inverse DFT.

    With c the forward constant, the factored inverse is
    (1/c) * conj(S) * D_F^{-1} * (conj(S) * G); the roundtrip is algebraic,
    not iterative.
    """
    x = as_complex_signal(G)
    n = x.size
    s_conj = np.conj(_base_chirp(n))
    back = np.sqrt(2 * n) * np.exp(-1j * np.pi * (n - 1) ** 2 / (2 * n)) / np.pi
    return back * (s_conj * dft_inverse(s_conj * x))


def frft_forward(g, z: complex) -> SpectrumResult:
    """Fractional transform at parameter z, evaluated at the abscissae a*t_j.

    out = sqrt(2/(1-z^2)) * c * S1 * D_F * (S2 * g) with the chirp diagonals
    of _frft_chirps.  At z = i the diagonals collapse to S: xft_forward is
    that case.
    """
    x = as_complex_signal(g)
    n = x.size
    params = make_params(z)
    a = params.require_a()
    s1, s2 = _frft_chirps(n, params.z.real.hex(), params.z.imag.hex())
    values = params.prefactor * (_front_constant(n) * (s1 * dft_forward(s2 * x)))
    return SpectrumResult(
        values=values,
        abscissae=a * asymptotic_grid(n).nodes.astype(np.complex128),
        scale_a=a,
        params=params,
    )


def frft_dense_check(g, z: complex) -> np.ndarray:
    """O(N^2) evaluation of the scaled fractional kernel; test oracle only.

    (F_z^a)_{jk} = sqrt(2/(1-z^2)) e^{-mu a^2 t_j^2} e^{a nu t_j t_k}
                   e^{-mu t_k^2} dt, applied by direct summation.
    """
    x = as_complex_signal(g)
    params = make_params(z)
    return mehler_entries(x.size, params, params.require_a()) @ x
