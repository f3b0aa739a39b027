"""Discrete Fourier transform with a positive-exponent forward convention.

The forward transform applies the matrix D_F with entries e^{+i 2pi jk/N}.
That is numpy's inverse FFT without its 1/N scale, so both directions run on
numpy's pocketfft, O(N log N) for every N (Bluestein's chirp-z for sizes
with large prime factors).
"""

import numpy as np

from .errors import InvalidSizeError, NonFiniteSignalError


def as_complex_vector(v) -> np.ndarray:
    """Return v as a 1-D complex128 array, without checking its samples.

    Raises InvalidSizeError for empty or non-1-D input.
    """
    out = np.asarray(v, dtype=np.complex128)
    if out.ndim != 1 or out.size == 0:
        raise InvalidSizeError("signal must be a nonempty 1-D vector")
    return out


def as_complex_signal(v) -> np.ndarray:
    """Validate and return v as a 1-D complex128 array (the signal payload).

    Raises InvalidSizeError for empty or non-1-D input and
    NonFiniteSignalError if any sample is NaN or Inf.
    """
    out = as_complex_vector(v)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise NonFiniteSignalError("signal contains NaN or Inf samples")
    return out


def dft_forward(v, out=None) -> np.ndarray:
    """Apply D_F: out[j] = sum_k e^{+i 2pi jk/N} v[k].

    out, as in np.fft, receives the result and may be v itself.
    """
    return np.fft.ifft(as_complex_signal(v), norm="forward", out=out)


def dft_inverse(v, out=None) -> np.ndarray:
    """Apply D_F^{-1}: out[j] = (1/N) sum_k e^{-i 2pi jk/N} v[k]; out as in dft_forward."""
    return np.fft.fft(as_complex_signal(v), norm="forward", out=out)
