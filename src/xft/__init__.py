"""Quadrature discretization of the (fractional) Fourier transform.

The continuous transform is sampled on the uniform asymptotic Hermite-zero
grid; the resulting matrix factors into chirp * DFT * chirp, giving an
O(N log N) evaluation of the spectrum at scaled abscissae.  Dense kernels
built from the exact Hermite eigenproblem serve as slow ground truth, and a
small corpus of closed-form signal/transform pairs backs the regression and
acceptance suites.
"""

from .errors import XftError
from .hermite import asymptotic_grid
from .signals import SignalSpec, sample
from .transform import frft_forward, xft_forward, xft_inverse

__all__ = [
    "SignalSpec",
    "XftError",
    "asymptotic_grid",
    "frft_forward",
    "sample",
    "xft_forward",
    "xft_inverse",
]
