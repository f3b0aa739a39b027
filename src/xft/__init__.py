"""Quadrature discretization of the (fractional) Fourier transform.

The continuous transform is sampled on the uniform asymptotic Hermite-zero
grid; the resulting matrix factors into chirp * DFT * chirp, giving an
O(N log N) evaluation of the spectrum at scaled abscissae.  Dense kernels
built from the exact Hermite eigenproblem serve as slow ground truth, and a
small corpus of closed-form signal/transform pairs backs the regression and
acceptance suites.
"""

from .dft_engine import as_complex_signal, dft_forward, dft_inverse
from .errors import (
    AbsentScalingError,
    CapabilityError,
    ComplexAbscissaeError,
    InputParseError,
    InvalidSizeError,
    NoClosedFormError,
    NonFiniteSignalError,
    OutOfDomainError,
    SignalSpecError,
    SingularParameterError,
    XftError,
)
from .hermite import (
    DENSE_ORACLE_LIMIT,
    EigenBasis,
    Grid,
    asymptotic_grid,
    exact_hermite_zeros,
    orthonormal_basis,
    scaled_hermite_sequence,
)
from .kernel_dense import (
    SQRT_2PI,
    TransformParams,
    apply_kernel,
    asymptotic_kernel,
    exact_kernel,
    make_params,
)
from .metrics import ErrorReport, leakage_mean, max_norm_error, peak_frequency
from .signals import (
    CONVENTIONS,
    CORPUS_NAMES,
    SignalSpec,
    reference_transform,
    resolve_convention,
    sample,
)
from .transform import SpectrumResult, frft_dense_check, frft_forward, xft_forward, xft_inverse

__version__ = "0.1.0"

__all__ = [
    "AbsentScalingError",
    "CapabilityError",
    "ComplexAbscissaeError",
    "CONVENTIONS",
    "CORPUS_NAMES",
    "DENSE_ORACLE_LIMIT",
    "EigenBasis",
    "ErrorReport",
    "Grid",
    "InputParseError",
    "InvalidSizeError",
    "NoClosedFormError",
    "NonFiniteSignalError",
    "OutOfDomainError",
    "SignalSpec",
    "SignalSpecError",
    "SingularParameterError",
    "SpectrumResult",
    "SQRT_2PI",
    "TransformParams",
    "XftError",
    "apply_kernel",
    "as_complex_signal",
    "asymptotic_grid",
    "asymptotic_kernel",
    "dft_forward",
    "dft_inverse",
    "exact_hermite_zeros",
    "exact_kernel",
    "frft_dense_check",
    "frft_forward",
    "leakage_mean",
    "make_params",
    "max_norm_error",
    "orthonormal_basis",
    "peak_frequency",
    "reference_transform",
    "resolve_convention",
    "sample",
    "scaled_hermite_sequence",
    "xft_forward",
    "xft_inverse",
]
