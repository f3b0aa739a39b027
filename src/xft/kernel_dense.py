"""Dense transform kernels used as slow ground-truth oracles.

Two constructions of the discretized fractional Fourier kernel: the exact one,
sqrt(2pi) U^T diag(1, z, ..., z^{n-1}) U on the exact Hermite zeros, and the
large-n Gaussian (Mehler) limit on the uniform asymptotic grid.  Both are
plain symmetric n x n complex arrays applied by matrix-vector products.
"""

import cmath
from typing import NamedTuple, Optional

import numpy as np

from .dft_engine import as_complex_signal
from .errors import (
    AbsentScalingError,
    CapabilityError,
    InvalidSizeError,
    OutOfDomainError,
    SingularParameterError,
)
from .hermite import asymptotic_grid, orthonormal_basis

SQRT_2PI = np.sqrt(2.0 * np.pi)

# z must stay this far from +-1 for mu, nu and the prefactor to be usable.
SINGULARITY_EPS = 1e-6

# Largest n for which the dense n x n Mehler kernel is built.
MEHLER_LIMIT = 1024

# ||z| - 1| <= UNIT_TOL is the unit circle, as |1.0 * e^{i arg}| is within an ulp of 1: above, out; below, damped.
UNIT_TOL = 2 * np.finfo(float).eps
_ZERO_TOL = 1e-6

_EXP_MAX = float(np.log(np.finfo(np.float64).max))  # about 709.78: exp above it overflows


class TransformParams(NamedTuple):
    """Validated transform parameter z with its derived quantities.

    mu = (1+z^2)/(2(1-z^2)), nu = 2z/(1-z^2), a = 2i(1-z^2)/(pi z) (None when
    |z| < 1e-6), prefactor = principal sqrt(2/(1-z^2)).
    """

    z: complex
    mu: complex
    nu: complex
    a: Optional[complex]
    prefactor: complex

    def require_a(self) -> complex:
        if self.a is None:
            raise AbsentScalingError(
                f"output scaling undefined for |z| = {abs(self.z):.1e} below {_ZERO_TOL:.0e}"
            )
        return self.a


def _disk_point(z) -> complex:
    """z as a complex number; OutOfDomainError unless finite and |z| <= 1 + UNIT_TOL.  Past that band
    the dense kernels' real exponents grow like (|z| - 1) t^2 / |1 - z^2|^2: at 1 + 5e-13 they overflow."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise OutOfDomainError(f"z = {z} is not a finite number")
    if abs(z) > 1.0 + UNIT_TOL:
        raise OutOfDomainError(f"|z| - 1 = {abs(z) - 1:.3g} > UNIT_TOL = {UNIT_TOL:.3g}: outside the unit disk")
    return z


def make_params(z: complex) -> TransformParams:
    """Validate z (closed unit disk, away from +-1) and derive mu, nu, a."""
    z = _disk_point(z)
    one_minus = 1.0 - z * z
    if abs(one_minus) < SINGULARITY_EPS:
        raise SingularParameterError("z too close to +-1: 1 - z^2 is singular")
    mu = (1.0 + z * z) / (2.0 * one_minus)
    nu = 2.0 * z / one_minus
    a = 2j * one_minus / (np.pi * z) if abs(z) >= _ZERO_TOL else None
    prefactor = complex(np.sqrt(np.complex128(2.0 / one_minus)))
    return TransformParams(z=z, mu=mu, nu=nu, a=a, prefactor=prefactor)


def exact_kernel(n: int, z: complex) -> np.ndarray:
    """Kernel sqrt(2pi) U^T diag(z^m) U on the exact zeros of H_n.

    Polynomial in z, so z = +-1 is allowed (identity and parity kernels).
    Stable for all n up to the dense limit; the literal closed-form entry
    formula would overflow past n of about 20.
    """
    z = _disk_point(z)
    basis = orthonormal_basis(n)
    d = np.complex128(z) ** np.arange(n)
    entries = SQRT_2PI * ((basis.u.T * d) @ basis.u)
    return (entries + entries.T) / 2.0


def outer_exponents(n: int, params: TransformParams, scale: complex, t: np.ndarray) -> np.ndarray:
    """(-mu scale^2 t^2, -mu t^2), the kernel's two outer chirp exponents, in the first len(t) columns
    of a new (2, n) complex array, the rest unwritten: t is the first len(t) nodes of the size-n grid.

    Raises CapabilityError naming n, z and the exponent when a row's real part passes log(float64 max),
    before the array is allocated.  Both rows are products with t^2, so even bit for bit; their real
    parts c.real t^2 and -Re(mu) t^2, where positive, peak at node 0, whose |t| is largest.  Re mu < 0
    only past |z| = 1, in the band, where the right row passes near z = +-1 at n of about 2^20.  At
    scale a, a nu t_j t_k = (4i/pi) t_j t_k is imaginary; at scale 1 the kernel's real exponent is
    (|z|^2 - 1) q / |1 - z^2|^2 with 0 <= q <= 4 t[0]^2: below 4.5 in the band at n <= MEHLER_LIMIT.
    """
    c = -params.mu * (scale * scale)
    peak = max(c.real, -params.mu.real) * (t[0] * t[0])
    if peak > _EXP_MAX:
        raise CapabilityError(f"chirp at N = {n}, z = {params.z:.6g} overflows float64: "
                              f"exponent real part {peak:.6g} > {_EXP_MAX:.6g}")
    e = np.empty((2, n), dtype=np.complex128)
    left, right = e[0, :t.size], e[1, :t.size]
    np.multiply(c, np.multiply(t, t, out=right), out=left)  # the factor first: a*b and b*a round differently
    np.multiply(-params.mu, right, out=right)
    return e


def mehler_entries(n: int, params: TransformParams, scale: complex) -> np.ndarray:
    """Mehler-limit kernel on the uniform grid with output scale a = scale.

    entries[j,k] = sqrt(2/(1-z^2)) exp(-mu a^2 t_j^2 + a nu t_j t_k - mu t_k^2) dt,
    from one exponent and one exp, so no factor overflows where the kernel
    does not.

    Raises CapabilityError before allocating when n > MEHLER_LIMIT, and
    before any exp when the exponent would overflow (outer_exponents).
    """
    if n > MEHLER_LIMIT:
        raise CapabilityError(f"dense Mehler kernel limited to n <= {MEHLER_LIMIT}")
    grid = asymptotic_grid(n)
    t = grid.nodes
    left, right = outer_exponents(n, params, scale, t)
    exponent = np.add.outer(left, right) + (scale * params.nu) * np.outer(t, t)
    return (params.prefactor * grid.spacing) * np.exp(exponent)


def asymptotic_kernel(n: int, z: complex) -> np.ndarray:
    """Mehler-limit kernel on the uniform grid: mehler_entries at output scale 1.

    Bitwise symmetric: its two outer exponents are one array, and add.outer
    and outer are symmetric.
    """
    return mehler_entries(n, make_params(z), 1.0)


def apply_kernel(kernel: np.ndarray, g) -> np.ndarray:
    """Matrix-vector product: the quadrature approximation at the nodes."""
    x = as_complex_signal(g)
    if x.size != kernel.shape[0]:
        raise InvalidSizeError(f"signal length {x.size} != kernel size {kernel.shape[0]}")
    return kernel @ x
