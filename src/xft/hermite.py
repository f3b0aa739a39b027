"""Hermite-polynomial machinery: asymptotic nodes, exact zeros, eigenvectors.

The symmetric tridiagonal Jacobi matrix J with off-diagonal entries sqrt(m/2)
has the zeros of the degree-n Hermite polynomial as eigenvalues (Golub &
Welsch 1969); a dense symmetric eigenvalue solve plus one Newton step gives
them to machine precision.  The orthonormal eigenvectors are evaluated through
a rescaled three-term recurrence at those zeros rather than taken from the
eigensolver, whose vectors are accurate only in absolute terms and lose the
relative accuracy of their tiny leading components.  They provide the dense
transform kernels.  For large n the zeros near the center approach the
uniform grid t_k = pi*(k - (n-1)/2)/sqrt(2n), which is the working grid of the
fast transform path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InvalidSizeError

# Largest n for which exact zeros and the dense eigenbasis are offered.
# Intermediate Hermite values reach ~exp(t^2/2) <= exp(512) here, safely below
# overflow.
DENSE_ORACLE_LIMIT = 512


@dataclass(frozen=True)
class Grid:
    """Uniform asymptotic Hermite-zero grid.

    nodes[k] = spacing * (k - (n-1)/2) with spacing = pi/sqrt(2n); the nodes
    are bitwise antisymmetric about 0.
    """

    n: int
    nodes: np.ndarray
    spacing: float


@dataclass(frozen=True)
class EigenBasis:
    """Exact zeros of H_n and the orthonormal eigenvector matrix.

    Column k of u is the unit eigenvector of the Jacobi matrix for eigenvalue
    zeros[k]; the first component of every column is positive.
    """

    zeros: np.ndarray
    u: np.ndarray


def asymptotic_grid(n: int) -> Grid:
    """Return the n uniformly spaced asymptotic Hermite zeros.

    The symmetric index k - (n-1)/2 is exactly representable (integer or
    half-integer), so negation symmetry of the nodes is exact.
    """
    if n < 1:
        raise InvalidSizeError("grid size must be >= 1")
    spacing = np.pi / np.sqrt(2 * n)
    k_sym = np.arange(n) - (n - 1) / 2
    return Grid(n=n, nodes=spacing * k_sym, spacing=spacing)


def scaled_hermite_sequence(n_max: int, t):
    """Evaluate h_0(t)..h_{n_max}(t), the orthonormally scaled Hermite values.

    h_m = H_m / sqrt(2^m m! sqrt(pi)) satisfies
    h_{m+1} = t*sqrt(2/(m+1))*h_m - sqrt(m/(m+1))*h_{m-1},  h_0 = pi^(-1/4).

    Accepts a scalar or an array t; returns shape (n_max+1,) + shape(t).
    Values grow like exp(t^2/2), so doubles overflow only for |t| beyond ~37.
    """
    if n_max < 0:
        raise InvalidSizeError("n_max must be >= 0")
    t = np.asarray(t, dtype=np.float64)
    out = np.empty((n_max + 1,) + t.shape)
    out[0] = np.pi ** -0.25
    if n_max >= 1:
        out[1] = t * np.sqrt(2.0) * out[0]
    for m in range(1, n_max):
        out[m + 1] = t * np.sqrt(2.0 / (m + 1)) * out[m] - np.sqrt(m / (m + 1)) * out[m - 1]
    return out


def exact_hermite_zeros(n: int) -> np.ndarray:
    """Compute the n real zeros of the degree-n Hermite polynomial, ascending.

    The zeros are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    each polished by one Newton step with h_n'(t) = sqrt(2n) h_{n-1}(t).
    Averaging with the mirror image makes them bitwise antisymmetric, so for
    odd n the middle zero is exactly 0.  Only offered for
    n <= DENSE_ORACLE_LIMIT.
    """
    if n < 1:
        raise InvalidSizeError("need n >= 1")
    if n > DENSE_ORACLE_LIMIT:
        raise CapabilityError(
            f"dense Hermite oracle limited to n <= {DENSE_ORACLE_LIMIT}; use the fast transform path"
        )
    off = np.sqrt(np.arange(1, n) / 2.0)
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    h = scaled_hermite_sequence(n, t)
    t -= h[n] / (np.sqrt(2.0 * n) * h[n - 1])
    return (t - t[::-1]) / 2.0


def orthonormal_basis(n: int) -> EigenBasis:
    """Exact zeros plus the orthonormal eigenvector matrix of the Jacobi matrix.

    Column k is proportional to (h_0(t_k), ..., h_{n-1}(t_k)).  It is first
    divided by |h_{n-1}(t_k)|, which by Christoffel-Darboux is its length over
    sqrt(n), so the squares taken by the norm stay finite; h_0 > 0 makes the
    first component positive.  Raises as exact_hermite_zeros does.
    """
    zeros = exact_hermite_zeros(n)
    u = scaled_hermite_sequence(n - 1, zeros)
    u /= np.abs(u[n - 1])
    u /= np.linalg.norm(u, axis=0)
    return EigenBasis(zeros=zeros, u=u)
