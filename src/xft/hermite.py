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

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, InvalidSizeError

# Largest n for which exact zeros and the dense eigenbasis are offered.  The
# recurrence rescales its intermediates; the returned h, which reach ~exp(t^2/2)
# <= exp(512) here, and the basis norm stay far below overflow.
DENSE_ORACLE_LIMIT = 512


class Grid(NamedTuple):
    """Uniform asymptotic Hermite-zero grid.

    nodes[k] = spacing * (k - (n-1)/2) with spacing = pi/sqrt(2n); the nodes
    are bitwise antisymmetric about 0.
    """

    n: int
    nodes: np.ndarray
    spacing: float


class EigenBasis(NamedTuple):
    """Exact zeros of H_n and the orthonormal eigenvector matrix.

    Column k of u is the unit eigenvector of the Jacobi matrix for eigenvalue
    zeros[k]; the first component of every column is positive.
    """

    zeros: np.ndarray
    u: np.ndarray


def _size(n, least: int, what: str) -> int:
    """operator.index(n), so numpy integers pass; InvalidSizeError unless an integer >= least."""
    if not hasattr(type(n), "__index__") or operator.index(n) < least:
        raise InvalidSizeError(f"{what} must be an integer >= {least}, not {n!r}")
    return operator.index(n)


def leading_nodes(n: int, m: int) -> np.ndarray:
    """The first m of the n asymptotic nodes pi (k - (n-1)/2) / sqrt(2n), building only those m:
    k - (n-1)/2 is an integer or half-integer, exact, so the n nodes are antisymmetric bit for bit.
    In place, on one array: the bits of the expression, with no temporary."""
    nodes = np.arange(m, dtype=np.float64)
    nodes -= (n - 1) / 2
    nodes *= math.pi / math.sqrt(2 * n)
    return nodes


def asymptotic_grid(n: int) -> Grid:
    """Return the n uniformly spaced asymptotic Hermite zeros: leading_nodes(n, n)."""
    n = _size(n, 1, "grid size")
    return Grid(n=n, nodes=leading_nodes(n, n), spacing=np.pi / np.sqrt(2 * n))


def _hermite_rows(k_max: int, w):
    """(r, s) with h_k(w) = r[k] 2^s[k] at real or complex w: a term past 2^512 and the one
    before it are divided by 2^512, exactly, so r is bitwise the plain recurrence times 2^-s."""
    k_max = _size(k_max, 0, "the largest degree")
    w = np.asarray(w, dtype=np.result_type(w, np.float64))
    rows = np.empty((k_max + 1,) + w.shape, dtype=w.dtype)
    s = np.zeros(rows.shape, dtype=np.int64)
    rows[0] = np.pi ** -0.25
    if k_max >= 1:
        rows[1] = w * np.sqrt(2.0) * rows[0]
    for m in range(1, k_max):
        rows[m + 1] = w * np.sqrt(2.0 / (m + 1)) * rows[m] - np.sqrt(m / (m + 1)) * rows[m - 1]
        big = np.abs(rows[m + 1]) > 2.0 ** 512
        rows[m:m + 2] *= np.where(big, 2.0 ** -512, 1.0)
        s[m + 1] = s[m] = s[m] + 512 * big
    return rows, s


def scaled_hermite_sequence(n_max: int, t):
    """Evaluate h_0(t)..h_{n_max}(t), the orthonormally scaled Hermite values.

    h_m = H_m / sqrt(2^m m! sqrt(pi)) satisfies
    h_{m+1} = t*sqrt(2/(m+1))*h_m - sqrt(m/(m+1))*h_{m-1},  h_0 = pi^(-1/4).

    Accepts a scalar or an array t; returns shape (n_max+1,) + shape(t).
    Values grow like exp(t^2/2), so doubles overflow only for |t| beyond ~37.
    """
    return np.ldexp(*_hermite_rows(n_max, np.asarray(t, dtype=np.float64)))


def hermite_functions(k_max: int, w):
    """Evaluate psi_k(w) = h_k(w) e^{-w^2/2}, k = 0..k_max, at real or complex w.

    Returns shape (k_max+1,) + shape(w).  The Gaussian meets the exponents of the rows
    in two equal factors, so nothing under- or overflows where psi_k is a normal double.
    psi_k is an eigenfunction of every F_z, F_z psi_k = sqrt(2pi) z^k psi_k: an oracle for the
    fast path that needs no closed form per signal.
    """
    rows, s = _hermite_rows(k_max, w)
    half = np.exp(s * (np.log(2.0) / 2) - np.square(w) / 4)
    return rows * half * half


def exact_hermite_zeros(n: int) -> np.ndarray:
    """Compute the n real zeros of the degree-n Hermite polynomial, ascending.

    The zeros are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    each polished by one Newton step with h_n'(t) = sqrt(2n) h_{n-1}(t).
    Averaging with the mirror image makes them bitwise antisymmetric, so for
    odd n the middle zero is exactly 0.  Only offered for
    n <= DENSE_ORACLE_LIMIT.
    """
    n = _size(n, 1, "n")
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
