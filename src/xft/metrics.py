"""Error and leakage measurements for transform outputs."""

import numpy as np

from .dft_engine import as_complex_signal
from .errors import ComplexAbscissaeError, InvalidSizeError

_REAL_AXIS_TOL = 1e-9


def max_norm_error(computed, reference) -> dict:
    """Componentwise max |computed - reference|, overall and per part, by name."""
    c = as_complex_signal(computed)
    r = as_complex_signal(reference)
    if c.size != r.size:
        raise InvalidSizeError(f"length mismatch: {c.size} vs {r.size}")
    diff = c - r
    return {
        "max_norm": float(np.abs(diff).max()),
        "max_norm_real": float(np.abs(diff.real).max()),
        "max_norm_imag": float(np.abs(diff.imag).max()),
    }


def leakage_mean(spectrum) -> float:
    """Mean off-peak magnitude: (sum_k |G_k| - |G_m| - |G_m'|) / N.

    m and m' are the two largest-magnitude bins (distinct indices).  Only their
    two magnitudes enter, so which of several tied bins is taken does not matter.
    Zero for an exact two-pulse spectrum.
    """
    g = as_complex_signal(spectrum)
    if g.size < 3:
        raise InvalidSizeError("leakage needs at least 3 bins")
    mags = np.abs(g)
    return float((mags.sum() - np.partition(mags, -2)[-2:].sum()) / g.size)


def peak_frequency(result) -> float:
    """Abscissa of the largest-magnitude bin of a SpectrumResult among positive real abscissae.

    Only meaningful on the boundary |z| = 1, where the abscissae are real;
    ties resolve to the lowest index.
    """
    om = result.abscissae
    if np.abs(om.imag).max() > _REAL_AXIS_TOL:
        raise ComplexAbscissaeError("peak frequency needs real abscissae (boundary z)")
    pos = om.real > 0
    if not np.any(pos):
        raise InvalidSizeError("no positive abscissae to search")
    mags = np.where(pos, np.abs(result.values), -1.0)
    return float(om.real[int(np.argmax(mags))])
