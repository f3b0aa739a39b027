"""Built-in test-signal corpus with closed-form reference transforms.

Six signal families: a quadratic-phase cosine, a singular exponential ratio, a
pure harmonic on the symmetric index grid, a shifted Gaussian, the constant
one, and the unit rectangle.  Where a closed form exists, reference_transform
evaluates it in the scale the transforms produce; resolve_convention checks
which scale the dense exact kernel realizes.
"""

from dataclasses import dataclass, field

import numpy as np

from .dft_engine import as_complex_signal
from .errors import CapabilityError, NoClosedFormError, SignalSpecError
from .hermite import Grid, orthonormal_basis
from .kernel_dense import SQRT_2PI, apply_kernel, exact_kernel

# family -> {parameter name: default}; None marks a required one, and harmonic
# takes exactly one of its two (m, or omega0, the angular frequency on the t axis)
PARAM_NAMES = {"chirp_cos": {}, "cauchy_exp": {"b": 1.0}, "harmonic": {"m": None, "omega0": None},
               "gauss_beta": {"beta": None}, "constant_one": {}, "rect": {}}
CORPUS_NAMES = tuple(PARAM_NAMES)

_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SignalSpec:
    """A corpus entry name plus its named real parameters."""

    name: str
    params: dict = field(default_factory=dict)


def _params(spec: SignalSpec) -> dict:
    """The family's parameters as floats, with the defaults of PARAM_NAMES filled in."""
    table = PARAM_NAMES.get(spec.name)
    if table is None:
        raise SignalSpecError(f"unknown signal {spec.name!r}; choose from {CORPUS_NAMES}")
    extra = sorted(set(spec.params) - set(table))
    if extra:
        raise SignalSpecError(f"signal {spec.name!r} does not take {', '.join(extra)}; "
                              f"accepted: {', '.join(table) or 'none'}")
    if spec.name == "harmonic" and len(spec.params) != 1:
        raise SignalSpecError("harmonic requires exactly one of parameters 'm', 'omega0'")
    p = {}
    for key, default in table.items():
        if key in spec.params:
            try:
                p[key] = float(spec.params[key])
            except (TypeError, ValueError):
                raise SignalSpecError(f"parameter {key!r} of {spec.name!r} must be a real number")
            if not np.isfinite(p[key]):
                raise SignalSpecError(f"parameter {key!r} of {spec.name!r} must be a finite real number")
        elif default is not None:
            p[key] = default
        elif spec.name != "harmonic":
            raise SignalSpecError(f"signal {spec.name!r} requires parameter {key!r}")
    if spec.name == "cauchy_exp" and p["b"] <= 0:
        raise SignalSpecError("cauchy_exp requires b > 0")
    return p


# a pole, an infinite frequency or an overflow raises NonFiniteSignalError, unwarned
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def sample(spec: SignalSpec, grid: Grid) -> np.ndarray:
    """Evaluate the signal at the grid nodes (symmetric indices for harmonic)."""
    p = _params(spec)
    t = grid.nodes
    if spec.name == "chirp_cos":
        out = np.cos(t * t)
    elif spec.name == "cauchy_exp":
        out = np.exp(-t / 2) / (p["b"] - np.exp(-t))
    elif spec.name == "harmonic":
        m = p["m"] if "m" in p else p["omega0"] * np.sqrt(2 * grid.n) / 4.0
        k_sym = np.arange(grid.n) - (grid.n - 1) / 2
        out = np.cos(k_sym * (2 * np.pi * m / grid.n))
    elif spec.name == "gauss_beta":
        out = np.exp(-t * t / 2 + p["beta"] * t)
    elif spec.name == "constant_one":
        out = np.ones(grid.n)
    else:
        out = np.where(np.abs(t) < 0.5, 1.0, np.where(np.abs(t) == 0.5, 0.5, 0.0))
    return as_complex_signal(out)


def _require_z_i(z: complex, name: str):
    if abs(z - 1j) > _BOUNDARY_TOL:
        raise NoClosedFormError(f"{name} has a closed form only at z = i")


# an overflowing closed form raises CapabilityError, unwarned
@np.errstate(over="ignore", invalid="ignore")
def reference_transform(spec: SignalSpec, z: complex, omega):
    """Closed-form transform value(s) at omega for the supported (spec, z) pairs,
    in the scale the transforms in this package produce.  omega may be a scalar
    or array.
    """
    p = _params(spec)
    w = np.asarray(omega, dtype=np.complex128)
    z = complex(z)

    if spec.name == "chirp_cos":
        _require_z_i(z, spec.name)
        val = np.sqrt(np.pi) * np.cos((w * w - np.pi) / 4)
    elif spec.name == "cauchy_exp":
        _require_z_i(z, spec.name)
        arg = np.pi / 2 - 1j * np.pi * w
        val = np.pi * p["b"] ** (-0.5 - 1j * w) * (np.cos(arg) / np.sin(arg))
    elif spec.name == "rect":
        _require_z_i(z, spec.name)
        small = np.abs(w) < 1e-8
        safe = np.where(small, 1.0, w)
        val = np.where(small, 1.0 - w * w / 24, 2 * np.sin(safe / 2) / safe)
    elif spec.name == "gauss_beta":
        # the coherent-state image under z^n: it holds on the whole disk
        beta = p["beta"]
        val = SQRT_2PI * np.exp(-w * w / 2 + beta * z * w - beta * beta * (z * z - 1) / 4)
    elif spec.name == "constant_one":
        if abs(abs(z) - 1.0) > _BOUNDARY_TOL:
            raise NoClosedFormError("constant_one has a closed form only on |z| = 1")
        phi = float(np.angle(z))
        c = np.cos(phi)
        if abs(c) < 1e-12:
            raise NoClosedFormError("constant_one closed form degenerates at phi = pi/2")
        val = SQRT_2PI * np.exp(0.5j * (w * w * np.tan(phi) - phi)) / np.sqrt(np.complex128(c))
    else:
        raise NoClosedFormError("harmonic has no pointwise closed form; use the pulse metrics")
    if not np.all(np.isfinite(val)):
        raise CapabilityError(f"closed form of {spec.name!r} overflows float64 at these abscissae")
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return complex(val)
    return val


def resolve_convention(n: int = 64) -> str:
    """Pick the normalization the dense exact kernel realizes on a Gaussian.

    Applies the exact kernel at z = i to samples of e^{-t^2/2} at the exact
    zeros and compares against both candidate scales of the self-transform.
    """
    basis = orthonormal_basis(n)
    g = np.exp(-basis.zeros ** 2 / 2)
    got = apply_kernel(exact_kernel(n, 1j), g)
    err_paper = np.abs(got - SQRT_2PI * g).max()
    err_namias = np.abs(got - g).max()
    return "paper" if err_paper <= err_namias else "namias"
