"""Exception types shared across the library."""


class XftError(Exception):
    """Base class for all library errors."""


class InvalidSizeError(XftError):
    """Empty input, or input lengths that do not match."""


class NonFiniteSignalError(XftError):
    """Signal construction saw NaN or Inf samples."""


class CapabilityError(XftError):
    """Beyond a path: a dense size over its limit, or a chirp or finite signal's transform past float64."""


class OutOfDomainError(XftError):
    """Transform parameter z lies outside the closed unit disk."""


class SingularParameterError(XftError):
    """z too close to +-1: the kernel prefactor and exponents blow up."""


class AbsentScalingError(XftError):
    """The output scaling a = 2i(1-z^2)/(pi z) is undefined (|z| < 1e-6)."""


class NoClosedFormError(XftError):
    """The corpus has no reference transform for this (signal, z) pair."""


class SignalSpecError(XftError):
    """Unknown corpus signal name, or missing/invalid parameters."""


class InputParseError(XftError):
    """Malformed signal input file."""


class ComplexAbscissaeError(XftError):
    """Operation requires real evaluation abscissae (boundary z only)."""
