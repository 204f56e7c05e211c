"""Exception types shared across the package.

Everything derives from :class:`FermipinError` so callers (and the CLI) can
catch package failures with a single handler.  Plain ``ValueError`` is still
used for garden-variety precondition violations on arguments.
"""

from __future__ import annotations


class FermipinError(Exception):
    """Base class for all package-specific errors."""


class WidthError(FermipinError):
    """Determinant/operator width problem (overflow past 64 bits, or a
    mismatch between objects built for different orbital counts)."""


class SectorError(FermipinError):
    """A spin-projection restriction cannot be satisfied, or an operation
    would leak amplitude out of the requested sector."""


class ParseError(FermipinError):
    """A text input (integral or catalog file) could not be parsed.

    Carries the 1-based line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SymmetryViolationError(FermipinError):
    """Duplicate tensor entries conflict beyond tolerance, or a stored
    integral tensor breaks its required index symmetry."""


class SpaceTooLargeError(FermipinError):
    """The configuration space exceeds the dense-solver budget."""


class NormalizationError(FermipinError):
    """A CI vector that must be normalized is not."""


class RotationError(FermipinError):
    """An orbital rotation is not orthogonal, or is incompatible with the
    object it is applied to."""


class RepresentabilityError(FermipinError):
    """An occupation spectrum violates a necessary pure-state condition
    (a constraint residual is negative, or an equality fails to hold)."""


class SpectralRangeError(FermipinError):
    """A density matrix has occupations outside [0, 1] or a non-integral
    trace, beyond numerical tolerance."""


class RegimeError(FermipinError):
    """A rank-six spectrum does not match the requested (or any)
    spin-compensated regime."""


class UnsupportedRankError(FermipinError):
    """No built-in constraint catalog exists for the requested (N, m)."""


class NoSurvivorsError(FermipinError):
    """Constraint filtering removed every determinant."""
