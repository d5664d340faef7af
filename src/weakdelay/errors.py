"""Exception types raised by the weakdelay package.

The CLI maps these onto exit codes: model / estimator failures exit with 1,
input format problems exit with 2.
"""

from __future__ import annotations


class WeakDelayError(Exception):
    """Base class for all package errors."""


class DomainError(WeakDelayError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularWeakValueError(DomainError):
    """Pre/postselection is (nearly) orthogonal and the weak value diverges."""


class ModelError(WeakDelayError):
    """Inputs are outside the validity region of the measurement model."""


class BracketingError(ModelError):
    """No score root was bracketed; the message names the searched range."""


class DegenerateRecordError(ModelError):
    """The record carries no usable signal for the requested estimator."""


class SolverError(ModelError):
    """A numerical solver could not produce a usable root."""


class FormatError(WeakDelayError, ValueError):
    """A record file or configuration document failed to parse or validate."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
