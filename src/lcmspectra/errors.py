"""Exception types shared across the toolkit."""

__all__ = [
    "InvalidRegime",
    "NoClosedForm",
    "CertificateUnavailable",
    "EigensolverError",
    "PrimeOutOfRange",
    "FloorTooHigh",
    "EnumerationInfeasible",
    "EnumerationCapExceeded",
    "VerificationFailed",
]


class InvalidRegime(ValueError):
    """Exponent parameters outside the admissible region for the request."""


class NoClosedForm(ValueError):
    """The asymptotic constant has no closed form at these exponents."""


class CertificateUnavailable(RuntimeError):
    """A rigorous bound could not be established; use uncertified values."""


class EigensolverError(RuntimeError):
    """dqd sweeps failed to converge, or produced an inconsistent spectrum."""


class PrimeOutOfRange(LookupError):
    """A required prime exceeds the cutoff of the spectral table."""


class FloorTooHigh(LookupError):
    """A required local eigenvalue was discarded below the numerical floor."""


class EnumerationInfeasible(RuntimeError):
    """A query needs more enumeration than the configured limits allow."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class EnumerationCapExceeded(EnumerationInfeasible):
    """Semigroup enumeration hit the memory cap; carries the partial count."""

    def __init__(self, message, partial=None):
        super().__init__(message, required=None)
        self.partial = partial


class VerificationFailed(RuntimeError):
    """The self-check suite found an identity out of tolerance."""
