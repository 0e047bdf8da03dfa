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
    """dqd sweeps or Lanczos (ARPACK) failed to converge, or a spectrum came
    out inconsistent."""


class PrimeOutOfRange(LookupError):
    """A required prime exceeds the cutoff of the spectral table."""


class FloorTooHigh(LookupError):
    """A required local eigenvalue was discarded below the numerical floor."""


class EnumerationInfeasible(RuntimeError):
    """A query's enumeration exceeds what the table certifies or a cap allows."""


class EnumerationCapExceeded(EnumerationInfeasible):
    """Semigroup enumeration hit the memory cap; the message states the cap."""


class VerificationFailed(RuntimeError):
    """The self-check suite found an identity out of tolerance."""
