"""Exception hierarchy for ptmarkov."""


class PtError(Exception):
    """Base class for all ptmarkov errors."""


class DimensionMismatch(PtError):
    """Operands have incompatible shapes or leg dimensions."""


class NotHermitian(PtError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositive(PtError):
    """A matrix required to be positive semidefinite has a negative
    eigenvalue beyond tolerance."""


class ValidationError(PtError):
    """A domain object violates one of its invariants."""


class SingularFrame(PtError):
    """An operation frame is not informationally complete (singular Gram)."""


class UnresolvableConditional(PtError):
    """A conditional state cannot be resolved because the conditioning
    outcome has probability below the floor."""


class TomographyDataError(PtError):
    """Tomography records are incomplete, duplicated, or inconsistent."""


class SweepGuardError(PtError):
    """A process tensor would exceed the configured size guard."""


class QuadratureError(PtError):
    """A classical-noise ensemble cannot be built for the requested grid."""


class FormatError(PtError):
    """A serialized file is malformed or has an unsupported format."""


class ConfigError(PtError):
    """A run configuration is invalid."""
