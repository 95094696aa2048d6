"""Exception types shared across the toolkit."""


class PhasecorrError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteInput(PhasecorrError):
    """A sample was NaN or infinite."""


class LengthTooShort(PhasecorrError):
    """The series is too short for the requested operation."""


class DomainTooSmall(PhasecorrError):
    """Spectrum too short to form a bispectrum grid."""


class SegmentTooLong(PhasecorrError):
    """Requested segment length exceeds the series length."""


class FrequencyAboveNyquist(PhasecorrError):
    """A generator frequency is at or above pi radians per sample."""


class DomainError(PhasecorrError):
    """An argument is outside the mathematical domain of the function."""


class BlowUp(PhasecorrError):
    """Simulation field exceeded the stability bound."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"field blew up at step {step}")


class CflViolation(PhasecorrError):
    """Advective CFL condition violated."""

    def __init__(self, step: int, cfl: float):
        self.step = step
        self.cfl = cfl
        super().__init__(f"CFL number {cfl:.3g} >= 1 at step {step}")


class FileUnreadable(PhasecorrError):
    """Input file missing or not parseable."""


class NoValidRows(PhasecorrError):
    """Every row of the input file failed validation."""


class SchemaMismatch(PhasecorrError):
    """A required column is missing from the input file."""
