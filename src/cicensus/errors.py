"""Exception types shared across the package."""


class CicensusError(Exception):
    """Base class for all package errors."""


class NotPrime(CicensusError):
    pass


class ReducibleModulus(CicensusError):
    pass


class DegreeMismatch(CicensusError):
    pass


class DivisionByZero(CicensusError, ZeroDivisionError):
    pass


class InhomogeneousInput(CicensusError):
    pass


class ArityMismatch(CicensusError):
    pass


class IncompatibleFields(CicensusError):
    pass


class IndexOutOfRange(CicensusError, IndexError):
    pass


class PatternViolation(CicensusError):
    pass


class UnsupportedCertificate(CicensusError):
    pass


class EmptyInput(CicensusError):
    pass


class MixedFields(CicensusError):
    pass


class HypothesisViolated(CicensusError):
    pass


class TooLarge(CicensusError):
    pass


class NotAMatrix(CicensusError, ValueError):
    """Rank input that is not a matrix or a stack of equal matrices."""


class SearchSpaceTooLarge(CicensusError):
    pass


class FormatError(CicensusError):
    """Malformed system file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
