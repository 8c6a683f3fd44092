"""Exception types shared across the package."""


class PentavecError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(PentavecError):
    pass


class SingularMatrix(PentavecError):
    pass


class BasisMismatch(PentavecError):
    pass


class NotSimple(PentavecError):
    pass


class NotMaximalSpace(PentavecError):
    pass


class DimensionTooSmall(PentavecError):
    pass


class ZeroVector(PentavecError):
    pass


class NotInMaximalSpace(PentavecError):
    pass


class NotStandard(PentavecError):
    pass


class SingularBlock(PentavecError):
    pass


class NotOrthonormalInput(PentavecError):
    pass


class NoCommonDirection(PentavecError):
    pass


class DegenerateInducedMetric(PentavecError):
    pass


class InvalidGammaSet(PentavecError):
    pass


class NotO32(PentavecError):
    pass


class GridTooCoarse(PentavecError):
    pass


class NotDirectional(PentavecError):
    pass


class NotAntisymmetric(PentavecError):
    pass


class GridMismatch(PentavecError):
    pass


class KindMismatch(PentavecError):
    pass


class NotFinite(PentavecError, ValueError):
    """An array that must hold finite numbers holds an inf or a nan."""


class NotLorentz(PentavecError, ValueError):
    """A matrix meant as a Lorentz transformation does not preserve diag(+ - - -)."""


class OutOfRange(PentavecError, ValueError):
    """An argument outside the set of values it may take: an index label or
    slot, a frame or scheme name."""


class NotNull(PentavecError, ValueError):
    """A wave vector that must be null is not."""


class DegenerateKappa(PentavecError, ZeroDivisionError):
    """The operation divides by the transport constant, and kappa is 0."""


class ParseError(PentavecError):
    """Raised on malformed input files; carries the offending location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
