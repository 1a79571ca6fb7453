"""Exception hierarchy shared across the package."""


class DivchainError(Exception):
    """Base class for all package-specific errors."""


class DomainMismatchError(DivchainError):
    """A test function's support is not contained in the measure's domain."""


class UnsupportedStructureError(DivchainError):
    """Singular parts of the operands are not structurally aligned."""


class AbsoluteContinuityError(DivchainError):
    """A Radon-Nikodym ratio was requested where the reference vanishes."""


class NotOnJumpSetError(DivchainError):
    """Trace evaluation requested at a point not on the jump set."""


class DegenerateLevelError(DivchainError):
    """Level region requested at the excluded level t = 0."""


class WrongRegularityError(DivchainError):
    """An operation received a function outside its regularity class."""


class OrientationError(DivchainError):
    """Jointly used singular sets carry inconsistent orientations."""


class GeometryError(DivchainError):
    """Invalid geometric configuration (tangency, set outside domain, ...)."""


class IntegrationError(DivchainError):
    """A quadrature did not converge to the requested tolerance."""


class BoundaryError(DivchainError):
    """A mollification or trace ball exits the computational domain."""


class ScenarioParseError(DivchainError):
    """Scenario file could not be parsed; carries position information."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


class ScenarioValidationError(DivchainError):
    """Scenario parsed but violates a structural requirement."""
