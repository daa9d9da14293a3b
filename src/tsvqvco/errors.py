"""The package's exception taxonomy, and the one rule every numeric input
field passes."""
import math
from numbers import Real


class ToolError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToolError):
    """Malformed or inconsistent user input (bad file, bad field, bad value)."""


class InvalidGeometryError(InputError):
    """Geometry that violates a formula precondition or physical sanity."""


class InvalidModelError(InputError):
    """Electrical model that is unphysical (non-positive-definite, k out of range)."""


class InfeasibleDesignError(ToolError):
    """Operating point violates an oscillation feasibility bound (not bad input:
    the parameters are well formed, the circuit just cannot start)."""


class NumericFailure(ToolError):
    """A solver failed to converge or produced a non-finite result."""


def check_finite(error: type[InputError], kind: str, name: str, value) -> None:
    """Raise error unless value is a finite real number; bools are not
    numbers here."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)):
        raise error(f"{kind} field {name} is not a finite number")
