"""The package's exception taxonomy, and check_finite, the one rule every
scalar numeric input passes: a finite real number (not a bool, nor an int
beyond float range), positive or non-negative when a sign is given.  Its
messages are "<kind> field <name> is not a finite number", "... must be
positive" and "... must be non-negative".  A field that holds a parameter
block passes check_type: "<kind> field <name> must be a <class>".
Relations between values (lo < hi, k < 1, integer turns, polarity) are
checked after these, each with its own message."""
import math
from numbers import Real

POSITIVE = "positive"
NON_NEGATIVE = "non-negative"


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


def check_finite(error: type[InputError], kind: str, name: str, value,
                 sign: str | None = None) -> None:
    """Raise error unless value is a finite real number, and, with sign
    POSITIVE or NON_NEGATIVE, above or at least zero (module docstring)."""
    try:
        bad = (type(value) is not float  # isinstance against Real is slow on a float
               and (isinstance(value, bool) or not isinstance(value, Real))
               or not math.isfinite(value))
    except OverflowError:  # an int beyond float range
        bad = True
    if bad:
        raise error(f"{kind} field {name} is not a finite number")
    if sign is not None and (value <= 0 if sign == POSITIVE else value < 0):
        raise error(f"{kind} field {name} must be {sign}")


def check_type(error: type[InputError], kind: str, name: str, value,
               cls: type) -> None:
    """Raise error unless value is an instance of cls (module docstring)."""
    if not isinstance(value, cls):
        raise error(f"{kind} field {name} must be a {cls.__name__}")
