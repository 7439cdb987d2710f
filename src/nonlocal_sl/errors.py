"""Exception types shared across the library.

InputError (and subclasses) mark bad arguments or configuration; the CLI maps
them to exit code 2.  NumericalError subclasses mark failures of the numerics
themselves and map to exit code 3.
"""


class InputError(ValueError):
    """Invalid argument, state, or configuration."""


class DomainError(InputError):
    """Mismatched domains, e.g. a sampled function vs a measure on a different interval."""


class ConfigError(InputError):
    """Config validation failure; carries (path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.errors))


class NumericalError(ArithmeticError):
    """Base class for numerical failures."""


class RangeError(NumericalError):
    """Requested evaluation exceeds the overflow budget even with log scaling."""


class PoleProximityError(NumericalError):
    """Evaluation point too close to a pole of a Weyl-type quotient."""


class ContourError(NumericalError):
    """An argument-principle contour could not be certified."""


class CollinearityError(NumericalError):
    """A trace pair expected to be collinear is not (not an eigenvalue?)."""
