"""Exception types shared across the library.

The message, not the class, says which invariant or step failed.  Parameter
errors mean the model inputs are bad (they also carry the field, its value and
the requirement) and config errors that a simulation run was set up
inconsistently, domain errors mean a formula was asked for a point outside its
region of validity, and numerical errors mean an iterative procedure could not
complete reliably; ``cli._EXIT_CODES`` maps each to the command's exit code.
:class:`MissingParameter` words its own message, and :class:`NoBreakeven` is
the numerical failure a break-even sweep reports as a blank row instead of
stopping.
"""

__all__ = [
    "FundivError",
    "ParameterError",
    "MissingParameter",
    "DomainError",
    "NumericalError",
    "NoBreakeven",
    "ConfigError",
]


class FundivError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FundivError, ValueError):
    """A model parameter violates one of its invariants."""

    def __init__(self, field: str, value: object, requirement: str):
        self.field = field
        self.value = value
        self.requirement = requirement
        super().__init__(f"{field} = {value!r} violates requirement: {requirement}")


class MissingParameter(ParameterError):
    """A required parameter is absent for the requested computation."""

    def __init__(self, field: str, context: str):
        self.field = field
        self.value = None
        self.requirement = f"must be supplied for {context}"
        FundivError.__init__(self, f"parameter {field!r} is required for {context}")


class DomainError(FundivError, ValueError):
    """Arguments fall outside the domain of a closed-form expression."""


class NumericalError(FundivError, RuntimeError):
    """A numerical procedure could not complete reliably."""


class NoBreakeven(NumericalError):
    """The net value does not change sign over the searched cost range."""


class ConfigError(FundivError, ValueError):
    """Simulation configuration or policy specification is inconsistent."""
