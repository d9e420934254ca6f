"""Exception types shared across the library.

The hierarchy mirrors how callers are expected to react: parameter errors
mean the model inputs are bad, domain errors mean a formula was asked for a
point outside its region of validity, numerical errors mean an iterative
procedure could not complete reliably, and config errors mean a simulation
run was set up inconsistently.
"""

__all__ = [
    "FundivError",
    "ParameterError",
    "VolatilityNotPositive",
    "CorrelationOutOfRange",
    "ProfitabilityViolated",
    "DiscountTooLow",
    "RuinLevelNotPositive",
    "SolvencyLevelTooLow",
    "InjectionCostTooLow",
    "MissingParameter",
    "DomainError",
    "NumericalError",
    "BracketFailure",
    "NoBreakeven",
    "MonotonicityError",
    "ConfigError",
    "EmptyInput",
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


class VolatilityNotPositive(ParameterError):
    """sigma_A and sigma_L must be strictly positive."""


class CorrelationOutOfRange(ParameterError):
    """rho must lie in the open interval (-1, 1)."""


class ProfitabilityViolated(ParameterError):
    """mu_A must strictly exceed mu_L, otherwise paying out everything at once is optimal."""


class DiscountTooLow(ParameterError):
    """delta must strictly exceed mu_A (and be positive), otherwise the value diverges."""


class RuinLevelNotPositive(ParameterError):
    """alpha0 must be strictly positive."""


class SolvencyLevelTooLow(ParameterError):
    """alpha1, when present, must strictly exceed alpha0."""


class InjectionCostTooLow(ParameterError):
    """kappa, when present, must strictly exceed 1."""


class MissingParameter(ParameterError):
    """A required parameter is absent for the requested computation."""

    def __init__(self, field: str, context: str = "this computation"):
        self.field = field
        self.value = None
        self.requirement = f"must be supplied for {context}"
        FundivError.__init__(self, f"parameter {field!r} is required for {context}")


class DomainError(FundivError, ValueError):
    """Arguments fall outside the domain of a closed-form expression."""


class NumericalError(FundivError, RuntimeError):
    """A numerical procedure could not complete reliably."""


class BracketFailure(NumericalError):
    """No sign change was found inside the allowed bracket expansion."""


class NoBreakeven(NumericalError):
    """The net value does not change sign over the searched cost range."""


class MonotonicityError(NumericalError):
    """A quantity assumed monotone for root bracketing failed a sample check."""


class ConfigError(FundivError, ValueError):
    """Simulation configuration or policy specification is inconsistent."""


class EmptyInput(FundivError, ValueError):
    """Summary statistics were requested for empty input arrays."""
