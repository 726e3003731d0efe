"""Exception types shared across the package."""


class TerideError(Exception):
    """Base class for all package errors."""


class EmptyValue(TerideError):
    """A token set or raw value was empty where a non-empty one is required."""


class IncompleteTuple(TerideError):
    """An operation requiring complete tuples received one with a missing attribute."""


class OutOfOrderArrival(TerideError):
    """A stream tuple arrived with a non-increasing timestamp."""


class DeterminantMissing(TerideError):
    """A rule was applied to a tuple missing one of its determinant attributes."""


class NoRulesFound(TerideError):
    """Rule detection produced nothing under the given thresholds."""


class ImputationFailed(TerideError):
    """No rule produced any candidate value for a missing attribute."""


class DuplicateTuple(TerideError):
    """A tuple was inserted into a structure that already holds it."""


class UnknownTuple(TerideError):
    """A tuple id was not found in the structure."""


class EmptyDomain(TerideError):
    """An attribute domain is empty."""


class ConfigError(TerideError):
    """Invalid run or query configuration."""


class InvalidRate(TerideError):
    """A rate or ratio parameter is outside its valid range."""
