"""Exception types shared across the package."""


class PrepspillError(Exception):
    """Base class for all package-specific errors.

    ``member`` is the index of the failing member when the error comes from
    a batched evaluation over many models at once, else None.
    """

    member = None

    def for_member(self, i):
        """Tag the error with batch member i; returns the error."""
        self.member = int(i)
        return self


class ZeroPopulation(PrepspillError):
    """A group's total population N_j = S_j + I_j is zero (or negative)."""


class InfeasibleClosure(PrepspillError):
    """Contact-balance closure has no solution with all fractions in [0, 1].

    Carries the time of failure (``t``, may be None outside an integration)
    and the offending value so callers can report where a trajectory died.
    """

    def __init__(self, message, t=None, value=None):
        super().__init__(message)
        self.t = t
        self.value = value


class NegativeState(PrepspillError):
    """A compartment went below -atol during integration."""


class StepSizeUnderflow(PrepspillError):
    """Adaptive step control pushed dt below dt_min."""


class PartialYear(PrepspillError):
    """Annual aggregation requested on a trajectory not aligned to whole years."""


class DimensionOverflow(PrepspillError):
    """Quadrature grid would exceed the configured node cap."""


class ExactnessViolation(PrepspillError):
    """Quadrature rule is not exact enough for the requested projection."""


class EnsembleError(PrepspillError):
    """A model evaluation failed at a quadrature node.

    The failing node index and coordinates are attached; the original error
    is chained as ``__cause__``.
    """

    def __init__(self, message, node_index, node):
        super().__init__(message)
        self.node_index = node_index
        self.node = node


class ConfigError(PrepspillError):
    """Scenario configuration is invalid. Base for the specific schema errors."""


class ParseError(ConfigError):
    """Config file could not be parsed."""


class SchemaViolation(ConfigError):
    """Config parsed but violates the schema; names the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class UnknownGroup(ConfigError):
    """Config references a group that does not exist in the chosen variant."""

