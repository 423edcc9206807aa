"""Exception types shared across the package."""


class ParseError(ValueError):
    """Scenario file is malformed (bad JSON, missing keys, wrong types)."""


class DimensionError(ValueError):
    """Matrix or vector dimensions are inconsistent."""


class NotEquilibrium(ValueError):
    """A target state is not an equilibrium of the agent dynamics."""


class NoConvergence(RuntimeError):
    """An iterative solver failed to contract within its iteration cap."""


class Infeasible(RuntimeError):
    """A constraint set is empty (certified by a feasibility LP)."""


class MaxIters(RuntimeError):
    """The inner QP solver stalled before reaching its KKT tolerance."""


class UnknownKind(ValueError):
    """Unrecognised disturbance kind."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""

