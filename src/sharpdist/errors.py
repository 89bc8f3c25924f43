"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class DomainError(ToolkitError, ValueError):
    """An energy argument lies outside a model's or profile's domain."""


class EmptyOverlapError(ToolkitError, ValueError):
    """Profile support and model domain do not intersect."""


class DivergenceError(ToolkitError, ArithmeticError):
    """The combined log-weight has a non-normalizable tail: no finite mass."""


class NoMaximumError(ToolkitError, ArithmeticError):
    """The stationarity condition has no root in the searched bracket."""


class FitError(ToolkitError, ValueError):
    """A scaling fit cannot be performed on the given records."""


class ConvergenceError(ToolkitError, ArithmeticError):
    """An iterative computation stopped at its cap without meeting its tolerance.

    Grid refinement that reaches its point cap or a step near the float
    spacing, and a saddle-point Newton solve that runs out of steps.
    """
