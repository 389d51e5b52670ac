"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes so shell harnesses can assert
failure modes: invalid input / usage 2, capacity 3, non-convergence 4,
unmet analytic condition 5.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request would exceed a size cap: an enumeration, a CSV's rows or a search batch."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NonConvergenceError(RuntimeError):
    """An iterative solver failed; carries the best iterate for diagnosis."""

    def __init__(self, message, best=None, best_value=None):
        super().__init__(message)
        self.best = best
        self.best_value = best_value


class ConditionNotMetError(RuntimeError):
    """A hypothesis required by an analytic statement fails at these parameters."""
