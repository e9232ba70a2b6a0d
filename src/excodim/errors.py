"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside the documented range of an operation."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured enumeration or memory budget."""


class BudgetOverflowError(BudgetError, OverflowError):
    """An exact value is outside the checked integer range."""


class InvariantError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
