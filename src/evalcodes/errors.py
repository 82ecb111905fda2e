"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class DimensionMismatchError(ValueError):
    """Objects disagree on the number of variables or coordinates."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no lead term."""


class NotZeroDimensionalError(ValueError):
    """The monomial ideal is missing a pure power of some variable."""


class NonInjectiveEvaluationError(ValueError):
    """Evaluation on the point set is not injective on the given space."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured element budget.

    `needed` is the element count, or its text "q^k" when that power is too
    large to form.
    """

    def __init__(self, needed, budget, what="enumeration"):
        self.needed = needed
        self.budget = budget
        self.what = what
        super().__init__(
            f"{what} needs {needed} elements, exceeding the budget of {budget}"
        )
