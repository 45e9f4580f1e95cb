"""Shared exception types, and the cell budget with its one check: every
super-linear call charges its work to ``check_budget`` before doing it.
This module imports nothing, so every other module may use it."""

DEFAULT_BUDGET_CELLS = 10**8


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget.

    Raised instead of silently degrading; the message names the budget and
    suggests the cheaper route (heuristics, sampling, a larger explicit budget).
    """


class InvalidCertificateError(ValueError):
    """A role word does not describe valid twins for the given word."""


def check_budget(needed: int, budget: int, what: str, *,
                 hint: str = "", unit: str = "alignment cells") -> None:
    """Raise BudgetError when ``needed`` units exceed the budget; the
    message ends with the caller's ``hint``, if any."""
    if needed > budget:
        raise BudgetError(
            f"{what} needs {needed} {unit}, over the budget of "
            f"{budget}" + (f"; {hint}" if hint else ""))
