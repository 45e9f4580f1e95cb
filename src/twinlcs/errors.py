"""Shared exception types, the cell budget with its one check, and the
JSON rule of result records.

Every super-linear call charges its work to ``check_budget`` before
doing it.  A result record's JSON is its dataclass fields in order, then
the properties its ``_json_extra`` names: tuples and lists as lists, a
dict as a copy, a Fraction as text, and a value with a ``to_json`` as its own JSON.  Each
record that is written otherwise says why in its own ``to_json``.  This
module imports nothing from the package, so every other module may."""

import math
from dataclasses import fields
from fractions import Fraction
from typing import ClassVar

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
            f"{what} needs {_count_text(needed)} {unit}, over the budget of "
            f"{budget}" + (f"; {hint}" if hint else ""))


def _count_text(count: int) -> str:
    """A count in full, or by its nearest power of ten past 13,000 bits
    (about 3900 digits): Python refuses to write an integer of more than
    4300 digits, and a count that large says no more than its size."""
    bits = count.bit_length()  # 2^(bits-1) <= count < 2^bits
    if bits <= 13_000:
        return str(count)
    return f"about 10^{round((bits - 0.5) * math.log10(2))}"


class Record:
    """Base of the result records (see the module docstring).  Subclasses
    set ``_json_extra`` without an annotation, or it becomes a field."""

    _json_extra: ClassVar[tuple[str, ...]] = ()

    def to_json(self) -> dict:
        names = [f.name for f in fields(self)] + list(self._json_extra)
        return {name: _json_value(getattr(self, name)) for name in names}


def _json_value(value):
    if isinstance(value, (int, float, str, type(None))):  # most, so first
        return value
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):  # a copy, so the payload is not the record's
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    return value.to_json() if hasattr(value, "to_json") else value
