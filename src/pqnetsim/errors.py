"""Exception types and violation records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ParameterError", "ProfileNotFoundError", "ScenarioValidationError", "Violation"]


class ParameterError(ValueError):
    """An operation received an argument outside its documented domain."""


class ProfileNotFoundError(ParameterError):
    """A crypto-profile lookup failed; the message names the missing identifier."""


@dataclass(frozen=True)
class Violation:
    """One failed scenario invariant, with a path to the offending field.

    Violations are data, not exceptions: validators return lists of them so a
    caller can report every problem in one pass.
    """

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ScenarioValidationError(ParameterError):
    """A scenario document failed structural parsing or invariant validation.

    Carries the full violation list so front ends can print one line per
    problem instead of failing on the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid scenario ({len(self.violations)} violation(s)): {detail}")
