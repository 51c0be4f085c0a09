"""Shared error types: resource caps and hypothesis violations."""

from __future__ import annotations


class ResourceCapError(RuntimeError):
    """Predicted work exceeds the configured cap; never truncate silently."""

    def __init__(self, message: str, predicted: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


def check_cap(predicted: int, cap: int, what: str) -> None:
    """The one refusal rule: call before allocating, with the predicted count of what."""
    if predicted > cap:
        raise ResourceCapError(f"{predicted} {what} exceed cap {cap}", predicted=predicted, cap=cap)


class HypothesisViolation(RuntimeError):
    """An operation's mathematical hypotheses fail; carries the clause."""

    def __init__(self, clause: str, detail: str = ""):
        msg = f"hypothesis violated: {clause}" + (f" ({detail})" if detail else "")
        super().__init__(msg)
        self.clause = clause
        self.detail = detail
