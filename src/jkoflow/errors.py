"""Shared exception types.

Split by what the caller can do about the failure: fix the arguments
(InvalidInputError) or loosen tolerances / inspect the residual
(NumericalFailureError).
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Bad input: wrong shapes, unsorted positions, mismatched sizes, or a scalar
    outside its admissible range (e.g. an interpolation time not in [0, 1])."""


class NumericalFailureError(RuntimeError):
    """An iterative routine failed to reach its tolerance.

    Carries the residual at the point of failure so callers can report it, and
    ``row``: from a joint step solve, the index of the problem (the kernel's
    row) it is charged to; from run_flows, the index of the flow that failed.
    """

    def __init__(self, message: str, residual: float | None = None, row: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.row = row
