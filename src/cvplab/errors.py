"""Structured exceptions shared across the package, the one rule for
every number a config or a state holds, `number`, and the one rule for
the keys of every config object, `known_fields`."""

from __future__ import annotations

import math
from numbers import Integral, Real


class CvpError(Exception):
    """Base class for all errors raised by cvplab."""


class DimensionMismatchError(CvpError):
    """Operands live on manifolds or index sets of different dimension."""


class InfeasibleProjectionError(CvpError):
    """The volume/floor constraint set is empty."""


class NonFiniteIterateError(CvpError):
    """The optimizer produced a non-finite action or gradient."""

    def __init__(self, message: str, iteration: int, points=None, weights=None):
        super().__init__(message)
        self.iteration = iteration
        self.points = points
        self.weights = weights


class WeightPositivityError(CvpError):
    """A deformation drove some weight to zero or below."""

    def __init__(self, message: str, point_index: int):
        super().__init__(message)
        self.point_index = point_index


class NegativeDiagonalError(CvpError):
    """A per-point quadratic-form diagonal is significantly negative."""


class SchemaError(CvpError):
    """A config or state file does not match the expected schema."""


def number(value, what: str, *, integer: bool = False, least=None, above=None):
    """`value` as a float, or an int with `integer`, if it is a real number
    (an integral one with `integer`), not a bool, finite as a float, at
    least `least` and above `above`; a one-line SchemaError naming `what`
    otherwise."""
    try:
        ok = (isinstance(value, Integral if integer else Real)
              and not isinstance(value, bool) and math.isfinite(value)
              and (least is None or value >= least)
              and (above is None or value > above))
    except OverflowError:   # an integer beyond float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        bounds = "".join(f" {op} {bound}" for op, bound in
                         ((">=", least), (">", above)) if bound is not None)
        raise SchemaError(f"{what} must be {kind}{bounds}")
    return int(value) if integer else float(value)


def known_fields(data: dict, allowed, what: str) -> None:
    """A one-line SchemaError naming `what` and every key of `data` that
    is not in `allowed`; nothing if there is none."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown {what} fields: {sorted(unknown)}")
