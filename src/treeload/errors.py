"""Exception types shared across the package, and the field check that
raises ParameterError for parameter dataclasses."""

import numbers


class TreeloadError(Exception):
    """Base class; lets callers catch everything the package raises on purpose."""


class ParameterError(TreeloadError, ValueError):
    """A value violates a documented precondition (range, shape, structure)."""


class GenerationError(TreeloadError, RuntimeError):
    """Random network generation exhausted its retry budget."""


class UnreachableNodeError(TreeloadError, ValueError):
    """The master cannot reach every server in the network graph."""

    def __init__(self, unreachable):
        self.unreachable = tuple(sorted(unreachable))
        super().__init__(f"master cannot reach nodes {list(self.unreachable)}")


class InfeasibleError(TreeloadError, RuntimeError):
    """No allocation satisfies the constraints (e.g. every node forced to zero)."""


class ScheduleError(TreeloadError, ValueError):
    """A transmission schedule does not cover the tree it is used with."""


class ScenarioError(TreeloadError, ValueError):
    """A scenario document failed validation; lists the offending fields."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


def _store_checked(params, kind: type, **bounds: tuple[float, float]) -> None:
    """Store each field named in `bounds` of frozen `params` as a `kind`.

    A value that is not a real number (an integral one for int) in its
    [lo, hi] raises ParameterError.  Integral floats such as 2.0 count as
    integers, because sweep values are parsed as floats.
    """
    what = "an integer" if kind is int else "a number"
    for name, (lo, hi) in bounds.items():
        v = getattr(params, name)
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not real or (kind is int and v % 1) or not lo <= v <= hi:
            raise ParameterError(f"{name} must be {what} in [{lo}, {hi}], got {v!r}")
        object.__setattr__(params, name, kind(v))
