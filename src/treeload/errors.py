"""Exception types shared across the package, and `checked`, the one check
of a number or id field, which raises ParameterError."""

import math
import numbers
import sys


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


_MAX = sys.float_info.max


def checked(name: str, v, kind: type = float, lo=0, hi=math.inf, open_lo=False):
    """`v` as a `kind` (float or int) when it lies in [lo, hi], or in
    (lo, hi] with `open_lo`; anything else raises ParameterError.

    Booleans, strings, NaN and infinities are always refused.  Integral
    floats such as 2.0 count as integers, because sweep values are parsed
    as floats.  A number is never infinite, so its infinite bounds print
    open; an integer's print closed.
    """
    t = type(v)
    if (
        # the type tests first: they are much cheaper than the ABC's
        (t is float or t is int or isinstance(v, numbers.Real) and t is not bool)
        # a number must fit a float; json reads a 400-digit integer as an int
        and (v % 1 == 0 if kind is int else -_MAX <= v <= _MAX)
        and (lo < v if open_lo else lo <= v)
        and v <= hi
    ):
        return v if t is kind else kind(v)
    what = "an integer" if kind is int else "a number"
    left = "(" if open_lo or (kind is float and lo == -math.inf) else "["
    right = ")" if kind is float and hi == math.inf else "]"
    raise ParameterError(f"{name} must be {what} in {left}{lo}, {hi}{right}, got {v!r}")
