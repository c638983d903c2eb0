"""`checked`, the one number and id check, and the constructors and
guards that go through it."""

import math
import random

import numpy as np
import pytest

from conftest import B_COMP, rand_tree
from treeload import (
    GaParams,
    GenParams,
    LpParams,
    NpParams,
    ParameterError,
    ServerParams,
    Weights,
)
from treeload.errors import checked
from treeload.heuristics import partial_offload_cost
from treeload.solvers import check_task_size

TREE = rand_tree(random.Random(0), 4)
GEN = {"node_count": 3, "edge_prob": 0.5, "rng_seed": 0}
SERVER = {"cpu_freq": 1e9, "tx_power": 1.0, "switched_cap": 1e-28}


def _partial(i=1, task_size=1e9):
    return partial_offload_cost(TREE, i, task_size, Weights(0.5, 0.05), b=B_COMP)


# (constructor or guard, valid arguments, field, its name in the message)
GUARDS = [
    (NpParams, {"theta_p": 0.1}, "theta_p", "theta_p"),
    (LpParams, {"xi": 1}, "xi", "xi"),
    *[(GaParams, {}, f, f) for f in ("population", "generations", "rng_seed")],
    *[(GenParams, GEN, f, f) for f in ("node_count", "edge_prob", "rng_seed", "gamma")],
    *[(ServerParams, SERVER, f, f) for f in ("cpu_freq", "tx_power", "switched_cap")],
    *[(Weights, {"w1": 0.5, "w2": 0.05}, f, f) for f in ("w1", "w2")],
    (check_task_size, {"task_size": 1e9}, "task_size", "task_size"),
    (_partial, {}, "task_size", "task_size"),
    (_partial, {}, "i", "node id"),
]


@pytest.mark.parametrize(
    "call, valid, field, name", GUARDS,
    ids=[f"{g[0].__name__.strip('_')}.{g[2]}" for g in GUARDS],
)
@pytest.mark.parametrize(
    "bad", [True, "1", math.nan, math.inf, -math.inf],
    ids=["true", "str", "nan", "inf", "-inf"],
)
def test_every_guard_refuses_a_non_number_by_name(call, valid, field, name, bad):
    call(**valid)
    with pytest.raises(ParameterError) as exc:
        call(**{**valid, field: bad})
    assert str(exc.value).startswith(f"{name} must be ")
    assert str(exc.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize(
    "args, message",
    [
        (("x", -1), "x must be a number in [0, inf), got -1"),
        (("x", 0, float, 0, math.inf, True), "x must be a number in (0, inf), got 0"),
        (("x", 2, float, 0, 1), "x must be a number in [0, 1], got 2"),
        (("x", math.inf, float, -math.inf),
         "x must be a number in (-inf, inf), got inf"),
        (("x", 1.5, int), "x must be an integer in [0, inf], got 1.5"),
        (("x", math.inf, int), "x must be an integer in [0, inf], got inf"),
        (("x", False, int), "x must be an integer in [0, inf], got False"),
        (("x", None, int, 1, 3), "x must be an integer in [1, 3], got None"),
        (("x", 10**400), f"x must be a number in [0, inf), got {10**400}"),
    ],
)
def test_checked_names_the_field_and_its_bounds(args, message):
    with pytest.raises(ParameterError) as exc:
        checked(*args)
    assert str(exc.value) == message


def test_checked_returns_the_kind():
    # integral floats count as integers: sweep values are parsed as floats
    for v in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert type(checked("x", v, int)) is int and checked("x", v, int) == 2
        assert type(checked("x", v)) is float and checked("x", v) == 2.0
    assert checked("x", 0.0, float, 0, 0) == 0.0
