"""The exact optimality certificate on games whose values are known."""

import numpy as np
import pytest

from oracles import duality_gap

BOTH = np.array([0, 1])


@pytest.mark.parametrize(
    "m, u0, value",
    [
        # no saddle point: u0 = (d - b) / (a + d - b - c) and the value is
        # (ad - bc) / (a + d - b - c)
        ([[7.0, 1.0], [1.0, 3.0]], 0.25, 2.5),
        ([[2.0, 6.0], [5.0, 1.0]], 0.625, 3.5),
        # matching pennies, value 1/2
        ([[1.0, 0.0], [0.0, 1.0]], 0.5, 0.5),
    ],
)
def test_equal_finish_split_of_a_2x2_game_is_certified(m, u0, value):
    m = np.array(m)
    (a, b), (c, d) = m
    assert (d - b) / (a + d - b - c) == u0
    assert (a * d - b * c) / (a + d - b - c) == value
    u = np.array([u0, 1.0 - u0])
    assert (m @ u).max() == value
    # the duals come from a float solve on m / 3 and m / 5: only their
    # rounding is left
    assert 0 <= duality_gap(m, u, (BOTH, BOTH)) <= 1e-15


def test_closed_form_splits_are_certified_to_rounding():
    rng = np.random.default_rng(3)
    crossed = 0
    for _ in range(200):
        (a, b), (c, d) = m = rng.uniform(0.0, 10.0, (2, 2))
        u0 = (d - b) / (a + d - b - c)
        if (a - b) * (c - d) >= 0.0 or not 0.0 < u0 < 1.0:
            continue  # the rows do not cross inside: a pure split is optimal
        crossed += 1
        u = np.array([u0, 1.0 - u0])
        assert duality_gap(m, u, (BOTH, BOTH)) <= 1e-12
    assert crossed > 50


def test_pure_saddle_point_has_gap_zero():
    # column 0's largest entry, row 1's 2, is also row 1's smallest
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    u = np.array([1.0, 0.0])
    assert duality_gap(m, u, (np.array([0]), np.array([1]))) == 0


def test_wrong_support_or_split_leaves_a_gap():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    u = np.array([1.0, 0.0])
    # weights on row 0 only bound the optimum, 2, by 1
    assert duality_gap(m, u, (np.array([0]), np.array([0]))) == 0.5
    # matching pennies: the pure split costs 1, the right support bounds it
    # by 1/2
    pennies = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert duality_gap(pennies, u, (BOTH, BOTH)) == 0.5
    # a split a billionth off the optimum fails the 1e-12 bound
    u = np.array([0.25 + 1e-9, 0.75 - 1e-9])
    assert duality_gap(np.array([[7.0, 1.0], [1.0, 3.0]]), u, (BOTH, BOTH)) > 1e-12


def test_pinned_column_is_left_out_of_the_bound():
    # column 2 costs nothing but is pinned: the value is pennies' 1/2
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    u = np.array([0.5, 0.5, 0.0])
    assert duality_gap(m, u, (BOTH, BOTH), frozenset({2})) == 0
    # unpinned, it is a free column, and only the split onto it has value 0
    assert duality_gap(m, np.array([0.0, 0.0, 1.0]), None) == 0
    with pytest.raises(AssertionError):
        duality_gap(m, u, None)


@pytest.mark.parametrize(
    "u, forced",
    [
        ([0.5, 0.5 + 2e-12], frozenset()),  # sums to 1 + 2e-12
        ([0.5, 0.5 - 2e-12], frozenset()),
        ([1.5, -0.5], frozenset()),
        ([0.5, 0.5], frozenset({1})),  # weight on a pinned column
    ],
)
def test_split_off_the_simplex_is_refused(u, forced):
    pennies = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(AssertionError):
        duality_gap(pennies, np.array(u), (BOTH, BOTH), forced)
