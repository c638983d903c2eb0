"""Per-node completion-time and energy accounting over a sink tree.

A workload allocation assigns y_i bits to every node.  Each subtask is
shipped from the master along the tree path to its node, store-and-forward
with no pipelining credit, while subtasks of the same subtree share the
channel in schedule order.  A node's cost couples its delivery time, its
compute time, and the energy it spends computing and relaying:

    time_i   = transmission_i + waiting_i + compute_i
    energy_i = compute_energy_i + relay_energy_i
    J_i      = w1 * time_i + w2 * energy_i

The system objective is max_i J_i.  For a fixed schedule every J_i is a
nonnegative linear form in y: the schedule-independent `_static_matrix`,
built once per solve, plus w1 times the schedule's waiting terms
(`_waiting`, a mask over the tree's sharing matrix, one per order of a
stack).  The solvers add the two (pmo on slices of them);
`cost_coefficients` returns their sum as one read-only matrix, for
`solvers.solve_fixed_order`, `verification.check_solution`,
`heuristics.baseline_master_worker` and tests.
`_node_terms` evaluates every term of one split, for `system_cost` and GA
fitness alike, its relay energy from the tree's own per-bit table
(`SinkTree.relay_energy`).  Both take a few numpy operations on per-tree
arrays (`SinkTree.cost_arrays`), no loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScheduleError, checked
from .tree import SinkTree


@dataclass(frozen=True)
class Weights:
    """Objective weights: w1 scales seconds, w2 scales joules."""

    w1: float
    w2: float

    def __post_init__(self):
        for name in ("w1", "w2"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))
        if self.w1 == 0.0 and self.w2 == 0.0:
            raise ParameterError("at least one weight must be positive")


@dataclass(frozen=True)
class Allocation:
    """Workload split in bits; index matches tree ids."""

    y: tuple[float, ...]
    total: float

    def __post_init__(self):
        checked("total workload", self.total)
        for i, v in enumerate(self.y):
            if not v >= 0.0:
                raise ParameterError(f"y[{i}] must be >= 0, got {v}")
        if not math.isclose(sum(self.y), self.total, rel_tol=1e-12):
            raise ParameterError(
                f"allocation sums to {sum(self.y)}, expected {self.total}"
            )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)


@dataclass(frozen=True)
class Schedule:
    """Per-subtree transmission orders, earliest first.

    orders[k] is a permutation of the k-th subtree's node set, where
    subtrees are taken in ascending root id (the tree's own ordering).
    """

    orders: tuple[tuple[int, ...], ...]


def canonical_schedule(tree: SinkTree) -> Schedule:
    """Ascending-id order inside every subtree."""
    return Schedule(orders=tuple(tree.subtrees[t] for t in tree.subtree_roots))


def validate_schedule(tree: SinkTree, schedule: Schedule) -> None:
    roots = tree.subtree_roots
    if len(schedule.orders) != len(roots):
        raise ScheduleError(
            f"schedule covers {len(schedule.orders)} subtrees, tree has {len(roots)}"
        )
    for t, seq in zip(roots, schedule.orders):
        if tuple(sorted(seq)) != tree.subtrees[t]:
            raise ScheduleError(f"order for subtree {t} is not a permutation of it")


# --- full breakdown -------------------------------------------------------


@dataclass(frozen=True)
class CostBreakdown:
    """Every per-node term plus the system objective."""

    t_tran: tuple[float, ...]
    t_wait: tuple[float, ...]
    t_comp: tuple[float, ...]
    t_total: tuple[float, ...]
    e_comp: tuple[float, ...]
    e_relay: tuple[float, ...]
    e_total: tuple[float, ...]
    j_node: tuple[float, ...]
    j_system: float

    @property
    def max_time(self) -> float:
        return max(self.t_total)

    @property
    def max_energy(self) -> float:
        return max(self.e_total)


def system_cost(
    tree: SinkTree,
    schedule: Schedule,
    alloc: Allocation,
    weights: Weights,
    b: float,
) -> CostBreakdown:
    """Evaluate the whole cost table for one allocation under one schedule.

    `_node_terms` prices the split; its waiting terms come from the
    unit-weight waiting matrix that also builds the linear form.
    """
    validate_schedule(tree, schedule)
    n = len(tree)
    if len(alloc.y) != n:
        raise ParameterError(f"allocation has {len(alloc.y)} entries, tree has {n}")
    wait = _waiting(tree.shared_inv_rate, [schedule.orders])[0]
    y = alloc.as_array()
    terms = _node_terms(tree, wait, y, weights, b)
    terms = [tuple(v.tolist()) for v in terms]
    return CostBreakdown(*terms, j_system=max(terms[-1]))


def _node_terms(
    tree: SinkTree,
    wait: np.ndarray,
    y: np.ndarray,
    weights: Weights,
    b: float,
) -> tuple[np.ndarray, ...]:
    """Per-node t_tran, t_wait, t_comp, t_total, e_comp, e_relay, e_total, J.

    `wait` is the schedule's unit waiting matrix (`_waiting`) and y the
    split in bits, or a (B, n) stack of splits, one row of terms each.  A
    stacked split gets the bits it gets alone: its matrix products are
    one matrix-vector product per row.  Raises ParameterError when b or a
    node cost is not finite.
    """
    checked("cycles per bit", b, open_lo=True)
    path_inv_rate, freq, freq_sq, cap = tree.cost_arrays[:4]
    with np.errstate(over="ignore", invalid="ignore"):
        t_tran = path_inv_rate * y
        t_wait = (wait @ y[..., None])[..., 0]
        t_comp = y * b / freq
        e_comp = cap * b * freq_sq * y
        e_relay = (tree.relay_energy @ y[..., None])[..., 0]
        t_total = t_tran + t_wait + t_comp
        e_total = e_comp + e_relay
        j_node = weights.w1 * t_total + weights.w2 * e_total
    if not np.isfinite(j_node).all():
        raise ParameterError(
            "node cost overflows float64: a weight, task size or node "
            "parameter is too large"
        )
    return t_tran, t_wait, t_comp, t_total, e_comp, e_relay, e_total, j_node


# --- linear form ----------------------------------------------------------


def _static_matrix(tree: SinkTree, weights: Weights, b: float) -> np.ndarray:
    """Schedule-independent part: own time/energy plus ancestors' relay energy."""
    checked("cycles per bit", b, open_lo=True)
    path_inv_rate, freq, freq_sq, cap, tx, rate, sender, dest, nxt = tree.cost_arrays
    a = np.zeros((len(tree), len(tree)))
    # overflow gives inf or nan silently, as Python float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        own = weights.w1 * (path_inv_rate + b / freq)
        np.fill_diagonal(a, own + weights.w2 * cap * b * freq_sq)
        # every bit destined to i crosses each ancestor's outgoing radio
        a[sender, dest] = weights.w2 * tx[sender] / rate[nxt]
    return a


def _waiting(shared: np.ndarray, orders) -> np.ndarray:
    """Unit-weight waiting masks, (len(orders), rows, cols), one per order.

    `shared` is a tree's sharing matrix, or a slice whose rows are its
    trailing columns (a `pmo` probe has no master row).  Each order holds
    one sequence of columns per group, earliest first (a Schedule's
    `orders` is one).  A column ranks by its place in its sequence, 0
    outside every group, and row i waits on each column ranked before
    it: shared * (rank_i > rank_j).
    """
    nr, n = shared.shape
    rank = _ranks(orders, n)
    return shared * (rank[:, n - nr :, None] > rank[:, None, :])


def _ranks(orders, n: int) -> np.ndarray:
    """(len(orders), n) ranks of n columns, as `_waiting` takes them."""
    # a Python loop beats numpy scatters on the small stacks `_waiting`
    # ranks: one schedule, or one GA generation's new orders
    rank = [0] * (n * len(orders))
    for base, order in zip(range(0, len(rank), n), orders):
        for seq in order:
            for k, i in enumerate(seq):
                rank[base + i] = k
    return np.array(rank).reshape(len(orders), n)


def cost_coefficients(
    tree: SinkTree,
    schedule: Schedule,
    weights: Weights,
    b: float,
) -> np.ndarray:
    """Read-only matrix a of the linear form J_i(y) = sum_k a[i, k] * y_k."""
    validate_schedule(tree, schedule)
    wait = _waiting(tree.shared_inv_rate, [schedule.orders])[0]
    a = _static_matrix(tree, weights, b) + weights.w1 * wait
    a.flags.writeable = False
    return a
