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
nonnegative linear form in y, which `cost_coefficients` materializes as a
matrix; the solvers work on that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScheduleError
from .tree import SinkTree
from .units import DEFAULT_B


@dataclass(frozen=True)
class Weights:
    """Objective weights: w1 scales seconds, w2 scales joules."""

    w1: float
    w2: float

    def __post_init__(self):
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise ParameterError("weights must be finite")
        if self.w1 < 0.0 or self.w2 < 0.0:
            raise ParameterError("weights must be nonnegative")
        if self.w1 == 0.0 and self.w2 == 0.0:
            raise ParameterError("at least one weight must be positive")


@dataclass(frozen=True)
class Allocation:
    """Workload split in bits; index matches tree ids."""

    y: tuple[float, ...]
    total: float

    def __post_init__(self):
        if not 0.0 <= self.total < math.inf:
            raise ParameterError(f"total workload must be finite and >= 0, got {self.total}")
        for i, v in enumerate(self.y):
            if not v >= 0.0:
                raise ParameterError(f"y[{i}] must be >= 0, got {v}")
        drift = abs(sum(self.y) - self.total)
        if drift > 1e-6 * self.total + 1e-9:
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

    @classmethod
    def from_mapping(cls, tree: SinkTree, by_root: dict[int, tuple[int, ...]]) -> "Schedule":
        return cls(orders=tuple(tuple(by_root[t]) for t in tree.subtree_roots))


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
    b: float = DEFAULT_B,
) -> CostBreakdown:
    """Evaluate the whole cost table for one allocation under one schedule.

    Every term comes from the matrices that also build the linear form:
    the energy-only static matrix holds compute energy on its diagonal and
    ancestors' relay energy off it, and the unit-weight waiting matrix
    holds the channel time of earlier subtasks.
    """
    validate_schedule(tree, schedule)
    n = len(tree)
    if len(alloc.y) != n:
        raise ParameterError(f"allocation has {len(alloc.y)} entries, tree has {n}")
    y = alloc.as_array()
    energy = _static_matrix(tree, Weights(0.0, 1.0), b)
    e_comp_rate = np.diag(energy).copy()
    np.fill_diagonal(energy, 0.0)
    freq = np.array([srv.cpu_freq for srv in tree.servers])

    t_tran = np.array(tree.path_inv_rate) * y
    t_wait = _waiting(tree, schedule) @ y
    t_comp = y * b / freq
    e_comp = e_comp_rate * y
    e_relay = energy @ y
    t_total = t_tran + t_wait + t_comp
    e_total = e_comp + e_relay
    j_node = tuple((weights.w1 * t_total + weights.w2 * e_total).tolist())
    return CostBreakdown(
        t_tran=tuple(t_tran.tolist()),
        t_wait=tuple(t_wait.tolist()),
        t_comp=tuple(t_comp.tolist()),
        t_total=tuple(t_total.tolist()),
        e_comp=tuple(e_comp.tolist()),
        e_relay=tuple(e_relay.tolist()),
        e_total=tuple(e_total.tolist()),
        j_node=j_node,
        j_system=max(j_node),
    )


# --- linear form ----------------------------------------------------------


def _static_matrix(tree: SinkTree, weights: Weights, b: float) -> np.ndarray:
    """Schedule-independent part: own time/energy plus ancestors' relay energy."""
    if not 0.0 < b < math.inf:
        raise ParameterError(f"cycles per bit must be finite and > 0, got {b}")
    n = len(tree)
    a = np.zeros((n, n))
    own = list(range(n))
    a[own, own] += [
        weights.w1 * (tree.path_inv_rate[i] + b / srv.cpu_freq)
        for i, srv in enumerate(tree.servers)
    ]
    a[own, own] += [
        weights.w2 * srv.switched_cap * b * srv.cpu_freq**2 for srv in tree.servers
    ]
    # every bit destined to i crosses each ancestor's outgoing radio
    senders, dests, relay = [], [], []
    for i, path in enumerate(tree.paths):
        for anc, nxt in zip(path, path[1:]):
            senders.append(anc)
            dests.append(i)
            relay.append(weights.w2 * tree.servers[anc].tx_power / tree.edge_rate[nxt])
    # (sender, dest) pairs are distinct, so one indexed add books them all
    a[senders, dests] += relay
    return a


def _waiting(tree: SinkTree, schedule: Schedule) -> np.ndarray:
    """Unit-weight waiting terms: i waits on each j sent before it in its subtree."""
    pos = [0] * len(tree)
    for seq in schedule.orders:
        for k, i in enumerate(seq):
            pos[i] = k
    rank = np.array(pos)
    return tree.shared_inv_rate * (rank[:, None] > rank[None, :])


def cost_coefficients(
    tree: SinkTree,
    schedule: Schedule,
    weights: Weights,
    b: float = DEFAULT_B,
) -> np.ndarray:
    """Read-only matrix a of the linear form J_i(y) = sum_k a[i, k] * y_k."""
    validate_schedule(tree, schedule)
    a = _static_matrix(tree, weights, b) + weights.w1 * _waiting(tree, schedule)
    a.flags.writeable = False
    return a
