"""Exact workload placement.

For one transmission schedule the per-node costs are nonnegative linear
forms, so the best split solves

    min z   s.t.  (A y)_i <= z  for every node,  sum(y) = Y,  y >= 0,

a small epigraph LP.  It is solved once on the unit simplex (the optimal
shape of y does not depend on Y, only its scale does), which makes
solutions exactly proportional across task sizes and lets a cached
solution be rescaled instead of re-solved.

`cmo` enumerates every per-subtree transmission order and keeps the best
LP result.  `pmo` exploits that subtrees only interact through the master:
each subtree is ordered and probed on its own, then one more small LP
splits the task between the master and the subtrees.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .costs import (
    Allocation,
    CostBreakdown,
    Schedule,
    Weights,
    _add_waiting,
    _static_matrix,
    system_cost,
)
from .errors import InfeasibleError, ParameterError
from .tree import SinkTree, extract_subtree, tree_fingerprint
from .units import DEFAULT_B

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class Solution:
    """A solved instance: the split, the schedule, and its audited cost."""

    tree: SinkTree
    weights: Weights
    b_comp: float
    task_size: float
    allocation: Allocation
    schedule: Schedule
    cost: float
    breakdown: CostBreakdown
    solver_tag: str
    schedules_evaluated: int = 1
    flags: tuple[str, ...] = ()


def _minmax_unit(
    a: np.ndarray,
    forced_zero: frozenset[int],
    active_rows: tuple[int, ...] | None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Minimize max over rows of (a u) on the simplex; returns unit weights u.

    Columns in forced_zero are pinned to zero.  active_rows restricts which
    rows enter the max (all by default).
    """
    n = a.shape[1]
    cols = [k for k in range(n) if k not in forced_zero]
    if not cols:
        raise InfeasibleError("every node is forced to zero workload")
    rows = list(range(a.shape[0])) if active_rows is None else list(active_rows)
    u = np.zeros(n)

    sub = a[np.ix_(rows, cols)]
    col_cost = sub.sum(axis=0)
    free = np.flatnonzero(col_cost == 0.0)
    if free.size or not rows:
        # a column nobody pays for absorbs everything at zero cost
        u[cols[int(free[0])] if free.size else cols[0]] = 1.0
        return u, ("free-node-shortcut",)

    # scale by the smallest per-column maximum: that value bounds the
    # optimum from above (all mass on that column), and the optimum is at
    # least it divided by the column count, so the scaled solution sits in
    # [1/m, 1] even when entries span many orders of magnitude
    scale = float(sub.max(axis=0).min())
    m = len(cols)
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([sub / scale, -np.ones((len(rows), 1))])
    b_ub = np.zeros(len(rows))
    a_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    bounds = [(0.0, None)] * m + [(0.0, None)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=bounds,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise InfeasibleError(f"fixed-order split LP failed: {res.message}")
    vals = np.maximum(res.x[:m], 0.0)
    u[cols] = vals / vals.sum()
    return u, ()


def _solution(
    tree: SinkTree,
    schedule: Schedule,
    y,
    task_size: float,
    weights: Weights,
    b: float,
    tag: str,
    flags: tuple[str, ...] = (),
    evaluated: int = 1,
) -> Solution:
    """Audit the split y (bits per node) under `schedule` into a Solution."""
    alloc = Allocation(y=tuple(float(v) for v in y), total=task_size)
    breakdown = system_cost(tree, schedule, alloc, weights, b)
    return Solution(
        tree=tree,
        weights=weights,
        b_comp=b,
        task_size=task_size,
        allocation=alloc,
        schedule=schedule,
        cost=breakdown.j_system,
        breakdown=breakdown,
        solver_tag=tag,
        schedules_evaluated=evaluated,
        flags=flags,
    )


def solve_fixed_order(
    tree: SinkTree,
    schedule: Schedule,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
    active_rows: tuple[int, ...] | None = None,
) -> Solution:
    """Optimal split for one fixed schedule."""
    if task_size < 0.0:
        raise ParameterError("task size must be >= 0")
    a = _static_matrix(tree, weights, b)
    _add_waiting(a, tree, schedule, weights.w1)
    if task_size == 0.0:
        u = np.zeros(len(tree))
        u_flags: tuple[str, ...] = ()
    else:
        u, u_flags = _minmax_unit(a, forced_zero, active_rows)
    return _solution(
        tree, schedule, u * task_size, task_size, weights, b, "fixed-order", u_flags
    )


def enumerate_schedules(tree: SinkTree):
    """Every per-subtree order combination, in deterministic lexicographic order."""
    pools = [itertools.permutations(tree.subtrees[t]) for t in tree.subtree_roots]
    for combo in itertools.product(*pools):
        yield Schedule(orders=tuple(combo))


def count_schedules(tree: SinkTree) -> int:
    out = 1
    for t in tree.subtree_roots:
        out *= math.factorial(len(tree.subtrees[t]))
    return out


def cmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
    active_rows: tuple[int, ...] | None = None,
) -> Solution:
    """Exhaustive schedule search: one LP per order combination, keep the best.

    Candidates are scored by the largest active row of the linear form;
    only the winner is audited into a Solution.  Ties go to the earliest
    schedule in enumeration order.
    """
    if task_size < 0.0:
        raise ParameterError("task size must be >= 0")
    static = _static_matrix(tree, weights, b)
    rows = list(range(len(tree))) if active_rows is None else list(active_rows)
    best = None
    evaluated = 0
    for schedule in enumerate_schedules(tree):
        evaluated += 1
        a = static.copy()
        _add_waiting(a, tree, schedule, weights.w1)
        if task_size == 0.0:
            u = np.zeros(len(tree))
            flags: tuple[str, ...] = ()
        else:
            u, flags = _minmax_unit(a, forced_zero, active_rows)
        y = u * task_size
        z = float(np.max(a[rows] @ y, initial=0.0))
        if best is None or z < best[0]:
            best = (z, schedule, y, flags)
    assert best is not None
    _, schedule, y, flags = best
    return _solution(
        tree, schedule, y, task_size, weights, b, "cmo", flags, evaluated
    )


def _probe_subtree(
    tree: SinkTree,
    t: int,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int],
    b: float,
):
    """Order one subtree in isolation: full probe load, master excluded.

    Returns (order over full-tree ids, per-node unit shares over full-tree
    ids, probe cost, schedules tried).
    """
    sub, back = extract_subtree(tree, t)
    sub_forced = frozenset(
        new for new, old in back.items() if old in forced_zero
    ) | {0}
    worker_rows = tuple(range(1, len(sub)))
    probe = cmo(
        sub,
        task_size,
        weights,
        frozenset(sub_forced),
        b=b,
        active_rows=worker_rows,
    )
    order = tuple(back[i] for i in probe.schedule.orders[0])
    shares = {back[i]: probe.allocation.y[i] / task_size for i in worker_rows}
    return order, shares, probe.cost, probe.schedules_evaluated


def solve_master_split(
    tree: SinkTree,
    probe_costs: dict[int, float],
    probe_totals: dict[int, float],
    task_size: float,
    weights: Weights,
    *,
    b: float = DEFAULT_B,
    blocked: frozenset[int] = frozenset(),
    master_blocked: bool = False,
) -> tuple[float, dict[int, float]]:
    """Split the task between the master and whole subtrees.

    Each subtree t is summarized by its probe: cost probe_costs[t] when it
    carries probe_totals[t] bits, scaling linearly in between.  The master
    pays its own compute plus the relay energy of pushing each subtree's
    share onto its first hop.  Subtrees in `blocked` are pinned to zero, as
    is the master's own share when master_blocked is set.
    """
    roots = tree.subtree_roots
    master = tree.servers[0]
    m = len(roots)
    a = np.zeros((m + 1, m + 1))
    a[0, 0] = weights.w1 * b / master.cpu_freq
    a[0, 0] += weights.w2 * master.switched_cap * b * master.cpu_freq**2
    for idx, t in enumerate(roots):
        a[0, 1 + idx] = weights.w2 * master.tx_power / tree.edge_rate[t]
        if t not in blocked:
            if not probe_totals[t] > 0.0:
                raise ParameterError(f"subtree {t}: probe total must be > 0")
            a[1 + idx, 1 + idx] = probe_costs[t] / probe_totals[t]
    forced = frozenset(1 + idx for idx, t in enumerate(roots) if t in blocked)
    if master_blocked:
        forced = forced | {0}
    u, _ = _minmax_unit(a, forced, None)
    y0 = float(u[0] * task_size)
    return y0, {t: float(u[1 + idx] * task_size) for idx, t in enumerate(roots)}


def pmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
) -> Solution:
    """Decomposition: order each subtree independently, then split.

    Matches `cmo` cost while evaluating sum-of-factorials many schedules
    instead of their product.
    """
    if task_size < 0.0:
        raise ParameterError("task size must be >= 0")
    roots = tree.subtree_roots
    probe_size = task_size if task_size > 0.0 else 1.0
    probed = [t for t in roots if any(i not in forced_zero for i in tree.subtrees[t])]
    blocked = frozenset(t for t in roots if t not in probed)

    results = {
        t: _probe_subtree(tree, t, probe_size, weights, forced_zero, b)
        for t in probed
    }

    evaluated = sum(res[3] for res in results.values())
    orders = {}
    for t in roots:
        orders[t] = results[t][0] if t in results else tree.subtrees[t]
    schedule = Schedule.from_mapping(tree, orders)

    if task_size == 0.0:
        return _solution(
            tree, schedule, np.zeros(len(tree)), task_size, weights, b, "pmo",
            evaluated=max(evaluated, 1),
        )
    if 0 in forced_zero and not probed:
        raise InfeasibleError("every node is forced to zero workload")

    probe_costs = {t: results[t][2] for t in probed}
    probe_totals = {t: probe_size for t in probed}
    y0, subtree_share = solve_master_split(
        tree,
        probe_costs,
        probe_totals,
        task_size,
        weights,
        b=b,
        blocked=blocked,
        master_blocked=0 in forced_zero,
    )
    u = np.zeros(len(tree))
    u[0] = y0 / task_size
    for t in probed:
        # probe shape, rescaled to the subtree's awarded total
        for i, share in results[t][1].items():
            u[i] = share * subtree_share[t] / task_size
    return _solution(
        tree, schedule, u * task_size, task_size, weights, b, "pmo",
        evaluated=max(evaluated, 1),
    )


def scale_solution(base: Solution, new_task_size: float) -> Solution:
    """Rescale a solved split to a new task size; schedule and shape carry over."""
    if new_task_size < 0.0:
        raise ParameterError("task size must be >= 0")
    if base.task_size <= 0.0:
        raise ParameterError("base solution must have a positive task size")
    factor = new_task_size / base.task_size
    return _solution(
        base.tree,
        base.schedule,
        [v * factor for v in base.allocation.y],
        new_task_size,
        base.weights,
        base.b_comp,
        base.solver_tag + "+scaled",
        base.flags,
        base.schedules_evaluated,
    )


# --- cached baseline for the offline/online scheme -------------------------


def save_baseline(path, sol: Solution) -> None:
    """Persist a solved baseline keyed by the tree's content hash."""
    doc = {
        "tree_sha": tree_fingerprint(sol.tree),
        "task_size": sol.task_size,
        "weights": [sol.weights.w1, sol.weights.w2],
        "b_comp": sol.b_comp,
        "y": list(sol.allocation.y),
        "orders": [list(seq) for seq in sol.schedule.orders],
        "cost": sol.cost,
        "solver_tag": sol.solver_tag,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_baseline(
    path, tree: SinkTree, weights: Weights, b: float = DEFAULT_B
) -> Solution | None:
    """Recover a cached baseline; None when the tree or settings changed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    if doc.get("tree_sha") != tree_fingerprint(tree):
        return None
    if list(doc.get("weights", [])) != [weights.w1, weights.w2]:
        return None
    if doc.get("b_comp") != b:
        return None
    schedule = Schedule(orders=tuple(tuple(seq) for seq in doc["orders"]))
    return _solution(
        tree,
        schedule,
        doc["y"],
        float(doc["task_size"]),
        weights,
        b,
        str(doc.get("solver_tag", "cached")),
    )
