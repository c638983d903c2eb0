"""Independent checks for trees, costs, and solutions.

`simulate_delivery` replays subtask delivery as a queue simulation: every
edge keeps a FIFO ledger of the subtasks routed through it, in schedule
order, and a subtask's hop cannot start before the edge has served the
backlog ahead of it.  No pipelining credit is given: the discipline is
plain store-and-forward, each subtask charged the full residence time of
its predecessors on every shared edge.  The closed-form accounting in
`costs` must agree with this replay; the two are written against the same
channel discipline but share no code path.  The replay also reports how
long each edge is busy, which prices the relay energy a sender spends
pushing traffic onto its child edges.

`verify_instance` bundles the invariant suite the CLI exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import (
    Allocation,
    Schedule,
    cost_coefficients,
    system_cost,
    validate_schedule,
)
from .network import NetworkGraph
from .solvers import Solution, count_schedules
from .tree import SinkTree


@dataclass(frozen=True)
class DeliveryTrace:
    """Per-node arrival accounting from the queue replay.

    busy[i] is the total time the edge parent(i) -> i carries traffic;
    0.0 for the root, which has no incoming edge.
    """

    t_wait: tuple[float, ...]
    t_tran: tuple[float, ...]
    busy: tuple[float, ...]


def simulate_delivery(
    tree: SinkTree, schedule: Schedule, alloc: Allocation
) -> DeliveryTrace:
    """Replay subtask shipments edge by edge in schedule order."""
    validate_schedule(tree, schedule)
    n = len(tree)
    wait = [0.0] * n
    tran = [0.0] * n
    # edge ledger, keyed by the child node of the edge: list of service times
    # already booked on that edge, in the order they occupy it
    booked: dict[int, list[float]] = {i: [] for i in range(1, n)}
    for seq in schedule.orders:
        for i in seq:
            y = alloc.y[i]
            path = tree.paths[i]
            queue_delay = 0.0
            carry = 0.0
            for hop in path[1:]:
                queue_delay += sum(booked[hop])
                carry += y / tree.edge_rate[hop]
                booked[hop].append(y / tree.edge_rate[hop])
            wait[i] = queue_delay
            tran[i] = carry
    busy = (0.0,) + tuple(sum(booked[hop]) for hop in range(1, n))
    return DeliveryTrace(t_wait=tuple(wait), t_tran=tuple(tran), busy=busy)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _shortest_inv_rate_bellman(net: NetworkGraph) -> list[float]:
    """Path costs from the master by plain relaxation sweeps (no heap)."""
    n = len(net)
    inf = float("inf")
    dist = [inf] * n
    dist[0] = 0.0
    for _ in range(n):
        changed = False
        for (i, j), rate in net.links.items():
            if dist[i] + 1.0 / rate < dist[j]:
                dist[j] = dist[i] + 1.0 / rate
                changed = True
        if not changed:
            break
    return dist


def check_tree(tree: SinkTree, net: NetworkGraph | None = None) -> list[CheckResult]:
    out = []

    ordered = all(
        tree.depth_of[i] <= tree.depth_of[j]
        for i in range(len(tree))
        for j in range(i + 1, len(tree))
    )
    out.append(CheckResult("level-ordered ids", ordered))

    seen: set[int] = set()
    for nodes in tree.subtrees.values():
        seen.update(nodes)
    out.append(
        CheckResult(
            "subtrees partition the workers",
            seen == set(range(1, len(tree))),
        )
    )

    if net is not None:
        dist = _shortest_inv_rate_bellman(net)
        ok = True
        worst = ""
        for i in range(len(tree)):
            have = tree.path_inv_rate[i]
            want = dist[tree.to_original[i]]
            if abs(have - want) > 1e-12 * max(1.0, abs(want)):
                ok = False
                worst = f"node {i}: tree path {have}, graph shortest {want}"
                break
        out.append(CheckResult("paths are shortest in the graph", ok, worst))
    return out


def _first_mismatch(rows) -> str:
    """Describe the first (label, formula, replay) row that disagrees, or ''."""
    for label, have, want in rows:
        if abs(have - want) > 1e-9 * max(1.0, abs(want)):
            return f"{label}: formula {have}, replay {want}"
    return ""


def check_solution(sol: Solution) -> list[CheckResult]:
    tree, alloc, sched = sol.tree, sol.allocation, sol.schedule
    out = []

    drift = abs(sum(alloc.y) - sol.task_size)
    out.append(
        CheckResult(
            "allocation sums to the task size",
            drift <= 1e-6 * sol.task_size + 1e-9,
            f"drift {drift:g}",
        )
    )
    out.append(
        CheckResult("allocation nonnegative", all(v >= 0.0 for v in alloc.y))
    )

    bd = system_cost(tree, sched, alloc, sol.weights, sol.b_comp)
    rel = abs(bd.j_system - sol.cost) / max(bd.j_system, 1e-300)
    out.append(
        CheckResult(
            "reported cost matches a recompute",
            rel <= 1e-9 or bd.j_system == sol.cost,
            f"relative gap {rel:g}",
        )
    )

    a = cost_coefficients(tree, sched, sol.weights, sol.b_comp)
    lin = float((a @ alloc.as_array()).max())
    rel = abs(lin - bd.j_system) / max(bd.j_system, 1e-300)
    out.append(
        CheckResult(
            "linear form reproduces the breakdown",
            rel <= 1e-9,
            f"relative gap {rel:g}",
        )
    )

    trace = simulate_delivery(tree, sched, alloc)
    detail = _first_mismatch(
        (f"node {i} {label}", have, want)
        for i in range(len(tree))
        for have, want, label in (
            (bd.t_wait[i], trace.t_wait[i], "wait"),
            (bd.t_tran[i], trace.t_tran[i], "tran"),
        )
    )
    out.append(CheckResult("delivery replay agrees", not detail, detail))

    # relaying into child c costs tx_power for as long as edge c is busy
    detail = _first_mismatch(
        (
            f"node {i}",
            bd.e_relay[i],
            tree.servers[i].tx_power * sum(trace.busy[c] for c in tree.children[i]),
        )
        for i in range(len(tree))
    )
    out.append(CheckResult("relay energy matches the replay", not detail, detail))

    if sol.solver_tag.startswith("cmo"):
        out.append(
            CheckResult(
                "schedule enumeration complete",
                sol.schedules_evaluated == count_schedules(tree),
                f"evaluated {sol.schedules_evaluated}, "
                f"expected {count_schedules(tree)}",
            )
        )
    return out


def verify_instance(
    sol: Solution, net: NetworkGraph | None = None
) -> list[CheckResult]:
    return check_tree(sol.tree, net) + check_solution(sol)
