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

`verify_instance` bundles the invariant suite the CLI exposes.  Every
check that recomputes a number (tree paths against the graph's shortest
paths, the allocation's sum, the reported cost, the linear form, the
replayed waits, transfers and relay energies) passes only when each
relative gap |have - want| / max(|have|, |want|) is at most 1e-12.  There
is no absolute floor, so small values are held to the same rule, and a
NaN fails.  Each such check reports its largest gap in its detail.
"""

from __future__ import annotations

import math
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


def _agreement(name: str, rows) -> CheckResult:
    """Check `name`: every (label, have, want) row agrees to 1e-12 relative.

    A row's gap is |have - want| / max(|have|, |want|), and 0 when the two
    are equal.  There is no absolute floor, and a NaN on either side fails.
    The detail names the largest gap (the first NaN, if any) and its row.
    """
    gaps = []
    for label, have, want in rows:
        scale = max(abs(have), abs(want))
        gap = 0.0 if have == want else abs(have - want) / scale if scale else math.nan
        gaps.append((gap, label, have, want))
    gap, label, have, want = max(gaps, key=lambda g: (math.isnan(g[0]), g[0]))
    return CheckResult(
        name,
        gap <= 1e-12,
        f"largest relative gap {gap:g} at {label}: {have:.17g} vs {want:.17g}",
    )


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

    # depth never falls with id exactly when no adjacent pair falls
    depth = tree.depth_of
    ordered = all(a <= b for a, b in zip(depth, depth[1:]))
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
        out.append(
            _agreement(
                "paths are shortest in the graph",
                [
                    (f"node {i} path", tree.path_inv_rate[i], dist[tree.to_original[i]])
                    for i in range(len(tree))
                ],
            )
        )
    return out


def check_solution(sol: Solution) -> list[CheckResult]:
    tree, alloc, sched = sol.tree, sol.allocation, sol.schedule
    nodes = range(len(tree))
    bd = system_cost(tree, sched, alloc, sol.weights, sol.b_comp)
    a = cost_coefficients(tree, sched, sol.weights, sol.b_comp)
    lin = float((a @ alloc.as_array()).max())
    trace = simulate_delivery(tree, sched, alloc)
    # relaying into child c costs tx_power for as long as edge c is busy
    relay = [
        tree.servers[i].tx_power * sum(trace.busy[c] for c in tree.children[i])
        for i in nodes
    ]
    out = [
        _agreement(
            "allocation sums to the task size",
            [("sum of the split", sum(alloc.y), alloc.total)],
        ),
        CheckResult("allocation nonnegative", all(v >= 0.0 for v in alloc.y)),
        _agreement(
            "reported cost matches a recompute", [("cost", sol.cost, bd.j_system)]
        ),
        _agreement(
            "linear form reproduces the breakdown",
            [("largest row of a @ y", lin, bd.j_system)],
        ),
        _agreement(
            "delivery replay agrees",
            [(f"node {i} wait", bd.t_wait[i], trace.t_wait[i]) for i in nodes]
            + [(f"node {i} tran", bd.t_tran[i], trace.t_tran[i]) for i in nodes],
        ),
        _agreement(
            "relay energy matches the replay",
            [(f"node {i}", bd.e_relay[i], relay[i]) for i in nodes],
        ),
    ]
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
