import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import B_COMP, default_problem, make_net, rand_tree
from treeload import (
    Allocation,
    NetworkGraph,
    Schedule,
    Weights,
    build_sink_tree,
    canonical_schedule,
    check_solution,
    check_tree,
    cmo,
    named_topology,
    pmo,
    simulate_delivery,
    solvers,
    system_cost,
    verification,
    verify_instance,
)

W = Weights(0.5, 0.05)
Y = 1e9


def rand_alloc(rng, n, total=Y):
    y = [rng.random() for _ in range(n)]
    s = sum(y)
    return Allocation(y=tuple(v / s * total for v in y), total=total)


def rand_schedule(tree, rng):
    orders = []
    for t in tree.subtree_roots:
        seq = list(tree.subtrees[t])
        rng.shuffle(seq)
        orders.append(tuple(seq))
    return Schedule(orders=tuple(orders))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_replay_matches_closed_form(seed):
    rng = random.Random(seed)
    tree = rand_tree(rng, rng.randint(2, 8))
    alloc = rand_alloc(rng, len(tree))
    sched = rand_schedule(tree, rng)
    br = system_cost(tree, sched, alloc, W, B_COMP)
    trace = simulate_delivery(tree, sched, alloc)
    for i in range(len(tree)):
        assert br.t_wait[i] == pytest.approx(trace.t_wait[i], rel=1e-9, abs=1e-18)
        assert br.t_tran[i] == pytest.approx(trace.t_tran[i], rel=1e-9, abs=1e-18)
        relayed = sum(trace.busy[c] for c in tree.children[i])
        assert br.e_relay[i] == pytest.approx(
            tree.servers[i].tx_power * relayed, rel=1e-9, abs=1e-18
        )


def test_replay_orders_edge_contention():
    # chain 0-1-2 with both workers loaded: node 2's shipment queues
    # behind node 1's on the first hop when 1 is scheduled first
    tree_net = make_net([-1, 0, 1], [0.0, 10.0, 10.0], [2.0, 2.0, 2.0])
    tree = build_sink_tree(tree_net)
    alloc = Allocation(y=(0.0, 6e8, 4e8), total=Y)
    first = simulate_delivery(tree, Schedule(orders=((1, 2),)), alloc)
    assert first.t_wait[2] == pytest.approx(6e8 / 10e9)
    second = simulate_delivery(tree, Schedule(orders=((2, 1),)), alloc)
    assert second.t_wait[2] == 0.0
    assert second.t_wait[1] == pytest.approx(4e8 / 10e9)


def test_check_tree_flags_non_shortest_route():
    # build a tree by hand that takes the slow direct link (1e-9 s/bit);
    # the graph check must notice a faster two-hop route, 5x faster or
    # only 1e-6 faster
    net = make_net([-1, 0, 0], [0.0, 10.0, 1.0], [2.0, 2.0, 2.0])
    bad_tree = build_sink_tree(net)  # built without the shortcut
    for shortcut_bps in 10e9, 1.0 / (9e-10 - 1e-15):
        richer = NetworkGraph(
            servers=net.servers,
            links={**net.links, (1, 2): shortcut_bps, (2, 1): shortcut_bps},
        )
        results = check_tree(bad_tree, richer)
        by_name = {r.name: r for r in results}
        assert not by_name["paths are shortest in the graph"].ok


def test_check_solution_all_green_on_solver_output():
    tree = rand_tree(random.Random(3), 6)
    sol = cmo(tree, Y, W, b=B_COMP)
    assert all(r.ok for r in verify_instance(sol))


def test_check_solution_catches_corruption():
    tree = rand_tree(random.Random(4), 5)
    sol = cmo(tree, Y, W, b=B_COMP)
    for factor in 1.5, 1.0 + 1e-10:
        wrong = replace(sol, cost=sol.cost * factor)
        results = {r.name: r for r in check_solution(wrong)}
        assert not results["reported cost matches a recompute"].ok

    # Allocation refuses a total its split does not sum to, so forge one
    forged = object.__new__(Allocation)
    object.__setattr__(forged, "y", sol.allocation.y)
    object.__setattr__(forged, "total", sol.allocation.total * 2)
    mismatched = replace(sol, allocation=forged)
    results = {r.name: r for r in check_solution(mismatched)}
    assert not results["allocation sums to the task size"].ok


@pytest.mark.parametrize(
    "fields, off",
    [(("t_wait",), lambda v: v * (1.0 + 1e-6)),
     (("t_wait", "t_tran", "busy"), lambda v: math.nan)],
    ids=["waits-1e-6", "all-nan"],
)
def test_replay_check_has_no_absolute_floor(monkeypatch, fields, off):
    # a 1 Mbit answer waits ~4e-5 s: 1e-6 of that is far inside any 1e-9 s
    # floor, and a NaN passes every `>` test
    _, w, b = default_problem("mixed")
    sol = pmo(named_topology("mixed").tree, 1e6, w, b=b)
    assert all(r.ok for r in check_solution(sol))
    true = simulate_delivery(sol.tree, sol.schedule, sol.allocation)
    assert 1e-6 < max(true.t_wait) < 1e-3
    bad = replace(true, **{f: tuple(map(off, getattr(true, f))) for f in fields})
    monkeypatch.setattr(verification, "simulate_delivery", lambda *args: bad)
    ok = {r.name: r.ok for r in check_solution(sol)}
    assert not ok["delivery replay agrees"]
    assert ok["relay energy matches the replay"] == ("busy" not in fields)


def test_check_solution_audits_cmo_enumeration():
    tree = rand_tree(random.Random(5), 5)
    sol = cmo(tree, Y, W, b=B_COMP)
    results = {r.name: r for r in check_solution(sol)}
    assert results["schedule enumeration complete"].ok
    lied = replace(sol, schedules_evaluated=1)
    results = {r.name: r for r in check_solution(lied)}
    assert not results["schedule enumeration complete"].ok


def test_enumeration_check_counts_the_orders_split(monkeypatch):
    # an enumeration that stops early reports the orders it split, not the
    # count that a complete one would reach
    tree = rand_tree(random.Random(5), 5)
    ranks = solvers._order_ranks
    monkeypatch.setattr(solvers, "_order_ranks", lambda *a: ranks(*a)[:3])
    sol = cmo(tree, Y, W, b=B_COMP)
    assert sol.schedules_evaluated == 3 < solvers.count_schedules(tree)
    results = {r.name: r for r in check_solution(sol)}
    assert not results["schedule enumeration complete"].ok
