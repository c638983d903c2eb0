"""Ten end-to-end acceptance checks for the optimization stack.

Each test measures its own numbers, prints one [PASS]/[FAIL] line, and
asserts the stated tolerance.  Run with `pytest tests/test_acceptance.py
-v -s` to see every line; all checks are seeded and deterministic apart
from the wall-clock figures in criterion 10.
"""

from __future__ import annotations

import math
import random
import time

import oracles
from conftest import (
    B_COMP,
    CAP_RANGE,
    FREQ_GHZ,
    RATE_GBPS,
    TX_W,
    default_problem,
    make_tree,
    plain_of,
    rand_tree,
)
from treeload import (
    Allocation,
    GaParams,
    GenParams,
    LpParams,
    NetworkGraph,
    NpParams,
    Schedule,
    ServerParams,
    Weights,
    baseline_local,
    baseline_master_worker,
    baseline_multi_hop,
    baseline_partial,
    build_sink_tree,
    cmo,
    ga,
    generate_network,
    level_prune,
    named_topology,
    node_prune,
    pmo,
    scale_solution,
    simulate_delivery,
    system_cost,
)
from treeload.units import DEFAULT_B, gbps_to_bps, ghz_to_hz

Y = 1e9
W = Weights(0.5, 0.05)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    return line


def corpus_instance(n: int, shape: tuple[int, ...], draw: int):
    rng = random.Random((n, shape, draw).__hash__() & 0x7FFFFFFF)
    rates = [0.0] + [rng.uniform(*RATE_GBPS) for _ in range(n - 1)]
    freqs = [rng.uniform(*FREQ_GHZ) for _ in range(n)]
    caps = [rng.uniform(*CAP_RANGE) for _ in range(n)]
    txs = [rng.uniform(*TX_W) for _ in range(n)]
    return make_tree(shape, rates, freqs, caps, txs)


def test_criterion_1_brute_force_optimality():
    # every tree shape up to 5 nodes, 10 parameter draws, both weightings;
    # reference is the exact tie-pattern optimum plus a feasibility grid
    t0 = time.perf_counter()
    worst = 0.0
    above_opt = 0
    above_grid = 0
    cases = 0
    for n in range(1, 6):
        for shape in oracles.tree_shapes(n):
            for draw in range(10):
                tree = corpus_instance(n, shape, draw)
                p = plain_of(tree)
                for w1, w2 in ((1.0, 0.0), (0.5, 0.05)):
                    cases += 1
                    sol = cmo(tree, Y, Weights(w1, w2), b=B_COMP)
                    ref, _ = oracles.brute_minmax(p, Y, w1, w2, B_COMP)
                    worst = max(worst, abs(sol.cost - ref) / ref)
                    if sol.cost > ref * (1 + 1e-9):
                        above_opt += 1
                    for sched in oracles.all_schedules(p.parent):
                        for y in oracles.lattice_points(n, Y, 6):
                            v = oracles.system_cost(p, sched, y, w1, w2, B_COMP)
                            if sol.cost > v * (1 + 1e-9):
                                above_grid += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and above_opt == 0 and above_grid == 0 and dt < 300
    line = report(
        1,
        ok,
        f"{cases} instances, worst rel gap {worst:.2e}, "
        f"{above_opt} above optimum, {above_grid} above grid points, {dt:.1f}s",
    )
    assert ok, line


def test_criterion_2_pmo_equals_cmo():
    t0 = time.perf_counter()
    rng = random.Random(20240402)
    worst = 0.0
    done = 0
    while done < 50:
        tree = rand_tree(rng, rng.randint(4, 8))
        if not 2 <= len(tree.subtree_roots) <= 3:
            continue
        za = cmo(tree, Y, W, b=B_COMP).cost
        zb = pmo(tree, Y, W, b=B_COMP).cost
        worst = max(worst, abs(zb - za) / za)
        done += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 120
    line = report(2, ok, f"50 trees, worst |z_pmo - z_cmo|/z_cmo = {worst:.2e}, {dt:.1f}s")
    assert ok, line


def test_criterion_3_scaling_matches_fresh_solve():
    rng = random.Random(20240403)
    worst_cost = 0.0
    worst_share = 0.0
    for _ in range(20):
        tree = rand_tree(rng, rng.randint(3, 7))
        base = pmo(tree, Y, W, b=B_COMP)
        for k in (0.5, 2.0, 10.0):
            scaled = scale_solution(base, k * Y)
            fresh = pmo(tree, k * Y, W, b=B_COMP)
            worst_cost = max(worst_cost, abs(scaled.cost - fresh.cost) / fresh.cost)
            gap = max(
                abs(a - b) for a, b in zip(scaled.allocation.y, fresh.allocation.y)
            )
            worst_share = max(worst_share, gap / (k * Y))
    ok = worst_cost <= 1e-7 and worst_share <= 1e-6
    line = report(
        3,
        ok,
        f"20 instances x factors (0.5, 2, 10): cost gap {worst_cost:.2e}, "
        f"share gap {worst_share:.2e} of the task",
    )
    assert ok, line


def test_criterion_4_baseline_dominance():
    rng = random.Random(20240404)
    worst_gap = -math.inf
    chain_ok = True
    baselines = (
        baseline_local,
        baseline_partial,
        baseline_master_worker,
        baseline_multi_hop,
    )
    for _ in range(20):
        tree = rand_tree(rng, rng.randint(3, 6))
        z = cmo(tree, Y, W, b=B_COMP).cost
        for fn in baselines:
            zb = fn(tree, Y, W, b=B_COMP).cost
            worst_gap = max(worst_gap, (z - zb) / zb)
        wt = Weights(1.0, 0.0)
        zl = baseline_local(tree, Y, wt, b=B_COMP).cost
        zp = baseline_partial(tree, Y, wt, b=B_COMP).cost
        zm = baseline_master_worker(tree, Y, wt, b=B_COMP).cost
        chain_ok = chain_ok and zm <= zp * (1 + 1e-9) and zp <= zl * (1 + 1e-9)
    ok = worst_gap <= 1e-9 and chain_ok
    line = report(
        4,
        ok,
        f"20 instances: max (z_cmo - z_baseline)/z_baseline = {worst_gap:.2e}, "
        f"time-only mw <= partial <= local {'holds' if chain_ok else 'violated'}",
    )
    assert ok, line


def _lp_curve(tree, task, weights, b):
    return [
        pmo(level_prune(tree, LpParams(xi)), task, weights, b=b).cost
        for xi in range(tree.height + 1)
    ]


def _np_curve(tree, task, weights, b, thetas):
    out = []
    for th in thetas:
        pruned, relays = node_prune(tree, NpParams(th), task, weights, b=b)
        out.append(pmo(pruned, task, weights, relays, b=b).cost)
    return out


def test_criterion_5_pruning_endpoints_and_monotonicity():
    instances = []
    for name in ("deep_chain", "two_subtree"):
        instances.append((name, named_topology(name).tree, *default_problem(name)))
    instances.append(("random-6", rand_tree(random.Random(9021), 6), Y, W, B_COMP))
    instances.append(("random-7", rand_tree(random.Random(9022), 7), Y, W, B_COMP))

    thetas = (0.0, 0.25, 0.5, 0.75, 1.0)
    ok = True
    worst_end = 0.0
    for _, tree, task, weights, b in instances:
        z0 = baseline_local(tree, task, weights, b=b).cost
        z_full = pmo(tree, task, weights, b=b).cost

        lp = _lp_curve(tree, task, weights, b)
        worst_end = max(
            worst_end, abs(lp[0] - z0) / z0, abs(lp[-1] - z_full) / z_full
        )
        ok = ok and all(b2 <= a2 * (1 + 1e-9) for a2, b2 in zip(lp, lp[1:]))

        np_curve = _np_curve(tree, task, weights, b, thetas)
        worst_end = max(worst_end, abs(np_curve[-1] - z0) / z0)
        ok = ok and all(
            b2 >= a2 * (1 - 1e-9) for a2, b2 in zip(np_curve, np_curve[1:])
        )
    ok = ok and worst_end <= 1e-9
    line = report(
        5,
        ok,
        f"4 instances: endpoint gap {worst_end:.2e}, depth curve non-increasing, "
        f"threshold curve non-decreasing",
    )
    assert ok, line


def test_criterion_6_ga_finds_small_optima():
    per_topology = []
    ok = True
    for name in ("deep_chain", "wide_shallow", "mixed", "two_subtree"):
        tree = named_topology(name).tree
        y, w, b = default_problem(name)
        ref = cmo(tree, y, w, b=b).cost
        hits = 0
        for seed in range(5):
            params = GaParams(population=4, generations=5, rng_seed=seed)
            g = ga(tree, y, w, params, b=b)
            if abs(g.cost - ref) <= 1e-6 * ref:
                hits += 1
        per_topology.append(f"{name} {hits}/5")
        ok = ok and hits >= 4
    line = report(6, ok, "optimum hits: " + ", ".join(per_topology))
    assert ok, line


def test_criterion_7_schedule_count_audit():
    rng = random.Random(20240407)
    ok = True
    counts = []
    for _ in range(10):
        tree = rand_tree(rng, rng.randint(2, 6))
        sol = cmo(tree, Y, W, b=B_COMP)
        want = 1
        for members in tree.subtrees.values():
            want *= math.factorial(len(members))
        ok = (
            ok
            and sol.schedules_evaluated
            == want
            == oracles.count_all_schedules(tree.parent)
        )
        counts.append(sol.schedules_evaluated)
    line = report(
        7, ok, f"10 trees, evaluated counts {counts} all equal the factorial products"
    )
    assert ok, line


def test_criterion_8_delivery_replay_matches_closed_form():
    worst = 0.0
    compared = 0
    for n in range(2, 7):
        for shape in oracles.tree_shapes(n):
            rng = random.Random((8, n, shape).__hash__() & 0x7FFFFFFF)
            tree = corpus_instance(n, shape, 8000 + n)
            for sched in map(Schedule, oracles.all_schedules(tree.parent)):
                for _ in range(20):
                    parts = [rng.random() for _ in range(n)]
                    s = sum(parts)
                    alloc = Allocation(
                        y=tuple(v / s * Y for v in parts), total=Y
                    )
                    trace = simulate_delivery(tree, sched, alloc)
                    br = system_cost(tree, sched, alloc, W, DEFAULT_B)
                    for i in range(n):
                        for have, want in (
                            (trace.t_wait[i], br.t_wait[i]),
                            (trace.t_tran[i], br.t_tran[i]),
                        ):
                            gap = abs(have - want) / max(abs(want), 1e-12)
                            worst = max(worst, gap)
                            compared += 1
    ok = worst <= 1e-9
    line = report(
        8,
        ok,
        f"all shapes to 6 nodes x all orders x 20 splits: "
        f"{compared} comparisons, worst rel gap {worst:.2e}",
    )
    assert ok, line


def _two_subtree_variant(base, rate_gbps=None, f1_ghz=None):
    links = dict(base.network.links)
    if rate_gbps is not None:
        links[(0, 1)] = links[(1, 0)] = gbps_to_bps(rate_gbps)
    servers = list(base.network.servers)
    if f1_ghz is not None:
        s = servers[1]
        servers[1] = ServerParams(ghz_to_hz(f1_ghz), s.tx_power, s.switched_cap)
    return build_sink_tree(NetworkGraph(tuple(servers), links))


def test_criterion_9_rate_and_frequency_thresholds():
    base = named_topology("two_subtree")
    y, w, b = default_problem("two_subtree")

    shares = []
    for r in (0.3, 1.0, 3.0, 10.0):
        tree = _two_subtree_variant(base, rate_gbps=r)
        sol = pmo(tree, y, w, b=b)
        root = tree.to_original.index(1)
        members = tree.subtrees[root]
        shares.append(sum(sol.allocation.y[i] for i in members) / y)
    rate_ok = shares[0] <= 1e-9 and all(
        b2 >= a2 - 1e-12 for a2, b2 in zip(shares, shares[1:])
    )

    fracs = []
    for f in (0.01, 0.1, 0.5, 2.0):
        tree = _two_subtree_variant(base, f1_ghz=f)
        sol = pmo(tree, y, w, b=b)
        fracs.append(sol.allocation.y[tree.to_original.index(1)] / y)
    freq_ok = (
        fracs[0] <= 2e-3
        and fracs[-1] >= 0.1
        and all(b2 >= a2 - 1e-12 for a2, b2 in zip(fracs, fracs[1:]))
    )

    ok = rate_ok and freq_ok
    line = report(
        9,
        ok,
        "subtree share over link rate "
        + "/".join(f"{v:.4f}" for v in shares)
        + ", node-1 share over cpu freq "
        + "/".join(f"{v:.4f}" for v in fracs),
    )
    assert ok, line


def test_criterion_10_cached_baseline_latency():
    g = GenParams(node_count=20, edge_prob=0.3, rng_seed=28, gamma=2e-28)
    tree = build_sink_tree(generate_network(g))

    t0 = time.perf_counter()
    base = pmo(tree, Y, W, b=B_COMP)
    full_s = time.perf_counter() - t0

    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        scaled = scale_solution(base, 2.5 * Y)
        best = min(best, time.perf_counter() - t0)

    fresh = pmo(tree, 2.5 * Y, W, b=B_COMP)
    consistent = abs(scaled.cost - fresh.cost) <= 1e-6 * fresh.cost
    ok = best < 1e-3 and consistent
    line = report(
        10,
        ok,
        f"20 nodes: cached answer {best * 1e6:.0f} us vs full re-solve "
        f"{full_s * 1e3:.0f} ms, costs agree to {abs(scaled.cost - fresh.cost) / fresh.cost:.1e}",
    )
    assert ok, line
