import itertools
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import B_COMP, make_tree, plain_of, rand_tree
from scipy.optimize import linprog

import treeload.solvers as solvers
from treeload import (
    GaParams,
    GenParams,
    InfeasibleError,
    NpParams,
    ParameterError,
    Schedule,
    ScheduleError,
    Weights,
    baseline_partial,
    build_sink_tree,
    canonical_schedule,
    cmo,
    count_schedules,
    enumerate_schedules,
    ga,
    generate_network,
    load_baseline,
    named_topology,
    node_prune,
    pmo,
    save_baseline,
    scale_solution,
    solve_fixed_order,
)
from treeload.costs import _static_matrix, cost_coefficients
from treeload.heuristics import partial_offload_cost

W = Weights(0.5, 0.05)
Y = 1e9
ROOT = Path(__file__).resolve().parent.parent


def test_two_node_split_matches_closed_form():
    for seed in range(25):
        rng = random.Random(seed)
        tree = rand_tree(rng, 2)
        w1, w2 = rng.choice([(1.0, 0.0), (0.5, 0.05), (0.1, 0.9)])
        sol = solve_fixed_order(tree, canonical_schedule(tree), Y, Weights(w1, w2), b=B_COMP)
        ref, ref_y = oracles.two_node_minmax(plain_of(tree), Y, w1, w2, B_COMP)
        assert sol.cost == pytest.approx(ref, rel=1e-9)
        assert sol.allocation.y[0] == pytest.approx(ref_y[0], rel=1e-6, abs=Y * 1e-9)


def test_fixed_order_matches_reference_optimum():
    for seed in range(6):
        rng = random.Random(seed + 100)
        tree = rand_tree(rng, rng.randint(3, 5))
        sched = canonical_schedule(tree)
        sol = solve_fixed_order(tree, sched, Y, W, b=B_COMP)
        ref, _ = oracles.best_allocation(plain_of(tree), sched.orders, Y, W.w1, W.w2, B_COMP)
        assert sol.cost == pytest.approx(ref, rel=1e-9)


def test_allocation_is_a_partition():
    tree = rand_tree(random.Random(2), 7)
    sol = solve_fixed_order(tree, canonical_schedule(tree), Y, W, b=B_COMP)
    assert sum(sol.allocation.y) == pytest.approx(Y, rel=1e-12)
    assert all(v >= 0.0 for v in sol.allocation.y)


def test_forced_zero_pins_nodes():
    tree = rand_tree(random.Random(3), 6)
    forced = frozenset({2, 4})
    sol = solve_fixed_order(
        tree, canonical_schedule(tree), Y, W, forced, b=B_COMP
    )
    assert sol.allocation.y[2] == 0.0
    assert sol.allocation.y[4] == 0.0


def test_all_forced_is_infeasible():
    tree = rand_tree(random.Random(4), 3)
    with pytest.raises(InfeasibleError):
        solve_fixed_order(
            tree, canonical_schedule(tree), Y, W, frozenset(range(3)), b=B_COMP
        )


def test_unit_scale_freeness():
    # same instance at 1 and 7 Gbit: shares identical, cost proportional
    tree = rand_tree(random.Random(5), 6)
    sched = canonical_schedule(tree)
    s1 = solve_fixed_order(tree, sched, Y, W, b=B_COMP)
    s7 = solve_fixed_order(tree, sched, 7 * Y, W, b=B_COMP)
    assert s7.cost == pytest.approx(7 * s1.cost, rel=1e-9)
    for a, b in zip(s1.allocation.y, s7.allocation.y):
        assert b == pytest.approx(7 * a, rel=1e-6, abs=1e-3)


def test_zero_task_costs_nothing():
    tree = rand_tree(random.Random(6), 5)
    sol = solve_fixed_order(tree, canonical_schedule(tree), 0.0, W, b=B_COMP)
    assert sol.cost == 0.0
    assert all(v == 0.0 for v in sol.allocation.y)


@pytest.mark.parametrize(
    "name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"]
)
def test_zero_task_splits_like_any_task(name):
    top = named_topology(name)
    tree, w, b = top.tree, top.weights, top.b_comp
    for sol in (
        cmo(tree, 0.0, w, b=b),
        pmo(tree, 0.0, w, b=b),
        ga(tree, 0.0, w, GaParams(population=4, generations=3), b=b),
    ):
        assert sol.cost == 0.0
        assert sol.allocation.y == (0.0,) * len(tree)
    assert cmo(tree, 0.0, w, b=b).schedule == next(enumerate_schedules(tree))
    # forcing every node to zero fails the same way at any task size
    every = frozenset(range(len(tree)))
    sched = canonical_schedule(tree)
    for task in (0.0, top.task_size):
        for solve in (
            lambda: solve_fixed_order(tree, sched, task, w, every, b=b),
            lambda: cmo(tree, task, w, every, b=b),
            lambda: pmo(tree, task, w, every, b=b),
        ):
            with pytest.raises(InfeasibleError, match="forced to zero"):
                solve()


def test_enumeration_matches_reference():
    for seed in range(8):
        tree = rand_tree(random.Random(seed + 50), random.Random(seed).randint(3, 7))
        # the order decides cmo's ties
        mine = [s.orders for s in enumerate_schedules(tree)]
        ref = list(oracles.all_schedules(tree.parent))
        assert mine == ref
        assert count_schedules(tree) == len(ref) == oracles.count_all_schedules(tree.parent)


def test_first_schedule_of_a_large_subtree_lists_no_orders():
    # one 9-node subtree has 362,880 orders; the first must come before
    # any list of them is built
    tree = make_tree([-1, 0, 1, 1, 2, 2, 3, 3, 4, 4], [0.0] + [10.0] * 9, [2.0] * 10)
    tracemalloc.start()
    try:
        first = next(enumerate_schedules(tree))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.orders == (tuple(range(1, 10)),)
    assert peak < 2**20


def test_fixed_order_rejects_a_bad_schedule_before_splitting(monkeypatch):
    def split(*args, **kwargs):
        raise AssertionError("split solved on an invalid schedule")

    monkeypatch.setattr(solvers, "_minmax_unit", split)
    tree = rand_tree(random.Random(8), 6)
    first, *rest = canonical_schedule(tree).orders
    unknown = Schedule(orders=(first + (len(tree),), *rest))
    missing = Schedule(orders=(first[:-1], *rest))
    for bad in (unknown, missing):
        with pytest.raises(ScheduleError):
            solve_fixed_order(tree, bad, Y, W, b=B_COMP)


def test_cmo_is_min_over_schedules():
    rng = random.Random(77)
    tree = rand_tree(rng, 5)
    sol = cmo(tree, Y, W, b=B_COMP)
    costs = [
        solve_fixed_order(tree, s, Y, W, b=B_COMP).cost
        for s in enumerate_schedules(tree)
    ]
    assert sol.cost == pytest.approx(min(costs), rel=1e-12)
    assert sol.schedules_evaluated == count_schedules(tree)
    assert sol.solver_tag == "cmo"


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cmo_never_beats_feasible_points_by_luck(seed):
    # any feasible (schedule, allocation) pair must cost at least z*
    rng = random.Random(seed)
    tree = rand_tree(rng, rng.randint(2, 5))
    sol = cmo(tree, Y, W, b=B_COMP)
    p = plain_of(tree)
    for sched in oracles.all_schedules(tree.parent):
        for y in oracles.lattice_points(len(tree), Y, 4):
            v = oracles.system_cost(p, sched, y, W.w1, W.w2, B_COMP)
            assert sol.cost <= v * (1 + 1e-9)


def test_pmo_matches_cmo_on_random_trees():
    hits = 0
    for seed in range(12):
        rng = random.Random(seed + 300)
        tree = rand_tree(rng, rng.randint(4, 7))
        if len(tree.subtree_roots) < 2:
            continue
        hits += 1
        a = cmo(tree, Y, W, b=B_COMP)
        b = pmo(tree, Y, W, b=B_COMP)
        assert abs(b.cost - a.cost) <= 1e-12 * a.cost
        assert b.solver_tag == "pmo"
    assert hits >= 5
    # energy-heavy weights over slow first hops: in more than half of these
    # probes the master's relay row beats every worker row, so the probe's
    # per-bit cost (its largest worker row) leaves the relay to the master
    # row of the split
    for seed in range(12):
        rng = random.Random(seed + 900)
        tree = rand_tree(rng, rng.randint(4, 7), first_hop_gbps=(0.5, 2.0))
        for w in (Weights(0.0, 1.0), Weights(0.01, 1.0)):
            a = cmo(tree, Y, w, b=B_COMP)
            b = pmo(tree, Y, w, b=B_COMP)
            assert abs(b.cost - a.cost) <= 1e-12 * a.cost


def test_pmo_survives_single_subtree():
    tree = make_tree([-1, 0, 1, 2], [0, 10, 5, 2], [2, 4, 3, 1])
    a = cmo(tree, Y, W, b=B_COMP)
    b = pmo(tree, Y, W, b=B_COMP)
    assert b.cost == pytest.approx(a.cost, rel=1e-12)


def _count_simplex(monkeypatch) -> list:
    calls = []
    simplex = solvers._simplex_support
    monkeypatch.setattr(
        solvers, "_simplex_support", lambda *a: calls.append(1) or simplex(*a)
    )
    return calls


@pytest.mark.parametrize("name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"])
def test_exact_solvers_skip_highs(name, monkeypatch):
    # the first schedule's split, each probe's and the master split are
    # certified by the every-node-works guess, later schedules' by the
    # previous certified support: the simplex never runs
    topo = named_topology(name)
    simplex = _count_simplex(monkeypatch)
    sol = cmo(topo.tree, topo.task_size, topo.weights, b=topo.b_comp)
    assert sol.schedules_evaluated == count_schedules(topo.tree) > 1
    pmo(topo.tree, topo.task_size, topo.weights, b=topo.b_comp)
    assert simplex == []


@pytest.mark.parametrize("name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"])
def test_pmo_audits_only_its_answer(name, monkeypatch):
    # subtrees are probed on slices of the tree's matrices, not audited
    topo = named_topology(name)
    audits = []
    audit = solvers.system_cost
    monkeypatch.setattr(
        solvers, "system_cost", lambda *args: audits.append(1) or audit(*args)
    )
    pmo(topo.tree, topo.task_size, topo.weights, b=topo.b_comp)
    assert len(audits) == 1


@pytest.mark.parametrize("name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"])
def test_heuristic_splits_skip_highs(name, monkeypatch):
    # ga's first split is certified by the every-node-works guess, and ga
    # carries the last certified support from one chromosome to the next;
    # master-plus-one splits are certified by a saddle point or the guess
    topo = named_topology(name)
    tree, y, w, b = topo.tree, topo.task_size, topo.weights, topo.b_comp
    simplex = _count_simplex(monkeypatch)
    for seed in range(3):
        sol = ga(tree, y, w, GaParams(rng_seed=seed), b=b)
        assert sol.schedules_evaluated > 1
        assert simplex == []
        # the same bits as a cold solve of the winning schedule
        cold = solve_fixed_order(tree, sol.schedule, y, w, b=b)
        assert sol.allocation == cold.allocation
    for i in range(1, len(tree)):
        partial_offload_cost(tree, i, y, w, b=b)
    node_prune(tree, NpParams(0.1), y, w, b=b)
    baseline_partial(tree, y, w, b=b)
    assert simplex == []


def _highs_minmax(a: np.ndarray, forced: frozenset[int]) -> float:
    """max(a u) at HiGHS's clipped, renormalised optimum, on the scaled LP."""
    cols = [k for k in range(a.shape[1]) if k not in forced]
    sub = a[:, cols]
    msc = sub / sub.max(axis=0).min()
    m = len(cols)
    res = linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=np.hstack([msc, -np.ones((len(a), 1))]),
        b_ub=np.zeros(len(a)),
        A_eq=np.r_[np.ones(m), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0, res.message
    u = np.maximum(res.x[:m], 0.0)
    return float((sub @ (u / u.sum())).max())


def _wide_tree(rng: random.Random, n: int, draw_cap):
    """Random shape, link rates 1..100 Gbps, one draw_cap() per node's γ."""
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    rates = [0.0] + [10 ** rng.uniform(0.0, 2.0) for _ in range(n - 1)]
    freqs = [rng.uniform(0.5, 8.0) for _ in range(n)]
    caps = [draw_cap() for _ in range(n)]
    tx = [rng.uniform(0.5, 4.0) for _ in range(n)]
    return make_tree(parent, rates, freqs, caps, tx)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-28.0, max_value=-12.0),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
def test_split_is_certified_on_ill_conditioned_instances(seed, log_gamma, w):
    # switched capacitance spans 1e-28..1e-2 (up to ten decades inside one
    # network, as between the named topologies' two hardware classes) and
    # link rates 1..100 Gbps
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    tree = _wide_tree(rng, n, lambda: 10 ** (log_gamma + rng.uniform(0.0, 10.0)))
    weights = Weights(*w)
    forced = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))

    a = cost_coefficients(tree, canonical_schedule(tree), weights, B_COMP)
    u, _ = solvers._minmax_unit(a, forced)
    assert u.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(u[k] == 0.0 for k in forced)
    assert (a @ u).max() <= _highs_minmax(a, forced) * (1 + 1e-12)

    za = cmo(tree, Y, weights, b=B_COMP).cost
    zb = pmo(tree, Y, weights, b=B_COMP).cost
    assert abs(za - zb) <= 1e-12 * za


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
# HiGHS fails on pmo's master split here with "Model error"; its optimum
# is a pure saddle point (test_saddle_point_certifies_a_master_split)
@example(564, (0.1, 0.9))
def test_exact_solvers_agree_across_26_decades(seed, w):
    # per-node switched capacitance anywhere in 1e-28..1e-2, so pmo's
    # master split spans up to 26 decades too
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    tree = _wide_tree(rng, n, lambda: 10 ** rng.uniform(-28.0, -2.0))
    weights = Weights(*w)
    za = cmo(tree, Y, weights, b=B_COMP).cost
    zb = pmo(tree, Y, weights, b=B_COMP).cost
    assert abs(za - zb) <= 1e-12 * za


def test_saddle_point_certifies_a_master_split(monkeypatch):
    # @example(564, (0.1, 0.9)) above: pmo's master split is a pure saddle
    # point, which the pure-strategy test finds before the every-node-works
    # guess, so the simplex does not run
    rng = random.Random(564)
    n = rng.randint(2, 7)
    tree = _wide_tree(rng, n, lambda: 10 ** rng.uniform(-28.0, -2.0))
    weights = Weights(0.1, 0.9)
    simplex = _count_simplex(monkeypatch)
    tries = []
    equalise = solvers._equalise
    monkeypatch.setattr(
        solvers,
        "_equalise",
        lambda m, s, r: tries.append((s.tolist(), r.tolist())) or equalise(m, s, r),
    )
    pure = []
    saddle = solvers._saddle

    def recording_saddle(msc):
        c, r, ok = saddle(msc)
        if ok[0]:
            pure.append((c.tolist(), r.tolist()))
        return c, r, ok

    monkeypatch.setattr(solvers, "_saddle", recording_saddle)
    got = pmo(tree, Y, weights, b=B_COMP)
    assert simplex == []
    # a two-node subtree's two orders take the guess, then carry it; a
    # one-node subtree's split and last the master split are saddle
    # points, which need no _equalise
    assert tries == [([0, 1], [0, 1]), ([0, 1], [0, 1])]
    assert pure == [([0], [0]), ([1], [0])]
    # without the saddle step the guess is refuted on the master split,
    # and the simplex's support gives the same allocation
    monkeypatch.setattr(
        solvers,
        "_saddle",
        lambda msc: (np.zeros(1, int), np.zeros(1, int), np.zeros(1, bool)),
    )
    want = pmo(tree, Y, weights, b=B_COMP)
    assert tries[-2:] == [([0, 1, 2], [0, 1, 2]), ([1], [0])]
    assert len(simplex) == 1
    assert got.allocation == want.allocation


def test_pure_saddle_point_has_exact_zeros():
    # all weight on column 2 is optimal: its largest entry, row 1's
    # 2.5e-19, is also row 1's smallest.  The every-node-works guess
    # passes the certificate too, with slivers of about 1e-17 on columns 0
    # and 1; the saddle step comes first and gives exact zeros
    m = np.array(
        [[0.02, 7e-19, 3e-21], [5e-18, 1e-16, 2.5e-19], [7e-12, 0.03, 1e-21]]
    )
    _, _, msc = solvers._scaled(m[None], frozenset())
    every = np.arange(3)
    guess = solvers._equalise(msc, every, every)
    assert guess is not None and (guess[0] > 0.0).all()
    u, support = solvers._minmax_unit(m, frozenset())
    assert u.tolist() == [0.0, 0.0, 1.0]
    assert [list(x) for x in support] == [[2], [1]]


def test_refuted_guess_falls_back_to_the_simplex(monkeypatch):
    # column 2 costs more than column 0 on every row, so not every node
    # works: the guess on all three columns is refuted, and the simplex's
    # support reaches HiGHS's optimum
    m = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    every = np.arange(3)
    assert solvers._equalise(m[None], every, every) is None
    simplex = _count_simplex(monkeypatch)
    u, support = solvers._minmax_unit(m, frozenset())
    assert len(simplex) == 1
    assert [list(x) for x in support] == [[0, 1], [0, 1]]
    assert (m @ u).max() == pytest.approx(_highs_minmax(m, frozenset()), rel=1e-12)


def test_certificate_refutes_a_wrong_support():
    # row 2 overshoots the equal-finish point of rows 0 and 1
    m = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 0.0]])
    assert solvers._equalise(m[None], np.array([0, 1]), np.array([0, 1])) is None
    right = solvers._equalise(m[None], np.array([0, 1]), np.array([1, 2]))
    assert right[0] == pytest.approx([0.2, 0.8], abs=1e-15)
    # a refuted warm guess falls back to a cold start and still reaches
    # the optimum
    u, support = solvers._minmax_unit(
        m, frozenset(), (np.array([0, 1]), np.array([0, 1]))
    )
    assert u == pytest.approx([0.2, 0.8], abs=1e-15)
    assert [list(x) for x in support] == [[0, 1], [1, 2]]
    # against the duals of support {0}, column 1 is cheaper
    m = np.array([[1.0, 0.5], [1.0, 0.5]])
    assert solvers._equalise(m[None], np.array([0]), np.array([0])) is None


@pytest.mark.parametrize(
    "m",
    [
        # parallel rows: two rising lines of slope 1, one falling
        [[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]],
        # parallel rows only: both fall, the optimum is the end t = 1
        [[1.0, 2.0], [2.0, 3.0]],
        # three rows cross at t = 0.5, height 1
        [[2.0, 0.0], [0.0, 2.0], [1.5, 0.5]],
        # a rising and a falling row tie at t = 0, the optimum
        [[3.0, 2.0], [1.0, 2.0], [0.5, 1.0]],
        # two rising rows tie at t = 0
        [[3.0, 2.0], [4.0, 2.0]],
        # a falling and a rising row tie at t = 1, the optimum
        [[2.0, 3.0], [2.0, 1.0]],
        # flat top row: every t in [0.25, 0.75] is optimal
        [[2.0, 0.0], [0.0, 2.0], [1.5, 1.5]],
        # one row only
        [[3.0, 1.0]],
        [[1.0, 3.0]],
        [[2.0, 2.0]],
    ],
)
def test_two_column_closed_form_on_degenerate_envelopes(m):
    # two-column splits whose rows' upper envelope has ties, parallel
    # lines or a flat top, through the cascade
    m = np.array(m)
    u, support = solvers._minmax_unit(m, frozenset())
    assert support is not None
    assert u.min() >= 0.0 and u.sum() == pytest.approx(1.0, abs=1e-15)
    assert (m @ u).max() == pytest.approx(_highs_minmax(m, frozenset()), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
def test_two_column_split_spans_26_decades(seed, w):
    # per-node switched capacitance anywhere in 1e-28..1e-2: HiGHS failed
    # with "Model error" on such master-plus-one splits
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    tree = _wide_tree(rng, n, lambda: 10 ** rng.uniform(-28.0, -2.0))
    weights = Weights(*w)
    sched = canonical_schedule(tree)

    a = cost_coefficients(tree, sched, weights, B_COMP)
    t = np.linspace(0.0, 1.0, 1001)
    for i in range(1, n):
        sol = solve_fixed_order(
            tree, sched, Y, weights, frozenset(range(n)) - {0, i}, b=B_COMP
        )
        assert partial_offload_cost(tree, i, Y, weights, b=B_COMP) == sol.cost
        # every row's cost is a line in the master's share t
        envelope = (np.outer(a[:, 0], t) + np.outer(a[:, i], 1.0 - t)).max(axis=0)
        assert sol.cost <= Y * envelope.min() * (1 + 1e-12)
    node_prune(tree, NpParams(0.1), Y, weights, b=B_COMP)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
def test_wider_splits_span_26_decades_without_highs(seed, w):
    # per-node switched capacitance anywhere in 1e-28..1e-2 on splits of
    # three to seven free columns: HiGHS failed with "Model error" on many
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    tree = _wide_tree(rng, n, lambda: 10 ** rng.uniform(-28.0, -2.0))
    weights = Weights(*w)
    forced = frozenset(rng.sample(range(n), n - rng.randint(3, min(7, n))))
    canonical = canonical_schedule(tree)
    shuffled = Schedule(
        orders=tuple(tuple(rng.sample(o, len(o))) for o in canonical.orders)
    )
    for sched in (canonical, shuffled):
        sol = solve_fixed_order(tree, sched, Y, weights, forced, b=B_COMP)
        # never worse than putting the whole task on one node
        a = cost_coefficients(tree, sched, weights, B_COMP)
        for i in set(range(n)) - forced:
            assert sol.cost <= Y * a[:, i].max() * (1 + 1e-12)


# entries span four decades, as HiGHS, the reference, is unreliable on
# wider spreads (the 26-decade tests cover those); exact repeats make ties
# and degenerate pivots
_ENTRIES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 10.0).map(
    lambda v: round(v, 3)
)


@st.composite
def _game_matrices(draw):
    """Nonnegative matrices up to 40x40 with exact ties, no all-zero column."""
    nr, nc = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    m = np.array(draw(st.lists(_ENTRIES, min_size=nr * nc, max_size=nr * nc)))
    m = m.reshape(nr, nc)
    if draw(st.booleans()):
        m[:] = m[0]  # all rows equal
    m[0, m.sum(axis=0) == 0.0] = 1.0
    return m


def _check_simplex_support(m: np.ndarray) -> None:
    msc = m / m.max(axis=0).min()
    support = solvers._simplex_support(msc)
    assert support is not None
    s, r = support
    assert len(s) == len(r) > 0
    u = solvers._equalise(msc[None], s, r)
    assert u is not None
    u = u[0]
    # HiGHS works to 1e-10 and can miss the certified value by ~1e-12
    highs = _highs_minmax(m, frozenset())
    assert highs * (1 - 1e-10) <= (m @ u).max() <= highs * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(_game_matrices())
def test_simplex_support_certifies(m):
    _check_simplex_support(m)


@pytest.mark.parametrize(
    "m", [[[3.0, 1.0, 2.0, 1.0]], [[1.0], [3.0], [2.0], [3.0]]]
)
def test_simplex_support_on_one_row_or_column(m):
    _check_simplex_support(np.array(m))


def _stress_set():
    """The split stress set: (kind, index, matrix) for 1,500 matrices of
    each of five kinds, drawn in this order from one seeded generator."""
    rng = np.random.default_rng(7)

    def sparse(nr, nc):
        m = rng.random((nr, nc)) * (rng.random((nr, nc)) < 0.3)
        for j in np.flatnonzero(m.sum(axis=0) == 0.0):
            m[0, j] = rng.random()
        return m

    def diagonal(nr, nc):
        m = 1e-12 * rng.random((nr, nc))
        k = min(nr, nc)
        m[np.arange(k), np.arange(k)] = 1.0 + rng.random(k)
        return m

    kinds = {
        # 28-30 decades inside one matrix
        "log-uniform": lambda nr, nc: 10 ** rng.uniform(-28, 2, (nr, nc)),
        "integers": lambda nr, nc: rng.integers(1, 4, (nr, nc)).astype(float),
        "rank-2": lambda nr, nc: rng.random((nr, 2)) @ rng.random((2, nc)),
        "sparse": sparse,
        "diagonal": diagonal,
    }
    for kind, draw in kinds.items():
        for i in range(1500):
            nr, nc = rng.integers(1, 30), rng.integers(2, 30)
            yield kind, i, draw(nr, nc)


def _no_highs(*args, **kwargs):
    raise AssertionError("a split fell back to HiGHS")


def _dual_gap(m: np.ndarray, u: np.ndarray, support) -> float:
    """max(m u) less the dual bound of the row weights on support's rows
    R that make every column of S cost the same, relative to max(m u)."""
    m = m / m.max(axis=0).min()  # as `_scaled` does
    s, r = support
    k = len(s)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = m[np.ix_(r, s)].T
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    p = np.linalg.solve(kkt, np.r_[np.zeros(k), 1.0])[:k]
    assert p.min() >= -1e-12
    zp = (m @ u).max()
    return (zp - (np.maximum(p, 0.0) @ m[r]).min() / np.maximum(p, 0.0).sum()) / zp


# the splits of the stress set whose simplex basis the certificate refutes:
# before reinversion, HiGHS certified the two integer ones and failed on
# the log-uniform ones
_REFUTED = [
    ("log-uniform", 1116),
    ("log-uniform", 1423),
    ("log-uniform", 1492),
    ("integers", 184),
    ("integers", 1238),
]


def _count_reinversions(monkeypatch) -> list:
    """Make any `solvers.linprog` call fail, and list per simplex run
    whether it started from an earlier basis."""
    reinverted = []
    simplex = solvers._simplex_support
    monkeypatch.setattr(
        solvers,
        "_simplex_support",
        lambda msc, start=None: reinverted.append(start is not None)
        or simplex(msc, start),
    )
    monkeypatch.setattr(solvers, "linprog", _no_highs)
    return reinverted


def test_reinversion_certifies_refuted_simplex_bases(monkeypatch):
    picked = {(k, i): m for k, i, m in _stress_set() if (k, i) in _REFUTED}
    reinverted = _count_reinversions(monkeypatch)
    for key in _REFUTED:
        m = picked[key]
        reinverted.clear()
        u, support = solvers._minmax_unit(m, frozenset())
        # one cold run, refuted, and one reinversion
        assert reinverted == [False, True], key
        assert u.min() >= 0.0 and u.sum() == pytest.approx(1.0, abs=1e-12)
        assert _dual_gap(m, u, support) <= 1e-12
        if key[0] == "integers":
            highs = _highs_minmax(m, frozenset())
            assert highs * (1 - 1e-10) <= (m @ u).max() <= highs * (1 + 1e-12)


def test_stress_set_needs_no_highs(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _no_highs)
    for kind, i, m in _stress_set():
        u, support = solvers._minmax_unit(m, frozenset())
        assert u.sum() == pytest.approx(1.0, abs=1e-12), (kind, i)


def _tie_draws(seed: int):
    """The integer-tie campaign on np.random.default_rng(seed), endless:
    each draw takes nr, nc = integers(1, 31) twice; odd draws (counting
    from 0) hold integers 1-3, even draws picks from {0, 0.5, 1, 2, 3}."""
    rng = np.random.default_rng(seed)
    for d in itertools.count():
        nr, nc = rng.integers(1, 31), rng.integers(1, 31)
        if d % 2:
            yield rng.integers(1, 4, (nr, nc)).astype(float)
        else:
            yield rng.choice([0, 0.5, 1, 2, 3], (nr, nc))


@pytest.mark.parametrize(
    "seed, draw, shape, rounds",
    [
        # the cold simplex pivots on a 4.8e-13 rounding-noise entry at
        # pivot 50 and gives up on a numerically unbounded column at pivot
        # 81; HiGHS certified it before that basis was reinverted
        (11, 15595, (22, 26), [False, True]),
        # the first reinverted basis is refuted too
        (11, 3149, (29, 11), [False, True, True]),
        # the first reinversion gives up, and HiGHS certified it before
        # that basis was reinverted again
        (13, 1153, (29, 29), [False, True, True]),
    ],
)
def test_reinversion_certifies_integer_tie_draws(
    seed, draw, shape, rounds, monkeypatch
):
    m = next(itertools.islice(_tie_draws(seed), draw, None))
    assert m.shape == shape
    reinverted = _count_reinversions(monkeypatch)
    u, support = solvers._minmax_unit(m, frozenset())
    assert reinverted == rounds
    assert _dual_gap(m, u, support) <= 1e-12
    highs = _highs_minmax(m, frozenset())
    assert highs * (1 - 1e-10) <= (m @ u).max() <= highs * (1 + 1e-12)


@st.composite
def _integer_ties(draw):
    """Matrices up to 30x30 of integers 1-3: ties make the simplex degenerate."""
    nr, nc = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cells = st.lists(st.integers(1, 3), min_size=nr * nc, max_size=nr * nc)
    return np.array(draw(cells), dtype=float).reshape(nr, nc)


@settings(max_examples=60, deadline=None)
@given(_integer_ties())
def test_cold_split_on_integer_ties_reaches_highs_value(m):
    u, _ = solvers._minmax_unit(m, frozenset())
    highs = _highs_minmax(m, frozenset())
    assert highs * (1 - 1e-10) <= (m @ u).max() <= highs * (1 + 1e-12)


def _fresh_python(code: str) -> list[str]:
    """The output lines of `code` run in a fresh interpreter on src/."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, 'src'); {code}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "code",
    [
        "import treeload",
        "from treeload.cli import main; main(['solve', '--topology', 'mixed'])",
    ],
    ids=["import", "solve"],
)
def test_scipy_is_not_imported_until_a_split_reaches_highs(code):
    # no split reaches HiGHS any more: the package never imports scipy
    out = _fresh_python(f"{code}; print('scipy.optimize' in sys.modules)")
    assert out[-1] == "False"


def test_split_without_a_simplex_support_raises_without_scipy():
    # without the simplex, nothing is left to try once the guess is
    # refuted: the split raises, and scipy is never imported
    out = _fresh_python(
        "import numpy as np\n"
        "import treeload.solvers as solvers\n"
        "from treeload import InfeasibleError\n"
        "solvers._simplex_support = lambda *a: None\n"
        "m = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])\n"
        "try:\n"
        "    solvers._minmax_unit(m, frozenset())\n"
        "except InfeasibleError as exc:\n"
        "    print(exc)\n"
        "print('scipy.optimize' in sys.modules)"
    )
    assert out == ["min-max split could not be certified", "False"]


def _split_and_simplex_split(a: np.ndarray, forced: frozenset[int]):
    """`_minmax_unit`'s u on its free columns, and `_equalise` on
    `_simplex_support`'s (S, R) (None where that does not certify)."""
    cols, free, stack = solvers._scaled(a[None], forced)
    u, _ = solvers._minmax_unit(a, forced)
    support = None if free.any() else solvers._simplex_support(stack[0])
    ref = None if support is None else solvers._equalise(stack, *support)
    return u[cols], None if ref is None else ref[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
def test_cold_split_has_the_simplex_bits(seed, w):
    # a cold split (the every-node-works guess, or the simplex after it)
    # has the bits of the simplex's support wherever that certifies: on
    # cmo's square forms and on pmo's probes, the master pinned, with
    # random nodes pinned to zero (a pinned node still relays)
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    tree = rand_tree(rng, n, draw_cap=lambda: 10 ** rng.uniform(-28.0, -2.0))
    weights = Weights(*w)
    forced = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
    sched = Schedule(
        orders=tuple(
            tuple(rng.sample(o, len(o))) for o in canonical_schedule(tree).orders
        )
    )
    a = cost_coefficients(tree, sched, weights, B_COMP)
    forms = [(a, forced)]
    for nodes in tree.subtrees.values():
        cols = (0, *nodes)
        pinned = {0} | {k for k, i in enumerate(nodes, 1) if i in forced}
        if len(pinned) < len(cols):
            forms.append((a[np.ix_(nodes, cols)], frozenset(pinned)))
    for form, pinned in forms:
        u, ref = _split_and_simplex_split(form, pinned)
        if ref is not None:
            assert u.tobytes() == ref.tobytes()


def test_cold_split_has_the_simplex_value_on_integer_ties():
    # entries 1-3, up to 29x29: ties make these degenerate, so a few cold
    # splits take another optimal split than the simplex's
    rng = np.random.default_rng(7)
    for _ in range(1500):
        nr, nc = rng.integers(1, 30), rng.integers(2, 30)
        m = rng.integers(1, 4, (nr, nc)).astype(float)
        u, ref = _split_and_simplex_split(m, frozenset())
        if ref is not None:
            z = (m @ ref).max()
            assert abs((m @ u).max() - z) <= 1e-12 * z


def test_stacked_equalise_matches_one_at_a_time():
    # every matrix of a stack gets the bits it gets as a stack of one,
    # whether it passes, fails its certificate or is singular
    rng = np.random.default_rng(5)
    for trial in range(40):
        nr, nc = rng.integers(2, 9, size=2)
        k = int(rng.integers(1, min(nr, nc) + 1))
        stack = rng.uniform(0.0, 1.0, (12, nr, nc)) ** 3
        s = np.sort(rng.choice(nc, k, replace=False))
        r = np.sort(rng.choice(nr, k, replace=False))
        # near one another, so some certify and some do not
        stack[1:] = stack[0] * rng.uniform(0.9, 1.1, (11, nr, nc))
        if trial % 4 == 0:
            stack[3][np.ix_(r, s)] = 0.0  # singular when k > 1
        got = solvers._equalise(stack, s, r)
        alone = [solvers._equalise(stack[i : i + 1], s, r) for i in range(12)]
        if got is None:
            assert all(u is None for u in alone)
            continue
        for row, u in zip(got, alone):
            if u is None:
                assert np.isnan(row).all()
            else:
                assert row.tobytes() == u[0].tobytes()


def _sequential_best_order(static, shared, groups, w1, task_size, forced_zero):
    """The one-split-per-order loop `_best_order` replaced, kept as its
    bitwise reference: each order's split starts from the support the
    previous order certified.  Also counts the orders that support did
    not certify, which go through the cascade."""
    nr, n = static.shape
    best, support, tried, cold = None, None, 0, 0
    for orders in itertools.product(*(itertools.permutations(g) for g in groups)):
        rank = np.zeros(n, dtype=int)
        for order in orders:
            rank[list(order)] = range(len(order))
        a = static + w1 * (shared * (rank[n - nr :, None] > rank[None, :]))
        u, certified = solvers._minmax_unit(a, forced_zero, support)
        # a support that certifies comes back as the same object
        cold += support is None or certified is not support
        support = certified
        y = u * task_size
        z = float(np.max(a @ y, initial=0.0))
        tried += 1
        if best is None or z < best[0]:
            best = (z, orders, y)
    return (*best, tried, cold)


def _cmo_form(rng, tree, weights, task_size=Y):
    """`cmo`'s arguments to `_best_order` on `tree`, some nodes forced."""
    n = len(tree)
    forced = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
    groups = [tree.subtrees[t] for t in tree.subtree_roots]
    static = _static_matrix(tree, weights, B_COMP)
    return static, tree.shared_inv_rate, groups, weights.w1, task_size, forced


def _probe_form(rng, k, weights, task_size=Y, cap=lambda: 2e-28):
    """A `pmo` probe's arguments on one k-node subtree, some nodes forced;
    each node's switched capacitance is a cap() draw."""
    parent = [-1, 0] + [rng.randrange(1, i) for i in range(2, k + 1)]
    tree = make_tree(
        parent,
        [0.0] + [rng.uniform(0.5, 20.0) for _ in range(k)],
        [rng.uniform(0.5, 8.0) for _ in range(k + 1)],
        [cap() for _ in range(k + 1)],
    )
    cols = (0, *tree.subtrees[1])
    forced = {0} | set(rng.sample(range(1, k + 1), rng.randint(0, k - 1)))
    ix = np.ix_(cols[1:], cols)
    static = _static_matrix(tree, weights, B_COMP)[ix]
    shared = tree.shared_inv_rate[ix]
    return static, shared, [range(1, k + 1)], weights.w1, task_size, frozenset(forced)


def _free_column_form(rng, k):
    """A probe-shaped form whose column 2 no row pays for exactly when
    column 2 is sent last, so some orders have a free column."""
    static = _uniform_matrix(rng, k, k + 1)
    static[:, 2] = 0.0
    shared = _uniform_matrix(rng, k, k + 1)
    return static, shared, [range(1, k + 1)], 0.5, Y, frozenset({0})


def _uniform_matrix(rng, nr, nc):
    return np.array([[rng.uniform(0.1, 2.0) for _ in range(nc)] for _ in range(nr)])


_WEIGHT_PAIRS = [W, Weights(1.0, 0.0), Weights(0.1, 0.9), Weights(0.0, 1.0)]


@pytest.mark.parametrize(
    "case",
    ["cmo", "26-decades", "probe", "zero-task", "free-column", "ties", "blocks"],
)
def test_best_order_matches_the_sequential_loop(case, monkeypatch):
    forms = []
    for seed in range(12):
        rng = random.Random(seed + 9000)
        w = _WEIGHT_PAIRS[seed % 4]
        if case == "cmo":
            forms.append(_cmo_form(rng, rand_tree(rng, rng.randint(2, 7)), w))
        elif case == "26-decades":
            # per-node switched capacitance anywhere in 1e-28..1e-2
            cap = lambda: 10 ** rng.uniform(-28.0, -2.0)  # noqa: E731
            forms.append(_cmo_form(rng, _wide_tree(rng, rng.randint(3, 7), cap), w))
            forms.append(_probe_form(rng, 5, w, cap=cap))
        elif case == "probe":
            forms.append(_probe_form(rng, rng.randint(1, 5), w))
        elif case == "zero-task":
            forms.append(
                _cmo_form(rng, rand_tree(rng, rng.randint(2, 6)), w, task_size=0.0)
            )
            forms.append(_probe_form(rng, rng.randint(1, 4), w, task_size=0.0))
        elif case == "free-column":
            forms.append(_free_column_form(rng, rng.randint(3, 5)))
        elif case == "ties":
            # no waiting: every order has the same form, the first wins
            static, shared, *rest = _probe_form(rng, rng.randint(2, 5), w)
            forms.append((static, np.zeros_like(shared), *rest))
        else:
            # blocks of 7 and sweeps from 2 orders: the carried support
            # crosses block boundaries and windows of every width
            monkeypatch.setattr(solvers, "_BLOCK", 7)
            monkeypatch.setattr(solvers, "_SWEEP", 2)
            forms.append(_probe_form(rng, 5, w))
            forms.append(_cmo_form(rng, rand_tree(rng, 7), w))
    cascade = solvers._cascade
    for static, shared, groups, *rest in forms:
        ref = _sequential_best_order(static, shared, groups, *rest)
        cold = []
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_cascade", lambda *a: cold.append(1) or cascade(*a))
            got = solvers._best_order(static, shared, groups, *rest)
        assert got[0] == ref[0]
        assert got[1] == ref[1]
        assert got[2].tobytes() == ref[2].tobytes()
        assert got[3] == ref[3]
        # the cascade runs on exactly the orders the loop's carried
        # support failed on; the stacked sweeps split the rest
        assert len(cold) == ref[4]
        if case == "ties":
            assert got[1] == tuple(tuple(g) for g in groups)


def test_failed_polish_raises_infeasible(monkeypatch):
    # every support, each reinverted simplex basis included, fails the
    # certificate: no answer
    tree = rand_tree(random.Random(12), 5)
    sched = canonical_schedule(tree)
    monkeypatch.setattr(solvers, "_equalise", lambda m, s, r: None)
    for solve in (
        lambda: solve_fixed_order(tree, sched, Y, W, b=B_COMP),
        lambda: cmo(tree, Y, W, b=B_COMP),
        lambda: pmo(tree, Y, W, b=B_COMP),
    ):
        with pytest.raises(InfeasibleError, match="could not be certified"):
            solve()


def test_huge_enumeration_warns_before_solving(monkeypatch):
    # one 11-node subtree: 11! orders
    net = generate_network(GenParams(node_count=12, edge_prob=0.3, rng_seed=7))
    tree = build_sink_tree(net)
    assert count_schedules(tree) == 39_916_800

    def no_solve(*args, **kwargs):
        raise AssertionError("a schedule was solved before the warning")

    monkeypatch.setattr(solvers, "_minmax_unit", no_solve)
    for solve in (cmo, pmo):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="39916800"):
                solve(tree, Y, W, b=B_COMP)


def test_solver_rejects_bad_task_size():
    tree = rand_tree(random.Random(1), 3)
    with pytest.raises(ParameterError):
        solve_fixed_order(tree, canonical_schedule(tree), -1.0, W, b=B_COMP)


def test_scale_solution_is_proportional():
    tree = rand_tree(random.Random(9), 6)
    base = pmo(tree, Y, W, b=B_COMP)
    for k in (0.5, 2.0, 10.0):
        scaled = scale_solution(base, k * Y)
        fresh = pmo(tree, k * Y, W, b=B_COMP)
        assert scaled.cost == pytest.approx(fresh.cost, rel=1e-7)
        for a, b in zip(scaled.allocation.y, fresh.allocation.y):
            assert a == pytest.approx(b, rel=1e-4, abs=1e-6 * k * Y)
        assert scaled.solver_tag.endswith("+scaled")


def test_scale_solution_rejects_bad_sizes():
    tree = rand_tree(random.Random(9), 4)
    base = pmo(tree, Y, W, b=B_COMP)
    with pytest.raises(ParameterError):
        scale_solution(base, -2.0)
    zero = scale_solution(base, 0.0)
    assert zero.cost == 0.0
    with pytest.raises(ParameterError):
        scale_solution(zero, Y)


def test_baseline_cache_roundtrip(tmp_path):
    tree = rand_tree(random.Random(10), 6)
    base = pmo(tree, Y, W, b=B_COMP)
    path = tmp_path / "cache.json"
    save_baseline(path, base)
    back = load_baseline(path, tree, W, b=B_COMP)
    assert back is not None
    assert back.cost == pytest.approx(base.cost, rel=1e-12)
    assert back.schedule == base.schedule

    # stale on different weights, b, or tree
    assert load_baseline(path, tree, Weights(1.0, 0.0), b=B_COMP) is None
    assert load_baseline(path, tree, W, b=2.0) is None
    other = rand_tree(random.Random(11), 6)
    assert load_baseline(path, other, W, b=B_COMP) is None
    assert load_baseline(tmp_path / "missing.json", tree, W, b=B_COMP) is None
