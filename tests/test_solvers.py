import functools
import importlib.util
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    B_COMP,
    carried_split,
    default_problem,
    make_tree,
    plain_of,
    rand_tree,
    split_with_support,
)

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
from treeload.costs import _ranks, _static_matrix, cost_coefficients
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
    tree = named_topology(name).tree
    task_size, w, b = default_problem(name)
    for sol in (
        cmo(tree, 0.0, w, b=b),
        pmo(tree, 0.0, w, b=b),
        ga(tree, 0.0, w, GaParams(population=4, generations=3), b=b),
    ):
        assert sol.cost == 0.0
        assert sol.allocation.y == (0.0,) * len(tree)
    assert cmo(tree, 0.0, w, b=b).schedule == canonical_schedule(tree)
    # forcing every node to zero fails the same way at any task size
    every = frozenset(range(len(tree)))
    sched = canonical_schedule(tree)
    for task in (0.0, task_size):
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
        # the order decides cmo's ties: cmo's ranks list the schedules in
        # the oracle's order
        groups = tuple(tree.subtrees[t] for t in tree.subtree_roots)
        ref = list(oracles.all_schedules(tree.parent))
        mine = solvers._order_ranks(groups, len(tree), 0, len(ref))
        assert mine.tolist() == _ranks(ref, len(tree)).tolist()
        assert count_schedules(tree) == len(ref) == oracles.count_all_schedules(tree.parent)


def test_first_schedule_of_a_large_subtree_lists_no_orders():
    # one 9-node subtree has 362,880 orders; the first and the last are
    # ranked without any list of them being built
    tree = make_tree([-1, 0, 1, 1, 2, 2, 3, 3, 4, 4], [0.0] + [10.0] * 9, [2.0] * 10)
    groups = tuple(tree.subtrees[t] for t in tree.subtree_roots)
    solvers._order_ranks.cache_clear()
    tracemalloc.start()
    try:
        first = solvers._order_ranks(groups, 10, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.tolist() == [[0, *range(9)]]
    last = solvers._order_ranks(groups, 10, 362_879, 362_880)
    assert last.tolist() == [[0, *range(8, -1, -1)]]
    assert peak < 2**20


def _interleaved_parent(rng, sizes):
    """A parent array whose subtrees have `sizes` nodes, their ids mixed."""
    owner = [g for g, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(owner)
    parent, members = [-1], [[] for _ in sizes]
    for i, g in enumerate(owner, 1):
        parent.append(rng.choice(members[g]) if members[g] else 0)
        members[g].append(i)
    return tuple(parent)


def test_order_ranks_match_the_oracle_enumeration():
    # any window of orders holds the oracle's schedules lo..hi, ranked one
    # by one: 0-3 groups of 0-5 columns whose ids interleave, and windows
    # that cross group digits and _BLOCK boundaries
    rng = random.Random(38)
    crossed = 0
    for _ in range(60):
        sizes = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
        parent = _interleaved_parent(rng, [size for size in sizes if size])
        roots = sorted(i for i in range(1, len(parent)) if parent[i] == 0)
        members = iter(tuple(oracles.subtree_members(parent, t)) for t in roots)
        # the oracle's subtrees in root order, an empty group (one order,
        # nothing ranked) where a size is 0
        groups = tuple(next(members) if size else () for size in sizes)
        total, n = math.prod(math.factorial(size) for size in sizes), len(parent)
        for _ in range(4):
            if total > solvers._BLOCK and rng.random() < 0.5:
                edge = solvers._BLOCK * rng.randint(1, total // solvers._BLOCK)
                lo = max(0, edge - rng.randint(1, 40))
            else:
                lo = rng.randrange(total)
            hi = min(total, lo + rng.randint(1, 300))
            crossed += lo // solvers._BLOCK < (hi - 1) // solvers._BLOCK
            ref = list(itertools.islice(oracles.all_schedules(parent), lo, hi))
            got = solvers._order_ranks(groups, n, lo, hi)
            assert got.tolist() == _ranks(ref, n).tolist()
    assert crossed >= 10


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_order_ranks_match_permutations_at_both_ends(k):
    # a k-node probe's columns 1..k: its first 3,000 orders and its last 50
    cols, total = range(1, k + 1), math.factorial(k)
    first = list(itertools.islice(itertools.permutations(cols), 3000))
    # the last orders ascending are the first of the descending
    # enumeration, reversed
    last = list(itertools.islice(itertools.permutations(reversed(cols)), 50))[::-1]
    for lo, hi, ref in ((0, 3000, first), (total - 50, total, last)):
        got = solvers._order_ranks((tuple(cols),), k + 1, lo, hi)
        assert got.tolist() == _ranks([(order,) for order in ref], k + 1).tolist()


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
        solve_fixed_order(tree, Schedule(orders), Y, W, b=B_COMP).cost
        for orders in oracles.all_schedules(tree.parent)
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
    # every schedule's split, each probe's and the master split are
    # certified by a saddle point or the every-node-works guess: the
    # simplex never runs
    tree = named_topology(name).tree
    y, w, b = default_problem(name)
    simplex = _count_simplex(monkeypatch)
    sol = cmo(tree, y, w, b=b)
    assert sol.schedules_evaluated == count_schedules(tree) > 1
    pmo(tree, y, w, b=b)
    assert simplex == []


@pytest.mark.parametrize("name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"])
def test_pmo_audits_only_its_answer(name, monkeypatch):
    # subtrees are probed on slices of the tree's matrices, not audited
    y, w, b = default_problem(name)
    audits = []
    audit = solvers.system_cost
    monkeypatch.setattr(
        solvers, "system_cost", lambda *args: audits.append(1) or audit(*args)
    )
    pmo(named_topology(name).tree, y, w, b=b)
    assert len(audits) == 1


@pytest.mark.parametrize("name", ["deep_chain", "wide_shallow", "mixed", "two_subtree"])
def test_heuristic_splits_skip_highs(name, monkeypatch):
    # ga's splits and the master-plus-one splits are certified by a saddle
    # point or the every-node-works guess
    tree = named_topology(name).tree
    y, w, b = default_problem(name)
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
    u, support = split_with_support(a, forced)
    assert oracles.duality_gap(a, u, support, forced) <= 1e-12

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
    # point, which the cascade finds before the every-node-works guess, so
    # the simplex does not run
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
    splits = []
    cascade = solvers._cascade

    def recording_cascade(msc, free, own_row, run=None):
        u, supports = cascade(msc, free, own_row, run)
        splits.append((msc, u, [[x.tolist() for x in sr] for sr in supports]))
        return u, supports

    monkeypatch.setattr(solvers, "_cascade", recording_cascade)
    pmo(tree, Y, weights, b=B_COMP)
    assert simplex == []
    # a two-node subtree's two orders take the guess, one stacked
    # _equalise for both; a one-node subtree's split and last the master
    # split are saddle points, which need no _equalise
    assert tries == [([0, 1], [0, 1])]
    assert [sr for _, _, sr in splits] == [
        [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        [[[0], [0]]],
        [[[1], [0]]],
    ]
    # the guess is refuted on the master split, and the simplex's support
    # is the saddle point's, with the same bits
    msc, u, _ = splits[-1]
    every = np.arange(3)
    assert np.isnan(equalise(msc, every, every)).all()
    s, r = solvers._simplex_support(msc[0])
    assert [s.tolist(), r.tolist()] == [[1], [0]]
    assert equalise(msc, s, r).tobytes() == u.tobytes()


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
    assert (guess[0] > 0.0).all()
    u, support = split_with_support(m)
    assert u.tolist() == [0.0, 0.0, 1.0]
    assert [list(x) for x in support] == [[2], [1]]


def test_refuted_guess_falls_back_to_the_simplex(monkeypatch):
    # column 2 costs more than column 0 on every row, so not every node
    # works: the guess on all three columns is refuted, and the simplex's
    # support is certified optimal
    m = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    every = np.arange(3)
    assert np.isnan(solvers._equalise(m[None], every, every)).all()
    simplex = _count_simplex(monkeypatch)
    u, support = split_with_support(m)
    assert len(simplex) == 1
    assert [list(x) for x in support] == [[0, 1], [0, 1]]
    assert oracles.duality_gap(m, u, support) <= 1e-12


def test_certificate_refutes_a_wrong_support():
    # row 2 overshoots the equal-finish point of rows 0 and 1
    m = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 0.0]])
    wrong = solvers._equalise(m[None], np.array([0, 1]), np.array([0, 1]))
    assert np.isnan(wrong).all()
    right = solvers._equalise(m[None], np.array([0, 1]), np.array([1, 2]))
    assert right[0] == pytest.approx([0.2, 0.8], abs=1e-15)
    # against the duals of support {0}, column 1 is cheaper
    m = np.array([[1.0, 0.5], [1.0, 0.5]])
    assert np.isnan(solvers._equalise(m[None], np.array([0]), np.array([0]))).all()


def test_equalise_fails_a_whole_stack_with_nan_rows():
    # a split fails only as a NaN row: with no support, a mismatched one,
    # a singular system in every matrix, or a certificate that refutes
    # every matrix (a negative weight, or a gap)
    two, none = np.array([0, 1]), np.arange(0)
    cases = [
        (np.ones((3, 2, 2)), none, none),
        (np.ones((3, 3, 2)), two, np.array([0, 1, 2])),
        # equal rows: the equal-finish system is singular
        (np.array([[[1.0, 2.0], [1.0, 2.0]]]) * [[[1.0]], [[2.0]], [[3.0]]], two, two),
        # equal finish needs u = (1/2, -1/2)
        (np.array([[[1.0, 0.0], [2.0, 1.0]]] * 3), two, two),
        # row 2 overshoots the equal finish of rows 0 and 1
        (np.array([[[1.0, 0.0], [0.0, 1.0], [4.0, 0.0]]]) * [[[1.0]], [[2.0]]], two, two),
    ]
    for m, s, r in cases:
        got = solvers._equalise(m, s, r)
        assert got.shape == (len(m), m.shape[2])
        assert np.isnan(got).all()


def test_singular_reinversion_returns_its_start():
    # columns 0 and 1 are equal, so a basis holding both is singular: the
    # reinversion hands back the (S, R) it started from, which the
    # certificate refutes again
    msc = np.array([[1.0, 1.0, 0.5], [0.5, 0.5, 1.0], [0.2, 0.2, 0.3]])
    start = np.array([0, 1]), np.array([0, 1])
    assert solvers._simplex_support(msc, start) is start
    assert np.isnan(solvers._equalise(msc[None], *start)).all()


def test_simplex_step_carries_its_support(monkeypatch):
    # column 2 costs more than column 0 on every row of `first`, so the
    # every-node-works guess is refuted and the simplex runs; `same` has
    # the same optimal (S, R), `other` (its columns reversed) another
    first = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    same = np.array([[2.5, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    other = first[:, ::-1]
    simplex = _count_simplex(monkeypatch)
    every = np.arange(3)
    for second, runs, supports in (
        (same, 1, [[[0, 1], [0, 1]], [[0, 1], [0, 1]]]),
        (other, 2, [[[0, 1], [0, 1]], [[1, 2], [0, 1]]]),
    ):
        _, free, msc = solvers._scaled(np.array([first, second]), frozenset())
        assert np.isnan(solvers._equalise(msc, every, every)).all()
        simplex.clear()
        u, got = solvers._cascade(msc, free, every)
        # the first simplex run's support certifies `same`; on `other` it
        # is refuted, and `other` pivots itself
        assert len(simplex) == runs
        assert [[x.tolist() for x in sr] for sr in got] == supports
        for j in range(2):
            alone, _ = solvers._cascade(msc[j : j + 1], free[j : j + 1], every)
            assert u[j].tobytes() == alone[0].tobytes()


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
    u, support = split_with_support(m)
    assert support is not None
    assert u.min() >= 0.0 and u.sum() == pytest.approx(1.0, abs=1e-15)
    assert oracles.duality_gap(m, u, support) <= 1e-12


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
        forced = frozenset(range(n)) - {0, i}
        sol = solve_fixed_order(tree, sched, Y, weights, forced, b=B_COMP)
        assert partial_offload_cost(tree, i, Y, weights, b=B_COMP) == sol.cost
        u, support = split_with_support(a, forced)
        assert sol.allocation.y == tuple((u * Y).tolist())
        assert oracles.duality_gap(a, u, support, forced) <= 1e-12
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
        a = cost_coefficients(tree, sched, weights, B_COMP)
        u, support = split_with_support(a, forced)
        assert sol.allocation.y == tuple((u * Y).tolist())
        assert oracles.duality_gap(a, u, support, forced) <= 1e-12
        # never worse than putting the whole task on one node
        for i in set(range(n)) - forced:
            assert sol.cost <= Y * a[:, i].max() * (1 + 1e-12)


# entries span four decades, and exact repeats make ties and degenerate
# pivots; the 26-decade tests and the stress set cover wider spreads
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
    s, r = solvers._simplex_support(msc)
    assert len(s) == len(r) > 0
    u = solvers._equalise(msc[None], s, r)[0]
    assert not np.isnan(u).any()
    assert oracles.duality_gap(m, u, (s, r)) <= 1e-12


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
        u, support = split_with_support(m)
        # one cold run, refuted, and one reinversion
        assert reinverted == [False, True], key
        assert oracles.duality_gap(m, u, support) <= 1e-12


def test_stress_set_needs_no_highs(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _no_highs)
    for kind, i, m in _stress_set():
        u = solvers._minmax_unit(m[None], frozenset())[0]
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


def _log_uniform(seed: int, density: float = 1.0):
    """Matrices of entries 10**U(-28, 2) on np.random.default_rng(seed),
    endless: nr in 1..30 and nc in 2..30, each entry kept with probability
    `density`, and an empty column given one more entry in a random row."""
    rng = np.random.default_rng(seed)
    while True:
        nr, nc = rng.integers(1, 31), rng.integers(2, 31)
        m = 10 ** rng.uniform(-28, 2, (nr, nc))
        if density < 1.0:
            m *= rng.random((nr, nc)) < density
            for j in np.flatnonzero(m.sum(axis=0) == 0.0):
                m[rng.integers(nr), j] = 10 ** rng.uniform(-28, 2)
        yield m


# log-uniform draws, (seed, density) for `_log_uniform`, whose reinverted
# simplex basis stopped on duals of -1e-13 to -9e-13 and raised
# InfeasibleError while a reinverted round still entered only reduced
# costs below -1e-12
_LOG_DRAWS = [
    ((21, 1.0), 8878, (12, 15)),
    *(
        ((22, 0.4), draw, shape)
        for draw, shape in [
            (1390, (13, 26)), (1669, (7, 15)), (2028, (28, 25)),
            (3309, (20, 29)), (3672, (13, 26)), (4488, (12, 19)),
            (4542, (22, 25)), (4989, (26, 19)), (5951, (17, 16)),
            (6710, (16, 27)), (7235, (9, 23)), (7401, (5, 18)),
            (8525, (10, 19)), (8652, (22, 24)), (9125, (11, 29)),
            (9456, (12, 24)), (10520, (12, 30)), (10857, (6, 17)),
            (14511, (5, 15)), (15444, (18, 28)), (18135, (12, 12)),
            (18233, (15, 27)), (18840, (8, 25)), (19892, (9, 24)),
        ]
    ),
]


@functools.cache
def _log_draws(seed: int, density: float) -> dict:
    """The `_LOG_DRAWS` matrices of one (seed, density), by draw, from one
    pass over the stream."""
    wanted = {d for key, d, _ in _LOG_DRAWS if key == (seed, density)}
    stream = itertools.islice(_log_uniform(seed, density), max(wanted) + 1)
    return {d: m for d, m in enumerate(stream) if d in wanted}


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
        *(
            pytest.param(seed, draw, shape, [False, True], id=f"log-{seed[0]}-{draw}")
            for seed, draw, shape in _LOG_DRAWS
        ),
    ],
)
def test_reinversion_certifies_integer_tie_draws(
    seed, draw, shape, rounds, monkeypatch
):
    # an integer seed draws from `_tie_draws`, a (seed, density) pair from
    # `_log_uniform`
    if isinstance(seed, int):
        m = next(itertools.islice(_tie_draws(seed), draw, None))
    else:
        m = _log_draws(*seed)[draw]
    assert m.shape == shape
    reinverted = _count_reinversions(monkeypatch)
    u, support = split_with_support(m)
    assert reinverted == rounds
    assert oracles.duality_gap(m, u, support) <= 1e-12


# draw 720 (38x6) of a 26-decade campaign with exact repeats, stored as
# drawn: on np.random.default_rng(1), each draw takes nr, nc = integers(1,
# 41, 2); m = 10 ** uniform(-26, 1, (nr, nc)); entries picked with
# probability 0.3 (random((nr, nc)) < 0.3) become choice([0, 0.5, 1, 2, 3],
# (nr, nc)) at the same place; with probability 0.2 every row is set to row
# 0; and row 0 gets 1.0 in each column that sums to 0. Draws 149, 720, 788
# and 913 of the first 1,000 raise.
_REPEATS_26_DECADES = np.array(
    [
        [3.0, 3.8932193174905595e-17, 2.390003081143701e-12,
         1.4741055245895225e-11, 3.647094248127023e-06, 3.821776109926503e-18],
        [0.0, 1.542885916949706e-11, 1.0,
         0.5, 2.0, 1.9485617809458984e-11],
        [2.0, 0.025434984357302702, 6.702974273398496e-22,
         0.0, 1.1079453118639471e-05, 2.6815873314031656e-23],
        [6.707117278404218e-06, 5.107943006598459e-18, 2.9419304365005454e-08,
         6.835139630129009e-20, 5.230784321542658e-11, 5.1423519549959064e-26],
        [2.436970130575127e-25, 6.878992315719441e-26, 6.211709751700838e-11,
         6.419438537066173e-06, 1.3463513963593354e-16, 0.0014202103361602829],
        [1.9996459700242543e-10, 0.5, 0.0002284956073858119,
         5.827807539064527e-25, 1.0, 3.0],
        [3.334949761768649e-10, 9.842142210308857e-18, 3.0,
         1.6718903252697345e-09, 2.7842238932667704e-17, 2.270278698922652e-21],
        [1.2103850186884152e-10, 5.0421676220838954e-18, 0.0,
         1.68365169716055e-07, 5.431073332740445e-06, 1.9377997762247716e-05],
        [1.8749978122611302, 2.270607984606757e-19, 4.745102386690661e-15,
         3.6973056098934147e-13, 3.605962993947274e-11, 3.2393407828103985e-26],
        [1.0, 1.4585010331213838e-17, 2.4097832514390327e-15,
         9.473755377001678e-21, 2.0, 2.9191500629804673e-22],
        [0.11684497447230986, 6.699578470894535e-15, 1.3300256500901748e-08,
         1.0, 0.0, 0.17923144672312927],
        [1.464337040581774e-23, 3.0, 2.1255662807088282e-11,
         6.195783906296199e-05, 6.135752735041217e-08, 2.0640423889178396e-07],
        [3.0, 2.5081307961495126e-21, 7.5998348750093e-08,
         0.0013639736213109893, 2.0, 1.6615658472600337e-22],
        [3.0, 6.357811192573197e-17, 1.9971569992298775e-22,
         1.483170273825715e-05, 1.7987079375970127e-16, 3.0],
        [1.577954270135509e-23, 6.958805843795334e-10, 6.864487005554999e-17,
         1.1711954281646744e-05, 0.15986304744722826, 6.628110511919258e-20],
        [3.0, 8.443851162466972e-15, 2.0,
         7.876369974937039e-05, 0.0, 5.054095127593481e-06],
        [1.0, 1.0, 4.5687525035071336e-08,
         6.330681337802561e-17, 2.438210294952792e-20, 3.2530574763410086e-05],
        [1.2254559146746977e-07, 1.8007328663544013e-14, 4.789910511164569e-13,
         3.0, 2.0109585561610823e-13, 1.4274793111312834e-21],
        [1.0, 4.334664335827433e-13, 1.7488141279450667e-25,
         5.357087706203611e-14, 3.0, 4.2880261626978735e-08],
        [0.7796252014321888, 1.8438153466835556e-25, 1.8930499106107406e-23,
         0.5, 2.347874324080721e-10, 1.464655462012386e-13],
        [1.8433137541317134e-25, 1.0, 5.767946033566194e-10,
         3.0, 1.1350686812142182e-13, 2.867347579507255e-08],
        [0.0016479543076955206, 2.7471036365036955e-08, 1.354983178031334e-22,
         2.0, 0.0, 0.5],
        [3.2593222641872783e-08, 0.0, 1.9984086901626793e-24,
         3.356867478519056e-23, 8.551008053192659e-24, 2.0],
        [3.0, 1.7413229786564703e-12, 0.0009012820125687953,
         3.282348070454417e-12, 3.0, 0.0],
        [1.0, 0.5, 7.129821812415349e-09,
         1.5374307163083232e-09, 7.02405025063257e-08, 7.86868599687741e-21],
        [3.0, 3.0, 3.9358993103766147e-13,
         0.0021663865381576206, 1.0, 3.0],
        [3.0, 1.0333806491573224e-18, 6.284000722424749e-05,
         0.00037674386597240915, 1.0682365398898934e-15, 2.510087529410925],
        [6.644437724276502e-05, 0.03523584849613266, 3.0,
         3.0, 1.0, 2.0],
        [2.1820055622124824e-19, 3.2931490482359743e-07, 5.13905529079157,
         1.1297740721438136e-18, 2.7336142995641217e-19, 1.5941098098289317e-07],
        [2.2859191387226504e-25, 3.0, 3.0,
         7.018294402809367e-11, 0.0, 0.5],
        [0.5, 1.6318980614625632e-24, 1.724250953877162e-05,
         2.0, 1.0, 0.5],
        [0.004089104019485344, 0.03823124068963462, 0.5,
         4.825350443215035e-22, 1.9565888630888846e-07, 0.20914132227247448],
        [9.64411278270624e-14, 0.0, 2.707666406589164e-19,
         3.937786498094735e-08, 3.4170990266125936e-11, 1.0],
        [0.0, 1.0, 7.322477162898659e-24,
         1.3029857652572698e-10, 3.496567430757427e-08, 9.986274682250764e-10],
        [1.9247628644915784e-17, 1.0871357854186544e-26, 6.19630999583788e-26,
         1.2591882043714977, 1.6677504956085125e-10, 0.5],
        [0.0, 8.819147542728497e-15, 0.026962660170902864,
         1.6811317687925906e-15, 9.530891955772138e-15, 2.40787236723338],
        [0.5, 2.0, 1.4626495580392422e-09,
         1.339387477266502e-18, 2.0, 0.03703440954027767],
        [2.1699816641755365e-09, 0.1784976315275134, 1.5194390754589603e-25,
         0.5, 0.5, 0.0],
    ]
)


@pytest.mark.xfail(
    strict=True,
    raises=InfeasibleError,
    reason="the cold simplex stops on a basis the certificate refutes, and "
    "each of the three reinversions returns that same basis",
)
def test_split_certifies_26_decades_with_exact_repeats():
    m = _REPEATS_26_DECADES
    u, support = split_with_support(m)
    assert oracles.duality_gap(m, u, support) <= 1e-12


@st.composite
def _integer_ties(draw):
    """Matrices up to 30x30 of integers 1-3: ties make the simplex degenerate."""
    nr, nc = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cells = st.lists(st.integers(1, 3), min_size=nr * nc, max_size=nr * nc)
    return np.array(draw(cells), dtype=float).reshape(nr, nc)


@settings(max_examples=60, deadline=None)
@given(_integer_ties())
def test_cold_split_on_integer_ties_is_certified_exactly(m):
    u, support = split_with_support(m)
    assert oracles.duality_gap(m, u, support) <= 1e-12


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
        # scripts/split_campaign.py imports the test module's draws
        "sys.path.insert(0, 'tests'); import test_solvers",
    ],
    ids=["import", "solve", "tests"],
)
def test_scipy_is_not_imported_until_a_split_reaches_highs(code):
    # no split reaches HiGHS any more: neither the package nor the tests,
    # whose reference is the exact `oracles.duality_gap`, import scipy
    out = _fresh_python(f"{code}; print('scipy.optimize' in sys.modules)")
    assert out[-1] == "False"


def test_split_without_a_simplex_support_raises_without_scipy():
    # without the simplex, nothing is left to try once the guess is
    # refuted: the split raises, and scipy is never imported
    out = _fresh_python(
        "import numpy as np\n"
        "import treeload.solvers as solvers\n"
        "from treeload import InfeasibleError\n"
        "solvers._simplex_support = lambda *a: (np.arange(0), np.arange(0))\n"
        "m = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])\n"
        "try:\n"
        "    solvers._minmax_unit(m[None], frozenset())\n"
        "except InfeasibleError as exc:\n"
        "    print(exc)\n"
        "print('scipy.optimize' in sys.modules)"
    )
    assert out == ["min-max split could not be certified", "False"]


def _split_and_simplex_split(a: np.ndarray, forced: frozenset[int]):
    """a's free columns, `_minmax_unit`'s u on them and its support, and
    `_simplex_support`'s (S, R) with `_equalise`'s u on it (None where a
    column is free or that u is NaN: not certified)."""
    cols, free, stack = solvers._scaled(a[None], forced)
    u, support = split_with_support(a, forced)
    ref = None
    if not free.any():
        simplex = solvers._simplex_support(stack[0])
        got = solvers._equalise(stack, *simplex)[0]
        ref = None if np.isnan(got[0]) else (got, simplex)
    return a[:, cols], u[cols], support, ref


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0)]),
)
# a pure saddle point: the cascade's support ([2], [0]) gives exact zeros,
# the simplex's ([1, 2], [0, 2]) a 1.04e-25 sliver on column 1
@example(2336, (0.1, 0.9))
def test_cold_split_has_the_simplex_bits(seed, w):
    # a cold split has the bits of the simplex's support wherever it takes
    # that support: on cmo's square forms and on pmo's probes, the master
    # pinned, with random nodes pinned to zero (a pinned node still
    # relays).  On a degenerate form two certified supports can give
    # different bits (34 of 24,000 seed and weight cases, within 6.0e-15
    # relative in value), so where the cascade took another support both
    # answers must be certified and have the same value to 1e-12
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
        m, u, support, ref = _split_and_simplex_split(form, pinned)
        if ref is None:
            continue
        ref_u, simplex = ref
        if all(np.array_equal(x, y) for x, y in zip(support, simplex)):
            assert u.tobytes() == ref_u.tobytes()
        else:
            assert oracles.duality_gap(m, u, support) <= 1e-12
            assert oracles.duality_gap(m, ref_u, simplex) <= 1e-12
            z = (m @ ref_u).max()
            assert abs((m @ u).max() - z) <= 1e-12 * z


def test_cold_split_has_the_simplex_value_on_integer_ties():
    # entries 1-3, up to 29x29: ties make these degenerate, so a few cold
    # splits take another optimal split than the simplex's
    rng = np.random.default_rng(7)
    for _ in range(1500):
        nr, nc = rng.integers(1, 30), rng.integers(2, 30)
        m = rng.integers(1, 4, (nr, nc)).astype(float)
        _, u, _, ref = _split_and_simplex_split(m, frozenset())
        if ref is not None:
            z = (m @ ref[0]).max()
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
        assert got.shape == (12, nc)
        for i, row in enumerate(got):
            alone = solvers._equalise(stack[i : i + 1], s, r)[0]
            # a failed matrix is a NaN row, alone and in the stack
            assert np.isnan(row).all() or not np.isnan(row).any()
            assert row.tobytes() == alone.tobytes()


def test_stacked_cascade_matches_one_at_a_time(monkeypatch):
    # every matrix of a stack gets the bits and the (S, R) it gets as a
    # stack of one, whichever step certifies it: a free column, a pure
    # saddle point, the every-node-works guess or the simplex.  Row 0 owns
    # no column
    rng = np.random.default_rng(11)
    nr, nc, nb = 5, 4, 24
    own_row = np.arange(1, nc + 1)
    simplex = []
    cold = solvers._simplex_support
    monkeypatch.setattr(
        solvers,
        "_simplex_support",
        lambda msc, start=None: simplex.append(start is None) or cold(msc, start),
    )
    raw = rng.uniform(0.0, 1.0, (nb, nr, nc)) ** 3
    # own rows pay most for their own column: the guess certifies
    raw[: nb // 2, own_row, np.arange(nc)] += 2.0
    raw[nb // 2, :, 1] = 0.0  # a free column
    raw[nb // 2 + 1] = 1.0 + rng.uniform(0.0, 1.0, (nr, nc))
    raw[nb // 2 + 1, 2] = 3.0
    raw[nb // 2 + 1, :, 1] = 1.0  # a pure saddle point, row 2 column 1
    _, free, msc = solvers._scaled(raw, frozenset())
    u, supports = solvers._cascade(msc, free, own_row)
    runs = sum(simplex)
    steps = Counter()
    for j in range(nb):
        before = sum(simplex)
        alone, (support,) = solvers._cascade(msc[j : j + 1], free[j : j + 1], own_row)
        assert u[j].tobytes() == alone[0].tobytes()
        if support is None:
            assert supports[j] is None
            steps["free"] += 1
            continue
        assert [x.tolist() for x in supports[j]] == [x.tolist() for x in support]
        if sum(simplex) > before:
            steps["simplex"] += 1
        elif [x.tolist() for x in support] == [list(range(nc)), own_row.tolist()]:
            steps["guess"] += 1
        else:
            steps["saddle"] += 1
    assert min(steps[k] for k in ("free", "saddle", "guess", "simplex")) >= 1
    # the stack ran the simplex once on each matrix that needs it
    assert runs == steps["simplex"]


def test_cascade_carries_a_support_only_within_its_run():
    # integer ties leave many optimal supports, so a support carried from
    # one matrix often certifies the next with other bits than its own
    # simplex run gives.  With runs set, each run of the stack gets the
    # bits and supports of a stack of its own.  No column has a row, so
    # every matrix that is not a saddle point reaches the simplex step
    def plain(supports):
        return [None if sr is None else [x.tolist() for x in sr] for sr in supports]

    rng = np.random.default_rng(0)
    own_row = np.arange(3) - 3
    moved = 0
    for _ in range(40):
        raw = rng.integers(1, 4, (12, 3, 3)).astype(float)
        _, free, msc = solvers._scaled(raw, frozenset())
        whole = solvers._cascade(msc, free, own_row)[0]
        for run in (1, 2, 3, 5):
            u, supports = solvers._cascade(msc, free, own_row, run)
            for lo in range(0, 12, run):
                at = slice(lo, lo + run)
                alone, own = solvers._cascade(msc[at], free[at], own_row)
                assert u[at].tobytes() == alone.tobytes()
                assert plain(supports[at]) == plain(own)
            moved += u.tobytes() != whole.tobytes()
    # a support carried across runs would have moved bits
    assert moved >= 20


def _sequential_best_order(static, shared, groups, w1, task_size, forced_zero):
    """The one-split-per-order loop `_best_order` replaced, kept as its
    bitwise reference: each order's split starts from the support the
    previous order certified."""
    nr, n = static.shape
    best, support, tried = None, None, 0
    for orders in itertools.product(*(itertools.permutations(g) for g in groups)):
        rank = np.zeros(n, dtype=int)
        for order in orders:
            rank[list(order)] = range(len(order))
        a = static + w1 * (shared * (rank[n - nr :, None] > rank[None, :]))
        u, support = carried_split(a, forced_zero, support)
        y = u * task_size
        z = float(np.max(a @ y, initial=0.0))
        tried += 1
        if best is None or z < best[0]:
            best = (z, orders, y)
    return (*best, tried)


def _cmo_form(rng, tree, weights, task_size=Y, forced=None):
    """`cmo`'s arguments to `_best_order` on `tree`, some nodes forced."""
    n = len(tree)
    if forced is None:
        forced = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
    groups = [tree.subtrees[t] for t in tree.subtree_roots]
    static = _static_matrix(tree, weights, B_COMP)
    return static, tree.shared_inv_rate, groups, weights.w1, task_size, forced


def _probe_form(rng, k, weights, task_size=Y, cap=lambda: 2e-28, forced=None):
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
    if forced is None:
        forced = {0} | set(rng.sample(range(1, k + 1), rng.randint(0, k - 1)))
    ix = np.ix_(cols[1:], cols)
    static = _static_matrix(tree, weights, B_COMP)[ix]
    shared = tree.shared_inv_rate[ix]
    return static, shared, [range(1, k + 1)], weights.w1, task_size, frozenset(forced)


def _probe_stack(rng, count, k, weights, task_size=Y, cap=lambda: 2e-28):
    """count probes of k-node subtrees of any shape, one set of nodes forced."""
    first = _probe_form(rng, k, weights, task_size, cap)
    return [first] + [
        _probe_form(rng, k, weights, task_size, cap, forced=first[-1])
        for _ in range(count - 1)
    ]


def _cmo_stack(rng, count, tree, weights, task_size=Y, cap=lambda: 2e-28):
    """count `cmo` forms on trees of `tree`'s shape, one set of nodes forced."""
    n = len(tree)
    first = _cmo_form(rng, tree, weights, task_size)
    stack = [first]
    for _ in range(count - 1):
        twin = make_tree(
            list(tree.parent),
            [0.0] + [rng.uniform(0.5, 20.0) for _ in range(n - 1)],
            [rng.uniform(0.5, 8.0) for _ in range(n)],
            [cap() for _ in range(n)],
        )
        stack.append(_cmo_form(rng, twin, weights, task_size, forced=first[-1]))
    return stack


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
    # a stack of problems gets each problem's own loop's bits
    stacks = []
    for seed in range(12):
        rng = random.Random(seed + 9000)
        w = _WEIGHT_PAIRS[seed % 4]
        count = 1 + seed % 4
        if case == "cmo":
            stacks.append(_cmo_stack(rng, count, rand_tree(rng, rng.randint(2, 7)), w))
        elif case == "26-decades":
            # per-node switched capacitance anywhere in 1e-28..1e-2
            cap = lambda: 10 ** rng.uniform(-28.0, -2.0)  # noqa: E731
            tree = _wide_tree(rng, rng.randint(3, 7), cap)
            stacks.append(_cmo_stack(rng, count, tree, w, cap=cap))
            stacks.append(_probe_stack(rng, count, 5, w, cap=cap))
        elif case == "probe":
            stacks.append(_probe_stack(rng, count, rng.randint(1, 5), w))
        elif case == "zero-task":
            tree = rand_tree(rng, rng.randint(2, 6))
            stacks.append(_cmo_stack(rng, count, tree, w, task_size=0.0))
            stacks.append(_probe_stack(rng, count, rng.randint(1, 4), w, task_size=0.0))
        elif case == "free-column":
            k = rng.randint(3, 5)
            stacks.append([_free_column_form(rng, k) for _ in range(count)])
        elif case == "ties":
            # no waiting: every order has the same form, the first wins
            stacks.append([
                (static, np.zeros_like(shared), *rest)
                for static, shared, *rest in _probe_stack(rng, count, rng.randint(2, 5), w)
            ])
        else:
            # blocks of 7 and windows from 2 orders: the loop's carried
            # support crosses block boundaries, the simplex step tries its
            # own on windows of every width, and a stack holds up to three
            # 2-node probes but one 3-node probe
            monkeypatch.setattr(solvers, "_BLOCK", 7)
            monkeypatch.setattr(solvers, "_SWEEP", 2)
            stacks.append(_probe_stack(rng, count, 5, w))
            stacks.append(_cmo_stack(rng, count, rand_tree(rng, 7), w))
            stacks.append(_probe_stack(rng, 4, 2 + seed % 2, w))
    assert {len(stack) for stack in stacks} == {1, 2, 3, 4}
    cascade = solvers._cascade
    for stack in stacks:
        static, shared, groups, *rest = stack[0]
        refs = [_sequential_best_order(*form) for form in stack]
        total = math.prod(math.factorial(len(g)) for g in groups)
        stacks_split = -(-len(stack) // max(1, solvers._BLOCK // total))
        cold = []
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_cascade", lambda *a: cold.append(1) or cascade(*a))
            found = solvers._best_order(
                np.stack([form[0] for form in stack]),
                np.stack([form[1] for form in stack]),
                groups,
                *rest,
            )
        assert len(found) == len(refs)
        for got, ref in zip(found, refs):
            assert got[0] == ref[0]
            assert got[1] == ref[1]
            assert got[2].tobytes() == ref[2].tobytes()
            assert got[3] == ref[3] == total
        # one cascade splits each stack of at most _BLOCK orders, carried
        # supports and all
        assert len(cold) == stacks_split * -(-total // solvers._BLOCK)
        if case == "ties":
            assert all(got[1] == tuple(tuple(g) for g in groups) for got in found)


def _pmo_one_probe_at_a_time(tree, task_size, weights, forced_zero):
    """`pmo` as it ran before subtrees of one size were probed together,
    kept as its bitwise reference: one `_best_order` per subtree, on its
    `np.ix_` slices, then `solve_master_split`."""
    static = _static_matrix(tree, weights, B_COMP)
    probe_size = task_size if task_size > 0.0 else 1.0
    orders, per_bit, shares, evaluated = dict(tree.subtrees), {}, {}, 0
    for t, nodes in tree.subtrees.items():
        if all(i in forced_zero for i in nodes):
            continue
        forced = frozenset({0}) | {k for k, i in enumerate(nodes, 1) if i in forced_zero}
        cols = (0, *nodes)
        ((z, (order,), y, tried),) = solvers._best_order(
            static[np.ix_(nodes, cols)][None],
            tree.shared_inv_rate[np.ix_(nodes, cols)][None],
            [range(1, len(cols))],
            weights.w1,
            probe_size,
            forced,
        )
        orders[t] = tuple(cols[k] for k in order)
        per_bit[t] = z / probe_size
        shares[t] = y[1:] / probe_size
        evaluated += tried
    y0, subtree_share = solvers.solve_master_split(
        tree, static, per_bit, probe_size, master_blocked=0 in forced_zero
    )
    u = np.zeros(len(tree))
    u[0] = y0 / probe_size
    for t, share in shares.items():
        u[list(tree.subtrees[t])] = share * subtree_share[t] / probe_size
    schedule = Schedule(orders=tuple(orders[t] for t in tree.subtree_roots))
    return solvers._solution(
        tree, schedule, u * task_size, task_size, weights, B_COMP, "pmo",
        max(evaluated, 1),
    )


def _twin_tree(rng, draw_cap):
    """A random tree with two or more subtrees of one size (1-4 nodes each,
    any shape), link rates 1..100 Gbps and one draw_cap() per node's γ."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    sizes += rng.choices(sizes, k=rng.randint(1, 3))
    rng.shuffle(sizes)
    parent = [-1]
    for size in sizes:
        root = len(parent)
        parent += [0] + [rng.randrange(root, root + i) for i in range(1, size)]
    n = len(parent)
    rates = [0.0] + [10 ** rng.uniform(0.0, 2.0) for _ in range(n - 1)]
    freqs = [rng.uniform(0.5, 8.0) for _ in range(n)]
    tx = [rng.uniform(0.5, 4.0) for _ in range(n)]
    return make_tree(parent, rates, freqs, [draw_cap() for _ in range(n)], tx)


@pytest.mark.parametrize("case", ["forced", "zero-task", "26-decades", "blocks"])
def test_stacked_probes_match_one_probe_at_a_time(case, monkeypatch):
    # subtrees of one size share a `_best_order` call, and each still gets
    # the bits its own call gives: the whole answer is bit-identical
    if case == "blocks":
        # 2-node probes stack three at a time, 3- and 4-node ones alone
        monkeypatch.setattr(solvers, "_BLOCK", 7)
        monkeypatch.setattr(solvers, "_SWEEP", 2)
    cascade, stacked, mixed = solvers._cascade, [], 0
    simplex = _count_simplex(monkeypatch)

    def recording(msc, free, own_row, run=None):
        before = len(simplex)
        got = cascade(msc, free, own_row, run)
        if run and len(msc) > run:
            stacked.append(len(simplex) - before)
        return got

    monkeypatch.setattr(solvers, "_cascade", recording)
    for seed in range(40):
        rng = random.Random(seed + 7000)
        if case == "26-decades":
            tree = _twin_tree(rng, lambda: 10 ** rng.uniform(-28.0, -2.0))
        else:
            tree = _twin_tree(rng, lambda: 2e-28)
        n, w = len(tree), _WEIGHT_PAIRS[seed % 4]
        forced = frozenset()
        if seed % 3:
            forced = frozenset(i for i in range(n) if rng.random() < 0.3)
            forced -= {rng.randrange(n)}
        # subtrees of one size whose forced nodes sit at different places
        places = {}
        for nodes in tree.subtrees.values():
            places.setdefault(len(nodes), set()).add(
                tuple(i in forced for i in nodes)
            )
        mixed += any(len(p) > 1 for p in places.values())
        task = 0.0 if case == "zero-task" else Y
        ref = _pmo_one_probe_at_a_time(tree, task, w, forced)
        got = pmo(tree, task, w, forced, b=B_COMP)
        assert got.cost == ref.cost
        assert got.schedule == ref.schedule
        assert np.array(got.allocation.y).tobytes() == np.array(ref.allocation.y).tobytes()
        assert got.schedules_evaluated == ref.schedules_evaluated
    assert mixed >= 5
    # stacks of two or more probes were split, and the simplex step ran
    # inside them (not in the blocks case's small stacks)
    assert len(stacked) >= 10
    assert (sum(stacked) > 0) == (case != "blocks")


def test_twin_subtrees_keep_their_own_simplex_supports(monkeypatch):
    # two identical 4-node subtrees with small-integer parameters: their
    # probes tie, so many supports are optimal, and the support the first
    # probe's simplex step ends on, carried into the second probe, would
    # certify it with other bits than its own simplex run gives
    tree = make_tree(
        [-1, 0, 1, 2, 1, 0, 5, 6, 5],
        [0.0, 3.0, 1.0, 3.0, 3.0, 3.0, 1.0, 3.0, 3.0],
        [2.0] + [1.0] * 8,
        [1e-2, 1e-2, 1e-28, 1e-2, 1e-2, 1e-2, 1e-28, 1e-2, 1e-2],
        [1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0, 2.0],
    )
    w = Weights(0.1, 0.9)
    ref = _pmo_one_probe_at_a_time(tree, Y, w, frozenset())
    simplex = _count_simplex(monkeypatch)
    got = pmo(tree, Y, w, b=B_COMP)
    assert len(simplex) > 0
    assert got.cost == ref.cost
    assert got.schedule == ref.schedule
    assert np.array(got.allocation.y).tobytes() == np.array(ref.allocation.y).tobytes()


@pytest.mark.parametrize("solve", [cmo, pmo])
def test_a_warm_tree_answers_as_a_fresh_one(solve):
    # the second solve on a tree reads the order ranks memoised in the
    # first, and pmo the probe slices its tree cached; both match a solve
    # on a fresh copy, bit for bit
    memo = solvers._order_ranks
    for seed in range(16):
        tree, fresh = (_twin_tree(random.Random(seed), lambda: 2e-28) for _ in range(2))
        if solve is cmo and count_schedules(tree) > 2048:
            continue  # cmo past one block of schedules is slow
        rng = random.Random(seed)
        forced = frozenset(i for i in range(len(tree)) if rng.random() < 0.2 * (seed % 2))
        w = _WEIGHT_PAIRS[seed % 4]
        memo.cache_clear()
        first = solve(tree, Y, w, forced, b=B_COMP)
        misses = memo.cache_info().misses
        assert misses > 0
        assert ("probe_classes" in vars(tree)) == (solve is pmo)
        assert "probe_classes" not in vars(fresh)
        warm = solve(tree, Y, w, forced, b=B_COMP)
        assert memo.cache_info().misses == misses
        cold = solve(fresh, Y, w, forced, b=B_COMP)
        for got in (first, warm):
            assert got.cost == cold.cost
            assert got.schedule == cold.schedule
            assert np.array(got.allocation.y).tobytes() == np.array(cold.allocation.y).tobytes()
            assert got.schedules_evaluated == cold.schedules_evaluated


def test_failed_polish_raises_infeasible(monkeypatch):
    # every support, each reinverted simplex basis included, fails the
    # certificate: no answer
    tree = rand_tree(random.Random(12), 5)
    sched = canonical_schedule(tree)
    monkeypatch.setattr(
        solvers, "_equalise", lambda m, s, r: np.full((len(m), m.shape[2]), np.nan)
    )
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
        # the warning names the line that called cmo or pmo
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(AssertionError, match="before the warning"):
                solve(tree, Y, W, b=B_COMP)
        (warning,) = caught
        assert warning.category is RuntimeWarning
        assert warning.filename == __file__


def test_an_enumeration_too_long_to_number_is_refused(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a schedule was solved")

    monkeypatch.setattr(solvers, "_minmax_unit", no_solve)
    # chains of 22 and 21 nodes: one subtree of 21 nodes, 21! >= 2**63
    # orders, is refused before any warning or split; one of 20 nodes,
    # 20! < 2**63, only warns
    long_, numbered = (
        make_tree(list(range(-1, n - 1)), [0.0] + [10.0] * (n - 1), [2.0] * n)
        for n in (22, 21)
    )
    assert math.factorial(20) < 2**63 <= math.factorial(21)
    for solve in (cmo, pmo):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=str(math.factorial(21))):
                solve(long_, Y, W, b=B_COMP)
            with pytest.raises(RuntimeWarning, match=str(math.factorial(20))):
                solve(numbered, Y, W, b=B_COMP)


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


def test_the_committed_baseline_still_loads():
    # scripts/offline_online_study.py's instance; the plan's tree_sha pins
    # tree_fingerprint's format
    g = GenParams(node_count=20, edge_prob=0.3, rng_seed=28, gamma=2e-28)
    tree = build_sink_tree(generate_network(g))
    path = ROOT / "results" / "baseline_20.json"
    plan = load_baseline(path, tree, Weights(0.5, 0.05), b=1.0)
    assert plan is not None and plan.solver_tag == "pmo"


def test_the_offline_online_study_leaves_the_committed_baseline(monkeypatch):
    # the study's default cache is a temporary file: a run that rewrote the
    # fixture above would make that pin pass on whatever format it wrote
    path = ROOT / "results" / "baseline_20.json"
    before = path.read_bytes(), path.stat().st_mtime_ns
    script = ROOT / "scripts" / "offline_online_study.py"
    spec = importlib.util.spec_from_file_location("offline_online_study", script)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    monkeypatch.setattr(sys, "argv", [str(script)])
    try:
        study.main()
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    finally:
        if path.read_bytes() != before[0]:
            path.write_bytes(before[0])
