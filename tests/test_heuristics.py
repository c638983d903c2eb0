import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import B_COMP, carried_split, make_tree, rand_tree
from treeload import (
    GaParams,
    LpParams,
    NetworkGraph,
    NpParams,
    ParameterError,
    Schedule,
    ServerParams,
    Weights,
    baseline_local,
    baseline_master_worker,
    baseline_multi_hop,
    baseline_partial,
    build_sink_tree,
    canonical_schedule,
    cmo,
    ga,
    level_prune,
    node_prune,
    pmo,
    solve_fixed_order,
)
from treeload import costs, heuristics, solvers
from treeload.costs import Allocation, system_cost, validate_schedule
from treeload.heuristics import (
    _mutate,
    _ordered_crossover,
    local_cost,
    partial_offload_cost,
)

W = Weights(0.5, 0.05)
Y = 1e9


def test_param_validation():
    with pytest.raises(ParameterError):
        NpParams(theta_p=-0.1)
    with pytest.raises(ParameterError):
        NpParams(theta_p=1.1)
    with pytest.raises(ParameterError):
        LpParams(xi=-1)
    with pytest.raises(ParameterError):
        GaParams(population=1)
    # a bad task size fails with the solvers' message, not Allocation's
    tree = rand_tree(random.Random(0), 4)
    for task in (math.nan, -1.0, math.inf):
        for entry in (
            lambda: node_prune(tree, NpParams(theta_p=0.1), task, W, b=B_COMP),
            lambda: local_cost(tree, task, W, b=B_COMP),
            lambda: partial_offload_cost(tree, 1, task, W, b=B_COMP),
            lambda: baseline_local(tree, task, W, b=B_COMP),
            lambda: baseline_partial(tree, task, W, b=B_COMP),
            lambda: baseline_master_worker(tree, task, W, b=B_COMP),
            lambda: baseline_multi_hop(tree, task, W, b=B_COMP),
        ):
            with pytest.raises(ParameterError, match=re.escape(
                f"task_size must be a number in [0, inf), got {task}"
            )):
                entry()
    # node ids are integers, never booleans, strings or fractions; an
    # integral float counts as an integer, as it does for every field
    for i in (True, "1", 1.5):
        with pytest.raises(ParameterError, match=re.escape(
            f"node id must be an integer in [1, 3], got {i!r}"
        )):
            partial_offload_cost(tree, i, Y, W, b=B_COMP)
    for i in (np.int64(1), 1.0):
        assert partial_offload_cost(tree, i, Y, W, b=B_COMP) == (
            partial_offload_cost(tree, 1, Y, W, b=B_COMP)
        )


def test_partial_offload_rejects_master():
    tree = rand_tree(random.Random(0), 4)
    with pytest.raises(ParameterError):
        partial_offload_cost(tree, 0, Y, W, b=B_COMP)


def test_partial_offload_no_worse_than_local():
    # the solo split keeps all-local as a feasible point
    for seed in range(10):
        tree = rand_tree(random.Random(seed), 5)
        z0 = local_cost(tree, Y, W, b=B_COMP)
        for i in range(1, len(tree)):
            zp = partial_offload_cost(tree, i, Y, W, b=B_COMP)
            assert zp <= z0 * (1 + 1e-9)


def _solo_by_node(tree, nodes, task_size, weights):
    """The per-node loop `_solo_splits` replaced, kept as its bitwise
    reference: one fixed-order split and one full audit per node."""
    sched = canonical_schedule(tree)
    costs, splits = [], []
    for i in nodes:
        forced = frozenset(range(len(tree))) - {0, i}
        sol = solve_fixed_order(tree, sched, task_size, weights, forced, b=B_COMP)
        costs.append(sol.cost)
        splits.append(sol.allocation.y)
    return costs, splits


def _check_solo_splits(tree, weights, task_size=Y):
    nodes = range(1, len(tree))
    costs, y = heuristics._solo_splits(tree, nodes, task_size, weights, B_COMP)
    ref_costs, ref_y = _solo_by_node(tree, nodes, task_size, weights)
    assert np.array(ref_costs).tobytes() == costs.tobytes()
    assert np.array(ref_y).reshape(y.shape).tobytes() == y.tobytes()
    for i, z in zip(nodes, ref_costs):
        assert partial_offload_cost(tree, i, task_size, weights, b=B_COMP) == z


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(0.5, 0.05), (1.0, 0.0), (0.0, 1.0)]),
)
def test_solo_splits_match_the_per_node_loop(seed, w):
    # γ anywhere in 1e-28..1e-2, per node
    rng = random.Random(seed)
    draw_cap = lambda: 10 ** rng.uniform(-28.0, -2.0)  # noqa: E731
    tree = rand_tree(rng, rng.randint(2, 14), draw_cap=draw_cap)
    _check_solo_splits(tree, Weights(*w))


def test_solo_splits_on_free_columns_and_the_master_alone():
    # energy only: a node that neither computes at a cost nor has a paying
    # radio on its path takes the whole task for nothing, and so does a
    # master that computes for free; a master that computes for less than
    # its radio spends keeps the whole task (every row falls)
    parent, rates, freqs = [-1, 0, 1, 0], [0.0, 5.0, 5.0, 5.0], [2.0, 3.0, 3.0, 3.0]
    costly = make_tree(parent, rates, freqs, caps=[2e-28, 0.0, 2e-28, 2e-28],
                       tx_w=[0.0, 0.0, 1.0, 1.0])
    free_master = make_tree(parent, rates, freqs, caps=[0.0, 2e-28, 2e-28, 0.0],
                            tx_w=[0.0, 1.0, 1.0, 1.0])
    thrifty = make_tree([-1, 0], [0.0, 0.5], [0.5, 3.0], caps=[1e-30, 1e-2],
                        tx_w=[4.0, 1.0])
    for tree in (costly, free_master, thrifty):
        _check_solo_splits(tree, Weights(0.0, 1.0))
    costs, y = heuristics._solo_splits(costly, [1, 2], Y, Weights(0.0, 1.0), B_COMP)
    assert costs[0] == 0.0 and y[0].tolist() == [0.0, Y, 0.0, 0.0]
    _, y = heuristics._solo_splits(thrifty, [1], Y, Weights(0.0, 1.0), B_COMP)
    assert y.tolist() == [[Y, 0.0]]


def test_solo_splits_that_fail_the_guess_take_the_cascade(monkeypatch):
    # the stack's every-node-works guess, the first `_equalise` a pair's
    # form meets, is refuted wherever the form's first row pays for
    # column 1; a later `_equalise` of the same form, a simplex support's,
    # is not.  Those splits, and only those, go on to the simplex step,
    # where a support one of them certified may carry to the next, with
    # the per-node loop's bits
    equalise = solvers._equalise
    refuted, cold, seen = [], [], set()

    def flaky(m, s, r):
        got = equalise(m, s, r)
        first = np.array([form.tobytes() not in seen for form in m])
        seen.update(form.tobytes() for form in m)
        if not first.any():
            return got
        got[first & (m[:, 0, 1] > 0.0)] = np.nan
        refuted.extend(m[np.isnan(got[:, 0])])
        return got

    simplex = solvers._simplex_support

    def counting(msc, start=None):
        if start is None:
            cold.append(msc)
        return simplex(msc, start)

    monkeypatch.setattr(solvers, "_equalise", flaky)
    monkeypatch.setattr(solvers, "_simplex_support", counting)
    for seed in range(6):
        tree = rand_tree(random.Random(seed + 900), 9)
        refuted.clear()
        cold.clear()
        heuristics._solo_splits(tree, range(1, len(tree)), Y, W, B_COMP)
        assert 1 <= len(cold) <= len(refuted) < len(tree) - 1
        assert {a.tobytes() for a in cold} <= {b.tobytes() for b in refuted}
        _check_solo_splits(tree, W)


def test_node_prune_theta_one_keeps_master_only():
    tree = rand_tree(random.Random(1), 6)
    pruned, relays = node_prune(tree, NpParams(theta_p=1.0), Y, W, b=B_COMP)
    assert len(pruned) == 1
    assert relays == frozenset()


def test_node_prune_keeps_relays_on_the_route():
    # middle node is a weak computer but the only route to a strong one
    tree = make_tree(
        [-1, 0, 1],
        [0.0, 10.0, 10.0],
        [2.0, 0.05, 8.0],
        caps=[2e-28, 5e-18, 2e-28],
    )
    pruned, relays = node_prune(tree, NpParams(theta_p=0.05), Y, W, b=B_COMP)
    assert len(pruned) == 3
    assert relays == {1}
    sol = cmo(pruned, Y, W, relays, b=B_COMP)
    assert sol.allocation.y[1] == 0.0


def test_node_prune_selection_rule_is_strict():
    # benefit must strictly exceed theta_p; theta at the exact benefit drops it
    tree = rand_tree(random.Random(2), 4)
    z0 = local_cost(tree, Y, W, b=B_COMP)
    benefits = [
        (z0 - partial_offload_cost(tree, i, Y, W, b=B_COMP)) / z0
        for i in range(1, len(tree))
    ]
    theta = max(benefits)
    pruned, _ = node_prune(tree, NpParams(theta_p=theta), Y, W, b=B_COMP)
    assert len(pruned) == 1


def test_level_prune_endpoints():
    tree = rand_tree(random.Random(3), 7)
    only_master = level_prune(tree, LpParams(xi=0))
    assert len(only_master) == 1
    full = level_prune(tree, LpParams(xi=tree.height))
    assert len(full) == len(tree)
    with pytest.raises(ParameterError):
        level_prune(tree, LpParams(xi=tree.height + 1))


def test_level_prune_cuts_below_the_line():
    tree = make_tree([-1, 0, 1, 2, 0], [0, 10, 10, 10, 10], [2] * 5)
    cut = level_prune(tree, LpParams(xi=2))
    assert len(cut) == 4
    assert max(cut.depth_of) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_crossover_yields_permutations(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    a = tuple(rng.sample(range(n), n))
    b = tuple(rng.sample(range(n), n))
    child = _ordered_crossover(rng, a, b)
    assert sorted(child) == sorted(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_mutation_yields_permutations(seed):
    rng = random.Random(seed)
    chrom = []
    for k in range(rng.randint(1, 3)):
        size = rng.randint(1, 5)
        pool = range(10 * k, 10 * k + size)
        chrom.append(tuple(rng.sample(pool, size)))
    chrom = tuple(chrom)
    out = _mutate(rng, chrom)
    assert len(out) == len(chrom)
    for seq, ref in zip(out, chrom):
        assert sorted(seq) == sorted(ref)


def _ordered_crossover_by_generator(rng, a, bseq):
    """The generator-fed OX that `_ordered_crossover` replaced."""
    n = len(a)
    if n <= 1:
        return a
    lo = rng.randrange(n)
    hi = rng.randrange(n)
    if lo > hi:
        lo, hi = hi, lo
    kept = a[lo : hi + 1]
    taken = set(kept)
    filler = iter(x for x in bseq if x not in taken)
    child = [next(filler) for _ in range(lo)]
    child.extend(kept)
    child.extend(filler)
    return tuple(child)


def test_crossover_matches_the_generator_version():
    # same children and same random draws, so GA takes the same path
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        a = tuple(rng.sample(range(n), n))
        # equal parents return early, after the same draws
        for b in (tuple(rng.sample(range(n), n)), a):
            mine, ref = random.Random(seed + 1), random.Random(seed + 1)
            for _ in range(5):
                child = _ordered_crossover(mine, a, b)
                assert child == _ordered_crossover_by_generator(ref, a, b)
                assert mine.getstate() == ref.getstate()


def test_ga_is_deterministic_per_seed():
    tree = rand_tree(random.Random(4), 7)
    p = GaParams(population=6, generations=8, rng_seed=33)
    a = ga(tree, Y, W, p, b=B_COMP)
    b = ga(tree, Y, W, p, b=B_COMP)
    assert a.cost == b.cost
    assert a.schedule == b.schedule
    c = ga(tree, Y, W, GaParams(population=6, generations=8, rng_seed=34), b=B_COMP)
    assert c.schedule != a.schedule or c.cost == pytest.approx(a.cost)


def test_ga_returns_valid_schedule_and_tag():
    tree = rand_tree(random.Random(5), 8)
    sol = ga(tree, Y, W, GaParams(population=5, generations=4), b=B_COMP)
    validate_schedule(tree, sol.schedule)
    assert sol.solver_tag == "ga"
    assert sol.schedules_evaluated >= 1


def test_ga_more_generations_never_hurt():
    tree = rand_tree(random.Random(6), 8)
    short = ga(tree, Y, W, GaParams(population=6, generations=2, rng_seed=7), b=B_COMP)
    long = ga(tree, Y, W, GaParams(population=6, generations=25, rng_seed=7), b=B_COMP)
    assert long.cost <= short.cost * (1 + 1e-12)


def test_ga_finds_exact_optimum_with_budget():
    tree = rand_tree(random.Random(7), 6)
    ref = cmo(tree, Y, W, b=B_COMP)
    sol = ga(tree, Y, W, GaParams(population=24, generations=30, rng_seed=0), b=B_COMP)
    assert sol.cost <= ref.cost * (1 + 1e-6)


def test_ga_respects_forced_zero():
    tree = rand_tree(random.Random(8), 6)
    sol = ga(tree, Y, W, GaParams(population=4, generations=3), frozenset({1}), b=B_COMP)
    assert sol.allocation.y[1] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_ga_fitness_equals_audited_cost(seed, monkeypatch):
    # the roulette weights GA draws parents with are 1 / the audit's
    # j_system, bit for bit, on the schedules and splits GA itself produces
    rng = random.Random(seed + 700)
    tree = rand_tree(rng, rng.randint(3, 9))
    weights = rng.choice([W, Weights(1.0, 0.0), Weights(0.2, 0.8)])
    schedule_of, split_of, drawn = {}, {}, []

    def waiting(shared, orders):
        wait = costs._waiting(shared, orders)
        schedule_of[id(wait)] = (wait, orders)
        return wait

    def node_terms(tree_, wait, y, weights_, b):
        split_of.update(zip(schedule_of[id(wait)][1], y.copy()))
        return costs._node_terms(tree_, wait, y, weights_, b)

    class Recording(random.Random):
        def choices(self, population, weights=None, **kw):
            drawn.append((list(population), list(weights)))
            return super().choices(population, weights=weights, **kw)

    monkeypatch.setattr(heuristics, "_waiting", waiting)
    monkeypatch.setattr(heuristics, "_node_terms", node_terms)
    monkeypatch.setattr(heuristics.random, "Random", Recording)
    params = GaParams(population=5, generations=6, rng_seed=seed)
    sol = ga(tree, Y, weights, params, b=B_COMP)
    assert drawn and len(split_of) == sol.schedules_evaluated
    audited = {}
    for chrom, y in split_of.items():
        alloc = Allocation(y=tuple(y.tolist()), total=Y)
        audited[chrom] = system_cost(tree, Schedule(chrom), alloc, weights, B_COMP)
    for population, roulette in drawn:
        assert roulette == [1.0 / audited[c].j_system for c in population]
    assert sol.cost == min(br.j_system for br in audited.values())


def _ga_one_chromosome_at_a_time(tree, task_size, weights, params, forced_zero):
    """The GA loop whose fitness split one new chromosome at a time, the
    previous split's (S, R) carried in, kept as the bitwise reference of
    GA's stacked split.  Returns (winner, its cost and split, chromosomes
    split, the (population, roulette weights) of every parent draw)."""
    rng = random.Random(params.rng_seed)
    groups = [list(tree.subtrees[t]) for t in tree.subtree_roots]
    static = costs._static_matrix(tree, weights, B_COMP)
    memo, support, drawn = {}, None, []

    def fitness(chrom):
        nonlocal support
        if chrom not in memo:
            wait = costs._waiting(tree.shared_inv_rate, [chrom])[0]
            a = static + weights.w1 * wait
            u, support = carried_split(a, forced_zero, support)
            y = u * task_size
            j_node = costs._node_terms(tree, wait, y, weights, B_COMP)[-1]
            memo[chrom] = (max(j_node.tolist()), y)
        return memo[chrom][0]

    population = [
        tuple(tuple(rng.sample(g, len(g))) for g in groups)
        for _ in range(params.population)
    ]
    best = min(population, key=fitness)
    n_elite = max(1, math.ceil(heuristics.ELITE_FRAC * params.population))
    for _ in range(params.generations):
        next_pop = sorted(population, key=fitness)[:n_elite]
        scores = [fitness(c) for c in population]
        zero = next((c for c, z in zip(population, scores) if z == 0.0), None)
        while len(next_pop) < params.population:
            if zero is not None:
                pa = pb = zero
            else:
                roulette = [1.0 / z for z in scores]
                drawn.append((list(population), roulette))
                pa, pb = rng.choices(population, weights=roulette, k=2)
            child = tuple(
                _ordered_crossover(rng, sa, sb) for sa, sb in zip(pa, pb)
            )
            if rng.random() < heuristics.MUTATION_PROB:
                child = _mutate(rng, child)
            next_pop.append(child)
        population = next_pop
        gen_best = min(population, key=fitness)
        if fitness(gen_best) < fitness(best):
            best = gen_best
    return best, memo[best], len(memo), drawn


@pytest.mark.parametrize("seed", range(8))
def test_ga_matches_the_one_chromosome_loop(seed, monkeypatch):
    # one stacked split per generation gives every chromosome the bits the
    # one-at-a-time loop gave it, for populations up to 24, wider than the
    # simplex step's first window (_SWEEP): the same winner, cost and
    # split, the same count of chromosomes split and the same roulette
    # weights
    rng = random.Random(seed + 1100)
    tree = rand_tree(rng, rng.randint(3, 10))
    weights = rng.choice([W, Weights(1.0, 0.0), Weights(0.2, 0.8), Weights(0.0, 1.0)])
    forced = frozenset(rng.sample(range(1, len(tree)), rng.randint(0, 1)))
    population = [2, 5, 9, 12, 16, 24][seed % 6]
    params = GaParams(population=population, generations=8, rng_seed=seed)
    best, (cost, y), evaluated, ref_drawn = _ga_one_chromosome_at_a_time(
        tree, Y, weights, params, forced
    )
    drawn = []

    class Recording(random.Random):
        def choices(self, population, weights=None, **kw):
            drawn.append((list(population), list(weights)))
            return super().choices(population, weights=weights, **kw)

    monkeypatch.setattr(heuristics.random, "Random", Recording)
    sol = ga(tree, Y, weights, params, forced, b=B_COMP)
    assert sol.schedule.orders == best
    assert sol.cost == cost
    assert sol.allocation.y == tuple(y.tolist())
    assert sol.schedules_evaluated == evaluated
    assert drawn == ref_drawn


def test_ga_audits_only_its_winner(monkeypatch):
    calls, splits = [], []
    monkeypatch.setattr(
        solvers, "system_cost", lambda *a: calls.append(1) or system_cost(*a)
    )
    unit = solvers._minmax_unit
    monkeypatch.setattr(
        solvers,
        "_minmax_unit",
        lambda a, *rest: splits.extend(a) or unit(a, *rest),
    )
    for seed in range(4):
        tree = rand_tree(random.Random(seed + 800), 8)
        calls.clear()
        splits.clear()
        params = GaParams(population=6, generations=10, rng_seed=seed)
        sol = ga(tree, Y, W, params, b=B_COMP)
        assert len(calls) == 1
        # one split per distinct chromosome
        assert sol.schedules_evaluated == len(splits) > 1


def test_local_baseline_piles_on_master():
    tree = rand_tree(random.Random(9), 5)
    sol = baseline_local(tree, Y, W, b=B_COMP)
    assert sol.allocation.y[0] == Y
    assert sum(sol.allocation.y[1:]) == 0.0
    assert sol.solver_tag == "baseline-local"


def test_idle_node_whose_compute_time_overflows_costs_nothing():
    # the helper's b / cpu_freq overflows, but it gets no bits: the local
    # answer is the master's own cost, 0.5 * 1e10 s + 0.05 * 1e9 J; a split
    # that could load the helper is still refused
    net = NetworkGraph(
        servers=(ServerParams(1e9, 1.0, 1e-28), ServerParams(1e-300, 1.0, 1e-28)),
        links={(0, 1): 1e9, (1, 0): 1e9},
    )
    tree = build_sink_tree(net)
    assert baseline_local(tree, Y, W, b=1e10).cost == pytest.approx(5.05e9)
    with pytest.raises(ParameterError, match="split cost matrix overflows"):
        pmo(tree, Y, W, b=1e10)


def test_partial_baseline_uses_master_plus_one_hop():
    tree = rand_tree(random.Random(10), 7)
    sol = baseline_partial(tree, Y, W, b=B_COMP)
    support = {i for i, v in enumerate(sol.allocation.y) if v > 0.0}
    one_hop = set(tree.children[0]) | {0}
    assert support <= one_hop
    # at most one helper
    assert len(support - {0}) <= 1


def test_partial_baseline_solo_tree_degenerates_to_local():
    tree = make_tree([-1], [0.0], [2.0])
    sol = baseline_partial(tree, Y, W, b=B_COMP)
    assert sol.allocation.y == (Y,)


def test_master_worker_baseline_stays_one_hop():
    tree = rand_tree(random.Random(11), 8)
    sol = baseline_master_worker(tree, Y, W, b=B_COMP)
    support = {i for i, v in enumerate(sol.allocation.y) if v > 0.0}
    assert support <= set(tree.children[0]) | {0}


def _multi_hop_by_node(tree, task_size, weights):
    """The audit-every-candidate loop `baseline_multi_hop` replaced: the
    first node of least audited cost."""
    costs = []
    for i in range(len(tree)):
        y = tuple(task_size if k == i else 0.0 for k in range(len(tree)))
        alloc = Allocation(y=y, total=task_size)
        costs.append(system_cost(tree, canonical_schedule(tree), alloc, weights,
                                 B_COMP).j_system)
    return costs.index(min(costs)), min(costs)


def test_multi_hop_baseline_uses_single_node():
    # one-hot splits priced in one stack pick the winner the
    # audit-every-candidate loop picks, bit for bit
    twins = make_tree([-1, 0, 0], [0.0, 5.0, 5.0], [0.5, 4.0, 4.0])
    for tree, task, w in [
        (twins, Y, W),  # nodes 1 and 2 tie: the smaller id wins
        (twins, 0.0, W),  # every node costs 0: the master wins
        *[(rand_tree(random.Random(s + 12), 7), Y, w)
          for s in range(6) for w in (W, Weights(1.0, 0.0), Weights(0.0, 1.0))],
    ]:
        sol = baseline_multi_hop(tree, task, w, b=B_COMP)
        winner, cost = _multi_hop_by_node(tree, task, w)
        assert sol.cost == cost
        assert sol.allocation.y == tuple(
            task if k == winner else 0.0 for k in range(len(tree))
        )
    assert baseline_multi_hop(twins, Y, W, b=B_COMP).allocation.y == (0.0, Y, 0.0)


def test_baselines_and_pruning_audit_only_their_answer(monkeypatch):
    calls = []
    monkeypatch.setattr(
        solvers, "system_cost", lambda *a: calls.append(1) or system_cost(*a)
    )
    tree = rand_tree(random.Random(13), 9)
    for run in (
        lambda: baseline_partial(tree, Y, W, b=B_COMP),
        lambda: baseline_multi_hop(tree, Y, W, b=B_COMP),
        # the all-local cost is the one audit
        lambda: node_prune(tree, NpParams(theta_p=0.1), Y, W, b=B_COMP),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_exact_solver_dominates_every_baseline():
    for seed in range(8):
        tree = rand_tree(random.Random(seed + 400), 6)
        z = cmo(tree, Y, W, b=B_COMP).cost
        for fn in (
            baseline_local,
            baseline_partial,
            baseline_master_worker,
            baseline_multi_hop,
        ):
            assert z <= fn(tree, Y, W, b=B_COMP).cost * (1 + 1e-9)


def test_time_only_baselines_nest():
    w = Weights(1.0, 0.0)
    for seed in range(8):
        tree = rand_tree(random.Random(seed + 500), 7)
        z_local = baseline_local(tree, Y, w, b=B_COMP).cost
        z_part = baseline_partial(tree, Y, w, b=B_COMP).cost
        z_mw = baseline_master_worker(tree, Y, w, b=B_COMP).cost
        assert z_mw <= z_part * (1 + 1e-9)
        assert z_part <= z_local * (1 + 1e-9)
