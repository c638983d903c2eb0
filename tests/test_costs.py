import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import B_COMP, make_tree, plain_of, rand_tree
from treeload import (
    Allocation,
    ParameterError,
    Schedule,
    ScheduleError,
    Weights,
    canonical_schedule,
    system_cost,
)
from treeload.costs import (
    _node_terms,
    _static_matrix,
    _waiting,
    cost_coefficients,
    validate_schedule,
)
from treeload.units import DEFAULT_B

W = Weights(0.5, 0.05)


def spread(tree, rng, total=1e9):
    y = [rng.random() for _ in range(len(tree))]
    s = sum(y)
    return Allocation(y=tuple(v / s * total for v in y), total=total)


def rand_schedule(tree, rng):
    orders = []
    for t in tree.subtree_roots:
        seq = list(tree.subtrees[t])
        rng.shuffle(seq)
        orders.append(tuple(seq))
    return Schedule(orders=tuple(orders))


def test_weights_validation():
    with pytest.raises(ParameterError):
        Weights(-0.1, 0.5)
    with pytest.raises(ParameterError):
        Weights(0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            Weights(bad, 0.5)
        with pytest.raises(ParameterError):
            Weights(0.5, bad)


def test_allocation_validation():
    with pytest.raises(ParameterError):
        Allocation(y=(-1.0, 2.0), total=1.0)
    # a sum 1e-8 off is refused: the rule is a relative 1e-12 gap
    for y, total in ((1.0, 1.0), 5.0), ((0.5, 0.5 + 1e-8), 1.0):
        with pytest.raises(ParameterError):
            Allocation(y=y, total=total)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            Allocation(y=(1.0, 1.0), total=bad)
    with pytest.raises(ParameterError):
        Allocation(y=(math.nan, 1.0), total=1.0)


def test_canonical_schedule_sorted_per_subtree():
    tree = rand_tree(random.Random(5), 8)
    sched = canonical_schedule(tree)
    for t, seq in zip(tree.subtree_roots, sched.orders):
        assert seq == tree.subtrees[t]
    validate_schedule(tree, sched)


def test_validate_schedule_rejects_bad_orders():
    tree = make_tree([-1, 0, 0], [0, 10, 10], [2, 2, 2])
    with pytest.raises(ScheduleError):
        validate_schedule(tree, Schedule(orders=((1, 2),)))
    with pytest.raises(ScheduleError):
        validate_schedule(tree, Schedule(orders=((1,), (1,))))


def test_master_has_no_delivery_terms():
    tree = rand_tree(random.Random(6), 6)
    alloc = spread(tree, random.Random(7))
    br = system_cost(tree, canonical_schedule(tree), alloc, W, B_COMP)
    assert br.t_tran[0] == 0.0
    assert br.t_wait[0] == 0.0


def test_waiting_counts_only_shared_edges():
    # two workers behind distinct level-1 roots never contend
    tree = make_tree([-1, 0, 0], [0, 10, 10], [2, 2, 2])
    alloc = Allocation(y=(0.0, 5e8, 5e8), total=1e9)
    br = system_cost(tree, Schedule(orders=((1,), (2,))), alloc, W, B_COMP)
    assert br.t_wait[1] == 0.0
    assert br.t_wait[2] == 0.0
    # siblings on one chain do: the later one waits the full shared hop
    chain = make_tree([-1, 0, 1, 1], [0, 10, 10, 10], [2, 2, 2, 2])
    alloc = Allocation(y=(0.0, 0.0, 6e8, 4e8), total=1e9)
    br = system_cost(chain, Schedule(orders=((1, 2, 3),)), alloc, W, B_COMP)
    assert br.t_wait[3] == pytest.approx(6e8 / 10e9)
    assert br.t_wait[2] == 0.0


def _waiting_of_one(tree, schedule):
    """The one-schedule rank loop the stacked `_waiting` replaced."""
    pos = [0] * len(tree)
    for seq in schedule.orders:
        for k, i in enumerate(seq):
            pos[i] = k
    rank = np.array(pos)
    return tree.shared_inv_rate * (rank[:, None] > rank[None, :])


def test_stacked_waiting_matches_one_order_at_a_time():
    # each mask of a stack is the mask of a one-order call, and of the
    # one-schedule loop it replaced; a probe-shaped slice without the
    # master's row gets the same masks minus that row
    for seed in range(20):
        rng = random.Random(seed + 300)
        tree = rand_tree(rng, rng.randint(1, 9))
        groups = [list(tree.subtrees[t]) for t in tree.subtree_roots]
        orders = [
            tuple(tuple(rng.sample(g, len(g))) for g in groups)
            for _ in range(rng.randint(1, 12))
        ]
        shared = tree.shared_inv_rate
        stack = _waiting(shared, orders)
        probe = _waiting(shared[1:], orders)
        assert stack.shape == (len(orders), len(tree), len(tree))
        for order, mask, sliced in zip(orders, stack, probe):
            one = _waiting(shared, [order])[0]
            assert mask.tobytes() == one.tobytes()
            ref = _waiting_of_one(tree, Schedule(orders=order))
            assert mask.tobytes() == ref.tobytes()
            assert sliced.tobytes() == mask[1:].tobytes()


def test_relay_load_accumulates_descendants():
    chain = make_tree([-1, 0, 1, 2], [0, 10, 10, 10], [2, 2, 2, 2])
    alloc = Allocation(y=(1e8, 2e8, 3e8, 4e8), total=1e9)
    br = system_cost(chain, canonical_schedule(chain), alloc, W, B_COMP)
    # bits node i pushes onto its one child edge: everything below it
    relayed = [
        br.e_relay[i] / chain.servers[i].tx_power * chain.edge_rate[i + 1]
        for i in range(3)
    ]
    assert relayed == pytest.approx([9e8, 7e8, 4e8])
    assert br.e_relay[3] == 0.0


def test_system_cost_breakdown_is_consistent():
    tree = rand_tree(random.Random(8), 7)
    alloc = spread(tree, random.Random(9))
    sched = canonical_schedule(tree)
    br = system_cost(tree, sched, alloc, W, B_COMP)
    for i in range(len(tree)):
        assert br.t_total[i] == pytest.approx(br.t_tran[i] + br.t_wait[i] + br.t_comp[i])
        assert br.e_total[i] == pytest.approx(br.e_comp[i] + br.e_relay[i])
        assert br.j_node[i] == pytest.approx(
            oracles.node_cost(
                plain_of(tree), sched.orders, alloc.y, W.w1, W.w2, B_COMP, i
            ),
            rel=1e-12,
        )
    assert br.j_system == max(br.j_node)
    assert br.max_time == max(br.t_total)
    assert br.max_energy == max(br.e_total)


def test_system_cost_rejects_wrong_length():
    tree = rand_tree(random.Random(1), 4)
    with pytest.raises(ParameterError):
        system_cost(
            tree, canonical_schedule(tree), Allocation(y=(1.0,), total=1.0), W, DEFAULT_B
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cost_matches_reference_model(seed):
    rng = random.Random(seed)
    tree = rand_tree(rng, rng.randint(2, 8))
    alloc = spread(tree, rng)
    sched = rand_schedule(tree, rng)
    w1, w2 = rng.choice([(1.0, 0.0), (0.5, 0.05), (0.2, 0.8)])
    mine = system_cost(tree, sched, alloc, Weights(w1, w2), B_COMP).j_system
    ref = oracles.system_cost(plain_of(tree), sched.orders, alloc.y, w1, w2, B_COMP)
    assert mine == pytest.approx(ref, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reference_rows_are_linear_in_the_allocation(seed):
    # the tie-pattern oracle leans on per-node costs being linear forms;
    # check its extracted rows against direct evaluation on random points
    rng = random.Random(seed)
    tree = rand_tree(rng, rng.randint(2, 6))
    sched = rand_schedule(tree, rng)
    p = plain_of(tree)
    rows = oracles.linear_rows(p, sched.orders, W.w1, W.w2, B_COMP)
    alloc = spread(tree, rng)
    for i in range(len(tree)):
        direct = oracles.node_cost(p, sched.orders, alloc.y, W.w1, W.w2, B_COMP, i)
        dotted = sum(rows[i][j] * alloc.y[j] for j in range(len(tree)))
        assert dotted == pytest.approx(direct, rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_linear_form_reproduces_cost(seed):
    rng = random.Random(seed)
    tree = rand_tree(rng, rng.randint(2, 8))
    sched = rand_schedule(tree, rng)
    a = cost_coefficients(tree, sched, W, B_COMP)
    assert not a.flags.writeable
    for _ in range(3):
        alloc = spread(tree, rng)
        br = system_cost(tree, sched, alloc, W, B_COMP)
        y = np.array(alloc.y)
        assert np.max(a @ y) == pytest.approx(br.j_system, rel=1e-12)
        for i in range(len(tree)):
            assert a[i] @ y == pytest.approx(br.j_node[i], rel=1e-12)


def test_cost_scales_linearly_with_mass():
    # doubling every share doubles every node cost: the form is homogeneous
    tree = rand_tree(random.Random(3), 6)
    sched = canonical_schedule(tree)
    a1 = spread(tree, random.Random(4), total=1e9)
    a2 = Allocation(y=tuple(2 * v for v in a1.y), total=2e9)
    b1 = system_cost(tree, sched, a1, W, B_COMP)
    b2 = system_cost(tree, sched, a2, W, B_COMP)
    assert b2.j_system == pytest.approx(2 * b1.j_system, rel=1e-12)


def _static_matrix_loop(tree, weights, b):
    """The per-pair loop `_static_matrix` replaced, kept as its bitwise reference."""
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
    senders, dests, relay = [], [], []
    for i, path in enumerate(tree.paths):
        for anc, nxt in zip(path, path[1:]):
            senders.append(anc)
            dests.append(i)
            relay.append(weights.w2 * tree.servers[anc].tx_power / tree.edge_rate[nxt])
    a[senders, dests] += relay
    return a


# the draws: `_sweep_tree`'s seed, chain and log_gamma, then w1, w2 and b
_SWEEP = (
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.floats(min_value=-28.0, max_value=-2.0),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.05, 1.0]),
    st.sampled_from([B_COMP, DEFAULT_B]),
)


def _sweep_tree(seed, chain, log_gamma):
    """Random trees and deep chains of 1-14 nodes; γ anywhere in
    1e-28..1e-2 (up to ten decades inside one network), link rates
    1..100 Gbps.  Returns the tree and the seeded stream that drew it."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    parent = [-1] + [i - 1 if chain else rng.randrange(i) for i in range(1, n)]
    rates = [0.0] + [10 ** rng.uniform(0.0, 2.0) for _ in range(n - 1)]
    freqs = [rng.uniform(0.5, 8.0) for _ in range(n)]
    caps = [10 ** min(log_gamma + rng.uniform(0.0, 10.0), -2.0) for _ in range(n)]
    tx = [rng.uniform(0.5, 4.0) for _ in range(n)]
    return make_tree(parent, rates, freqs, caps, tx), rng


@settings(max_examples=80, deadline=None)
@given(*_SWEEP)
def test_static_matrix_equals_loop_reference_bitwise(seed, chain, log_gamma, w1, w2, b):
    if w1 == w2 == 0.0:
        w1 = 1.0
    tree, _ = _sweep_tree(seed, chain, log_gamma)
    weights = Weights(w1, w2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _static_matrix(tree, weights, b)
    assert got.tobytes() == _static_matrix_loop(tree, weights, b).tobytes()


@settings(max_examples=80, deadline=None)
@given(*_SWEEP)
def test_node_energy_equals_energy_only_static_matrix_bitwise(
    seed, chain, log_gamma, w1, w2, b
):
    # the reference is the energy-only static matrix: compute energy per
    # bit on its diagonal, the ancestors' relay energy off it
    if w1 == w2 == 0.0:
        w1 = 1.0
    tree, rng = _sweep_tree(seed, chain, log_gamma)
    y = np.array([[rng.random() * 1e9 for _ in range(len(tree))] for _ in range(3)])
    y[0] = 0.0
    y[1, rng.randrange(len(tree))] = 0.0
    energy = _static_matrix(tree, Weights(0.0, 1.0), b)
    e_comp_rate = np.diag(energy).copy()
    np.fill_diagonal(energy, 0.0)
    wait = _waiting(tree.shared_inv_rate, [canonical_schedule(tree).orders])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = _node_terms(tree, wait, y, Weights(w1, w2), b)
    e_comp, e_relay = terms[4:6]
    assert e_comp.tobytes() == (e_comp_rate * y).tobytes()
    assert e_relay.tobytes() == (energy @ y[..., None])[..., 0].tobytes()


def test_static_matrix_overflows_like_python_floats():
    # an overflowing weight gives the loop's inf entries, without a warning
    tree = rand_tree(random.Random(11), 7)
    weights = Weights(0.5, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _static_matrix(tree, weights, DEFAULT_B)
    assert not np.isfinite(got).all()
    assert got.tobytes() == _static_matrix_loop(tree, weights, DEFAULT_B).tobytes()


def test_cost_arrays_are_cached_and_read_only():
    tree = rand_tree(random.Random(12), 6)
    arrays = tree.cost_arrays
    assert tree.cost_arrays is arrays
    assert tree.relay_energy is tree.relay_energy
    for arr in (*arrays, tree.relay_energy):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_system_cost_names_an_overflowing_node_cost():
    tree = rand_tree(random.Random(13), 5)
    alloc = spread(tree, random.Random(14), total=1e12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflows float64"):
            system_cost(
                tree, canonical_schedule(tree), alloc, Weights(1e308, 1e308), DEFAULT_B
            )
