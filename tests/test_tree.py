import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_net, make_tree, rand_tree
from treeload import (
    GenParams,
    ParameterError,
    ServerParams,
    NetworkGraph,
    UnreachableNodeError,
    build_sink_tree,
    generate_network,
    prune_tree,
)
import treeload.solvers as solvers
from treeload.tree import tree_fingerprint


def chain(n, rate=10.0, freq=2.0):
    parent = [-1] + list(range(n - 1))
    return make_tree(parent, [0.0] + [rate] * (n - 1), [freq] * n)


def test_builder_prefers_fast_multi_hop_route():
    # direct 0->2 at 1 Gbps vs 0->1->2 at 10 Gbps each: the relay wins
    servers = tuple(
        ServerParams(cpu_freq=2e9, tx_power=1.0, switched_cap=1e-28)
        for i in range(3)
    )
    links = {
        (0, 1): 10e9, (1, 0): 10e9,
        (1, 2): 10e9, (2, 1): 10e9,
        (0, 2): 1e9, (2, 0): 1e9,
    }
    tree = build_sink_tree(NetworkGraph(servers=servers, links=links))
    two = tree.to_original.index(2)
    assert tree.parent[two] == tree.to_original.index(1)


def test_builder_rejects_disconnected():
    servers = tuple(
        ServerParams(cpu_freq=2e9, tx_power=1.0, switched_cap=1e-28)
        for i in range(3)
    )
    net = NetworkGraph(servers=servers, links={(0, 1): 1e9, (1, 0): 1e9})
    with pytest.raises(UnreachableNodeError) as exc:
        build_sink_tree(net)
    assert exc.value.unreachable == (2,)


def test_level_order_invariant():
    for seed in range(20):
        tree = rand_tree(random.Random(seed), 8)
        depths = tree.depth_of
        assert all(depths[i] <= depths[i + 1] for i in range(len(tree) - 1))
        assert all(tree.parent[i] < i for i in range(1, len(tree)))


def test_subtrees_partition_workers():
    tree = rand_tree(random.Random(4), 9)
    seen = []
    for t in tree.subtree_roots:
        assert tree.parent[t] == 0
        seen += list(tree.subtrees[t])
    assert sorted(seen) == list(range(1, len(tree)))


def test_sink_tree_rejects_disorder():
    from treeload.tree import SinkTree

    srv = tuple(
        ServerParams(cpu_freq=1e9, tx_power=1.0, switched_cap=0.0)
        for i in range(3)
    )
    with pytest.raises(ParameterError):
        SinkTree(servers=srv, parent=(-1, 2, 0), edge_rate=(0, 1e9, 1e9),
                 to_original=(0, 1, 2))
    with pytest.raises(ParameterError):
        SinkTree(servers=srv, parent=(-1, 0, 0), edge_rate=(0, 1e9, 0.0),
                 to_original=(0, 1, 2))


def test_prune_keeps_relays_for_deep_survivors():
    tree = chain(4)
    pruned, relays = prune_tree(tree, {1, 2})
    # 1 and 2 still carry traffic to 3, so they stay as relays
    assert len(pruned) == 4
    assert relays == {1, 2}


def test_prune_refuses_master():
    tree = chain(3)
    with pytest.raises(ParameterError):
        prune_tree(tree, {0})


def test_prune_to_original_composes():
    net = generate_network(GenParams(node_count=8, edge_prob=0.5, rng_seed=9))
    tree = build_sink_tree(net)
    pruned, _ = prune_tree(tree, {len(tree) - 1})
    for i in range(len(pruned)):
        orig = pruned.to_original[i]
        assert net.servers[orig].cpu_freq == pruned.servers[i].cpu_freq


def test_fingerprint_tracks_content():
    a = chain(4)
    b = chain(4)
    assert tree_fingerprint(a) == tree_fingerprint(b)
    c = chain(4, rate=11.0)
    assert tree_fingerprint(a) != tree_fingerprint(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
def test_paths_lead_to_root_with_positive_rates(seed, n):
    tree = rand_tree(random.Random(seed), n)
    for i in range(1, len(tree)):
        path = tree.paths[i]
        assert path[0] == 0 and path[-1] == i
        assert tree.path_inv_rate[i] == pytest.approx(
            sum(1.0 / tree.edge_rate[v] for v in path[1:])
        )
    w = tree.shared_inv_rate
    assert (w == w.T).all()
    edges = [set(oracles.path_edges(tree.parent, i)) for i in range(len(tree))]
    root = [0] + [oracles.subtree_root(tree.parent, i) for i in range(1, len(tree))]
    for i in range(len(tree)):
        for j in range(len(tree)):
            want = sum(1.0 / tree.edge_rate[e] for e in edges[i] & edges[j])
            assert w[i, j] == pytest.approx(want, rel=1e-12)
            if 0 in (i, j) or root[i] != root[j]:
                assert w[i, j] == 0.0
    with pytest.raises(ValueError):
        w[0, 0] = 1.0


def test_enumeration_arrays_are_cached_and_read_only():
    # subtrees of 3, 2 and 1 nodes: 12 schedules
    tree = make_tree([-1, 0, 0, 0, 1, 1, 2], [0.0] + [10.0] * 6, [2.0] * 7)
    assert tree.probe_classes is tree.probe_classes
    assert sorted(tree.probe_classes) == [1, 2, 3]
    groups = tuple(tree.subtrees[t] for t in tree.subtree_roots)
    ranks = solvers._order_ranks(groups, 7, 0, 12)
    assert solvers._order_ranks(groups, 7, 0, 12) is ranks
    assert ranks.shape == (12, 7)
    assert ranks.dtype == np.int8
    arrays = [ranks]
    for k, (roots, gather, shared) in tree.probe_classes.items():
        assert gather.shape == (len(roots), k, k + 1)
        assert shared.shape == (len(roots), k, k + 1)
        # a probe's rows are its subtree's nodes, its columns the master's
        # then theirs
        for p, t in enumerate(roots):
            cols = (0, *tree.subtrees[t])
            assert gather[p].tolist() == [[7 * i + j for j in cols] for i in cols[1:]]
        arrays += [gather, shared]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    # one 7-node subtree has 5,040 orders; its slices are cached all the same
    chain = make_tree(list(range(-1, 7)), [0.0] + [10.0] * 7, [2.0] * 8)
    ((roots, gather, shared),) = chain.probe_classes.values()
    assert roots == (1,)
    assert shared.tolist() == [chain.shared_inv_rate[1:].tolist()]
