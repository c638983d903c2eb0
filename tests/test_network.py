import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeload import (
    GenParams,
    GenerationError,
    NetworkGraph,
    ParameterError,
    ServerParams,
    UnreachableNodeError,
    build_sink_tree,
    generate_network,
    load_network,
    save_network,
)
from treeload import network
from treeload.network import network_from_doc, network_to_doc
from treeload.units import dbm_to_watts, watts_to_dbm


def test_server_params_validation():
    with pytest.raises(ParameterError):
        ServerParams(cpu_freq=0.0, tx_power=1.0, switched_cap=1e-28)
    with pytest.raises(ParameterError):
        ServerParams(cpu_freq=1e9, tx_power=-0.1, switched_cap=1e-28)


def test_graph_rejects_bad_links():
    servers = tuple(
        ServerParams(cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
        for i in range(2)
    )
    with pytest.raises(ParameterError):
        NetworkGraph(servers=servers, links={(0, 0): 1e9})
    with pytest.raises(ParameterError):
        NetworkGraph(servers=servers, links={(0, 5): 1e9})
    with pytest.raises(ParameterError):
        NetworkGraph(servers=servers, links={(0, 1): 0.0})


def test_gen_params_validation():
    with pytest.raises(ParameterError):
        GenParams(node_count=0, edge_prob=0.5, rng_seed=0)
    with pytest.raises(ParameterError):
        GenParams(node_count=3, edge_prob=1.5, rng_seed=0)
    with pytest.raises(ParameterError):
        GenParams(node_count=3, edge_prob=0.5, rng_seed=0, freq_range_ghz=(5.0, 1.0))
    with pytest.raises(ParameterError):
        GenParams(node_count=3, edge_prob=0.5, rng_seed=0, gamma=-1.0)


def test_generation_is_deterministic():
    p = GenParams(node_count=9, edge_prob=0.4, rng_seed=42)
    a, b = generate_network(p), generate_network(p)
    assert network_to_doc(a) == network_to_doc(b)
    c = generate_network(GenParams(node_count=9, edge_prob=0.4, rng_seed=43))
    assert network_to_doc(a) != network_to_doc(c)


def test_generation_connects_master_to_all():
    for seed in range(10):
        net = generate_network(GenParams(node_count=7, edge_prob=0.3, rng_seed=seed))
        assert net.master_reaches_all()


def test_generation_links_are_symmetric():
    net = generate_network(GenParams(node_count=8, edge_prob=0.4, rng_seed=3))
    for (i, j), r in net.links.items():
        assert net.links[(j, i)] == r


def test_generation_gives_up_when_impossible():
    with pytest.raises(GenerationError, match="within 100 draws"):
        generate_network(GenParams(node_count=6, edge_prob=0.0, rng_seed=0))


def test_tx_power_comes_from_dbm():
    net = generate_network(GenParams(node_count=3, edge_prob=1.0, rng_seed=0))
    assert all(s.tx_power == pytest.approx(1.0) for s in net.servers)


def test_doc_roundtrip(tmp_path):
    net = generate_network(GenParams(node_count=6, edge_prob=0.5, rng_seed=1))
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert network_to_doc(back) == network_to_doc(net)
    # the file is plain JSON with unit-suffixed field names
    doc = json.loads(path.read_text())
    assert "cpu_freq_ghz" in doc["servers"][0]


def test_doc_roundtrip_keeps_a_silent_radio(tmp_path):
    # a zero-power server is written as -Infinity dBm and read back as 0 W
    net = generate_network(GenParams(node_count=3, edge_prob=1.0, rng_seed=0))
    servers = (net.servers[0], replace(net.servers[1], tx_power=0.0), net.servers[2])
    net = NetworkGraph(servers, net.links)
    path = tmp_path / "net.json"
    save_network(net, path)
    assert '"tx_power_dbm": -Infinity' in path.read_text()
    back = load_network(path)
    assert back.servers[1].tx_power == 0.0
    assert network_to_doc(back) == network_to_doc(net)


def test_doc_rejects_unit_mismatch():
    net = generate_network(GenParams(node_count=3, edge_prob=1.0, rng_seed=0))
    doc = network_to_doc(net)
    doc["units"]["rate"] = "mbps"
    with pytest.raises(ParameterError):
        network_from_doc(doc)


@pytest.mark.parametrize(
    "ids, message",
    [
        ([0, 2, 3], "server ids must be 0..N, got [0, 2, 3]"),
        ([0, 0, 1], "server ids must be 0..N, got [0, 0, 1]"),
        ([1, 2, 3], "server ids must be 0..N, got [1, 2, 3]"),
        ([0, -1, 1], "server id must be an integer in [0, inf], got -1"),
    ],
    ids=["gap", "repeat", "no-master", "negative"],
)
def test_doc_refuses_ids_that_are_not_positions(ids, message):
    # a server's id is its position: a file lists 0..N-1, in any order
    doc = network_to_doc(generate_network(GenParams(3, 1.0, 0)))
    shuffled = {**doc, "servers": doc["servers"][::-1]}
    assert network_to_doc(network_from_doc(shuffled)) == doc
    for server, i in zip(doc["servers"], ids):
        server["id"] = i
    with pytest.raises(ParameterError) as exc:
        network_from_doc(doc)
    assert str(exc.value) == message


def test_doc_checks_each_number_in_file_units_then_in_si(monkeypatch):
    # one check per number and server id of the file, then one per SI
    # number and per link end in the constructors
    net = generate_network(GenParams(node_count=12, edge_prob=0.4, rng_seed=5))
    doc = network_to_doc(net)
    calls = []
    check = network.checked
    monkeypatch.setattr(
        network, "checked",
        lambda name, *a, **k: calls.append(name) or check(name, *a, **k),
    )
    back = network_from_doc(doc)
    assert network_to_doc(back) == doc
    assert sorted(set(calls)) == [
        "cpu_freq", "cpu_freq_ghz", "end", "gamma", "rate", "rate_gbps",
        "server id", "switched_cap", "tx_power", "tx_power_dbm",
    ]
    assert len(calls) == 7 * len(net) + 4 * len(net.links)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cpu_freq_ghz", 1e300, "cpu_freq_ghz must be a number in (0, 1.79"),
        ("tx_power_dbm", 4000.0, "tx_power_dbm must be a number in (-inf, 3112]"),
        ("rate_gbps", 1e300, "rate_gbps must be a number in (0, 1.79"),
    ],
)
def test_doc_refuses_a_number_whose_si_value_overflows(field, value, message):
    doc = network_to_doc(generate_network(GenParams(3, 1.0, 0)))
    entry = doc["links"][0] if field == "rate_gbps" else doc["servers"][1]
    entry[field] = value
    with pytest.raises(ParameterError, match=re.escape(message)):
        network_from_doc(doc)


def test_graph_checks_link_ends_by_type():
    servers = tuple(
        ServerParams(cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
        for i in range(3)
    )
    # 1.0 and numpy's 2 become plain ints
    net = NetworkGraph(servers, {(0, 1.0): 1e9, (np.int64(2), 0): 2e9})
    assert [type(k) for link in net.links for k in link] == [int] * 4
    assert net.links == {(0, 1): 1e9, (2, 0): 2e9}
    # True == 1, and 1 is an end already, but True is still refused
    with pytest.raises(ParameterError, match=r"link \(2, True\) end must be"):
        NetworkGraph(servers, {(0, 1): 1e9, (2, True): 1e9})
    # a bad end after valid plain links is reported against its own link
    with pytest.raises(ParameterError, match=r"link \(2, 3\) end must be .* got 3$"):
        NetworkGraph(servers, {(0, 1): 1e9, (1, 2): 1e9, (2, 3): 1e9})
    # of an out-of-range end and a boolean one, the first in link order
    with pytest.raises(ParameterError, match=r"link \(1, 5\) end must be .* got 5$"):
        NetworkGraph(servers, {(0, 1): 1e9, (1, 5): 1e9, (2, True): 1e9})
    with pytest.raises(ParameterError, match=r"link \(True, 2\) end .* got True$"):
        NetworkGraph(servers, {(0, 1): 1e9, (True, 2): 1e9, (1, 5): 1e9})
    assert NetworkGraph(servers[:1], {}).links == {}


@given(st.floats(min_value=-30.0, max_value=50.0))
def test_dbm_watts_roundtrip(dbm):
    assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_unreachable_report_names_the_cut_nodes(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    servers = tuple(
        ServerParams(cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
        for i in range(n)
    )
    # connect everything except one island node
    island = rng.randrange(1, n)
    links = {}
    for i in range(1, n):
        if i == island:
            continue
        links[(0, i)] = links[(i, 0)] = 1e9
    net = NetworkGraph(servers=servers, links=links)
    assert not net.master_reaches_all()
    with pytest.raises(UnreachableNodeError) as exc:
        build_sink_tree(net)
    assert exc.value.unreachable == (island,)


def _master_reaches_all_scan(net):
    """The per-node scan of every link `master_reaches_all` replaced, kept
    as its reference."""
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, v in net.links:
            if a == u and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(net)


@pytest.mark.parametrize("seed", range(200))
def test_master_reaches_all_equals_a_plain_scan(seed):
    # seeded link sets with one-way links and isolated nodes, sparse to dense
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    servers = (ServerParams(cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28),) * n
    isolated = set(rng.sample(range(1, n), rng.randint(0, (n - 1) // 3)))
    p_link, p_back = rng.uniform(0.05, 0.6), rng.random()
    links = {}
    for i in range(n):
        for j in range(n):
            if i != j and not {i, j} & isolated and rng.random() < p_link:
                links[i, j] = 1e9
                if rng.random() < p_back:
                    links[j, i] = 1e9
    net = NetworkGraph(servers=servers, links=links)
    assert net.master_reaches_all() == _master_reaches_all_scan(net)
