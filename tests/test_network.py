import json
import random
from dataclasses import replace

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
from treeload.network import network_from_doc, network_to_doc
from treeload.units import dbm_to_watts, watts_to_dbm


def test_server_params_validation():
    with pytest.raises(ParameterError):
        ServerParams(id=-1, cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
    with pytest.raises(ParameterError):
        ServerParams(id=0, cpu_freq=0.0, tx_power=1.0, switched_cap=1e-28)
    with pytest.raises(ParameterError):
        ServerParams(id=0, cpu_freq=1e9, tx_power=-0.1, switched_cap=1e-28)


def test_graph_rejects_bad_links():
    servers = tuple(
        ServerParams(id=i, cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
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


@given(st.floats(min_value=-30.0, max_value=50.0))
def test_dbm_watts_roundtrip(dbm):
    assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_unreachable_report_names_the_cut_nodes(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    servers = tuple(
        ServerParams(id=i, cpu_freq=1e9, tx_power=1.0, switched_cap=1e-28)
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
