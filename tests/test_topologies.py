import inspect

import pytest

from treeload import (
    TOPOLOGIES,
    ParameterError,
    costs,
    heuristics,
    named_topology,
    solvers,
)
from treeload.costs import canonical_schedule, validate_schedule
from treeload.topologies import default_b
from treeload.verification import check_tree


def test_registry_has_the_four_shapes():
    assert set(TOPOLOGIES) == {"deep_chain", "wide_shallow", "mixed", "two_subtree"}


def test_unknown_name_lists_choices():
    with pytest.raises(ParameterError) as exc:
        named_topology("ring")
    assert "deep_chain" in str(exc.value)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_topologies_are_well_formed(name):
    topo = named_topology(name)
    assert default_b(name) > 0
    assert all(r.ok for r in check_tree(topo.tree, topo.network))
    validate_schedule(topo.tree, canonical_schedule(topo.tree))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_topologies_mix_hardware_classes(name):
    # every shipped tree carries both efficient and legacy silicon
    topo = named_topology(name)
    caps = {s.switched_cap for s in topo.tree.servers}
    assert len(caps) == 2


def test_shapes_match_their_names():
    deep = named_topology("deep_chain").tree
    assert deep.height == len(deep) - 1
    wide = named_topology("wide_shallow").tree
    assert wide.height <= 2
    two = named_topology("two_subtree").tree
    assert len(two.subtree_roots) == 2


@pytest.mark.parametrize(
    "module", [costs, solvers, heuristics], ids=lambda m: m.__name__
)
def test_only_the_default_table_fills_in_b(module):
    # default_b is the one default for the cycles per bit: a library
    # default of its own would contradict it on a named topology
    params = {
        name: inspect.signature(f).parameters
        for name, f in inspect.getmembers(module, inspect.isfunction)
        if f.__module__ == module.__name__ and not name.startswith("_")
    }
    takes_b = {name: p["b"] for name, p in params.items() if "b" in p}
    assert takes_b
    assert [name for name, b in takes_b.items() if b.default is not b.empty] == []
