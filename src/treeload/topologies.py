"""Four named small topologies used by the experiment scripts and tests.

Hand-built analogues of the usual benchmark shapes: a deep relay chain,
a wide shallow fan, a mixed branching tree, and an asymmetric pair of
subtrees.  Parameters are fixed, not sampled, and describe a
heterogeneous fleet in a regime where computation time, transmission
time, and both energy terms all land within a factor of ten of each
other, so the optimal split is a genuine trade-off.

Two hardware classes appear throughout.  Efficient nodes carry an
effective switched capacitance of 2e-28, putting the energy for a
gigabit-sized task in the single-joule range.  Legacy nodes carry
1e-18: ten orders of magnitude worse per cycle, so the optimizer
routes around them and they serve only as relays or dead weight.  That
mirrors real edge fleets, where a few outdated boxes are not worth
powering up, and it is what the pruning heuristics are for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import Weights
from .errors import ParameterError
from .network import NetworkGraph, ServerParams
from .tree import SinkTree, build_sink_tree
from .units import DEFAULT_B, gbps_to_bps, ghz_to_hz

# one cycle per bit keeps compute and transmission times comparable
_B_COMP = 1.0
_GAMMA_GOOD = 2e-28
_GAMMA_LEGACY = 1e-18
_TX_POWER_W = 4.0

# the problem an instance poses where its scenario or command line leaves
# a setting out: DEFAULT_TASK_GBIT under DEFAULT_WEIGHTS, at default_b
# cycles per bit
DEFAULT_TASK_GBIT = 1.0
DEFAULT_WEIGHTS = Weights(0.5, 0.05)


@dataclass(frozen=True)
class NamedTopology:
    """A named topology's network and its sink tree; its name is its key in
    TOPOLOGIES, and its builder's docstring says what it is."""

    network: NetworkGraph
    tree: SinkTree


def _assemble(
    nodes: tuple[tuple[float, float], ...],
    edges_gbps: dict[tuple[int, int], float],
    tx_power_w: dict[int, float] | None = None,
) -> NamedTopology:
    # nodes: (cpu_freq_ghz, switched_cap) per server
    power = tx_power_w or {}
    servers = tuple(
        ServerParams(ghz_to_hz(f), power.get(i, _TX_POWER_W), gamma)
        for i, (f, gamma) in enumerate(nodes)
    )
    links = {}
    for (i, j), r in edges_gbps.items():
        links[(i, j)] = gbps_to_bps(r)
        links[(j, i)] = gbps_to_bps(r)
    net = NetworkGraph(servers, links)
    return NamedTopology(network=net, tree=build_sink_tree(net))


def deep_chain() -> NamedTopology:
    """Six servers in a line; two capable hops, then legacy stragglers."""
    return _assemble(
        nodes=(
            (4.0, _GAMMA_GOOD),
            (8.0, _GAMMA_GOOD),
            (5.0, _GAMMA_GOOD),
            (1.0, _GAMMA_LEGACY),
            (0.8, _GAMMA_LEGACY),
            (0.5, _GAMMA_LEGACY),
        ),
        edges_gbps={
            (0, 1): 12.0,
            (1, 2): 10.0,
            (2, 3): 2.0,
            (3, 4): 1.5,
            (4, 5): 1.0,
        },
    )


def wide_shallow() -> NamedTopology:
    """Three one-hop subtrees of sizes 3, 2, 1; height 2."""
    return _assemble(
        nodes=(
            (3.0, _GAMMA_GOOD),
            (5.0, _GAMMA_GOOD),
            (2.0, _GAMMA_GOOD),
            (4.0, _GAMMA_GOOD),
            (1.0, _GAMMA_LEGACY),
            (0.8, _GAMMA_LEGACY),
            (9.0, _GAMMA_GOOD),
        ),
        edges_gbps={
            (0, 1): 15.0,
            (0, 2): 10.0,
            (0, 3): 8.0,
            (1, 4): 2.0,
            (1, 5): 2.0,
            (2, 6): 30.0,
        },
    )


def mixed() -> NamedTopology:
    """Eight servers: a branching subtree of five next to a short chain."""
    return _assemble(
        nodes=(
            (3.0, _GAMMA_GOOD),
            (6.0, _GAMMA_GOOD),
            (4.0, _GAMMA_GOOD),
            (7.0, _GAMMA_GOOD),
            (1.0, _GAMMA_LEGACY),
            (0.8, _GAMMA_LEGACY),
            (0.6, _GAMMA_LEGACY),
            (0.5, _GAMMA_LEGACY),
        ),
        edges_gbps={
            (0, 1): 14.0,
            (0, 2): 10.0,
            (1, 3): 12.0,
            (1, 4): 3.0,
            (2, 5): 2.0,
            (3, 6): 1.5,
            (3, 7): 1.5,
        },
    )


def two_subtree() -> NamedTopology:
    """Asymmetric pair of subtrees; the sweep studies target node 1 here.

    Node 1 is a power-hungry relay (10 W transmitter), which is what
    makes the link-rate and cpu-frequency thresholds interesting.
    """
    return _assemble(
        nodes=(
            (3.0, _GAMMA_GOOD),
            (4.0, _GAMMA_GOOD),
            (5.0, _GAMMA_GOOD),
            (8.0, _GAMMA_GOOD),
            (6.0, _GAMMA_GOOD),
            (1.0, _GAMMA_LEGACY),
            (0.8, _GAMMA_LEGACY),
            (0.6, _GAMMA_LEGACY),
        ),
        edges_gbps={
            (0, 1): 10.0,
            (0, 2): 12.0,
            (1, 3): 2.5,
            (2, 4): 9.0,
            (3, 5): 2.0,
            (3, 6): 2.0,
            (4, 7): 1.5,
        },
        tx_power_w={1: 10.0},
    )


TOPOLOGIES = {
    "deep_chain": deep_chain,
    "wide_shallow": wide_shallow,
    "mixed": mixed,
    "two_subtree": two_subtree,
}


def default_b(topology: str | None) -> float:
    """Cycles per bit of an instance that sets none: the named topologies'
    for a topology's name, and DEFAULT_B on any other network (None)."""
    return DEFAULT_B if topology is None else _B_COMP


def named_topology(name: str) -> NamedTopology:
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown topology {name!r}; choices: {sorted(TOPOLOGIES)}"
        ) from None
    return builder()
