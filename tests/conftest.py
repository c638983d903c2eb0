"""Shared builders for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import PlainTree
from treeload import NetworkGraph, ServerParams, Weights, build_sink_tree, solvers
from treeload.topologies import DEFAULT_TASK_GBIT, DEFAULT_WEIGHTS, default_b
from treeload.tree import SinkTree
from treeload.units import gbit_to_bits, gbps_to_bps, ghz_to_hz

# parameter regime used across randomized tests: single-digit seconds and
# joules per Gbit at one cycle per bit, so neither objective term vanishes
B_COMP = 1.0
FREQ_GHZ = (0.5, 8.0)
RATE_GBPS = (0.5, 20.0)
CAP_RANGE = (5e-29, 5e-28)
TX_W = (0.5, 4.0)


def default_problem(topology: str) -> tuple[float, Weights, float]:
    """(task bits, weights, cycles per bit) of a named topology's instance
    that sets none of them: the default table of `topologies`."""
    return gbit_to_bits(DEFAULT_TASK_GBIT), DEFAULT_WEIGHTS, default_b(topology)


def make_net(
    parent,
    rates_gbps,
    freqs_ghz,
    caps=None,
    tx_w=None,
) -> NetworkGraph:
    """Network holding exactly the given tree edges (both directions)."""
    n = len(parent)
    caps = caps if caps is not None else [2e-28] * n
    tx_w = tx_w if tx_w is not None else [1.0] * n
    servers = tuple(
        ServerParams(
            cpu_freq=ghz_to_hz(freqs_ghz[i]),
            tx_power=tx_w[i],
            switched_cap=caps[i],
        )
        for i in range(n)
    )
    links = {}
    for i in range(1, n):
        r = gbps_to_bps(rates_gbps[i])
        links[(parent[i], i)] = r
        links[(i, parent[i])] = r
    return NetworkGraph(servers=servers, links=links)


def make_tree(parent, rates_gbps, freqs_ghz, caps=None, tx_w=None) -> SinkTree:
    return build_sink_tree(make_net(parent, rates_gbps, freqs_ghz, caps, tx_w))


def rand_tree(
    rng: random.Random, n: int, first_hop_gbps=RATE_GBPS, draw_cap=None
) -> SinkTree:
    """Random shape and parameters; ids may get relabeled by the builder.

    Links out of the master draw their rate from first_hop_gbps, and each
    node's switched capacitance comes from draw_cap() when it is given.
    """
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    rates = [0.0] + [
        rng.uniform(*(first_hop_gbps if parent[i] == 0 else RATE_GBPS))
        for i in range(1, n)
    ]
    freqs = [rng.uniform(*FREQ_GHZ) for _ in range(n)]
    caps = [draw_cap() if draw_cap else rng.uniform(*CAP_RANGE) for _ in range(n)]
    tx = [rng.uniform(*TX_W) for _ in range(n)]
    return make_tree(parent, rates, freqs, caps, tx)


def plain_of(tree: SinkTree) -> PlainTree:
    """Expose a tree's raw arrays to the reference implementations."""
    return PlainTree(
        parent=tree.parent,
        rate=tree.edge_rate,
        freq=tuple(s.cpu_freq for s in tree.servers),
        cap=tuple(s.switched_cap for s in tree.servers),
        tx=tuple(s.tx_power for s in tree.servers),
    )


def carried_split(a, forced_zero, support):
    """One split of the linear form a that starts from a carried (S, R),
    written out as the bitwise reference of the one-split-at-a-time loop
    that `cmo`, `pmo` and GA once ran: `_equalise` of the support on a's
    scaled form unless a column is free, and `_cascade` on a stack of one
    where that fails.  Returns (u, the certified support)."""
    cols, free, msc = solvers._scaled(a[None], forced_zero)
    got = np.full((1, len(cols)), np.nan)
    if support is not None and not free.any():
        got = solvers._equalise(msc, *support)
    if np.isnan(got[0, 0]):
        own_row = np.array(cols) - (a.shape[1] - a.shape[0])
        got, (support,) = solvers._cascade(msc, free, own_row)
    u = np.zeros(a.shape[1])
    u[cols] = got[0]
    return u, support


def split_with_support(a, forced_zero=frozenset()):
    """`solvers._minmax_unit`'s split of the one matrix a, and the (S, R)
    that `_cascade` certified it with (None for a free column)."""
    cascade, supports = solvers._cascade, []

    def recording(*args):
        u, got = cascade(*args)
        supports.extend(got)
        return u, got

    solvers._cascade = recording
    try:
        u = solvers._minmax_unit(a[None], forced_zero)[0]
    finally:
        solvers._cascade = cascade
    (support,) = supports
    return u, support


@pytest.fixture
def rng():
    return random.Random(20240817)
