"""Sink tree: cheapest delivery paths from the master, relabeled by level.

Path cost of an edge is 1/rate, so a shortest path minimizes per-bit
forwarding time.  Ties are broken toward fewer hops, then the smaller
predecessor id, which makes the tree deterministic for any input graph.

Node ids in a SinkTree are the relabeled ones: 0 is the master, then level
by level, left to right inside each level.  `to_original` maps back to the
ids of the source NetworkGraph.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, UnreachableNodeError
from .network import MASTER_ID, NetworkGraph, ServerParams


@dataclass(frozen=True)
class SinkTree:
    """Immutable rooted delivery tree.

    servers: per-node parameters, indexed by tree id.
    parent: parent tree id per node, -1 for the root.
    edge_rate: rate of the link parent(i) -> i in bits/s, 0.0 for the root.
    to_original: tree id -> id in the source graph.
    """

    servers: tuple[ServerParams, ...]
    parent: tuple[int, ...]
    edge_rate: tuple[float, ...]
    to_original: tuple[int, ...]

    def __post_init__(self):
        n = len(self.parent)
        if not (len(self.servers) == len(self.edge_rate) == len(self.to_original) == n):
            raise ParameterError("tree field lengths disagree")
        if n == 0:
            raise ParameterError("tree needs at least the master")
        if self.parent[0] != -1:
            raise ParameterError("node 0 must be the root")
        for i in range(1, n):
            # level-order labels make every parent id smaller than the child's
            if not 0 <= self.parent[i] < i:
                raise ParameterError(f"node {i}: parent {self.parent[i]} out of order")
            if not self.edge_rate[i] > 0.0:
                raise ParameterError(f"node {i}: edge rate must be > 0")
        if sorted(set(self.to_original)) != sorted(self.to_original):
            raise ParameterError("to_original must be a bijection")

    def __len__(self) -> int:
        return len(self.parent)

    # --- derived structure, cached on first use ---

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(len(self))]
        for i in range(1, len(self)):
            kids[self.parent[i]].append(i)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def depth_of(self) -> tuple[int, ...]:
        d = [0] * len(self)
        for i in range(1, len(self)):
            d[i] = d[self.parent[i]] + 1
        return tuple(d)

    @property
    def height(self) -> int:
        return max(self.depth_of)

    @cached_property
    def subtree_roots(self) -> tuple[int, ...]:
        return self.children[0]

    @cached_property
    def subtrees(self) -> dict[int, tuple[int, ...]]:
        """Subtree root (level-1 node) -> all nodes of that subtree, ascending."""
        owner = [-1] * len(self)
        for t in self.subtree_roots:
            owner[t] = t
        for i in range(1, len(self)):
            if owner[i] == -1:
                owner[i] = owner[self.parent[i]]
        out: dict[int, list[int]] = {t: [] for t in self.subtree_roots}
        for i in range(1, len(self)):
            out[owner[i]].append(i)
        return {t: tuple(nodes) for t, nodes in out.items()}

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """Root-to-node id sequences, including both endpoints."""
        out: list[tuple[int, ...]] = [(0,)]
        for i in range(1, len(self)):
            out.append(out[self.parent[i]] + (i,))
        return tuple(out)

    @cached_property
    def path_inv_rate(self) -> tuple[float, ...]:
        """Sum of 1/rate along the path from the root to each node."""
        acc = [0.0] * len(self)
        for i in range(1, len(self)):
            acc[i] = acc[self.parent[i]] + 1.0 / self.edge_rate[i]
        return tuple(acc)

    @cached_property
    def shared_inv_rate(self) -> np.ndarray:
        """Read-only n×n: 1/rate summed over the edges paths i and j share.

        0 across subtrees and on the master's row and column.
        """
        n = len(self)
        w = np.zeros((n, n))
        for i in range(1, n):
            # a smaller id meets i where it meets i's parent
            w[i, :i] = w[:i, i] = w[self.parent[i], :i]
            w[i, i] = self.path_inv_rate[i]
        w.flags.writeable = False
        return w

    @cached_property
    def probe_classes(
        self,
    ) -> dict[int, tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
        """Subtrees by node count, for `solvers.pmo`: k -> (roots, gather,
        shared).  Probe p has subtree roots[p]'s nodes as rows and the
        master then those nodes as columns: the read-only gather, (P, k,
        k + 1), holds the flat indices of those entries in an n×n matrix,
        and shared is the sharing matrix taken at them."""
        roots: dict[int, list[int]] = {}
        for t, nodes in self.subtrees.items():
            roots.setdefault(len(nodes), []).append(t)
        out = {}
        for k, ts in roots.items():
            cols = np.array([(0, *self.subtrees[t]) for t in ts])
            gather = cols[:, 1:, None] * len(self) + cols[:, None, :]
            shared = self.shared_inv_rate.take(gather)
            gather.flags.writeable = shared.flags.writeable = False
            out[k] = (tuple(ts), gather, shared)
        return out

    @cached_property
    def cost_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only cost-model arrays.  Per node: path_inv_rate, cpu_freq,
        cpu_freq**2 (by Python's float power), switched_cap, tx_power and
        edge_rate.  Per relay hop (an ancestor a of a node i): the sender a,
        the destination i and a's next hop toward i."""
        s = self.servers
        node = np.array([self.path_inv_rate, [v.cpu_freq for v in s],
                         [v.cpu_freq**2 for v in s], [v.switched_cap for v in s],
                         [v.tx_power for v in s], self.edge_rate])
        hops = [(anc, i, nxt) for i, path in enumerate(self.paths)
                for anc, nxt in zip(path, path[1:])]
        relay = np.array(hops, dtype=np.intp).reshape(-1, 3).T.copy()
        node.flags.writeable = relay.flags.writeable = False
        return (*node, *relay)

    @cached_property
    def relay_energy(self) -> np.ndarray:
        """Read-only n×n joules per bit of relay: [a, i] is tx_power[a] /
        edge_rate[h] for each ancestor a of node i, h being a's next hop
        toward i, else 0.  Neither the weights nor b enter."""
        *_, tx, rate, sender, dest, nxt = self.cost_arrays
        e = np.zeros((len(self), len(self)))
        with np.errstate(over="ignore"):  # inf, as in costs._static_matrix
            e[sender, dest] = tx[sender] / rate[nxt]
        e.flags.writeable = False
        return e


def build_sink_tree(net: NetworkGraph) -> SinkTree:
    """Dijkstra over 1/rate from the master, then level-order relabeling."""
    n = len(net)
    out_edges: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for (i, j), rate in net.links.items():
        out_edges[i].append((j, rate))

    INF = float("inf")
    # label per node: (path cost, hop count, predecessor original id)
    best: list[tuple[float, int, int]] = [(INF, 0, -1)] * n
    best[MASTER_ID] = (0.0, 0, -1)
    heap: list[tuple[float, int, int, int]] = [(0.0, 0, -1, MASTER_ID)]
    done = [False] * n
    while heap:
        cost, hops, pred, u = heapq.heappop(heap)
        if done[u] or (cost, hops, pred) != best[u]:
            continue
        done[u] = True
        for v, rate in out_edges[u]:
            cand = (cost + 1.0 / rate, hops + 1, u)
            if cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (*cand, v))

    unreachable = [i for i in range(n) if not done[i]]
    if unreachable:
        raise UnreachableNodeError(unreachable)

    parent_orig = [lbl[2] for lbl in best]

    # relabel: BFS level by level, children ordered by original id
    kids_orig: dict[int, list[int]] = {i: [] for i in range(n)}
    for v in range(n):
        if v != MASTER_ID:
            kids_orig[parent_orig[v]].append(v)
    order = [MASTER_ID]
    for u in order:
        order.extend(kids_orig[u])

    tree_id = {orig: t for t, orig in enumerate(order)}
    parent = tuple(
        -1 if orig == MASTER_ID else tree_id[parent_orig[orig]] for orig in order
    )
    edge_rate = tuple(
        0.0 if orig == MASTER_ID else net.links[parent_orig[orig], orig]
        for orig in order
    )
    servers = tuple(net.servers[orig] for orig in order)
    return SinkTree(
        servers=servers,
        parent=parent,
        edge_rate=edge_rate,
        to_original=tuple(order),
    )


def prune_tree(tree: SinkTree, remove) -> tuple[SinkTree, frozenset[int]]:
    """Drop nodes from a tree; return the rebuilt tree and its relay-only set.

    `remove` holds tree ids (never the root).  A removed node whose subtree
    still contains a kept node survives as a relay with a forced-zero
    workload.  Returned relay ids refer to the new labeling.
    """
    remove = set(remove)
    if MASTER_ID in remove:
        raise ParameterError("cannot remove the master")
    for i in remove:
        if not 0 <= i < len(tree):
            raise ParameterError(f"cannot remove unknown node {i}")

    kept_workers = [i for i in range(len(tree)) if i not in remove]
    keep = set(kept_workers)
    for i in kept_workers:
        # ancestors of a kept node stay as relays
        j = i
        while j != MASTER_ID:
            j = tree.parent[j]
            keep.add(j)
    relays_old = keep - set(kept_workers)

    order = [i for i in range(len(tree)) if i in keep]  # old ids, still level-sorted
    new_id = {old: new for new, old in enumerate(order)}
    sub = SinkTree(
        servers=tuple(tree.servers[i] for i in order),
        parent=tuple(
            -1 if i == MASTER_ID else new_id[tree.parent[i]] for i in order
        ),
        edge_rate=tuple(tree.edge_rate[i] for i in order),
        to_original=tuple(tree.to_original[i] for i in order),
    )
    return sub, frozenset(new_id[i] for i in relays_old)


def tree_fingerprint(tree: SinkTree) -> str:
    """Stable content hash used to key cached baseline solutions."""
    doc = {
        "parent": list(tree.parent),
        "edge_rate": [repr(r) for r in tree.edge_rate],
        "to_original": list(tree.to_original),
        "servers": [
            [orig, repr(s.cpu_freq), repr(s.tx_power), repr(s.switched_cap)]
            for orig, s in zip(tree.to_original, tree.servers)
        ],
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
