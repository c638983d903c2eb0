"""Approximate solvers and comparison baselines.

Two pruning passes shrink the tree before an exact solve: node pruning
drops servers whose solo offloading benefit is below a threshold, level
pruning cuts everything deeper than a fixed depth.  Every solo split of a
tree (the master and one node i) comes from one stack (`_solo_splits`: a
saddle-point test, then one stacked equaliser solve), bit for bit as one
split at a time, priced by the audit's own cost terms.  A small genetic
algorithm searches the schedule space directly when enumeration is too
expensive.  The four baselines at the bottom are the usual strawmen:
local-only, one-neighbor split (the master's children as one stack of
solo splits), master-worker, and single-node full offload (every node
priced in one call of the cost terms).  Each baseline, like GA, audits
only its answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .costs import (
    Schedule,
    Weights,
    _energy_rates,
    _node_terms,
    _static_matrix,
    _waiting,
    canonical_schedule,
    cost_coefficients,
)
from .errors import ParameterError, checked
from .solvers import (
    Solution,
    _equalise,
    _minmax_unit,
    _saddle,
    _scaled,
    _solution,
    check_task_size,
)
from .tree import MASTER_ID, SinkTree, prune_tree
from .units import DEFAULT_B


@dataclass(frozen=True)
class NpParams:
    """Node pruning: keep a server only if its solo benefit beats theta_p."""

    theta_p: float

    def __post_init__(self):
        theta_p = checked("theta_p", self.theta_p, float, 0, 1)
        object.__setattr__(self, "theta_p", theta_p)


@dataclass(frozen=True)
class LpParams:
    """Level pruning: retain the root plus the top xi tree levels."""

    xi: int

    def __post_init__(self):
        object.__setattr__(self, "xi", checked("xi", self.xi, int))


# GA's elite share of each generation and mutation rate of each child
ELITE_FRAC = 0.2
MUTATION_PROB = 0.05


@dataclass(frozen=True)
class GaParams:
    """GA budget and seed; ELITE_FRAC and MUTATION_PROB are constants."""

    population: int = 4
    generations: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        for name, lo in ("population", 2), ("generations", 1), ("rng_seed", -math.inf):
            object.__setattr__(self, name, checked(name, getattr(self, name), int, lo))


def local_cost(
    tree: SinkTree, task_size: float, weights: Weights, *, b: float = DEFAULT_B
) -> float:
    """Cost of keeping the whole task on the master."""
    return baseline_local(tree, task_size, weights, b=b).cost


def _solo_splits(
    tree: SinkTree, nodes, task_size: float, weights: Weights, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Best split over the master and node i alone, for every i in `nodes`.

    Each split is `solvers._minmax_unit` under the canonical schedule with
    every node but the master and i forced to zero (those still relay and
    pay relay energy on the path to i), bit for bit, but all of them come
    from one (B, n, 2) stack of the linear form's column pairs [0, i]:
    one `_scaled`, the pure-strategy test (`_saddle`), and one stacked
    `_equalise` of the every-node-works guess S = [0, 1], R = [0, i].  A
    split that none of those certifies goes through `_minmax_unit` alone.
    Each cost is the audit's own j_system (`costs._node_terms` on the
    stacked splits).  Returns (cost, y): a (B,) array of costs and the
    (B, n) splits in bits.
    """
    wait = _waiting(tree, canonical_schedule(tree))
    a = _static_matrix(tree, weights, b) + weights.w1 * wait
    pair = np.zeros((len(nodes), 2), dtype=int)
    pair[:, 1] = nodes
    _, free, msc = _scaled(a[:, pair].transpose(1, 0, 2).copy(), frozenset())
    u = np.zeros((len(pair), len(tree)))
    loose = free.any(axis=1)
    c, _, pure = _saddle(msc)
    # a column nobody pays for takes everything at zero cost, and so does
    # a pure saddle point's column at the least cost
    certified = loose | pure
    one = np.where(loose, free.argmax(axis=1), c)[certified]
    u[certified, pair[certified, one]] = 1.0
    at = np.flatnonzero(~certified)
    got = _equalise(msc[at], np.tile((0, 1), (at.size, 1)), pair[at])
    if got is not None:
        u[at[:, None], pair[at]] = got
        certified[at] = ~np.isnan(got[:, 0])
    for j in np.flatnonzero(~certified):
        forced = frozenset(range(len(tree))) - {MASTER_ID, int(pair[j, 1])}
        u[j] = _minmax_unit(a, forced)[0]
    y = u * task_size
    j_node = _node_terms(tree, _energy_rates(tree, b), wait, y, weights, b)[-1]
    return j_node.max(axis=1), y


def partial_offload_cost(
    tree: SinkTree,
    i: int,
    task_size: float,
    weights: Weights,
    *,
    b: float = DEFAULT_B,
) -> float:
    """Best achievable cost when only the master and node i may compute.

    A stack of one solo split (`_solo_splits`).  i must be an integer id
    (not a bool) of a node other than the master.
    """
    check_task_size(task_size)
    i = checked("node id", i, int, MASTER_ID + 1, len(tree) - 1)
    return float(_solo_splits(tree, [i], task_size, weights, b)[0][0])


def node_prune(
    tree: SinkTree,
    params: NpParams,
    task_size: float,
    weights: Weights,
    *,
    b: float = DEFAULT_B,
) -> tuple[SinkTree, frozenset[int]]:
    """Drop servers whose solo offloading gain is at most theta_p.

    A node is selected when (z0 - zp_i)/z0 > theta_p, z0 being the
    all-local cost and zp_i the best master+node-i split.  Unselected
    nodes are removed outright, except those still needed to reach a
    selected descendant: they stay as zero-load relays.  Every zp_i comes
    from one stack of solo splits (`_solo_splits`), with the bits of
    `partial_offload_cost`; with z0 = 0 (a zero task) no node is selected.

    Returns the pruned tree (new ids) and the relay-only id set in it.
    """
    z0 = local_cost(tree, task_size, weights, b=b)
    unselected = set(range(1, len(tree)))
    if z0 > 0.0:
        zp, _ = _solo_splits(tree, range(1, len(tree)), task_size, weights, b)
        unselected = {
            i
            for i, z in enumerate(zp.tolist(), 1)
            if (z0 - z) / z0 <= params.theta_p
        }
    return prune_tree(tree, unselected)


def level_prune(tree: SinkTree, params: LpParams) -> SinkTree:
    """Keep the root plus levels 1..xi, cut everything deeper."""
    if params.xi > tree.height:
        raise ParameterError(
            f"xi={params.xi} exceeds tree height {tree.height}"
        )
    too_deep = {i for i in range(len(tree)) if tree.depth_of[i] > params.xi}
    pruned, relays = prune_tree(tree, too_deep)
    if relays:
        raise AssertionError("depth cut cannot strand relays")
    return pruned


# ---------------------------------------------------------------------------
# genetic algorithm over offloading orders


def _ordered_crossover(
    rng: random.Random, a: tuple[int, ...], bseq: tuple[int, ...]
) -> tuple[int, ...]:
    """Classic OX: keep a random slice of `a`, fill the rest in `bseq` order.

    Equal parents give `a` back after the same two draws: the child would
    equal it, and the random stream stays the same.
    """
    n = len(a)
    if n <= 1:
        return a
    lo = rng.randrange(n)
    hi = rng.randrange(n)
    if a == bseq:
        return a
    if lo > hi:
        lo, hi = hi, lo
    kept = a[lo : hi + 1]
    taken = set(kept)
    rest = tuple([x for x in bseq if x not in taken])
    return rest[:lo] + kept + rest[lo:]


def _mutate(
    rng: random.Random, chrom: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    mutable = [k for k, seq in enumerate(chrom) if len(seq) >= 2]
    if not mutable:
        return chrom
    k = mutable[rng.randrange(len(mutable))]
    seq = list(chrom[k])
    p, q = rng.sample(range(len(seq)), 2)
    seq[p], seq[q] = seq[q], seq[p]
    out = list(chrom)
    out[k] = tuple(seq)
    return tuple(out)


def ga(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    params: GaParams,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
) -> Solution:
    """Search offloading orders with a seeded genetic algorithm.

    A chromosome is one permutation per subtree; fitness is the optimal
    split cost for that fixed schedule.  Each generation carries
    ceil(ELITE_FRAC * population) elites (at least one), fills the rest
    by fitness-proportional selection on 1/cost with per-subtree ordered
    crossover, and swap-mutates offspring with probability MUTATION_PROB.
    Deterministic for a given rng_seed.  Returns the best solution seen
    across all generations.

    The static cost matrix and the energy rates are built once per call;
    a chromosome's linear form adds w1 times its waiting matrix, and its
    split carries the (S, R) certified for the previous one into
    `solvers._minmax_unit`'s cascade.  That support and the fitness memo
    live only inside one call, so a re-solve takes the same path.
    Fitness is the audit's own j_system (`costs._node_terms` on the split
    just solved), bit for bit, but only the winner is audited into a
    Solution.
    """
    check_task_size(task_size)
    rng = random.Random(params.rng_seed)
    groups = [list(tree.subtrees[t]) for t in tree.subtree_roots]

    def random_chromosome() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(rng.sample(g, len(g))) for g in groups)

    static = _static_matrix(tree, weights, b)
    energy = _energy_rates(tree, b)
    # chromosome -> (cost, split in bits)
    memo: dict[tuple[tuple[int, ...], ...], tuple] = {}
    support = None

    def fitness(chrom: tuple[tuple[int, ...], ...]) -> float:
        nonlocal support
        if chrom not in memo:
            wait = _waiting(tree, Schedule(orders=chrom))
            a = static + weights.w1 * wait
            u, support = _minmax_unit(a, forced_zero, support)
            y = u * task_size
            j_node = _node_terms(tree, energy, wait, y, weights, b)[-1]
            memo[chrom] = (max(j_node.tolist()), y)
        return memo[chrom][0]

    population = [random_chromosome() for _ in range(params.population)]
    best = min(population, key=fitness)
    n_elite = max(1, math.ceil(ELITE_FRAC * params.population))

    for _ in range(params.generations):
        ranked = sorted(population, key=fitness)
        next_pop = ranked[:n_elite]
        costs = [fitness(c) for c in population]
        zero = next((c for c, z in zip(population, costs) if z == 0.0), None)
        while len(next_pop) < params.population:
            if zero is not None:
                pa = pb = zero
            else:
                pa, pb = rng.choices(
                    population, weights=[1.0 / z for z in costs], k=2
                )
            child = tuple(
                _ordered_crossover(rng, sa, sb) for sa, sb in zip(pa, pb)
            )
            if rng.random() < MUTATION_PROB:
                child = _mutate(rng, child)
            next_pop.append(child)
        population = next_pop
        gen_best = min(population, key=fitness)
        if fitness(gen_best) < fitness(best):
            best = gen_best

    _, y = memo[best]
    return _solution(
        tree, Schedule(orders=best), y, task_size, weights, b, "ga", len(memo)
    )


# ---------------------------------------------------------------------------
# literature baselines


def baseline_local(
    tree: SinkTree, task_size: float, weights: Weights, *, b: float = DEFAULT_B
) -> Solution:
    """Everything stays on the master."""
    check_task_size(task_size)
    y = (task_size,) + (0.0,) * (len(tree) - 1)
    return _solution(
        tree, canonical_schedule(tree), y, task_size, weights, b, "baseline-local"
    )


def baseline_partial(
    tree: SinkTree, task_size: float, weights: Weights, *, b: float = DEFAULT_B
) -> Solution:
    """Split between the master and its single best one-hop neighbor.

    The split and the neighbor choice minimize completion time: the
    master's children are priced as one stack of solo splits at
    time-only weights (`_solo_splits`), ties going to the first child.
    Only the winner is audited, at the given weights.  Without a one-hop
    neighbor the whole task stays on the master.
    """
    check_task_size(task_size)
    y = (task_size,) + (0.0,) * (len(tree) - 1)
    hops = tree.children[MASTER_ID]
    if hops:
        times, splits = _solo_splits(tree, hops, task_size, Weights(1.0, 0.0), b)
        y = splits[int(times.argmin())]
    return _solution(
        tree, canonical_schedule(tree), y, task_size, weights, b, "baseline-partial"
    )


def baseline_master_worker(
    tree: SinkTree, task_size: float, weights: Weights, *, b: float = DEFAULT_B
) -> Solution:
    """Time-optimal split over the master and all one-hop neighbors.

    One-hop nodes root their own subtrees, so transmissions are
    concurrent and nothing waits.  The split is certified for weights
    (1, 0); only the answer is audited, at the given weights.
    """
    check_task_size(task_size)
    sched = canonical_schedule(tree)
    forced = frozenset(range(len(tree))) - {MASTER_ID, *tree.children[MASTER_ID]}
    a = cost_coefficients(tree, sched, Weights(1.0, 0.0), b)
    y = _minmax_unit(a, forced)[0] * task_size
    tag = "baseline-master-worker"
    return _solution(tree, sched, y, task_size, weights, b, tag)


def baseline_multi_hop(
    tree: SinkTree, task_size: float, weights: Weights, *, b: float = DEFAULT_B
) -> Solution:
    """Ship the whole task to the one node where it costs least.

    Every node, master included, is tried as the sole computer; path
    nodes relay.  All n one-hot splits are priced in one call of
    `costs._node_terms`, the audit's own arithmetic, on the canonical
    schedule's waiting matrix; only the winner is audited.  Ties go to
    the smallest id.
    """
    check_task_size(task_size)
    sched = canonical_schedule(tree)
    y = np.eye(len(tree)) * task_size
    wait = _waiting(tree, sched)
    j_node = _node_terms(tree, _energy_rates(tree, b), wait, y, weights, b)[-1]
    best = int(j_node.max(axis=1).argmin())
    return _solution(tree, sched, y[best], task_size, weights, b, "baseline-multi-hop")
