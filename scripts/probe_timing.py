"""Time `pmo` on one-subtree probe trees, the exact solvers' worst case.

The master links to node 1, which roots one k-node subtree; node i >= 2
hangs off a node drawn from 1..i-1.  Link rates, clocks, switched
capacitance and transmit power are drawn from the ranges the test suite's
random trees use, seeded with 1000*k + s, under weights (0.5, 0.05), one
cycle per bit and a 1 Gbit task.  `pmo` then tries all k! transmission
orders of that subtree.  For k = 7, 8, 9 and s = 1, 2 this prints the
solve's seconds, its cost, its schedule, how many splits went through
the split cascade `solvers._cascade` (every order's split that the
carried support did not certify, plus the master split), how many of
those the cascade cold-started with `solvers._simplex_support`, and how
many simplex bases it reinverted:

    python3 scripts/probe_timing.py
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treeload import (  # noqa: E402
    NetworkGraph,
    ServerParams,
    Weights,
    build_sink_tree,
    pmo,
    solvers,
)
from treeload.units import gbps_to_bps, ghz_to_hz  # noqa: E402

SIZES = (7, 8, 9)
SEEDS = (1, 2)
WEIGHTS = Weights(0.5, 0.05)
TASK_BITS = 1e9


def probe_tree(k: int, seed: int):
    """The one-subtree probe tree with k helpers for this seed."""
    rng = random.Random(1000 * k + seed)
    n = k + 1
    parent = [-1, 0] + [rng.randrange(1, i) for i in range(2, n)]
    rates = [0.0] + [rng.uniform(0.5, 20.0) for _ in range(1, n)]
    freqs = [rng.uniform(0.5, 8.0) for _ in range(n)]
    caps = [rng.uniform(5e-29, 5e-28) for _ in range(n)]
    tx = [rng.uniform(0.5, 4.0) for _ in range(n)]
    servers = tuple(
        ServerParams(
            id=i, cpu_freq=ghz_to_hz(freqs[i]), tx_power=tx[i], switched_cap=caps[i]
        )
        for i in range(n)
    )
    links = {}
    for i in range(1, n):
        links[parent[i], i] = links[i, parent[i]] = gbps_to_bps(rates[i])
    return build_sink_tree(NetworkGraph(servers=servers, links=links))


def counted(name: str, calls: dict) -> None:
    """Count the calls of solvers.<name> into calls[name]; a simplex run
    from an earlier basis counts into calls["reinversions"] instead."""
    f = getattr(solvers, name)

    def wrapper(*args, **kwargs):
        start = args[1] if name == "_simplex_support" and len(args) > 1 else None
        calls[name if start is None else "reinversions"] += 1
        return f(*args, **kwargs)

    setattr(solvers, name, wrapper)


def main() -> None:
    names = ("_cascade", "_simplex_support")
    calls = dict.fromkeys((*names, "reinversions"), 0)
    for name in names:
        counted(name, calls)
    print(
        f"{'k':>2} {'seed':>4} {'seconds':>9} {'splits':>7} {'simplex':>7} "
        f"{'reinv':>5} {'cost':>22}  schedule"
    )
    for k in SIZES:
        for seed in SEEDS:
            tree = probe_tree(k, seed)
            calls.update(dict.fromkeys(calls, 0))
            t0 = time.perf_counter()
            sol = pmo(tree, TASK_BITS, WEIGHTS, b=1.0)
            dt = time.perf_counter() - t0
            print(
                f"{k:>2} {seed:>4} {dt:>9.2f} {calls['_cascade']:>7} "
                f"{calls['_simplex_support']:>7} {calls['reinversions']:>5} "
                f"{sol.cost!r:>22}  {sol.schedule.orders}",
                flush=True,
            )


if __name__ == "__main__":
    main()
