"""Time each layer on generated networks of 100 to 1,000 nodes.

For each n in 100, 200, 400, 800 and 1,000 this generates
`GenParams(n, 6/n, 1)` (about six links per node), then times, once each:
`generate_network`, `build_sink_tree` together with every array and table
the tree caches, `node_prune` at theta_p = 0.1, `baseline_multi_hop`, `ga`
with the default `GaParams`, `verify_instance` on GA's answer and
`system_cost` on it (best of 5).  Every problem uses weights (0.5, 0.05),
a 1 Gbit task and the default table's cycles per bit for a generated
network.  It prints one markdown row per n with the work counts (link
pairs, the three largest subtrees, GA's chromosomes) and the process's
peak RSS so far (`resource.getrusage`), which the largest n sets:

    python3 scripts/scale_timing.py [--sizes 100 200 ...]
"""

import argparse
import resource
import sys
import time
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treeload import (  # noqa: E402
    GaParams,
    GenParams,
    NpParams,
    SinkTree,
    Weights,
    baseline_multi_hop,
    build_sink_tree,
    ga,
    generate_network,
    node_prune,
    system_cost,
)
from treeload.topologies import default_b  # noqa: E402
from treeload.verification import verify_instance  # noqa: E402

SIZES = (100, 200, 400, 800, 1000)
WEIGHTS = Weights(0.5, 0.05)
TASK_BITS = 1e9
THETA_P = 0.1
COLUMNS = (
    "n", "link pairs", "largest subtrees", "generate", "tree + caches", "node_prune",
    "multi_hop", "ga (chromosomes)", "verify", "system_cost", "peak RSS",
)
# every array and table a SinkTree caches on first use
CACHED = [k for k, v in vars(SinkTree).items() if isinstance(v, cached_property)]


def timed(f, *args, reps=1, **kwargs):
    """(best seconds over `reps` calls, the last call's result)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = f(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:,.1f} ms"


def build_with_caches(net):
    tree = build_sink_tree(net)
    for name in CACHED:
        getattr(tree, name)
    return tree


def row(n: int) -> list[str]:
    b = default_b(None)
    t_gen, net = timed(generate_network, GenParams(n, 6 / n, 1))
    t_tree, tree = timed(build_with_caches, net)
    t_np, _ = timed(node_prune, tree, NpParams(THETA_P), TASK_BITS, WEIGHTS, b=b)
    t_mh, _ = timed(baseline_multi_hop, tree, TASK_BITS, WEIGHTS, b=b)
    t_ga, sol = timed(ga, tree, TASK_BITS, WEIGHTS, GaParams(), b=b)
    t_ver, checks = timed(verify_instance, sol, net)
    if not all(c.ok for c in checks):
        raise SystemExit(f"n={n}: GA's answer fails verify_instance")
    t_cost, _ = timed(
        system_cost, tree, sol.schedule, sol.allocation, WEIGHTS, b, reps=5
    )
    sizes = sorted((len(s) for s in tree.subtrees.values()), reverse=True)[:3]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [
        str(n), f"{len(net.links) // 2:,}", ", ".join(map(str, sizes)),
        ms(t_gen), ms(t_tree), ms(t_np), ms(t_mh),
        f"{ms(t_ga)} ({sol.schedules_evaluated})", ms(t_ver),
        f"{t_cost * 1e6:,.0f} µs", f"{peak_mb:,.0f} MB",
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES, metavar="N")
    args = ap.parse_args()
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for n in args.sizes:
        print("| " + " | ".join(row(n)) + " |", flush=True)


if __name__ == "__main__":
    main()
