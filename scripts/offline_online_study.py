"""Offline/online split: cache one solve, answer new task sizes instantly.

Solves a 20-server instance once, persists the baseline, then serves a
batch of task sizes by rescaling the cached split.  Each answer is
cross-checked against a fresh solve.  The baseline goes to --cache, by
default a file in a temporary directory removed on exit.
"""

import argparse
import tempfile
import time
from pathlib import Path

from treeload import (
    GenParams,
    Weights,
    build_sink_tree,
    generate_network,
    load_baseline,
    pmo,
    save_baseline,
    scale_solution,
)

ROOT = Path(__file__).resolve().parent.parent
W = Weights(0.5, 0.05)
B = 1.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cache", type=Path)
    args = ap.parse_args()

    g = GenParams(node_count=20, edge_prob=0.3, rng_seed=28, gamma=2e-28)
    tree = build_sink_tree(generate_network(g))

    t0 = time.perf_counter()
    base = pmo(tree, 1e9, W, b=B)
    offline = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        cache = args.cache or Path(tmp) / "baseline_20.json"
        cache.parent.mkdir(parents=True, exist_ok=True)
        save_baseline(cache, base)
        cached = load_baseline(cache, tree, W, b=B)
    print(f"offline: pmo over {len(tree)} servers in {offline * 1e3:.0f} ms, cached")
    sizes = [k * 1e8 for k in (2, 5, 8, 13, 21, 34, 55)]
    t0 = time.perf_counter()
    answers = [scale_solution(cached, y) for y in sizes]
    online = (time.perf_counter() - t0) / len(sizes)
    print(f"online: {len(sizes)} task sizes at {online * 1e6:.0f} us each")

    print(f"{'Gbit':>8} {'cost J':>12} {'fresh J':>12} {'rel gap':>10}")
    for y, sol in zip(sizes, answers):
        fresh = pmo(tree, y, W, b=B)
        gap = abs(sol.cost - fresh.cost) / fresh.cost
        print(f"{y / 1e9:>8.1f} {sol.cost:>12.6f} {fresh.cost:>12.6f} {gap:>10.1e}")


if __name__ == "__main__":
    main()
