"""Compare every solver and baseline on the four named topologies.

Runs the method list of scenarios/topology_compare.json, with its task
and weights, on each named topology in turn.  Prints one table of costs
and one of solve times.  The exact methods share a column-by-column
story: pmo tracks cmo everywhere, the genetic search lands on or near
the optimum with a modest budget, and the literature baselines trail by
clear margins.
"""

from dataclasses import replace
from pathlib import Path

from treeload import TOPOLOGIES, load_scenario, run_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "topology_compare.json"


def main() -> None:
    base = load_scenario(SCENARIO)
    methods = [m.name for m in base.methods]
    names = tuple(TOPOLOGIES)
    costs = {}
    times = {}
    for n in names:
        # one timed re-solve per method gives its solve time
        for r in run_scenario(replace(base, source=n, repetitions=1)):
            costs[r.method, n] = r.cost
            times[r.method, n] = r.t_exe

    head = f"{'method':<14}" + "".join(f"{n:>14}" for n in names)
    print("cost J")
    print(head)
    for m in methods:
        print(f"{m:<14}" + "".join(f"{costs[m, n]:>14.6f}" for n in names))
    print()
    print("solve time (ms)")
    print(head)
    for m in methods:
        print(f"{m:<14}" + "".join(f"{times[m, n] * 1e3:>14.1f}" for n in names))


if __name__ == "__main__":
    main()
