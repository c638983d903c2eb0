"""Count how the split cascade fares on hard matrices and on random trees.

Every split goes through `solvers._cascade`; one call splits a stack of
matrices (a block of orders, a GA generation, all of a tree's solo
splits, or one matrix).  For each family below this prints how many
matrices the cascade split, a histogram of their reinversion rounds
(simplex runs restarted from the basis an earlier run stopped on), and
how many cascade calls raised InfeasibleError because no round was
certified:

- stress: the split stress set, `tests/test_solvers._stress_set` (7,500
  matrices of five kinds);
- ties-11, ties-12, ties-13: the first 20,000 matrices of
  `tests/test_solvers._tie_draws(seed)`, integers 1-3 or picks from
  {0, 0.5, 1, 2, 3}, up to 30x30;
- log-uniform: the first 20,000 matrices of
  `tests/test_solvers._log_uniform(21)`, entries 10**U(-28, 2), nr in
  1..30 and nc in 2..30;
- log-sparse: the same from `_log_uniform(22, 0.4)`, entries kept at 40%
  density and each empty column given one more entry in a random row;
- domain: every answer on 60 random trees of 2-9 nodes shaped like
  `tests/test_solvers._wide_tree` (links 1-100 Gbps, each node's switched
  capacitance 10**U(-28, -2)) under seven weight pairs: `solve_fixed_order`
  on a shuffled schedule with random nodes pinned, `pmo`, `cmo` (at most
  720 schedules), a 15-generation `ga`, every solo split,
  `baseline_master_worker` and `node_prune`.

The matrix families split each matrix cold with `_minmax_unit`.  Families
run in two worker processes; the whole campaign takes about a minute on
two cores.  Exits 1 when any family raised:

    python3 scripts/split_campaign.py
"""

import itertools
import random
import sys
from collections import Counter
from multiprocessing import Pool
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import B_COMP  # noqa: E402
from test_solvers import (  # noqa: E402
    _log_uniform,
    _stress_set,
    _tie_draws,
    _wide_tree,
)

from treeload import (  # noqa: E402
    GaParams,
    InfeasibleError,
    NpParams,
    Schedule,
    Weights,
    baseline_master_worker,
    canonical_schedule,
    cmo,
    count_schedules,
    ga,
    heuristics,
    node_prune,
    pmo,
    solve_fixed_order,
    solvers,
)

DRAWS = 20_000
TREES = 60
WEIGHTS = (
    (0.5, 0.05), (1.0, 0.0), (0.0, 1.0), (0.9, 0.3), (0.1, 0.9), (0.01, 1.0),
    (1.0, 0.01),
)
TASK_BITS = 1e9


def domain_answers():
    """One thunk per answer of the domain family; each must run before the
    next is drawn, as it reads the loop's current tree and weights."""
    for seed in range(TREES):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        tree = _wide_tree(rng, n, lambda: 10 ** rng.uniform(-28.0, -2.0))
        solo = range(1, n)
        for w1, w2 in WEIGHTS:
            w = Weights(w1, w2)
            orders = canonical_schedule(tree).orders
            sched = Schedule(orders=tuple(tuple(rng.sample(o, len(o))) for o in orders))
            forced = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
            yield lambda: solve_fixed_order(tree, sched, TASK_BITS, w, forced, b=B_COMP)
            yield lambda: pmo(tree, TASK_BITS, w, b=B_COMP)
            if count_schedules(tree) <= 720:
                yield lambda: cmo(tree, TASK_BITS, w, b=B_COMP)
            params = GaParams(generations=15, rng_seed=seed)
            yield lambda: ga(tree, TASK_BITS, w, params, b=B_COMP)
            yield lambda: heuristics._solo_splits(tree, solo, TASK_BITS, w, B_COMP)
            yield lambda: baseline_master_worker(tree, TASK_BITS, w, b=B_COMP)
            yield lambda: node_prune(tree, NpParams(0.1), TASK_BITS, w, b=B_COMP)


def cold(matrices):
    """One thunk per matrix: its cold split."""
    return (lambda m=m: solvers._minmax_unit(m[None], frozenset()) for m in matrices)


def families():
    return {
        "stress": lambda: cold(m for _, _, m in _stress_set()),
        "ties-11": lambda: cold(itertools.islice(_tie_draws(11), DRAWS)),
        "ties-12": lambda: cold(itertools.islice(_tie_draws(12), DRAWS)),
        "ties-13": lambda: cold(itertools.islice(_tie_draws(13), DRAWS)),
        "log-uniform": lambda: cold(itertools.islice(_log_uniform(21), DRAWS)),
        "log-sparse": lambda: cold(itertools.islice(_log_uniform(22, 0.4), DRAWS)),
        "domain": domain_answers,
    }


def run(name: str) -> tuple[str, int, Counter, int]:
    """Run one family with `_cascade` and `_simplex_support` counted.

    A `_cascade` call splits a stack of matrices, so each call adds its
    stack's size to the splits.  A matrix's reinversion rounds are the
    simplex runs after its cold `_simplex_support` run; a matrix the
    simplex does not pivot on (a carried support certified it, or an
    earlier step) has none.
    """
    rounds, infeasible, current = Counter(), [0], []
    cascade, simplex = solvers._cascade, solvers._simplex_support

    def counting_simplex(msc, start=None):
        if start is None:
            current.append(0)
        else:
            current[-1] += 1
        return simplex(msc, start)

    def counting_cascade(msc, *args):
        current.clear()
        try:
            return cascade(msc, *args)
        except InfeasibleError:
            infeasible[0] += 1
            raise
        finally:
            rounds[0] += len(msc) - len(current)
            rounds.update(current)

    solvers._cascade = counting_cascade
    solvers._simplex_support = counting_simplex
    try:
        for answer in families()[name]():
            try:
                answer()
            except InfeasibleError:
                pass
    finally:
        solvers._cascade = cascade
        solvers._simplex_support = simplex
    return name, sum(rounds.values()), rounds, infeasible[0]


def main() -> None:
    head = f"{'family':<12} {'splits':>7}  {'infeasible':>10}"
    print(f"{head}  reinversion rounds: splits")
    raised = False
    with Pool(2) as pool:
        for name, splits, rounds, infeasible in pool.imap(run, families()):
            hist = ", ".join(f"{k}: {rounds[k]}" for k in sorted(rounds))
            print(f"{name:<12} {splits:>7}  {infeasible:>10}  {hist}", flush=True)
            raised = raised or infeasible > 0
    if raised:
        sys.exit(1)


if __name__ == "__main__":
    main()
