"""Digest the records of the benchmark requests and the shipped scenarios.

Runs every request of the `exact` and `approx_large` benchmark workloads
(perfbench/workloads.py, seeds 1 and 1000003) through `scenario_from_doc`
and `run_scenario`, and every scenarios/*.json with repetitions 0, so no
record holds a timing.  Each scenario's records, rendered by `emit_csv`,
must equal the committed results/<scenario_id>.csv in every column but
T_exe_s: the script exits 1 naming the first file, row and column that
differ.  Each benchmark request runs first on a cleared
memo of base networks and sink trees (`harness._memo`), then all of them
run again warm: the script exits 1 naming the first warm record that
differs from its cold one.  One more group, `random`, holds answers off the
benchmark's regime, where corner optima and ties are common: on seeded
`tests/conftest.rand_tree` trees of 2-8 nodes, each node's switched
capacitance drawn as 10**U(-28, -2), and five weight pairs, it records
`pmo`, `cmo` (at most 720 schedules), a 15-generation `ga`, an
8-generation `ga` of population 16 (generations wider than a sweep's
first window), `baseline_partial`, `baseline_master_worker`, every solo
split and `node_prune`'s tree.  The `probe` group holds `pmo` and `cmo`
on `scripts/probe_timing.probe_tree`'s one-subtree trees with k = 5-7
helpers and seeds 1-4, under three weight pairs: every order there
splits, and many reach the cascade's simplex step.  Every solution of
the random and probe groups must pass `verify_instance`: the script exits
1 naming the first check that fails, before it writes anything.  The
`pruned` group sends `lp+pmo` and `lp+ga` at xi = 2 and `np+ga` at
theta_p = 0.1 through `scenario_from_doc` and `run_scenario`, on generated
networks of 9, 11 and 13 nodes (edge probability 0.35, seeds 0-29): the
generator's defaults under weights (1, 0) and (0.5, 0.05), and 0.5-50 GHz
clocks at gamma 2e-28 under (1, 0.01).  Under time-heavy weights a node
that pruning removed can wait on the kept nodes' traffic, so each record
is a check of the harness's full-tree cost audit, which raises when the
answer it maps back to the network costs more than the solution.  Writes
all records to one JSON file and prints one sha256 per workload and seed,
per scenario and for the random, probe and pruned groups.  Two checkouts whose
answers are bit-identical print the same digests:

    python3 scripts/record_digest.py --out records.json

With --compare OLD.json (the --out file of another checkout, made by this
version of the script) it also checks every record against OLD.json and
exits 1 naming the first one that differs: its group, index and field.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [
    str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "scripts")
]

import conftest  # noqa: E402
import probe_timing  # noqa: E402
import workloads  # noqa: E402

from treeload import (  # noqa: E402
    GaParams,
    NpParams,
    Weights,
    baseline_master_worker,
    baseline_partial,
    cmo,
    count_schedules,
    emit_csv,
    ga,
    harness,
    heuristics,
    load_scenario,
    node_prune,
    pmo,
    run_scenario,
    verify_instance,
)
from treeload.harness import record_to_doc, scenario_from_doc  # noqa: E402
from treeload.tree import tree_fingerprint  # noqa: E402

WORKLOADS = ("exact", "approx_large")
SEEDS = (1, 1000003)
RANDOM_TREES = 80
RANDOM_WEIGHTS = ((0.5, 0.05), (1.0, 0.0), (0.0, 1.0), (0.9, 0.3), (0.1, 0.9))
TASK_BITS = 1e9
PROBE_SIZES = (5, 6, 7)
PROBE_SEEDS = (1, 2, 3, 4)
PROBE_WEIGHTS = ((0.5, 0.05), (1.0, 0.0), (0.1, 0.9))
PRUNED_SIZES = (9, 11, 13)
PRUNED_SEEDS = range(30)
PRUNED_METHODS = (
    {"name": "lp+pmo", "params": {"xi": 2}},
    {"name": "lp+ga", "params": {"xi": 2}},
    {"name": "np+ga", "params": {"theta_p": 0.1}},
)
# generator settings beyond the defaults -> the weight pairs run on them
PRUNED_FAMILIES = (
    ({}, ((1.0, 0.0), (0.5, 0.05))),
    ({"freq_range_ghz": [0.5, 50.0], "gamma": 2e-28}, ((1.0, 0.01),)),
)


def verify_or_exit(sol, where: str) -> None:
    """Exit 1 naming the first `verify_instance` check `sol` fails, if any."""
    for check in verify_instance(sol):
        if not check.ok:
            sys.exit(f"verify_instance failed at {where}: {check.name}: {check.detail}")


def workload_records(name: str, seed: int, workdir: Path) -> list[dict]:
    """The records of every request, each run on a cleared memo; exits 1
    when a second, warm run of the requests gives a different record."""
    insts, reqs = workloads.build(name, workloads.pick(name, seed), workdir)
    scenarios = [
        scenario_from_doc(workloads.scenario_doc(insts[req.inst], req)) for req in reqs
    ]
    cold = []
    for s in scenarios:
        harness._memo.cache_clear()
        cold += [record_to_doc(r) for r in run_scenario(s)]
    warm = [record_to_doc(r) for s in scenarios for r in run_scenario(s)]
    where = first_difference({f"{name}/{seed}": cold}, {f"{name}/{seed}": warm})
    if where is not None:
        sys.exit(f"warm run differs from the cold run: {where}")
    return cold


def scenario_records(path: Path) -> list[dict]:
    """The scenario's records; exits 1 when their CSV differs from the
    committed one."""
    s = dataclasses.replace(load_scenario(path), repetitions=0)
    records = run_scenario(s)
    check_csv(records, ROOT / "results" / f"{s.scenario_id}.csv")
    return [record_to_doc(r) for r in records]


def check_csv(records: list, committed: Path) -> None:
    """Exit 1 naming the first row and column, T_exe_s aside, where the
    `emit_csv` rendering of `records` differs from the file `committed`."""
    name = committed.relative_to(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        emit_csv(records, Path(tmp) / committed.name)
        new = list(csv.reader((Path(tmp) / committed.name).read_text().splitlines()))
    old = list(csv.reader(committed.read_text().splitlines()))
    if old[0] != new[0]:
        sys.exit(f"{name}: header {old[0]} != {new[0]}")
    if len(old) != len(new):
        sys.exit(f"{name}: {len(old) - 1} rows committed, {len(new) - 1} now")
    for row, (a, b) in enumerate(zip(old, new)):
        for col, va, vb in zip(old[0], a, b):
            if col != "T_exe_s" and va != vb:
                sys.exit(f"{name} row {row} column {col}: {va!r} != {vb!r}")


def random_records() -> list[dict]:
    """The random group's answers, one record each."""
    b = conftest.B_COMP
    docs = []
    for seed in range(RANDOM_TREES):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        tree = conftest.rand_tree(
            rng, n, draw_cap=lambda: 10 ** rng.uniform(-28.0, -2.0)
        )
        for w1, w2 in RANDOM_WEIGHTS:
            w = Weights(w1, w2)
            at = {"tree": seed, "weights": [w1, w2]}
            sols = {"pmo": pmo(tree, TASK_BITS, w, b=b)}
            if count_schedules(tree) <= 720:
                sols["cmo"] = cmo(tree, TASK_BITS, w, b=b)
            params = GaParams(generations=15, rng_seed=seed)
            sols["ga"] = ga(tree, TASK_BITS, w, params, b=b)
            params = GaParams(population=16, generations=8, rng_seed=seed)
            sols["ga-16"] = ga(tree, TASK_BITS, w, params, b=b)
            sols["baseline_partial"] = baseline_partial(tree, TASK_BITS, w, b=b)
            sols["baseline_master_worker"] = baseline_master_worker(
                tree, TASK_BITS, w, b=b
            )
            for name, sol in sols.items():
                verify_or_exit(sol, f"random {at} {name}")
                docs.append({
                    **at, "answer": name, "cost": sol.cost,
                    "y": list(sol.allocation.y),
                    "orders": [list(o) for o in sol.schedule.orders],
                })
            costs, y = heuristics._solo_splits(tree, range(1, n), TASK_BITS, w, b)
            for i, (cost, split) in enumerate(zip(costs.tolist(), y.tolist()), 1):
                docs.append({**at, "answer": f"solo {i}", "cost": cost, "y": split})
            pruned, relays = node_prune(tree, NpParams(0.1), TASK_BITS, w, b=b)
            docs.append({
                **at, "answer": "node_prune", "tree_sha": tree_fingerprint(pruned),
                "relays": sorted(relays),
            })
    return docs


def probe_records() -> list[dict]:
    """The probe group's answers, one record each."""
    docs = []
    for k in PROBE_SIZES:
        for seed in PROBE_SEEDS:
            tree = probe_timing.probe_tree(k, seed)
            for w1, w2 in PROBE_WEIGHTS:
                w = Weights(w1, w2)
                for name, solve in ("pmo", pmo), ("cmo", cmo):
                    sol = solve(tree, TASK_BITS, w, b=1.0)
                    verify_or_exit(sol, f"probe k={k} seed={seed} {w} {name}")
                    docs.append({
                        "k": k, "seed": seed, "weights": [w1, w2], "answer": name,
                        "cost": sol.cost, "y": list(sol.allocation.y),
                        "orders": [list(o) for o in sol.schedule.orders],
                    })
    return docs


def pruned_records() -> list[dict]:
    """The pruned group's records; a failed cost audit raises."""
    docs = []
    for extra, weights in PRUNED_FAMILIES:
        for n in PRUNED_SIZES:
            for seed in PRUNED_SEEDS:
                gen = {"node_count": n, "edge_prob": 0.35, "rng_seed": seed, **extra}
                for w1, w2 in weights:
                    s = scenario_from_doc({
                        "scenario_id": f"n{n}-s{seed}",
                        "network": {"generate": gen},
                        "weights": {"time": w1, "energy": w2},
                        "repetitions": 0,
                        "methods": list(PRUNED_METHODS),
                    })
                    docs += [record_to_doc(r) for r in run_scenario(s)]
    return docs


def first_difference(old: dict, new: dict) -> str | None:
    """Where the first record of `new` that differs from `old` is, or None."""
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key, []), new.get(key, [])
        for index in range(max(len(a), len(b))):
            if index >= len(a) or index >= len(b):
                return f"{key} record {index}: present in one file only"
            for field in [*a[index], *(f for f in b[index] if f not in a[index])]:
                va, vb = a[index].get(field), b[index].get(field)
                if json.dumps(va) != json.dumps(vb):
                    return f"{key} record {index} field {field}: {va!r} != {vb!r}"
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file of all records")
    ap.add_argument("--compare", type=Path, metavar="OLD.json",
                    help="records of another checkout to check these against")
    args = ap.parse_args()
    old = json.loads(args.compare.read_text()) if args.compare else None

    t0 = time.perf_counter()
    groups = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                groups[f"{name}/{seed}"] = workload_records(
                    name, seed, Path(tmp) / f"{name}-{seed}"
                )
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        groups[f"scenario/{path.stem}"] = scenario_records(path)
    groups["random"] = random_records()
    groups["probe"] = probe_records()
    t1 = time.perf_counter()
    groups["pruned"] = pruned_records()
    print(f"pruned group: {time.perf_counter() - t1:.1f} s")

    args.out.write_text(json.dumps(groups, indent=1) + "\n")
    for key, docs in groups.items():
        digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
        print(f"{digest}  {key} ({len(docs)} records)")
    print(f"{sum(map(len, groups.values()))} records in "
          f"{time.perf_counter() - t0:.1f} s -> {args.out}")
    if old is not None:
        where = first_difference(old, groups)
        if where is not None:
            sys.exit(f"first difference from {args.compare}: {where}")
        print(f"no difference from {args.compare}")


if __name__ == "__main__":
    main()
