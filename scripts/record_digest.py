"""Digest the records of the benchmark requests and the shipped scenarios.

Runs every request of the `exact` and `approx_large` benchmark workloads
(perfbench/workloads.py, seeds 1 and 1000003) through `scenario_from_doc`
and `run_scenario`, and every scenarios/*.json with repetitions 0, so no
record holds a timing.  Writes all records to one JSON file and prints one
sha256 per workload and seed and per scenario.  Two checkouts whose
answers are bit-identical print the same digests:

    python3 scripts/record_digest.py --out records.json

With --compare OLD.json (the --out file of another checkout) it also
checks every record against OLD.json and exits 1 naming the first one
that differs: its workload and seed or scenario, index and field.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from treeload import load_scenario, run_scenario  # noqa: E402
from treeload.harness import record_to_doc, scenario_from_doc  # noqa: E402

WORKLOADS = ("exact", "approx_large")
SEEDS = (1, 1000003)


def workload_records(name: str, seed: int, workdir: Path) -> list[dict]:
    insts, reqs = workloads.build(name, workloads.pick(name, seed), workdir)
    docs = []
    for req in reqs:
        s = scenario_from_doc(workloads.scenario_doc(insts[req.inst], req))
        docs += [record_to_doc(r) for r in run_scenario(s)]
    return docs


def scenario_records(path: Path) -> list[dict]:
    s = dataclasses.replace(load_scenario(path), repetitions=0)
    return [record_to_doc(r) for r in run_scenario(s)]


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
