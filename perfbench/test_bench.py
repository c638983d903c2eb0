"""Smallest-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs each workload on a few tiny instances in-process, checks that two
traced passes count identical work, and runs the command line once end to
end.  Files go to .bench_out/selftest/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

run._import_treeload()
import workloads  # noqa: E402  (needs the checkout's src/ on the path)

ROOT = run.ROOT
WORKDIR = run.OUT / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "exact": {"profiles": ((2, 1),), "named": ("wide_shallow",)},
    "approx_large": {"nodes": (30,)},
    "online_cached": {"nodes": (20,), "sizes": 2},
}


def tiny_client(name: str, seed: int = 1) -> run.Client:
    workdir = WORKDIR / f"{name}-s{seed}"
    picked = workloads.pick(name, seed, **TINY[name])
    insts, reqs = workloads.build(name, picked, workdir)
    if name == "approx_large":
        reqs = [r for r in reqs if r.method in ("lp+pmo", "local")]
    return run.Client(name, insts, reqs, workdir)


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, "p", 0.0, 10.0, None, 0, None),
        S(2, "a", 1.0, 3.0, 1, 0, None),
        S(3, "b", 2.0, 5.0, 1, 0, None),  # overlaps a: threads of one pool
        S(4, "c", 8.0, 12.0, 1, 0, None),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_answers_check_out(name):
    client = tiny_client(name)
    client.run_pass(client.reqs)
    client.check_answers()
    assert client.errors == {} and client.bad == {}
    assert client.attempted == len(client.reqs) and client.failed == 0
    assert 0.0 < client.cost_vs_local() < 1.0 + workloads.REL_TOL


def test_same_seed_same_inputs_other_seed_other_inputs():
    def fingerprints(seed):
        picked = workloads.pick("exact", seed, **TINY["exact"])
        insts, _ = workloads.build("exact", picked, WORKDIR / f"manifest-s{seed}")
        return [inst.manifest()["tree_fingerprint"] for inst in insts]

    assert fingerprints(3) == fingerprints(3)
    # the named topology stays, the generated network changes
    assert fingerprints(3)[0] == fingerprints(4)[0]
    assert fingerprints(3)[1:] != fingerprints(4)[1:]


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_traced_passes_count_the_same_work(name):
    client = tiny_client(name)
    rec = tracing.Recorder()
    rec.install()
    try:
        for p in (1, 2):
            client.run_pass(client.reqs, rec, first_id=p * len(client.reqs))
    finally:
        rec.uninstall()
    values, problems = tracing.traced_metrics(rec.spans, len(client.reqs))
    assert problems == []
    assert set(values) == set(tracing.METRIC_UNITS)
    assert values["costs.system_cost.calls"] > 0
    if name == "online_cached":
        assert values["solvers.linprog.calls"] == 0
    else:
        assert values["solvers.linprog.calls"] > 0
    # wrappers are gone again
    assert workloads.tl.solvers.cmo.__module__ == "treeload.solvers"
    assert not hasattr(workloads.tl.solvers.cmo, "__wrapped__")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_the_spec(trace, kind):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online_cached",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    res = _last_json(done.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= run.MIN_REQUESTS
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace:
        assert res["metrics"]["solvers.linprog.calls"]["value"] == 0


def test_fails_without_the_program():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
