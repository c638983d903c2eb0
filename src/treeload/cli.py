"""Command-line front end.

Verbs:
  generate   sample a random network and write it to a JSON file
  tree       print the delivery tree built from a network
  solve      run one method on one instance
  compare    run a scenario's method list at its base point
  sweep      run a scenario's parameter sweep
  verify     solve an instance, then replay the invariant suite and the
             record audit on it

`compare` and `sweep` are driven by a scenario file (see
schemas/scenario.schema.json); the other verbs take the instance inline.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .costs import Weights
from .errors import ParameterError, TreeloadError, checked
from .harness import (
    EXACT,
    PRUNERS,
    SOLVERS,
    MethodSpec,
    _audit_and_record,
    _mean_solve_seconds,
    emit_csv,
    emit_json,
    load_scenario,
    method_params,
    method_problems,
    run_scenario,
    solve_method,
)
from .network import GenParams, generate_network, load_network, save_network
from .solvers import load_baseline, save_baseline, scale_solution
from .topologies import (
    DEFAULT_TASK_GBIT,
    DEFAULT_WEIGHTS,
    TOPOLOGIES,
    default_b,
    named_topology,
)
from .tree import SinkTree, build_sink_tree
from .units import (
    DEFAULT_CYCLES_PER_GBIT,
    GIGA_MAX,
    bits_to_gbit,
    bps_to_gbps,
    cycles_per_gbit_to_si,
    gbit_to_bits,
    hz_to_ghz,
)
from .verification import CheckResult, verify_instance

# method parameter -> the flag that sets it
_PARAM_FLAGS = {
    "theta_p": "--theta-p",
    "xi": "--xi",
    "population": "--ga-population",
    "generations": "--ga-generations",
    "rng_seed": "--seed",
}
# a generated network's link probability
_EDGE_PROB = 0.35


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("instance source (pick one)")
    src.add_argument("--network", metavar="FILE", help="network JSON file")
    src.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES),
        help="one of the named benchmark topologies",
    )
    src.add_argument(
        "--nodes", type=int, metavar="N", help="generate an N-node random network"
    )
    src.add_argument("--edge-prob", type=float, default=_EDGE_PROB)


def _reps(text: str) -> int:
    """A --reps value: a count of timed re-solves, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = text  # refused below, quoted
    try:
        return checked("--reps", value, int)
    except ParameterError as exc:
        # argparse names the flag itself, before the message
        raise argparse.ArgumentTypeError(str(exc).removeprefix("--reps ")) from None


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="DIR", help="directory for result files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    # None means "not given": the default table of `topologies` applies
    w = DEFAULT_WEIGHTS
    p.add_argument("--task-gbit", type=float,
                   help=f"task size in Gbit (default {DEFAULT_TASK_GBIT:g})")
    p.add_argument("--w1", type=float,
                   help=f"completion-time weight (default {w.w1:g})")
    p.add_argument("--w2", type=float, help=f"energy weight (default {w.w2:g})")
    p.add_argument("--cycles-per-gbit", type=float, help=(
        "workload density (default: the named topology's, else "
        f"{DEFAULT_CYCLES_PER_GBIT:g})"
    ))


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    prunable = ", ".join(k for k, solver in SOLVERS.items() if solver.prunable)
    p.add_argument(
        "--method",
        default="cmo",
        help=" | ".join(SOLVERS)
        + f"; {' or '.join(f'{k}+' for k in PRUNERS)} may prefix {prunable}",
    )
    p.add_argument("--theta-p", type=float, help="pruning benefit threshold for np+")
    p.add_argument("--xi", type=int, help="depth cutoff for lp+")
    # None means "not given": GaParams then supplies its own default
    p.add_argument("--ga-population", type=int)
    p.add_argument("--ga-generations", type=int)


def _resolve_source(args) -> tuple:
    """(tree, network, label) from the source flags."""
    picked = [
        k for k in ("network", "topology", "nodes") if getattr(args, k) is not None
    ]
    if len(picked) != 1:
        raise ParameterError(
            "pick exactly one instance source: --network, --topology, or --nodes"
        )
    if args.topology is not None:
        topo = named_topology(args.topology)
        return topo.tree, topo.network, args.topology
    if args.network is not None:
        net, label = load_network(args.network), Path(args.network).stem
    else:
        params = GenParams(
            node_count=args.nodes, edge_prob=args.edge_prob, rng_seed=args.seed
        )
        net, label = generate_network(params), f"random-{args.nodes}n-s{args.seed}"
    return build_sink_tree(net), net, label


def _resolve_problem(args) -> tuple[float, Weights, float]:
    """(task_bits, weights, b) from the problem flags; --task-gbit and
    --cycles-per-gbit are checked in their own units, under their names."""
    task = DEFAULT_TASK_GBIT if args.task_gbit is None else args.task_gbit
    w = DEFAULT_WEIGHTS
    weights = Weights(
        w.w1 if args.w1 is None else args.w1, w.w2 if args.w2 is None else args.w2
    )
    b = default_b(args.topology)
    if args.cycles_per_gbit is not None:
        v = checked("--cycles-per-gbit", args.cycles_per_gbit, open_lo=True)
        b = cycles_per_gbit_to_si(v)
        if b == 0.0:  # v / 1e9 underflows
            raise ParameterError(
                f"--cycles-per-gbit must give a positive number of cycles per bit, "
                f"got {v!r}"
            )
    return gbit_to_bits(checked("--task-gbit", task, float, 0, GIGA_MAX)), weights, b


def _method_spec(args) -> MethodSpec:
    """--method with each method flag given, refused if the method does not
    read it; --seed (it also seeds --nodes, default 0) only where read."""
    reads = method_params(args.method) or ()
    params = {}
    for k, flag in _PARAM_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        if value is not None and (k != "rng_seed" or k in reads):
            params[k] = value
    problems = method_problems(args.method, params, spell=_PARAM_FLAGS.get)
    if problems:
        raise ParameterError("; ".join(problems))
    return MethodSpec(name=args.method, params=params)


def _emit(records, out_dir: str | None, fmt: str, stem: str) -> Path | None:
    if out_dir is None:
        return None
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{stem}.{fmt}"
    if fmt == "csv":
        emit_csv(records, path)
    else:
        emit_json(records, path)
    return path


def _print_solution(sol, record, label: str, method: str | None = None) -> None:
    print(f"instance    {label}")
    print(f"method      {method or sol.solver_tag}")
    print(f"cost J      {sol.cost:.9g}")
    print(f"max T (s)   {record.max_time:.9g}")
    print(f"max E (J)   {record.max_energy:.9g}")
    print(f"schedules   {sol.schedules_evaluated} evaluated")
    total = sol.allocation.total
    for i, y in enumerate(sol.allocation.y):
        share = y / total if total > 0 else 0.0
        net_id = sol.tree.to_original[i]
        print(f"  node {net_id:>3}  {bits_to_gbit(y):.6f} Gbit  ({share:7.2%})")


# --- verbs ------------------------------------------------------------------


def _cmd_generate(args) -> int:
    params = GenParams(
        node_count=args.nodes,
        edge_prob=args.edge_prob,
        rng_seed=args.seed,
        freq_range_ghz=args.freq_range,
        rate_range_gbps=args.rate_range,
        gamma=args.gamma,
    )
    net = generate_network(params)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.json"
    save_network(net, path)
    print(f"wrote {path} ({len(net)} nodes, {len(net.links) // 2} links)")
    return 0


def _render_tree(tree: SinkTree) -> str:
    lines = []
    # depth-first so each node prints directly under its parent
    stack = [0]
    while stack:
        i = stack.pop()
        srv = tree.servers[i]
        pad = "  " * tree.depth_of[i]
        link = (
            f" <-{bps_to_gbps(tree.edge_rate[i]):g} Gbps- {tree.to_original[tree.parent[i]]}"
            if i
            else " (master)"
        )
        lines.append(
            f"{pad}{tree.to_original[i]}: f={hz_to_ghz(srv.cpu_freq):g} GHz"
            f" gamma={srv.switched_cap:g} tx={srv.tx_power:g} W{link}"
        )
        stack.extend(reversed(tree.children[i]))
    roots = ", ".join(str(tree.to_original[t]) for t in tree.subtree_roots)
    lines.append(f"subtrees rooted at: {roots or '(none)'}")
    return "\n".join(lines)


def _cmd_tree(args) -> int:
    tree, _, label = _resolve_source(args)
    print(f"# {label}")
    print(_render_tree(tree))
    return 0


def _cmd_solve(args) -> int:
    spec = _method_spec(args)
    tree, _, label = _resolve_source(args)
    task, weights, b = _resolve_problem(args)

    sol = None
    shown = None
    if args.cache:
        cached = load_baseline(args.cache, tree, weights, b)
        # a plan stands in only for the method that solved it
        if cached is not None and cached.solver_tag == spec.name:
            sol = scale_solution(cached, task)
            print(f"reusing cached plan from {args.cache}")
    if sol is None:
        sol = solve_method(spec, tree, task, weights, b)
        # a cache hit keeps the scaled plan's own tag instead
        shown = spec.name
        if args.cache and spec.name in EXACT:
            save_baseline(args.cache, sol)
            print(f"cached plan at {args.cache}")

    t_exe = _mean_solve_seconds(spec, tree, task, weights, b, args.reps)
    record = _audit_and_record(label, spec.name, sol, tree, None, None, t_exe)
    _print_solution(sol, record, label, shown)
    if t_exe is not None:
        print(f"T_exe (s)   {t_exe:.6g} (mean of {args.reps})")
    path = _emit([record], args.out, args.format, f"{label}_{spec.name}")
    if path:
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    s = replace(load_scenario(args.scenario), sweep=None)
    return _run(s, args, s.scenario_id)


def _cmd_sweep(args) -> int:
    s = load_scenario(args.scenario)
    if s.sweep is None:
        print("error: scenario has no sweep block", file=sys.stderr)
        return 2
    return _run(s, args, f"{s.scenario_id}_sweep")


def _run(s, args, stem: str) -> int:
    if args.reps is not None:
        s = replace(s, repetitions=args.reps)
    records = run_scenario(s)
    for r in records:
        point = (
            f" {r.sweep_param}={r.sweep_value:g}" if r.sweep_param is not None else ""
        )
        t = f" T_exe={r.t_exe:.4g}s" if r.t_exe is not None else ""
        print(f"{r.scenario_id}{point} {r.method}: J={r.cost:.9g}{t}")
    path = _emit(records, args.out, args.format, stem)
    if path:
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    spec = _method_spec(args)
    tree, net, label = _resolve_source(args)
    task, weights, b = _resolve_problem(args)
    sol = solve_method(spec, tree, task, weights, b)
    results = verify_instance(sol, net)
    try:
        _audit_and_record(label, spec.name, sol, tree, None, None, None)
        ok, why = True, ""
    except AssertionError as exc:
        ok, why = False, str(exc)
    results.append(CheckResult("full-network record costs what was solved", ok, why))
    bad = 0
    for res in results:
        mark = "PASS" if res.ok else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"[{mark}] {res.name}{detail}")
        bad += 0 if res.ok else 1
    print(f"{len(results) - bad}/{len(results)} checks passed on {label} / {spec.name}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeload",
        description="task splitting and offload scheduling over multi-hop trees",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="sample a random network into a JSON file")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--edge-prob", type=float, default=_EDGE_PROB)
    g.add_argument("--freq-range", type=float, nargs=2, default=GenParams.freq_range_ghz,
                   metavar=("LO", "HI"), help="cpu frequency range, GHz")
    g.add_argument("--rate-range", type=float, nargs=2, default=GenParams.rate_range_gbps,
                   metavar=("LO", "HI"), help="link rate range, Gbps")
    g.add_argument("--gamma", type=float, default=GenParams.gamma)
    g.add_argument("--name", default="network", help="output file stem")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", metavar="DIR")
    g.set_defaults(fn=_cmd_generate)

    t = sub.add_parser("tree", help="print the delivery tree for an instance")
    _add_source_flags(t)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=_cmd_tree)

    so = sub.add_parser("solve", help="run one method on one instance")
    _add_source_flags(so)
    _add_problem_flags(so)
    _add_method_flags(so)
    _add_output_flags(so)
    so.add_argument("--seed", type=int, default=0)
    so.add_argument("--reps", type=_reps, default=0,
                    help="extra timed re-solves for T_exe")
    so.add_argument("--cache", metavar="FILE",
                    help="baseline cache; matching entries are rescaled, not re-solved")
    so.set_defaults(fn=_cmd_solve)

    c = sub.add_parser("compare", help="run a scenario's methods at the base point")
    c.add_argument("--scenario", required=True, metavar="FILE")
    c.add_argument("--reps", type=_reps, default=None)
    _add_output_flags(c)
    c.set_defaults(fn=_cmd_compare)

    sw = sub.add_parser("sweep", help="run a scenario's parameter sweep")
    sw.add_argument("--scenario", required=True, metavar="FILE")
    sw.add_argument("--reps", type=_reps, default=None)
    _add_output_flags(sw)
    sw.set_defaults(fn=_cmd_sweep)

    v = sub.add_parser("verify", help="solve, then replay the invariant suite")
    _add_source_flags(v)
    _add_problem_flags(v)
    _add_method_flags(v)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=_cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (TreeloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
