"""Scenario-driven experiment runner.

A scenario is one JSON document naming a network source, the task and
weights, a list of methods, and optionally a parameter sweep.  Running
it produces one record per (sweep point, method), each re-verified
against the cost model before it is emitted as CSV or JSON.

Allocations and offloading orders in records are reported in the node
ids of the original network graph, not the relabeled sink-tree ids, so
rows from pruned and unpruned methods line up column for column.

Each source's base network and sink tree are built once and kept in a
memo of the last 32 sources (`_MEMO_SIZE`), keyed on the topology name,
the generator block's `GenParams`, or a file's path and exact bytes: a
file is read on every run and parsed again whenever its content changed,
whatever its mtime.  Errors are not memoised.  Sweep points that keep the
base network (none, `task_size`, `theta_p`, `xi`) share its tree and the
arrays it caches; `link_rate` and `cpu_freq` points build their own, and
`subtree_count` draws are not memoised.  Nothing mutates a memoised
object and none leaves `run_scenario`, so answers are bit-identical to a
cold run.  An entry's largest parts are the tree's two n×n arrays,
`shared_inv_rate` and `relay_energy`: 16n² bytes (16 MB at n = 1,000).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from .costs import Allocation, Schedule, Weights, system_cost
from .errors import GenerationError, ParameterError, ScenarioError, checked
from .heuristics import (
    GaParams,
    LpParams,
    NpParams,
    baseline_local,
    baseline_master_worker,
    baseline_multi_hop,
    baseline_partial,
    ga,
    level_prune,
    node_prune,
)
from .network import (
    GenParams,
    NetworkGraph,
    generate_network,
    parse_network,
    rewrite,
    write_json,
)
from .solvers import Solution, cmo, pmo
from .topologies import (
    DEFAULT_TASK_GBIT,
    DEFAULT_WEIGHTS,
    TOPOLOGIES,
    default_b,
    named_topology,
)
from .tree import SinkTree, build_sink_tree
from .units import GIGA_MAX, gbit_to_bits, gbps_to_bps, ghz_to_hz

EXACT = ("cmo", "pmo")
# sweepable parameter -> the key of its value list
SWEEP_PARAMS = {
    "task_size": "values_gbit",
    "theta_p": "values",
    "xi": "values",
    "link_rate": "values_gbps",
    "cpu_freq": "values_ghz",
    "subtree_count": "values",
}

# top-level scalar -> (default, kind, lo, hi, open_lo), as `checked` takes
# them; a named topology's cycles_per_bit defaults to `default_b(name)`
_SCALARS = {
    "task_size_gbit": (DEFAULT_TASK_GBIT, float, 0, GIGA_MAX, False),
    "cycles_per_bit": (default_b(None), float, 0, math.inf, True),
    "repetitions": (20, int, 0, math.inf, False),
}

# how many consecutive generator seeds to try per subtree-count point
_SUBTREE_SEARCH_BUDGET = 500
# base networks and sink trees kept by the memo (see the module docstring)
_MEMO_SIZE = 32


@dataclass(frozen=True)
class MethodSpec:
    name: str
    params: dict[str, Any]

    @property
    def pruner(self) -> str:
        """The pruning prefix ("np", "lp"), or "" when there is none."""
        return self.name.rpartition("+")[0]

    @property
    def solver(self) -> str:
        return self.name.rpartition("+")[2]


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    edge: tuple[int, int] | None = None
    node: int | None = None


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    source_kind: str  # "topology" | "file" | "generate"
    source: Any
    task_size: float
    weights: Weights
    b_comp: float
    methods: tuple[MethodSpec, ...]
    sweep: SweepSpec | None
    repetitions: int


@dataclass(frozen=True)
class RunRecord:
    scenario_id: str
    method: str
    sweep_param: str | None
    sweep_value: float | None
    cost: float
    max_time: float
    max_energy: float
    t_exe: float | None
    allocation: tuple[float, ...]  # indexed by original network node id
    orders: tuple[tuple[int, ...], ...]  # original ids, per subtree
    solver_tag: str


# ---------------------------------------------------------------------------
# the method table: a method is named `[pruner+]solver`


class Solver(NamedTuple):
    # (tree, task_size, weights, forced relays, b, params object) -> Solution
    solve: Callable[..., Solution]
    params: type | None = None  # dataclass of the parameters it reads
    prunable: bool = False  # takes an np+ or lp+ prefix


class Pruner(NamedTuple):
    params: type  # dataclass of the one parameter it requires
    # (tree, params object, task_size, weights, b) -> (working tree, forced relays)
    prune: Callable[..., tuple[SinkTree, frozenset[int]]]

    @property
    def param(self) -> str:
        return fields(self.params)[0].name


# the entries name their functions inside lambdas, so a function replaced
# on this module is the one that runs
SOLVERS: dict[str, Solver] = {
    "cmo": Solver(lambda t, y, w, f, b, p: cmo(t, y, w, f, b=b), prunable=True),
    "pmo": Solver(lambda t, y, w, f, b, p: pmo(t, y, w, f, b=b), prunable=True),
    "ga": Solver(lambda t, y, w, f, b, p: ga(t, y, w, p, f, b=b), GaParams, True),
    "local": Solver(lambda t, y, w, f, b, p: baseline_local(t, y, w, b=b)),
    "partial": Solver(lambda t, y, w, f, b, p: baseline_partial(t, y, w, b=b)),
    "master_worker": Solver(
        lambda t, y, w, f, b, p: baseline_master_worker(t, y, w, b=b)
    ),
    "multi_hop": Solver(lambda t, y, w, f, b, p: baseline_multi_hop(t, y, w, b=b)),
}
PRUNERS: dict[str, Pruner] = {
    "np": Pruner(NpParams, lambda t, p, y, w, b: node_prune(t, p, y, w, b=b)),
    "lp": Pruner(LpParams, lambda t, p, y, w, b: (level_prune(t, p), frozenset())),
}


def method_params(name: str) -> dict[str, type] | None:
    """Each parameter method `name` reads -> the dataclass that checks and
    holds it, its pruner's first; None when `name` is no method."""
    pruner, plus, solver = name.rpartition("+")
    entry = SOLVERS.get(solver)
    if entry is None or (plus and (pruner not in PRUNERS or not entry.prunable)):
        return None
    kinds = ((PRUNERS[pruner].params,) if pruner else ()) + (entry.params,)
    return {f.name: kind for kind in kinds if kind for f in fields(kind)}


def _build(kind: type, params: dict[str, Any]):
    """`kind`'s dataclass from the entries of `params` it holds."""
    return kind(**{f.name: params[f.name] for f in fields(kind) if f.name in params})


def method_problems(
    name: Any, params: Any, spell: Callable[[str], str] = "params.{}".format
) -> list[str]:
    """Everything wrong with running method `name` on `params`; [] when valid.

    Each value is checked by the dataclass that holds it.  `spell` renders
    a parameter name the way the caller's user wrote it.
    """
    types = method_params(name) if isinstance(name, str) else None
    if types is None:
        return [f"unknown method {name!r}"]
    if not isinstance(params, dict):
        return ["params: must be an object"]
    pruner = name.rpartition("+")[0]
    problems = []
    if pruner and PRUNERS[pruner].param not in params:
        problems.append(f"{pruner}+ needs {spell(PRUNERS[pruner].param)}")
    for k, v in params.items():
        if k not in types:
            problems.append(f"{spell(k)}: not read by {name}")
            continue
        try:
            types[k](**{k: v})
        except ParameterError as exc:
            problems.append(f"{spell(k)}: {exc}")
    return problems


def solve_method(
    spec: MethodSpec, tree: SinkTree, task_size: float, weights: Weights, b: float
) -> Solution:
    """Run a checked method: its pruning pass, if any, then its solver."""
    work, forced = tree, frozenset()
    if spec.pruner:
        pruner = PRUNERS[spec.pruner]
        work, forced = pruner.prune(
            tree, _build(pruner.params, spec.params), task_size, weights, b
        )
    solver = SOLVERS[spec.solver]
    params = solver.params and _build(solver.params, spec.params)
    return solver.solve(work, task_size, weights, forced, b, params)


# ---------------------------------------------------------------------------
# scenario loading and validation


def scenario_from_doc(doc: dict, scenario_id: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document.

    Collects every problem before failing so the error names all
    offending fields at once.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError(("document must be a JSON object",))

    def check(where: str, build: Callable, *args, **kwargs):
        """build(...), or None with its ParameterError noted at `where`."""
        try:
            return build(*args, **kwargs)
        except ParameterError as exc:
            problems.append(f"{where}{exc}")

    def unread(where: str, obj: Any, reads: Iterable[str], by: str = "") -> None:
        """Note each key of the object `obj` that is not in `reads`."""
        if isinstance(obj, dict):
            for k in sorted(set(obj) - set(reads)):
                problems.append(f"{where}: unknown field {k!r}{by}")

    top = ("scenario_id", "network", *_SCALARS, "weights", "methods", "sweep")
    unread("document", doc, top)
    sid = doc.get("scenario_id", scenario_id)
    if not isinstance(sid, str) or not sid:
        problems.append("scenario_id: must be a non-empty string")

    net = doc.get("network")
    source_kind, source, topology = "", None, None
    sources = ("topology", "file", "generate")
    unread("network", net, sources)
    if not isinstance(net, dict):
        problems.append("network: required object")
    elif sum(k in net for k in sources) != 1:
        problems.append("network: needs exactly one of topology|file|generate")
    elif "topology" in net:
        source_kind, source = "topology", net["topology"]
        if isinstance(source, str) and source in TOPOLOGIES:
            topology = source
        else:
            problems.append(
                f"network.topology: unknown {source!r}, choices {sorted(TOPOLOGIES)}"
            )
    elif "file" in net:
        source_kind, source = "file", net["file"]
        if not isinstance(source, str):
            problems.append(f"network.file: must be a path string, got {source!r}")
    else:
        source_kind = "generate"
        gen = net["generate"]
        if not isinstance(gen, dict):
            problems.append("network.generate: must be an object")
        else:
            known = {f.name for f in fields(GenParams)}
            unread("network.generate", gen, known)
            given = {k: v for k, v in gen.items() if k in known}
            # a required field left out reads as null; any other takes
            # GenParams' own default
            source = check("network.generate: ", GenParams, **{
                "node_count": None, "edge_prob": None,
                "rng_seed": 0, **given,
            })

    scalar = {
        key: check("", checked, key, doc.get(key, default), *bounds)
        for key, (default, *bounds) in _SCALARS.items()
    }
    if topology is not None and "cycles_per_bit" not in doc:
        scalar["cycles_per_bit"] = default_b(topology)

    weights = None
    wdoc = doc.get(
        "weights", {"time": DEFAULT_WEIGHTS.w1, "energy": DEFAULT_WEIGHTS.w2}
    )
    unread("weights", wdoc, ("time", "energy"))
    if not isinstance(wdoc, dict) or "time" not in wdoc or "energy" not in wdoc:
        problems.append("weights: needs {time, energy}")
    else:
        weights = check("weights: ", Weights, wdoc["time"], wdoc["energy"])

    methods: list[MethodSpec] = []
    mdoc = doc.get("methods")
    if not isinstance(mdoc, list) or not mdoc:
        problems.append("methods: required non-empty list")
    else:
        for k, entry in enumerate(mdoc):
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or "name" not in entry:
                problems.append(f"methods[{k}]: needs a name")
                continue
            unread(f"methods[{k}]", entry, ("name", "params"))
            spec = MethodSpec(name=entry["name"], params=entry.get("params", {}))
            found = method_problems(spec.name, spec.params)
            problems += [f"methods[{k}]: {p}" for p in found]
            if not found:
                methods.append(spec)

    sweep = None
    sdoc = doc.get("sweep")
    if sdoc is not None:
        if not isinstance(sdoc, dict) or "parameter" not in sdoc:
            problems.append("sweep: needs a parameter")
        else:
            param = sdoc["parameter"]
            if param not in SWEEP_PARAMS:
                problems.append(
                    f"sweep.parameter: unknown {param!r}, choices {tuple(SWEEP_PARAMS)}"
                )
            else:
                key = SWEEP_PARAMS[param]
                also = {"link_rate": "edge", "cpu_freq": "node"}.get(param)
                by = f" for a {param} sweep"
                unread("sweep", sdoc, ("parameter", key, also), by)
                raw = sdoc.get(key)
                if not isinstance(raw, list) or not raw:
                    problems.append(f"sweep.{key}: required non-empty list")
                    raw = []
                edge = node = None
                if param == "link_rate":
                    e = sdoc.get("edge")
                    if not isinstance(e, list) or len(e) != 2:
                        problems.append("sweep.edge: required [i, j] for link_rate")
                    else:
                        edge = tuple(
                            check("", checked, "sweep.edge", v, int) for v in e
                        )
                if param == "cpu_freq":
                    node = check("", checked, "sweep.node", sdoc.get("node"), int)
                for prefix, pruner in PRUNERS.items():
                    if param == pruner.param and not any(
                        m.pruner == prefix for m in methods
                    ):
                        problems.append(f"sweep {param}: no {prefix}+ method in methods")
                if param == "subtree_count" and source_kind != "generate":
                    problems.append(
                        "sweep subtree_count: needs a generated network source"
                    )
                values = tuple(
                    check(f"sweep.{key}: ", _check_sweep_value, param, v, source)
                    for v in raw
                )
                sweep = SweepSpec(parameter=param, values=values, edge=edge, node=node)

    if problems:
        raise ScenarioError(tuple(problems))
    assert weights is not None
    return Scenario(
        scenario_id=sid,
        source_kind=source_kind,
        source=source,
        task_size=gbit_to_bits(scalar["task_size_gbit"]),
        weights=weights,
        b_comp=scalar["cycles_per_bit"],
        methods=tuple(methods),
        sweep=sweep,
        repetitions=scalar["repetitions"],
    )


def _check_sweep_value(param: str, v: Any, source: Any) -> float:
    """`v` as a float; ParameterError unless it is a value of sweep `param`."""
    if param in ("task_size", "link_rate", "cpu_freq"):
        # in Gbit, Gbps or GHz, bounded as in a network file
        checked(param, v, float, 0, GIGA_MAX, param != "task_size")
    elif param == "subtree_count":
        # at most the generated network's helpers
        hi = source.node_count - 1 if isinstance(source, GenParams) else math.inf
        checked(param, v, int, min(1, hi), hi)
    else:  # a pruner's parameter, checked by its dataclass
        next(p.params for p in PRUNERS.values() if p.param == param)(**{param: v})
    return float(v)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; each problem of a malformed one names the file."""
    p = Path(path)
    with open(p) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise ScenarioError((f"{p}: not valid JSON: {exc}",)) from None
    try:
        return scenario_from_doc(doc, scenario_id=p.stem)
    except ScenarioError as exc:
        raise ScenarioError(f"{p}: {q}" for q in exc.problems) from None


# ---------------------------------------------------------------------------
# network resolution and sweep rewrites


def _base(s: Scenario) -> tuple[NetworkGraph, SinkTree]:
    """The scenario's base network and its sink tree, from the memo."""
    if s.source_kind == "file":
        with open(s.source, "rb") as fh:
            return _memo(s.source_kind, s.source, fh.read())
    return _memo(s.source_kind, s.source)


@lru_cache(maxsize=_MEMO_SIZE)
def _memo(
    kind: str, source: Any, content: bytes | None = None
) -> tuple[NetworkGraph, SinkTree]:
    """Base network and sink tree of a source; the caller must not mutate
    them, since later requests on the same source share them."""
    if kind == "topology":
        top = named_topology(source)
        return top.network, top.tree
    if kind == "file":
        net = parse_network(source, content)
    else:
        net = generate_network(source)
    return net, build_sink_tree(net)


def _with_link_rate(net: NetworkGraph, edge: tuple[int, int], gbps: float) -> NetworkGraph:
    i, j = edge
    if (i, j) not in net.links:
        raise ScenarioError((f"sweep.edge: network has no link {i}-{j}",))
    links = dict(net.links)
    # a one-way link stays one-way
    for key in (i, j), (j, i):
        if key in links:
            links[key] = gbps_to_bps(gbps)
    return NetworkGraph(net.servers, links)


def _with_cpu_freq(net: NetworkGraph, node: int, ghz: float) -> NetworkGraph:
    if not 0 <= node < len(net.servers):
        raise ScenarioError((f"sweep.node: no node {node} in network",))
    servers = list(net.servers)
    servers[node] = replace(servers[node], cpu_freq=ghz_to_hz(ghz))
    return NetworkGraph(tuple(servers), net.links)


def _with_subtree_count(s: Scenario, count: int) -> SinkTree:
    """Sink tree of the first seeded draw that has exactly `count` subtrees."""
    base: GenParams = s.source
    for attempt in range(_SUBTREE_SEARCH_BUDGET):
        params = replace(base, rng_seed=base.rng_seed + attempt)
        try:
            net = generate_network(params)
        except GenerationError:
            continue
        tree = build_sink_tree(net)
        if len(tree.subtree_roots) == count:
            return tree
    raise GenerationError(
        f"no draw with {count} subtrees within {_SUBTREE_SEARCH_BUDGET} seeds "
        f"of {base.rng_seed}"
    )


def _at_point(
    spec: MethodSpec, sweep_param: str | None, value: float | None
) -> MethodSpec:
    """`spec` with its pruner's parameter set to the point's value, if swept."""
    if spec.pruner and PRUNERS[spec.pruner].param == sweep_param:
        return replace(spec, params={**spec.params, sweep_param: value})
    return spec


# ---------------------------------------------------------------------------
# records


def _audit_and_record(
    scenario_id: str,
    method: str,
    sol: Solution,
    full_tree: SinkTree,
    sweep_param: str | None,
    sweep_value: float | None,
    t_exe: float | None,
) -> RunRecord:
    """Map a solution back to original network ids and re-verify its cost."""
    work_net, net_id = sol.tree.to_original, full_tree.to_original
    y_net = [0.0] * len(full_tree)
    for orig, v in zip(work_net, sol.allocation.y):
        y_net[orig] = v

    # full-tree schedule: removed nodes go first, in ascending id, then the
    # surviving nodes in their order.  A removed node then waits on nothing,
    # computes nothing and relays only removed nodes, so its row is 0, and
    # no surviving row gains a nonzero term; ranked after surviving nodes
    # it would wait on their traffic over shared edges, a row that can
    # exceed every surviving one
    rank = {
        work_net[i]: k for order in sol.schedule.orders for k, i in enumerate(order)
    }
    full_sched = Schedule(
        orders=tuple(
            tuple(sorted(nodes, key=lambda i: rank.get(net_id[i], -1)))
            for nodes in full_tree.subtrees.values()
        )
    )
    alloc = Allocation(y=tuple(y_net[o] for o in net_id), total=sol.allocation.total)
    check = system_cost(full_tree, full_sched, alloc, sol.weights, sol.b_comp)
    if not math.isclose(check.j_system, sol.cost, rel_tol=1e-12):
        raise AssertionError(
            f"cost audit failed for {method}: {check.j_system} vs {sol.cost}"
        )

    return RunRecord(
        scenario_id=scenario_id,
        method=method,
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        cost=sol.cost,
        max_time=check.max_time,
        max_energy=check.max_energy,
        t_exe=t_exe,
        allocation=tuple(y_net),
        orders=tuple(tuple(net_id[i] for i in order) for order in full_sched.orders),
        solver_tag=sol.solver_tag,
    )


def _mean_solve_seconds(
    spec: MethodSpec,
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    b: float,
    reps: int,
) -> float | None:
    """Mean wall seconds of `reps` re-solves of `spec`; None when reps <= 0."""
    if reps <= 0:
        return None
    t0 = time.perf_counter()
    for _ in range(reps):
        solve_method(spec, tree, task_size, weights, b)
    return (time.perf_counter() - t0) / reps


def run_scenario(s: Scenario) -> list[RunRecord]:
    """Execute every (sweep point, method) pair in deterministic order."""
    param = s.sweep.parameter if s.sweep else None
    base, base_tree = (None, None) if param == "subtree_count" else _base(s)
    points: list[float | None] = [None] if s.sweep is None else list(s.sweep.values)
    records: list[RunRecord] = []
    for value in points:
        tree, task_size = base_tree, s.task_size
        if param == "task_size":
            task_size = gbit_to_bits(value)
        elif param == "link_rate":
            tree = build_sink_tree(_with_link_rate(base, s.sweep.edge, value))
        elif param == "cpu_freq":
            tree = build_sink_tree(_with_cpu_freq(base, s.sweep.node, value))
        elif param == "subtree_count":
            tree = _with_subtree_count(s, int(value))

        for spec in s.methods:
            spec = _at_point(spec, param, value)
            sol = solve_method(spec, tree, task_size, s.weights, s.b_comp)
            t_exe = _mean_solve_seconds(
                spec, tree, task_size, s.weights, s.b_comp, s.repetitions
            )
            records.append(
                _audit_and_record(
                    s.scenario_id, spec.name, sol, tree, param, value, t_exe
                )
            )
    return records


# ---------------------------------------------------------------------------
# emission


# RunRecord field -> record column, in CSV and JSON order; the allocation,
# orders and solver tag follow
_COLUMNS = (
    ("scenario_id", "scenario_id"),
    ("method", "method"),
    ("sweep_param", "sweep_param"),
    ("sweep_value", "sweep_value"),
    ("cost", "cost_J"),
    ("max_time", "max_T_total_s"),
    ("max_energy", "max_E_total_J"),
    ("t_exe", "T_exe_s"),
)


def _cell(v: str | float | None) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else "%.12g" % v


def emit_csv(records: list[RunRecord], path: str | Path) -> None:
    """Stable-column CSV; float cells carry 12 significant digits."""
    n = max((len(r.allocation) for r in records), default=0)
    with rewrite(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow([col for _, col in _COLUMNS] + [f"y_{i}" for i in range(n)])
        for r in records:
            row = [_cell(getattr(r, f)) for f, _ in _COLUMNS]
            row.extend(_cell(v) for v in r.allocation)
            row.extend("" for _ in range(n - len(r.allocation)))
            w.writerow(row)


def record_to_doc(r: RunRecord) -> dict:
    return {
        **{col: getattr(r, f) for f, col in _COLUMNS},
        "allocation": list(r.allocation),
        "orders": [list(o) for o in r.orders],
        "solver_tag": r.solver_tag,
    }


def emit_json(records: list[RunRecord], path: str | Path) -> None:
    write_json(path, [record_to_doc(r) for r in records])

