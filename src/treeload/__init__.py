"""Task splitting and offload scheduling over multi-hop delivery trees.

A master server holds an arbitrarily divisible workload and a tree of
helpers behind multi-hop links.  The package builds the delivery tree,
prices every (schedule, allocation) pair with a max-of-weighted-sums cost,
and solves for the joint optimum exactly or approximately.  `harness` and
the `treeload` CLI wrap the solvers for scripted experiments.
"""

from .costs import (
    Allocation,
    CostBreakdown,
    Schedule,
    Weights,
    canonical_schedule,
    system_cost,
)
from .errors import (
    GenerationError,
    InfeasibleError,
    ParameterError,
    ScenarioError,
    ScheduleError,
    TreeloadError,
    UnreachableNodeError,
)
from .harness import (
    RunRecord,
    Scenario,
    emit_csv,
    emit_json,
    load_scenario,
    run_scenario,
)
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
    ServerParams,
    generate_network,
    load_network,
    save_network,
)
from .solvers import (
    Solution,
    cmo,
    count_schedules,
    load_baseline,
    pmo,
    save_baseline,
    scale_solution,
    solve_fixed_order,
)
from .topologies import TOPOLOGIES, NamedTopology, named_topology
from .tree import SinkTree, build_sink_tree, prune_tree
from .verification import check_solution, check_tree, simulate_delivery, verify_instance

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "CostBreakdown",
    "GaParams",
    "GenParams",
    "GenerationError",
    "InfeasibleError",
    "LpParams",
    "NamedTopology",
    "NetworkGraph",
    "NpParams",
    "ParameterError",
    "RunRecord",
    "Scenario",
    "ScenarioError",
    "Schedule",
    "ScheduleError",
    "ServerParams",
    "SinkTree",
    "Solution",
    "TOPOLOGIES",
    "TreeloadError",
    "UnreachableNodeError",
    "Weights",
    "baseline_local",
    "baseline_master_worker",
    "baseline_multi_hop",
    "baseline_partial",
    "build_sink_tree",
    "canonical_schedule",
    "check_solution",
    "check_tree",
    "cmo",
    "count_schedules",
    "emit_csv",
    "emit_json",
    "ga",
    "generate_network",
    "level_prune",
    "load_baseline",
    "load_network",
    "load_scenario",
    "named_topology",
    "node_prune",
    "pmo",
    "prune_tree",
    "run_scenario",
    "save_baseline",
    "save_network",
    "scale_solution",
    "simulate_delivery",
    "solve_fixed_order",
    "system_cost",
    "verify_instance",
]
