import csv
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from treeload import (
    GenParams,
    ScenarioError,
    Weights,
    build_sink_tree,
    emit_csv,
    emit_json,
    generate_network,
    load_records,
    load_scenario,
    run_scenario,
)
from treeload.harness import (
    PRUNERS,
    SOLVERS,
    SWEEP_PARAMS,
    RunRecord,
    Scenario,
    method_params,
    scenario_from_doc,
    solve_method,
)

ROOT = Path(__file__).resolve().parent.parent

BASE_DOC = {
    "scenario_id": "t",
    "network": {"topology": "two_subtree"},
    "task_size_gbit": 1.0,
    "weights": {"time": 0.5, "energy": 0.05},
    "cycles_per_bit": 1.0,
    "repetitions": 0,
    "methods": ["pmo"],
}


def doc(**over):
    d = json.loads(json.dumps(BASE_DOC))
    d.update(over)
    return d


def test_doc_parses_and_defaults():
    s = scenario_from_doc(doc())
    assert s.scenario_id == "t"
    assert s.source_kind == "topology"
    assert s.task_size == pytest.approx(1e9)
    assert s.weights == Weights(0.5, 0.05)
    assert s.methods[0].name == "pmo"
    assert s.sweep is None


def test_doc_error_lists_every_problem_at_once():
    bad = doc(
        task_size_gbit=-1,
        cycles_per_bit=math.nan,
        repetitions=-3,
        methods=["pmo", "warp", "np+local", "+pmo", {"name": 7},
                 {"name": "pmo", "params": []}],
    )
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(bad)
    msg = str(exc.value)
    assert "task_size_gbit" in msg
    assert "cycles_per_bit" in msg
    assert "repetitions" in msg
    assert "warp" in msg
    assert "methods[2]: unknown method 'np+local'" in msg
    assert "methods[3]: unknown method '+pmo'" in msg
    assert "methods[4]: unknown method 7" in msg
    assert "methods[5]: params: must be an object" in msg


@pytest.mark.parametrize("field", ["task_size_gbit", "cycles_per_bit"])
@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_doc_rejects_non_finite_numbers(field, text):
    # json reads NaN and Infinity as floats
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(**{field: json.loads(text)}))
    assert field in str(exc.value)


def test_doc_requires_np_params():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(methods=["np+pmo"]))
    assert "theta_p" in str(exc.value)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(methods=["lp+cmo"]))
    assert "xi" in str(exc.value)


def test_doc_rejects_params_the_method_does_not_read():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(
            doc(
                methods=[
                    {"name": "ga", "params": {"populaton": 50}},
                    {"name": "pmo", "params": {"theta_p": 0.9}},
                    {"name": "np+ga", "params": {"theta_p": 0.1, "xi": 2}},
                    {"name": "lp+pmo", "params": {"xi": 1, "rng_seed": 3}},
                    {"name": "ga", "params": {"elite_frac": 0.2}},
                ]
            )
        )
    problems = exc.value.problems
    assert problems == (
        "methods[0]: params.populaton: not read by ga",
        "methods[1]: params.theta_p: not read by pmo",
        "methods[2]: params.xi: not read by np+ga",
        "methods[3]: params.rng_seed: not read by lp+pmo",
        "methods[4]: params.elite_frac: not read by ga",
    )
    # every key a method does read is accepted
    s = scenario_from_doc(
        doc(
            methods=[
                {"name": "np+ga", "params": {"theta_p": 0.1, "population": 6,
                                             "generations": 2, "rng_seed": 3}},
                {"name": "lp+cmo", "params": {"xi": 1}},
            ]
        )
    )
    assert [m.name for m in s.methods] == ["np+ga", "lp+cmo"]


def test_schema_agrees_with_the_method_table():
    import jsonschema

    schema = json.loads((ROOT / "schemas" / "scenario.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        doc_ = json.loads(path.read_text())
        assert not list(validator.iter_errors(doc_)), path.name
        scenario_from_doc(doc_)

    names = [
        prefix + solver
        for prefix in ("", *(f"{p}+" for p in PRUNERS))
        for solver in SOLVERS
    ] + ["oracle", "np+", "+pmo", "lp+np+pmo", "np+local", "ga+", "pmo "]
    for name in names:
        as_doc = {"network": {"topology": "mixed"}, "methods": [name]}
        in_schema = validator.is_valid(as_doc)
        assert in_schema == (method_params(name) is not None), name

    items = schema["properties"]["methods"]["items"]["oneOf"][1]
    in_schema = set(items["properties"]["params"]["properties"])
    read = {k for n in names if method_params(n) for k in method_params(n)}
    assert read == in_schema


def test_schema_agrees_with_the_sweep_and_generate_tables():
    schema = json.loads((ROOT / "schemas" / "scenario.schema.json").read_text())
    sweep = schema["properties"]["sweep"]["properties"]
    assert sweep["parameter"]["enum"] == list(SWEEP_PARAMS)
    assert set(sweep) == {"parameter", "edge", "node", *SWEEP_PARAMS.values()}

    (gen_source,) = [
        s for s in schema["properties"]["network"]["oneOf"]
        if s["required"] == ["generate"]
    ]
    gen = gen_source["properties"]["generate"]
    assert set(gen["properties"]) == {f.name for f in fields(GenParams)}
    assert gen["additionalProperties"] is False


def test_doc_sweep_validation():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(
            doc(sweep={"parameter": "link_rate", "values_gbps": [1, 2]})
        )
    assert "edge" in str(exc.value)

    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(sweep={"parameter": "cpu_freq", "values_ghz": [1]}))
    assert "node" in str(exc.value)

    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(sweep={"parameter": "theta_p", "values": [0.1]}))
    assert "np+" in str(exc.value)

    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(sweep={"parameter": "subtree_count", "values": [2]}))
    assert "generated" in str(exc.value)

    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(sweep={"parameter": "humidity", "values": [1]}))
    assert "humidity" in str(exc.value)


def _method(name, **params):
    return {"methods": [{"name": name, "params": params}]}


GENERATED = {"network": {"generate": {"node_count": 6, "edge_prob": 0.5}}}


@pytest.mark.parametrize(
    "over, problem",
    [
        (_method("ga", population=2.5),
         "methods[0]: params.population: population must be an integer"),
        (_method("ga", generations="3"),
         "methods[0]: params.generations: generations must be an integer"),
        (_method("np+pmo", theta_p="x"),
         "methods[0]: params.theta_p: theta_p must be a number"),
        (_method("lp+pmo", xi=1.5),
         "methods[0]: params.xi: xi must be an integer"),
        (_method("ga", rng_seed=1.5),
         "methods[0]: params.rng_seed: rng_seed must be an integer"),
        ({**_method("lp+pmo", xi=1),
          "sweep": {"parameter": "xi", "values": [1.5, 2.7]}},
         "sweep.values: xi must be an integer in [0, inf], got 1.5"),
        ({**GENERATED, **_method("pmo"),
          "sweep": {"parameter": "subtree_count", "values": [2, 2.5]}},
         "sweep.values: subtree_count must be an integer in [1, 5], got 2.5"),
        # integral floats are integers: sweep values are parsed as floats
        (_method("ga", population=4.0, generations=2.0, rng_seed=3.0), None),
        ({**_method("lp+pmo", xi=1.0),
          "sweep": {"parameter": "xi", "values": [1.0, 2]}}, None),
    ],
    ids=["population-2.5", "generations-str", "theta_p-str", "xi-1.5",
         "rng_seed-1.5", "xi-sweep-1.5", "subtree_count-sweep-2.5",
         "ga-integral-floats", "xi-sweep-integral-floats"],
)
def test_doc_checks_method_parameter_types(over, problem):
    if problem is None:
        s = scenario_from_doc(doc(**over))
        assert run_scenario(s)
        return
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(**over))
    assert any(p.startswith(problem) for p in exc.value.problems)


GENERATED_7 = {"network": {"generate": {"node_count": 7, "edge_prob": 0.5}}}


@pytest.mark.parametrize(
    "over, problem",
    [
        ({"sweep": {"parameter": "task_size", "values_gbit": [1, -1]}},
         "sweep.values_gbit: task_size must be a number in [0, inf), got -1"),
        ({"sweep": {"parameter": "task_size", "values_gbit": [1, math.nan]}},
         "sweep.values_gbit: task_size must be a number in [0, inf), got nan"),
        ({"sweep": {"parameter": "cpu_freq", "node": 1, "values_ghz": [2, 0]}},
         "sweep.values_ghz: cpu_freq must be a number in (0, inf), got 0"),
        ({"sweep": {"parameter": "link_rate", "edge": [0, 1],
                    "values_gbps": [1, -2]}},
         "sweep.values_gbps: link_rate must be a number in (0, inf), got -2"),
        ({**_method("np+pmo", theta_p=0.1),
          "sweep": {"parameter": "theta_p", "values": [0.1, 1.5]}},
         "sweep.values: theta_p must be a number in [0, 1], got 1.5"),
        ({**_method("lp+pmo", xi=1),
          "sweep": {"parameter": "xi", "values": [1, -3]}},
         "sweep.values: xi must be an integer in [0, inf], got -3"),
        ({**GENERATED_7, **_method("pmo"),
          "sweep": {"parameter": "subtree_count", "values": [2, 0]}},
         "sweep.values: subtree_count must be an integer in [1, 6], got 0"),
        ({**GENERATED_7, **_method("pmo"),
          "sweep": {"parameter": "subtree_count", "values": [7]}},
         "sweep.values: subtree_count must be an integer in [1, 6], got 7"),
        ({"sweep": {"parameter": "task_size", "values_gbit": ["1.5", 2]}},
         "sweep.values_gbit: task_size must be a number in [0, inf), got '1.5'"),
        ({"sweep": {"parameter": "task_size", "values_gbit": [True]}},
         "sweep.values_gbit: task_size must be a number in [0, inf), got True"),
        # each value list has one spelling
        ({"sweep": {"parameter": "task_size", "values": [1, 2]}},
         "sweep.values_gbit: required non-empty list"),
        ({"repetitions": True},
         "repetitions must be an integer in [0, inf], got True"),
        ({"sweep": {"parameter": "link_rate", "edge": [False, True],
                    "values_gbps": [1]}},
         "sweep.edge must be an integer in [0, inf], got False"),
        ({"sweep": {"parameter": "cpu_freq", "node": True, "values_ghz": [1]}},
         "sweep.node must be an integer in [0, inf], got True"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "tx_power_dbm": 20.0}}},
         "network.generate: unknown field 'tx_power_dbm'"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "gama": 2e-28}}},
         "network.generate: unknown field 'gama'"),
        ({"network": {"generate": {"node_count": 4.5, "edge_prob": 0.5}}},
         "network.generate: node_count must be an integer in [1, inf], got 4.5"),
        ({"network": {"generate": {"node_count": True, "edge_prob": 0.5}}},
         "network.generate: node_count must be an integer in [1, inf], got True"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "rng_seed": 1.5}}},
         "network.generate: rng_seed must be an integer in [0, inf], got 1.5"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "rng_seed": False}}},
         "network.generate: rng_seed must be an integer in [0, inf], got False"),
        ({"task_size_gbit": True},
         "task_size_gbit must be a number in [0, inf), got True"),
        ({"cycles_per_bit": True},
         "cycles_per_bit must be a number in (0, inf), got True"),
        ({"weights": {"time": True, "energy": 0.05}},
         "weights: w1 must be a number in [0, inf), got True"),
        ({"weights": {"time": 0.5, "energy": False}},
         "weights: w2 must be a number in [0, inf), got False"),
        ({"network": {"topology": ["mixed"]}},
         "network.topology: unknown ['mixed'], choices "
         "['deep_chain', 'mixed', 'two_subtree', 'wide_shallow']"),
        ({"network": {"file": 5}}, "network.file: must be a path string, got 5"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": True}}},
         "network.generate: edge_prob must be a number in [0, 1], got True"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": "0.3"}}},
         "network.generate: edge_prob must be a number in [0, 1], got '0.3'"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "gamma": math.nan}}},
         "network.generate: gamma must be a number in [0, inf), got nan"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "gamma": True}}},
         "network.generate: gamma must be a number in [0, inf), got True"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "freq_range_ghz": [1.0]}}},
         "network.generate: freq_range_ghz must be [lo, hi], got [1.0]"),
        ({"network": {"generate": {"node_count": 4, "edge_prob": 0.5,
                                   "rate_range_gbps": [10, math.inf]}}},
         "network.generate: rate_range_gbps hi must be a number in [10.0, inf), "
         "got inf"),
    ],
    ids=["task_size-negative", "task_size-nan", "cpu_freq-zero",
         "link_rate-negative", "theta_p-1.5", "xi-negative",
         "subtree_count-zero", "subtree_count-above-helpers", "value-str",
         "value-bool", "values-spelling", "repetitions-bool", "edge-bool",
         "node-bool", "generate-tx_power_dbm", "generate-typo",
         "node_count-4.5", "node_count-bool", "generate-rng_seed-1.5",
         "generate-rng_seed-bool", "task_size-bool", "cycles_per_bit-bool",
         "weights-time-bool", "weights-energy-bool", "topology-list",
         "file-int", "edge_prob-bool", "edge_prob-str", "gamma-nan", "gamma-bool",
         "freq_range-one-value", "rate_range-inf"],
)
def test_doc_refuses_a_bad_value_before_running(over, problem):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_doc(doc(**over))
    assert problem in exc.value.problems


def test_doc_network_variants():
    s = scenario_from_doc(doc(network={"file": "somewhere.json"}))
    assert s.source_kind == "file"
    s = scenario_from_doc(
        doc(network={"generate": {"node_count": 4, "edge_prob": 0.5}})
    )
    assert s.source_kind == "generate"
    with pytest.raises(ScenarioError):
        scenario_from_doc(doc(network={"topology": "moebius"}))
    with pytest.raises(ScenarioError):
        scenario_from_doc(doc(network={}))


def test_load_scenario_defaults_id_to_stem(tmp_path):
    d = doc()
    del d["scenario_id"]
    p = tmp_path / "night_run.json"
    p.write_text(json.dumps(d))
    assert load_scenario(p).scenario_id == "night_run"


def test_run_scenario_solo_master_local():
    s = scenario_from_doc(
        doc(
            network={"generate": {"node_count": 1, "edge_prob": 1.0}},
            methods=["local"],
        )
    )
    records = run_scenario(s)
    assert len(records) == 1
    r = records[0]
    assert r.method == "local"
    assert r.allocation == (1e9,)
    assert r.cost > 0


def test_run_scenario_deterministic_and_ordered():
    s = scenario_from_doc(doc(methods=["local", "pmo", "master_worker"]))
    a = run_scenario(s)
    b = run_scenario(s)
    assert [r.method for r in a] == ["local", "pmo", "master_worker"]
    assert [r.cost for r in a] == [r.cost for r in b]
    assert [r.allocation for r in a] == [r.allocation for r in b]


def test_run_scenario_records_full_length_rows_after_pruning():
    s = scenario_from_doc(
        doc(methods=[{"name": "np+pmo", "params": {"theta_p": 1.0}}])
    )
    (r,) = run_scenario(s)
    # pruning removed every helper, yet the record spans the whole network
    assert len(r.allocation) == 8
    assert r.allocation[0] == pytest.approx(1e9)
    assert sum(r.allocation[1:]) == 0.0
    flat = [i for order in r.orders for i in order]
    assert sorted(flat) == list(range(1, 8))


def test_pruned_record_maps_the_solution_to_network_ids():
    # np+ keeps three helpers and node 1 as a zero-load relay, and removes
    # network nodes 3 and 5; the builder relabels the network's ids
    s = scenario_from_doc(
        doc(
            network={"generate": {"node_count": 7, "edge_prob": 0.4, "rng_seed": 7}},
            methods=[{"name": "np+pmo", "params": {"theta_p": 0.3}}],
        )
    )
    (r,) = run_scenario(s)
    tree = build_sink_tree(generate_network(s.source))
    sol = solve_method(s.methods[0], tree, s.task_size, s.weights, s.b_comp)
    work, net_id = sol.tree, tree.to_original
    assert list(net_id) != sorted(net_id)
    removed = set(net_id) - set(work.to_original)
    assert removed == {3, 5}
    assert 0 < sum(v > 0 for v in sol.allocation.y[1:]) < len(work) - 1

    want_orders = []
    for root, nodes in tree.subtrees.items():
        (order,) = [
            o for t, o in zip(work.subtree_roots, sol.schedule.orders)
            if work.to_original[t] == net_id[root]
        ]
        rest = [net_id[i] for i in nodes if net_id[i] in removed]  # ascending tree id
        want_orders.append(tuple(work.to_original[i] for i in order) + tuple(rest))
    assert r.orders == tuple(want_orders)
    assert r.orders[1][-2:] == (3, 5)

    by_net = dict(zip(work.to_original, sol.allocation.y))
    assert r.allocation == tuple(by_net.get(k, 0.0) for k in range(len(tree)))
    assert r.allocation[1] == 0.0 and 1 in work.to_original


def test_task_size_sweep_scales_costs_proportionally():
    s = scenario_from_doc(
        doc(sweep={"parameter": "task_size", "values_gbit": [1, 2, 4]})
    )
    records = run_scenario(s)
    assert [r.sweep_value for r in records] == [1, 2, 4]
    assert records[1].cost == pytest.approx(2 * records[0].cost, rel=1e-9)
    assert records[2].cost == pytest.approx(4 * records[0].cost, rel=1e-9)


def test_link_rate_sweep_touches_named_edge():
    s = scenario_from_doc(
        doc(
            methods=["pmo"],
            sweep={
                "parameter": "link_rate",
                "edge": [0, 1],
                "values_gbps": [0.3, 10.0],
            },
        )
    )
    slow, fast = run_scenario(s)
    assert slow.cost > fast.cost


def test_link_rate_sweep_rejects_phantom_edge():
    s = scenario_from_doc(
        doc(
            sweep={
                "parameter": "link_rate",
                "edge": [0, 7],
                "values_gbps": [1.0],
            }
        )
    )
    with pytest.raises(ScenarioError):
        run_scenario(s)


def test_timing_appears_when_repetitions_positive():
    s = scenario_from_doc(doc(methods=["local"], repetitions=2))
    (r,) = run_scenario(s)
    assert r.t_exe is not None and r.t_exe >= 0.0
    s0 = scenario_from_doc(doc(methods=["local"], repetitions=0))
    (r0,) = run_scenario(s0)
    assert r0.t_exe is None


def test_csv_layout_and_byte_stability(tmp_path):
    s = scenario_from_doc(doc(methods=["local", "pmo"]))
    records = run_scenario(s)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, p1)
    emit_csv(run_scenario(s), p2)
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == (
        "scenario_id,method,sweep_param,sweep_value,cost_J,"
        "max_T_total_s,max_E_total_J,T_exe_s,y_0,y_1,y_2,y_3,y_4,y_5,y_6,y_7"
    )
    assert len(p1.read_text().splitlines()) == len(records) + 1


def test_csv_empty_records_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv([], p)
    lines = p.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("scenario_id,")


def test_csv_pads_mixed_widths(tmp_path):
    small = RunRecord(
        scenario_id="s", method="local", sweep_param=None, sweep_value=None,
        cost=1.0, max_time=1.0, max_energy=0.0, t_exe=None,
        allocation=(1.0, 0.0), orders=((1,),), solver_tag="baseline-local",
    )
    wide = RunRecord(
        scenario_id="w", method="local", sweep_param=None, sweep_value=None,
        cost=1.0, max_time=1.0, max_energy=0.0, t_exe=None,
        allocation=(1.0, 0.0, 0.0, 0.0), orders=((1, 2, 3),), solver_tag="baseline-local",
    )
    p = tmp_path / "mix.csv"
    emit_csv([small, wide], p)
    rows = p.read_text().splitlines()
    assert rows[0].endswith("y_0,y_1,y_2,y_3")
    assert rows[1].split(",")[8:] == ["1", "0", "", ""]


def test_json_roundtrip(tmp_path):
    s = scenario_from_doc(doc(methods=["pmo", "local"]))
    records = run_scenario(s)
    p = tmp_path / "r.json"
    emit_json(records, p)
    back = load_records(p)
    assert back == records
    assert list(json.loads(p.read_text())[0]) == [
        "scenario_id", "method", "sweep_param", "sweep_value", "cost_J",
        "max_T_total_s", "max_E_total_J", "T_exe_s", "allocation", "orders",
        "solver_tag",
    ]


def test_float_format_uses_12_significant_digits(tmp_path):
    s = scenario_from_doc(doc(methods=["pmo"]))
    records = run_scenario(s)
    emit_csv(records, tmp_path / "f.csv")
    row = (tmp_path / "f.csv").read_text().splitlines()[1]
    cost_field = row.split(",")[4]
    assert float(cost_field) == pytest.approx(records[0].cost, rel=1e-11)
    assert len(cost_field.replace(".", "").replace("-", "").lstrip("0")) <= 12


def _rows_without_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index("T_exe_s")
    return [row[:k] + row[k + 1:] for row in rows]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.stem
)
def test_scenario_reproduces_committed_results(path, tmp_path):
    # every committed result file is deterministic apart from its timing
    s = replace(load_scenario(path), repetitions=0)
    out = tmp_path / f"{s.scenario_id}.csv"
    emit_csv(run_scenario(s), out)
    want = _rows_without_timing(ROOT / "results" / f"{s.scenario_id}.csv")
    assert _rows_without_timing(out) == want
