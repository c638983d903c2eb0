import json
import math
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import default_problem, make_net
from treeload import harness, save_network
from treeload.cli import build_parser, main
from treeload.topologies import named_topology
from treeload.tree import tree_fingerprint
from treeload.units import GIGA_MAX

SCENARIO = {
    "scenario_id": "cli_case",
    "network": {"topology": "two_subtree"},
    "task_size_gbit": 1.0,
    "weights": {"time": 0.5, "energy": 0.05},
    "cycles_per_bit": 1.0,
    "repetitions": 0,
    "methods": ["pmo", "local"],
    "sweep": {"parameter": "task_size", "values_gbit": [1.0, 2.0]},
}


def test_generate_then_tree(tmp_path, capsys):
    rc = main(
        [
            "generate", "--nodes", "6", "--edge-prob", "0.5", "--seed", "4",
            "--out", str(tmp_path), "--name", "n6",
        ]
    )
    assert rc == 0
    net_file = tmp_path / "n6.json"
    assert net_file.exists()
    capsys.readouterr()

    rc = main(["tree", "--network", str(net_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(master)" in out
    assert "subtrees rooted at" in out


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--gamma", "nan"], "gamma"),
        (["--gamma", "inf"], "gamma"),
        (["--freq-range", "1", "inf"], "freq_range_ghz hi"),
        (["--rate-range", "0", "10"], "rate_range_gbps lo"),
        (["--edge-prob", "nan"], "edge_prob"),
    ],
)
def test_generate_refuses_a_bad_number(flags, field, tmp_path, capsys):
    rc = main(["generate", "--nodes", "3", "--out", str(tmp_path), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be a number" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_tree_from_named_topology(capsys):
    assert main(["tree", "--topology", "deep_chain"]) == 0
    out = capsys.readouterr().out
    assert out.count("GHz") == 6


def test_tree_prints_children_under_their_parent(capsys):
    assert main(["tree", "--topology", "two_subtree"]) == 0
    out = capsys.readouterr().out
    ids = [
        int(line.strip().split(":")[0])
        for line in out.splitlines()
        if "GHz" in line
    ]
    # depth-first order, not level order
    assert ids == [0, 1, 3, 5, 6, 2, 4, 7]


def test_tree_rejects_directory_path(tmp_path, capsys):
    rc = main(["tree", "--network", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_tree_requires_exactly_one_source(capsys):
    rc = main(["tree", "--topology", "mixed", "--nodes", "4"])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_solve_writes_record(tmp_path, capsys):
    rc = main(
        [
            "solve", "--topology", "mixed", "--method", "pmo",
            "--out", str(tmp_path), "--format", "csv",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "cost J" in out
    csv = (tmp_path / "mixed_pmo.csv").read_text().splitlines()
    assert len(csv) == 2
    assert csv[0].startswith("scenario_id,method")


@pytest.mark.parametrize("source", ["topology", "network"])
def test_solve_and_a_scenario_default_to_the_same_problem(source, tmp_path, capsys):
    # no task size, weights or cycles per bit on either side
    net = tmp_path / "n6.json"
    main(["generate", "--nodes", "6", "--seed", "2", "--name", "n6",
          "--out", str(tmp_path)])
    flag, value, block = {
        "topology": ("--topology", "mixed", {"topology": "mixed"}),
        "network": ("--network", str(net), {"file": str(net)}),
    }[source]
    main(["solve", flag, value, "--method", "pmo", "--out", str(tmp_path), "--format",
          "json"])
    (solved,) = json.loads(next(tmp_path.glob("*_pmo.json")).read_text())
    scen = tmp_path / "bare.json"
    scen.write_text(
        json.dumps({"network": block, "methods": ["pmo"], "repetitions": 0})
    )
    out = tmp_path / "compared"
    assert main(["compare", "--scenario", str(scen), "--out", str(out),
                 "--format", "json"]) == 0
    (ran,) = json.loads((out / "bare.json").read_text())
    assert ran["cost_J"] == solved["cost_J"]
    assert ran["allocation"] == solved["allocation"]


def test_solve_prints_the_record_of_a_pruned_answer(tmp_path, capsys):
    # lp+pmo solves the two levels next to the master; the printout shows
    # the full tree's figures, which the written record holds
    rc = main(["solve", "--nodes", "9", "--edge-prob", "0.35", "--seed", "0",
               "--method", "lp+pmo", "--xi", "2", "--w1", "1", "--w2", "0",
               "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    (record,) = json.loads((tmp_path / "random-9n-s0_lp+pmo.json").read_text())
    assert f"max T (s)   {record['max_T_total_s']:.9g}\n" in out
    assert f"max E (J)   {record['max_E_total_J']:.9g}\n" in out


def test_solve_rejects_unknown_method(capsys):
    rc = main(["solve", "--topology", "mixed", "--method", "oracle"])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err


def test_solve_np_needs_threshold(capsys):
    rc = main(["solve", "--topology", "mixed", "--method", "np+pmo"])
    assert rc == 2
    assert "theta-p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "pmo", "--w1", "nan"],
        ["--method", "pmo", "--w1", "inf"],
        ["--method", "pmo", "--task-gbit", "inf"],
        ["--method", "pmo", "--task-gbit", "nan"],
        ["--method", "pmo", "--cycles-per-gbit", "-1"],
        ["--method", "pmo", "--cycles-per-gbit", "0"],
        ["--method", "local", "--w1", "nan"],
    ],
)
def test_solve_rejects_bad_numbers(flags, capsys):
    rc = main(["solve", "--topology", "mixed", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--task-gbit", "-1"],
         f"--task-gbit must be a number in [0, {GIGA_MAX}], got -1.0"),
        (["--task-gbit", "1e300"],
         f"--task-gbit must be a number in [0, {GIGA_MAX}], got 1e+300"),
        (["--cycles-per-gbit", "0"],
         "--cycles-per-gbit must be a number in (0, inf), got 0.0"),
        (["--cycles-per-gbit", "1e-320"],
         "--cycles-per-gbit must give a positive number of cycles per bit, "
         "got 1e-320"),
    ],
    ids=["task-negative", "task-overflow", "cycles-zero", "cycles-underflow"],
)
def test_solve_names_a_bad_problem_flag_in_its_units(flags, message, capsys):
    rc = main(["solve", "--topology", "mixed", "--method", "pmo", *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_names_an_overflowing_weight(capsys):
    rc = main(
        ["solve", "--nodes", "6", "--edge-prob", "0.5", "--method", "pmo",
         "--w2", "1e308"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "overflows" in err
    assert "Traceback" not in err


def test_solve_names_an_enumeration_too_long_to_number(tmp_path, capsys):
    # a 22-node chain: its one 21-node subtree has 21! >= 2**63 orders
    net = tmp_path / "chain22.json"
    save_network(make_net(list(range(-1, 21)), [0.0] + [10.0] * 21, [2.0] * 22), net)
    rc = main(["solve", "--network", str(net), "--method", "pmo"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(math.factorial(21)) in err
    assert "Traceback" not in err


def test_local_names_an_overflowing_cost(capsys):
    # no split runs, so the audit's own check must name the overflow, and
    # before numpy warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["solve", "--nodes", "6", "--edge-prob", "0.5", "--method", "local",
             "--w2", "1e308"]
        )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "overflows" in err
    assert "Traceback" not in err


def test_solve_reports_the_requested_method(capsys):
    rc = main(
        ["solve", "--topology", "mixed", "--method", "np+pmo",
         "--theta-p", "0.3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "method      np+pmo" in out


def test_solve_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "plan.json"
    rc = main(
        ["solve", "--topology", "deep_chain", "--method", "pmo",
         "--cache", str(cache)]
    )
    assert rc == 0
    first = capsys.readouterr().out
    assert "cached plan" in first
    rc = main(
        ["solve", "--topology", "deep_chain", "--method", "pmo",
         "--task-gbit", "3", "--cache", str(cache)]
    )
    assert rc == 0
    second = capsys.readouterr().out
    assert "reusing cached plan" in second
    assert "+scaled" in second

    def cost_of(text):
        line = next(l for l in text.splitlines() if l.startswith("cost J"))
        return float(line.split()[-1])

    assert cost_of(second) == pytest.approx(3 * cost_of(first), rel=1e-6)


def test_solve_cache_serves_only_the_method_that_wrote_it(tmp_path, capsys):
    cache = tmp_path / "plan.json"
    assert main(
        ["solve", "--topology", "mixed", "--method", "pmo", "--cache", str(cache)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["solve", "--topology", "mixed", "--method", "local", "--cache", str(cache),
         "--out", str(tmp_path), "--format", "json"]
    ) == 0
    cached_run = capsys.readouterr().out
    assert main(["solve", "--topology", "mixed", "--method", "local"]) == 0
    fresh_run = capsys.readouterr().out
    assert "reusing cached plan" not in cached_run

    def cost_line(text):
        return next(l for l in text.splitlines() if l.startswith("cost J"))

    assert cost_line(cached_run) == cost_line(fresh_run)
    (row,) = json.loads((tmp_path / "mixed_local.json").read_text())
    assert row["method"] == "local" and row["solver_tag"] == "baseline-local"


@pytest.mark.parametrize(
    "verb, flags, message",
    [
        ("solve", ["--ga-population", "1"], "--ga-population: not read by pmo"),
        ("solve", ["--xi", "2"], "--xi: not read by pmo"),
        ("verify", ["--xi", "2"], "--xi: not read by pmo"),
        ("solve", ["--theta-p", "0.1"], "--theta-p: not read by pmo"),
    ],
)
def test_method_flags_the_method_does_not_read_are_refused(
    verb, flags, message, capsys
):
    # as a scenario's params are; --seed, which also seeds --nodes
    # networks, is left out of the method's params instead
    rc = main([verb, "--topology", "mixed", "--method", "pmo", *flags])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_solve_ga_flags_reach_only_ga(capsys):
    # --seed reaches no method that does not read it ...
    assert main(
        ["solve", "--topology", "wide_shallow", "--method", "pmo", "--seed", "3"]
    ) == 0
    capsys.readouterr()
    # ... and --ga-* flags are checked by GaParams when the method reads them
    rc = main(
        ["solve", "--topology", "wide_shallow", "--method", "ga",
         "--ga-population", "1"]
    )
    assert rc == 2
    assert "population" in capsys.readouterr().err


def test_compare_runs_base_point_only(tmp_path, capsys):
    scen = tmp_path / "case.json"
    scen.write_text(json.dumps(SCENARIO))
    rc = main(
        ["compare", "--scenario", str(scen), "--out", str(tmp_path), "--format", "json"]
    )
    assert rc == 0
    rows = json.loads((tmp_path / "cli_case.json").read_text())
    # sweep stripped: one record per method
    assert [r["method"] for r in rows] == ["pmo", "local"]
    assert all(r["sweep_param"] is None for r in rows)


def test_sweep_runs_every_point(tmp_path, capsys):
    scen = tmp_path / "case.json"
    scen.write_text(json.dumps(SCENARIO))
    rc = main(
        ["sweep", "--scenario", str(scen), "--out", str(tmp_path), "--format", "csv"]
    )
    assert rc == 0
    rows = (tmp_path / "cli_case_sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # 2 points x 2 methods
    assert "task_size" in rows[1]


def test_sweep_rejects_sweepless_scenario(tmp_path, capsys):
    doc = dict(SCENARIO)
    del doc["sweep"]
    scen = tmp_path / "case.json"
    scen.write_text(json.dumps(doc))
    rc = main(["sweep", "--scenario", str(scen)])
    assert rc == 2
    assert "no sweep" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "compare", "sweep"])
def test_negative_reps_fails_before_solving(verb, tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with a bad --reps")

    monkeypatch.setattr("treeload.cli.solve_method", no_solve)
    monkeypatch.setattr("treeload.cli.run_scenario", no_solve)
    scen = tmp_path / "case.json"
    scen.write_text(json.dumps(SCENARIO))
    source = ["--topology", "mixed"] if verb == "solve" else ["--scenario", str(scen)]
    for reps, shown in ("-2", "-2"), ("abc", "'abc'"):
        with pytest.raises(SystemExit) as exc:
            main([verb, *source, "--reps", reps])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"treeload {verb}: error: argument --reps: "
            f"must be an integer in [0, inf], got {shown}"
        )


def test_bad_scenario_reports_fields(tmp_path, capsys):
    scen = tmp_path / "bad.json"
    scen.write_text(json.dumps({"network": {}, "methods": ["warp"]}))
    rc = main(["compare", "--scenario", str(scen)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "network" in err and "warp" in err


def test_verify_passes_on_clean_instance(capsys):
    rc = main(["verify", "--topology", "two_subtree", "--method", "cmo"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "[PASS] paths are shortest in the graph" in out
    assert "[PASS] relay energy matches the replay" in out


def test_verify_fails_when_the_record_audit_does(monkeypatch, capsys):
    # a full-network answer that costs 1e-9 more than the pruned solution
    # passes every check of the solved tree, but not the record's audit
    real = harness.system_cost

    def nudged(*args, **kwargs):
        cost = real(*args, **kwargs)
        return replace(cost, j_system=cost.j_system * (1 + 1e-9))

    monkeypatch.setattr(harness, "system_cost", nudged)
    rc = main(["verify", "--nodes", "9", "--edge-prob", "0.35", "--seed", "0",
               "--method", "lp+pmo", "--xi", "2", "--w1", "1", "--w2", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL] full-network record costs what was solved" in out
    assert "cost audit failed for lp+pmo" in out
    assert "9/10 checks passed" in out


def test_verify_solo_generated_network(capsys):
    rc = main(["verify", "--nodes", "5", "--seed", "2", "--method", "pmo"])
    assert rc == 0
    assert "checks passed" in capsys.readouterr().out


def _mixed_plan(**fields) -> str:
    """A cache entry matching `mixed` that holds no orders, plus `fields`."""
    tree = named_topology("mixed").tree
    task_size, weights, b = default_problem("mixed")
    return json.dumps({
        "tree_sha": tree_fingerprint(tree),
        "weights": [weights.w1, weights.w2],
        "b_comp": b,
        "task_size": task_size,
        "y": [task_size] + [0.0] * (len(tree) - 1),
        **fields,
    })


def _two_servers(ids=(0, 1), link=(0, 1), rate_gbps=10.0, **server) -> str:
    """A network file of two servers with `ids` and one link `link`;
    `server` overrides fields of both servers."""
    server = {"cpu_freq_ghz": 2.0, "tx_power_dbm": 30.0, "gamma": 1e-2, **server}
    return json.dumps({
        "servers": [{"id": i, **server} for i in ids],
        "links": [{"i": link[0], "j": link[1], "rate_gbps": rate_gbps}],
    })


SOLVE_MIXED = ["solve", "--topology", "mixed", "--method", "pmo", "--cache"]


@pytest.mark.parametrize(
    "verb, content",
    [
        (["tree", "--network"], "{not json"),
        (["tree", "--network"], json.dumps(
            {"servers": [{"id": 0, "tx_power_dbm": 30.0, "gamma": 1e-2}], "links": []}
        )),
        (["tree", "--network"], "[]"),
        (["tree", "--network"], json.dumps({"servers": 5, "links": []})),
        (["tree", "--network"], json.dumps({"units": [], "servers": [], "links": []})),
        (["tree", "--network"], _two_servers(ids=(0, 1.7))),
        (["tree", "--network"], _two_servers(link=(0, 1.9))),
        (["tree", "--network"], _two_servers(ids=(False, True))),
        (["tree", "--network"], _two_servers(link=(0, True))),
        (["tree", "--network"], _two_servers(cpu_freq_ghz=True)),
        (["tree", "--network"], _two_servers(tx_power_dbm=False)),
        (["tree", "--network"], _two_servers(gamma=True)),
        (["tree", "--network"], _two_servers(rate_gbps=True)),
        (["tree", "--network"], _two_servers(cpu_freq_ghz="3")),
        (["tree", "--network"], _two_servers(cpu_freq_ghz=math.inf)),
        (["tree", "--network"], _two_servers(cpu_freq_ghz=math.nan)),
        (["tree", "--network"], _two_servers(gamma=math.inf)),
        (["tree", "--network"], _two_servers(gamma=math.nan)),
        (["tree", "--network"], _two_servers(rate_gbps=math.inf)),
        (["tree", "--network"], _two_servers(rate_gbps=math.nan)),
        (["tree", "--network"], _two_servers(tx_power_dbm=math.inf)),
        (["compare", "--scenario"], "{not json"),
        (["compare", "--scenario"], json.dumps(
            {"network": {"topology": "mixed", "warp": 1}, "methods": ["pmo"]}
        )),
        (SOLVE_MIXED, "{not json"),
        (SOLVE_MIXED, _mixed_plan()),
        (SOLVE_MIXED, "[]"),
        (SOLVE_MIXED, _mixed_plan(orders=5, solver_tag="pmo")),
        (SOLVE_MIXED, _mixed_plan(orders=[[99]], solver_tag="pmo")),
    ],
    ids=["network-not-json", "network-no-clock", "network-list",
         "network-servers-int", "network-units-list", "network-id-fraction",
         "network-link-j-fraction", "network-id-bool", "network-link-j-bool",
         "network-clock-bool", "network-power-bool", "network-gamma-bool",
         "network-rate-bool", "network-clock-str", "network-clock-inf",
         "network-clock-nan", "network-gamma-inf", "network-gamma-nan",
         "network-rate-inf", "network-rate-nan", "network-power-inf",
         "scenario-not-json", "scenario-unknown-field",
         "cache-not-json", "cache-without-plan", "cache-list",
         "cache-orders-int", "cache-orders-unknown-node"],
)
def test_malformed_files_fail_with_a_named_error(verb, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(content)
    rc = main([*verb, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(path) in err
    assert "Traceback" not in err
    # a file the user passed is never overwritten
    assert path.read_text() == content


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("treeload ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: treeload {shlex.join(argv)}")
