import copy
import csv
import hashlib
import json
import re

import numpy as np
import pytest

from stlcbf import (
    ConfigError,
    build_agents,
    build_cliques,
    build_scenario,
    build_search_config,
    canonical_json,
    config_hash,
    run_construct,
    validate_config,
)
from stlcbf.cli import main

from test_sim import BAD_SIGNAL_CSVS


def mini_config():
    return {
        "agents": {"1": {"dim": 1}},
        "cliques": {
            "solo": {
                "members": [1],
                "formula": "G[0,1](dot([1], x1) >= 0)",
                "coupling_bound": 0.05,
            }
        },
        "initial_states": {"1": [2.0]},
        "search": {"delta": 0.01, "eta_grid": [20.0], "restarts": 1, "seed": 0, "r_max": 1.0},
        "sim": {"dt": 0.05},
        "noise": {"bound": 0.05, "distribution": "uniform_ball", "seed": 1},
    }


NAN = float("nan")

# (a fault written into mini_config, the one-line message it must give): a
# NaN search field must not yield a "feasible" certificate, and no fault may
# reach the code behind the boundary as a traceback
BAD_CONFIGS = [
    (lambda c: c["search"].update(delta=NAN), "bad search section: delta must be a finite positive number"),
    (lambda c: c["search"].update(eta_grid=[NAN]), "bad search section: eta_grid must be a non-empty list"),
    (lambda c: c["search"].update(bound_radius=NAN),
     "bad search section: SearchConfig.__init__() got an unexpected keyword argument 'bound_radius'"),
    (lambda c: c["cliques"]["solo"].update(formula=5), "clique 'solo' formula must be a string"),
    (lambda c: c["cliques"]["solo"].update(formula=None), "clique 'solo' formula must be a string"),
    (lambda c: c.update(search=[1]), "config section 'search' must be a JSON object"),
    (lambda c: c["search"].update(eta_grid=5), "bad search section: eta_grid must be a list of numbers"),
    (lambda c: c["search"].update(f0_range=3),
     "bad search section: SearchConfig.__init__() got an unexpected keyword argument 'f0_range'"),
    (lambda c: c["search"].update(restarts=1.5), "bad search section: restarts must be an integer"),
    (lambda c: c["agents"].update(a={"dim": 1}), "agent key 'a' must be an integer id"),
    (lambda c: c.update(sim=3), "config section 'sim' must be a JSON object"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "attractions": [1]}),
     "coupling attractions must be a JSON object keyed by agent id"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "attractions": {"1": 5}}),
     "coupling attractions '1': 5 is not a declared agent's list of [finite gain, declared agent id] pulls"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "attractions": {"1": [[0.5, 9]]}}),
     "coupling attractions '1': [[0.5, 9]] is not"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "attractions": {"1": [[NAN, 1]]}}),
     "coupling attractions '1': [[nan, 1]] is not"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": 3}),
     "secondary group must be a list of declared agent ids, got 3"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "known": "yes"}),
     "secondary known must be true or false, got 'yes'"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "gain": NAN}),
     "secondary gain must be a finite number, got nan"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "softening": "0.1"}),
     "secondary softening must be a finite number, got '0.1'"),
    (lambda c: c["noise"].update(bound=NAN), "noise bound must be a finite number >= 0, got nan"),
    (lambda c: c["noise"].update(bound=-0.1), "noise bound must be a finite number >= 0, got -0.1"),
    (lambda c: c["noise"].update(seed=1.5), "noise seed must be an integer, got 1.5"),
    (lambda c: c["sim"].update(dt=NAN), "sim dt must be a finite number > 0, got nan"),
    (lambda c: c["sim"].update(dt=0.0), "sim dt must be a finite number > 0, got 0.0"),
    (lambda c: c["agents"]["1"].update(drift={"kind": "affine", "A": [[NAN]], "b": [0.0]}),
     "agent 1 drift A must be a 2-D list of finite numbers"),
    (lambda c: c["agents"]["1"].update(drift={"kind": "affine", "A": [[0.0]]}),
     "agent 1 drift b must be a 1-D list of finite numbers"),
    (lambda c: c["agents"]["1"].update(input={"matrix": [[NAN]]}),
     "agent 1 input matrix must be a 2-D list of finite numbers"),
    (lambda c: c["agents"]["1"].update(input={"matrix": [[0.0]]}), "agent 1 input map must have full row rank"),
    (lambda c: c.update(coupling={"kind": "x"}), "unknown coupling kind 'x'"),
    (lambda c: c.update(secondary={"kind": "scripted"}), "scripted secondary control needs a callable"),
    (lambda c: c["noise"].update(distribution="gauss"), "unknown noise distribution 'gauss'"),
]


def pair_config():
    cfg = mini_config()
    cfg["agents"]["2"] = {"dim": 1}
    cfg["cliques"]["other"] = {
        "members": [2],
        "formula": "G[0,1](dot([1], x2) >= 0)",
        "coupling_bound": 0.05,
    }
    cfg["initial_states"]["2"] = [3.0]
    return cfg


def test_canonical_json_is_key_order_invariant():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"b": 1, "a": {"y": 2, "x": 4}})


def test_validate_config_errors():
    good = mini_config()
    assert validate_config(copy.deepcopy(good)) is not None
    with pytest.raises(ConfigError, match="missing the 'agents'"):
        validate_config({"cliques": {}, "initial_states": {}})
    bad = copy.deepcopy(good)
    bad["cliques"]["solo"]["members"] = [1, 9]
    with pytest.raises(ConfigError, match="not a declared agent"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["cliques"]["dup"] = {"members": [1], "formula": "x"}
    with pytest.raises(ConfigError, match="more than one clique"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["agents"]["2"] = {"dim": 1}
    with pytest.raises(ConfigError, match="belongs to no clique"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    del bad["initial_states"]["1"]
    with pytest.raises(ConfigError, match="no initial state"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["agents"]["1"]["dim"] = 0
    with pytest.raises(ConfigError, match="positive integer dim"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["initial_states"]["1"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="wrong dimension"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["agents"]["1"]["dim"] = True
    with pytest.raises(ConfigError, match="positive integer dim"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["initial_states"]["1"] = [float("nan")]
    with pytest.raises(ConfigError, match="finite numbers"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["cliques"]["solo"]["coupling_bound"] = float("nan")
    with pytest.raises(ConfigError, match="coupling_bound must be a finite number"):
        validate_config(bad)
    # wrong container types get a ConfigError, not a TypeError or AttributeError
    bad = copy.deepcopy(good)
    bad["initial_states"]["1"] = 2.0
    with pytest.raises(ConfigError, match="initial state must be a list"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["agents"]["1"] = [1]
    with pytest.raises(ConfigError, match="agent 1 must be a JSON object"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["cliques"] = [1]
    with pytest.raises(ConfigError, match="section 'cliques' must be a JSON object"):
        validate_config(bad)
    bad = copy.deepcopy(good)
    bad["cliques"]["solo"]["members"] = 3
    with pytest.raises(ConfigError, match="members must be a list"):
        validate_config(bad)
    for mutate, msg in BAD_CONFIGS:
        bad = copy.deepcopy(good)
        mutate(bad)
        with pytest.raises(ConfigError, match=re.escape(msg)):
            validate_config(bad)


def test_build_agents_drift_and_input():
    cfg = {
        "agents": {
            "1": {"dim": 2},
            "2": {"dim": 2, "drift": {"kind": "affine",
                                      "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, -1.0]}},
            "3": {"dim": 2, "input": {"matrix": [[1.0, 0.0], [0.0, 2.0]]}},
        }
    }
    agents = build_agents(cfg)
    x = np.array([1.0, 2.0])
    assert agents[1].drift is None and agents[1].input_map is None  # zero drift, identity map
    assert np.array_equal(agents[2].drift(x, 0.0), np.array([2.0, -1.0]))
    assert np.array_equal(agents[3].input_map, np.diag([1.0, 2.0]))
    with pytest.raises(ConfigError, match="unknown input map"):
        build_agents({"agents": {"1": {"dim": 1, "input": "fancy"}}})
    with pytest.raises(ConfigError, match="unknown drift"):
        build_agents({"agents": {"1": {"dim": 1, "drift": "wind"}}})
    with pytest.raises(ConfigError, match="wrong shape"):
        build_agents({"agents": {"1": {"dim": 2, "drift": {
            "kind": "affine", "A": [[1.0]], "b": [0.0]}}}})


def test_build_search_config():
    sc = build_search_config(mini_config())
    assert sc.delta == 0.01
    assert sc.eta_grid == (20.0,)
    assert sc.restarts == 1
    assert sc.r_max == 1.0
    assert build_search_config({}).delta == 0.005  # defaults apply
    with pytest.raises(ConfigError, match="bad search section"):
        build_search_config({"search": {"no_such_knob": 1}})


def test_run_construct_and_build_cliques_round_trip():
    cfg = mini_config()
    doc = run_construct(cfg)
    assert doc["format"] == "stlcbf-barriers"
    assert doc["config_hash"] == config_hash(cfg)
    entry = doc["cliques"]["solo"]
    assert entry["feasible"]
    assert 0.0 < entry["r_star"] <= 1.0
    assert entry["kappa"] >= 1.0
    assert "barrier" in entry and "diagnostics" in entry
    json.dumps(doc)  # document must be plain JSON

    cliques, r_stars = build_cliques(cfg, doc)
    assert len(cliques) == 1
    cl = cliques[0]
    assert cl.name == "solo" and cl.members == (1,)
    assert cl.coupling_bound == 0.05
    assert cl.kappa == entry["kappa"]
    assert r_stars["solo"] == entry["r_star"]


def test_build_cliques_rejects_stale_or_infeasible_docs():
    cfg = mini_config()
    doc = run_construct(cfg)
    other = copy.deepcopy(cfg)
    other["initial_states"]["1"] = [2.5]
    with pytest.raises(ConfigError, match="hash mismatch"):
        build_cliques(other, doc)
    with pytest.raises(ConfigError, match="not a barrier document"):
        build_cliques(cfg, {"format": "something-else"})
    bad = copy.deepcopy(doc)
    bad["cliques"]["solo"]["feasible"] = False
    with pytest.raises(ConfigError, match="no feasible barrier"):
        build_cliques(cfg, bad)


def test_build_scenario_overrides_and_known_group_check():
    cfg = mini_config()
    doc = run_construct(cfg)
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=42, dt=0.025)
    assert scenario.noise.seed == 42
    assert scenario.dt == 0.025
    assert scenario.noise.bound == 0.05
    assert set(formulas) == {"solo"} and set(r_stars) == {"solo"}
    default, _, _ = build_scenario(cfg, doc)
    assert default.noise.seed == 1 and default.dt == 0.05

    cfg2 = pair_config()
    cfg2["secondary"] = {
        "kind": "pairwise_repulsion", "group": [1, 2], "gain": 0.1, "known": True,
    }
    doc2 = run_construct(cfg2)
    with pytest.raises(ConfigError, match="whole group"):
        build_scenario(cfg2, doc2)
    cfg2["secondary"]["known"] = False
    doc2 = run_construct(cfg2)
    scenario2, _, _ = build_scenario(cfg2, doc2)
    assert scenario2.secondary.kind == "pairwise_repulsion"
    assert scenario2.secondary.known is False
    # a known group inside one clique is recorded on the spec
    cfg3 = pair_config()
    cfg3["secondary"] = {"kind": "pairwise_repulsion", "group": [2], "gain": 0.1, "known": True}
    scenario3, _, _ = build_scenario(cfg3, run_construct(cfg3))
    assert scenario3.secondary.known is True and scenario3.secondary.group == (2,)


def test_cli_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    barriers = tmp_path / "barriers.json"
    outdir = tmp_path / "out"

    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    out = capsys.readouterr().out
    assert "clique solo: r_star=" in out and "kappa=" in out
    assert barriers.exists()

    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "min_b=" in out and "rho=" in out
    assert (outdir / "trajectory.csv").exists() and (outdir / "log.json").exists()

    assert main(["verify", str(outdir / "log.json"), str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["cliques"]["solo"]["rho_ok"]

    assert main([
        "monitor", "G[0,1](dot([1], x1) >= 0)", str(outdir / "trajectory.csv"),
    ]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0.5  # trajectory hovers near x = 2

    # seed override changes the noise stream but stays verifiable
    outdir2 = tmp_path / "out2"
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir2),
                 "--seed", "7"]) == 0
    capsys.readouterr()
    a = (outdir / "trajectory.csv").read_text()
    b = (outdir2 / "trajectory.csv").read_text()
    assert a != b


def _edit_trajectory(outdir, edit):
    """Apply edit to the rows of the trajectory CSV (header first) and write
    the edited CSV's sha256 into log.json, as a consistent forgery would."""
    path = outdir / "trajectory.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _edit_log_doc(outdir, lambda d: d["log"]["trajectory"].update(
        sha256=hashlib.sha256(path.read_bytes()).hexdigest()))


def _edit_log_doc(outdir, edit):
    doc = json.loads((outdir / "log.json").read_text())
    edit(doc)
    (outdir / "log.json").write_text(json.dumps(doc))


def test_cli_error_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    barriers = tmp_path / "barriers.json"
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    outdir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 0
    capsys.readouterr()

    # missing file
    assert main(["construct", str(tmp_path / "nope.json")]) == 2
    # config drift invalidates both barrier docs and logs
    drifted = tmp_path / "drifted.json"
    cfg2 = mini_config()
    cfg2["initial_states"]["1"] = [2.5]
    drifted.write_text(json.dumps(cfg2))
    assert main(["simulate", str(drifted), str(barriers), "-o", str(outdir)]) == 2
    assert main(["verify", str(outdir / "log.json"), str(drifted)]) == 2
    # wrong document type
    assert main(["simulate", str(cfg_path), str(cfg_path), "-o", str(outdir)]) == 2
    assert main(["verify", str(cfg_path), str(cfg_path)]) == 2
    # malformed formula
    assert main(["monitor", "G[0,1](", str(outdir / "trajectory.csv")]) == 2
    capsys.readouterr()
    # a wrong container type is a one-line config error
    cfg3 = mini_config()
    cfg3["initial_states"]["1"] = 2.0
    drifted.write_text(json.dumps(cfg3))
    assert main(["construct", str(drifted)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: agent 1 initial state must be a list of numbers"]
    for mutate, msg in BAD_CONFIGS:
        cfg3 = mini_config()
        mutate(cfg3)
        drifted.write_text(json.dumps(cfg3))
        assert main(["construct", str(drifted)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + msg), err

    # a failing run exits 1 from verify
    _edit_trajectory(outdir, lambda rows: rows[1].__setitem__(rows[0].index("b_solo"), "-5.0"))
    assert main(["verify", str(outdir / "log.json"), str(cfg_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["cliques"]["solo"]["barrier_ok"]


def test_cli_infeasible_construct_exits_1(tmp_path, capsys):
    cfg = mini_config()
    cfg["initial_states"]["1"] = [-1.0]  # violates the predicate at t = 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["construct", str(cfg_path), "-o", str(tmp_path / "b.json")]) == 1
    assert "INFEASIBLE" in capsys.readouterr().out


def test_cli_monitor_at_time(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("t,x1_0\n0.0,5.0\n0.5,1.0\n1.0,3.0\n")
    assert main(["monitor", "dot([1], x1) >= 0", str(sig), "--at", "0.5"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0
    assert main(["monitor", "F[0,1](dot([1], x1) >= 0)", str(sig)]) == 0
    assert float(capsys.readouterr().out.strip()) == 5.0


def test_cli_monitor_rejects_non_finite_signal(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("t,x1_0\n0.0,nan\n0.5,1.0\n")
    assert main(["monitor", "G[0,0.5](dot([1], x1) >= 0)", str(sig)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and len(err.strip().splitlines()) == 1


def test_cli_monitor_refuses_bad_signal_files(tmp_path, capsys):
    """A signal CSV the monitor cannot read is exit 2 with one stderr line
    naming the file, never a traceback."""
    sig = tmp_path / "sig.csv"
    for text, msg in BAD_SIGNAL_CSVS:
        sig.write_text(text)
        assert main(["monitor", "G[0,0.5](dot([1], x1) >= 0)", str(sig)]) == 2, msg
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {sig}") and msg in err[0], (msg, err)
        assert captured.out == ""


def test_cli_refuses_non_finite_barrier_document(tmp_path, capsys):
    """A barrier document edited after construction passes the config-hash
    check, so its numbers are checked when it is loaded: a NaN eta must not
    run to 'min_b=nan rho=nan' with exit 0."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    barriers = tmp_path / "barriers.json"
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    good = json.loads(barriers.read_text())
    capsys.readouterr()
    edits = [
        (lambda b: b.update(eta=NAN), "barrier document: eta must be a finite number, got nan"),
        (lambda b: b.update(eta="20"), "barrier document: eta must be a finite number, got '20'"),
        (lambda b: b.update(bound_radius=NAN), "barrier document: bound_radius must be a finite number"),
        (lambda b: b.update(smooth_eps=float("inf")), "barrier document: smooth_eps must be a finite number"),
        (lambda b: b["terms"][0]["gamma"].update(decay=NAN),
         "barrier document: term 0 gamma decay must be a finite number, got nan"),
        (lambda b: b["terms"][0]["gamma"].update(gamma0=[1.0]),
         "barrier document: term 0 gamma gamma0 must be a finite number, got [1.0]"),
        (lambda b: b["terms"][0]["gamma"].pop("t_star"),
         "barrier document: term 0 gamma t_star must be a finite number, got None"),
        (lambda b: b["terms"][0]["unit"].update(a=[0.0]),
         "barrier document: term 0 unit a must be a finite number, got [0.0]"),
        (lambda b: b["terms"][0]["unit"]["predicate"].update(c=[NAN]),
         "barrier document: term 0 predicate c must be a 1-D array of finite numbers"),
        (lambda b: b["terms"][0]["unit"]["predicate"].update(d=[1.0]),
         "barrier document: term 0 predicate d must be a finite number, got [1.0]"),
        (lambda b: b["terms"][0]["unit"].update(predicate={
            "kind": "quad_ball", "A": [[1.0]], "b": [0.0], "e": NAN, "support": [1]}),
         "barrier document: term 0 predicate e must be a finite number, got nan"),
    ]
    clique_edits = [
        (lambda c: c.update(kappa=NAN), "barrier document: clique 'solo' kappa must be a finite number, got nan"),
    ]
    for edit, msg in [(lambda c, e=e: e(c["barrier"]), m) for e, m in edits] + clique_edits:
        doc = copy.deepcopy(good)
        edit(doc["cliques"]["solo"])
        barriers.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg_path), str(barriers), "-o", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + msg), err
        assert "min_b" not in captured.out


def test_cli_verify_refuses_bad_trajectory_files(tmp_path, capsys):
    """verify reads the log document and the trajectory CSV it names; every
    fault of either pair is exit 2 with one stderr line, never a traceback."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    barriers = tmp_path / "barriers.json"
    outdir = tmp_path / "out"
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 0
    good_csv = (outdir / "trajectory.csv").read_bytes()
    good_log = (outdir / "log.json").read_text()
    capsys.readouterr()

    def header(rows):
        rows[0][rows[0].index("b_solo")] = "b_other"

    def append(data):
        with (outdir / "trajectory.csv").open("ab") as fh:
            fh.write(data)

    faults = [
        (lambda: (outdir / "trajectory.csv").unlink(), "No such file or directory"),
        (lambda: append(b"0.0\r\n"), "sha256 does not match the log document"),
        (lambda: _edit_trajectory(outdir, header), "header does not match the config's agents and cliques"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows.pop(5)),
         "20 rows, but the log's completed flag and events give 21"),
        (lambda: _edit_log_doc(outdir, lambda d: d["log"].update(completed=False)),
         "log: an aborted run must end with a qp_infeasible or disturbance_bound event"),
        (lambda: _edit_log_doc(outdir, lambda d: d["log"].update(completed=False, events=[
            {"t": 0.5, "kind": "disturbance_bound", "detail": "forged"}])),
         "21 rows, but the log's completed flag and events give 12"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows[3].__setitem__(0, "abc")),
         "line 4: a missing, extra or non-numeric cell"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows[4].__setitem__(1, "nan")),
         "non-finite t or x cell"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows[-1].__setitem__(0, "inf")),
         "non-finite t or x cell"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows[2].pop()), "line 3: a missing, extra or non-numeric cell"),
        (lambda: _edit_trajectory(outdir, lambda rows: rows[2].__setitem__(1, "1" * 200000)),
         "field larger than field limit"),
        (lambda: _edit_log_doc(outdir, lambda d: d["log"].update(dt=1e-9)), "too short for the 1000000001 rows"),
        (lambda: _edit_log_doc(outdir, lambda d: d["log"].update(dt="0.05")),
         "log: needs a positive dt"),
        (lambda: _edit_log_doc(outdir, lambda d: d.pop("log")), "log: needs a positive dt"),
        (lambda: _edit_log_doc(outdir, lambda d: d.pop("barrier_doc")), "not a barrier document"),
        (lambda: _edit_log_doc(outdir, lambda d: d.update(version=1, log={"times": [0.0]})),
         "log document version 1 is not 2; re-run simulate"),
    ]
    for fault, msg in faults:
        (outdir / "trajectory.csv").write_bytes(good_csv)
        (outdir / "log.json").write_text(good_log)
        fault()
        assert main(["verify", str(outdir / "log.json"), str(cfg_path)]) == 2, msg
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and msg in err[0], (msg, err)
        assert captured.out == ""


def mutation_base():
    """pair_config with every kind of dynamics a config can declare."""
    cfg = pair_config()
    cfg["agents"]["1"]["drift"] = {"kind": "affine", "A": [[-0.1]], "b": [0.0]}
    cfg["agents"]["2"]["input"] = {"matrix": [[1.0, 0.5]]}
    cfg["coupling"] = {"kind": "saturating_attraction", "attractions": {"1": [[0.01, 2]]}}
    cfg["secondary"] = {"kind": "pairwise_repulsion", "group": [1], "gain": 0.01,
                        "softening": 0.01, "known": False}
    return cfg


def _leaves(node, path):
    """Paths to every value under node that is not an object, list items included."""
    for key, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(v, dict):
            yield from _leaves(v, path + (key,))
        else:
            yield path + (key,)
            if isinstance(v, list):
                yield from _leaves(v, path + (key,))


DROP = object()
MUTATIONS = (DROP, NAN, "x", [1], {}, None, -1.0, [[NAN]])


def test_config_mutation_table(tmp_path, capsys):
    """Every mutation of every dynamics and search leaf is refused at load
    with one line (exit 2) or runs clean: never exit 3, never nan on stdout,
    and never accepted by construct only to be refused by simulate."""
    base = mutation_base()
    paths = [p for sec in ("agents", "coupling", "secondary", "noise", "sim", "search")
             for p in _leaves(base[sec], (sec,))]
    cfg_path, barriers, outdir = tmp_path / "config.json", tmp_path / "b.json", tmp_path / "out"
    faults = []
    for path in paths:
        for value in MUTATIONS:
            cfg = copy.deepcopy(base)
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            cfg_path.write_text(json.dumps(cfg))
            what = (path, "drop" if value is DROP else value)
            code = main(["construct", str(cfg_path), "-o", str(barriers)])
            stages = [("construct", code, capsys.readouterr())]
            if code == 0:
                code = main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)])
                stages.append(("simulate", code, capsys.readouterr()))
            for stage, code, captured in stages:
                if code == 3 or len(captured.err.splitlines()) > 1:
                    faults.append((what, stage, code, captured.err[-200:]))
                if re.search(r"\bnan\b", captured.out, re.I):
                    faults.append((what, stage, "nan on stdout"))
            if len(stages) == 2 and stages[1][1] == 2:
                faults.append((what, "refused by simulate only", stages[1][2].err.strip()))
    assert len(paths) * len(MUTATIONS) == 264
    assert faults == []
    # agent 2's two inputs have no repulsion from its one-dimensional state
    base["secondary"]["group"] = [1, 2]
    with pytest.raises(ConfigError, match="pairwise repulsion needs group members of one dimension"):
        validate_config(base)
    base = mutation_base()
    base["agents"]["2"] = {"dim": 2}
    base["initial_states"]["2"] = [3.0, 0.0]
    with pytest.raises(ConfigError, match="agent 1 is pulled toward agent 2 of another dimension"):
        validate_config(base)
