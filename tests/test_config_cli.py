import copy
import csv
import dataclasses
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
    config_hash,
    demo_config,
    run,
    run_construct,
)
from stlcbf.cli import main
from stlcbf.config import canonical_json, validate_config

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
        "search": {"r_max": 1.0},
        "sim": {"dt": 0.05},
        "noise": {"bound": 0.05, "distribution": "uniform_ball", "seed": 1},
    }


NAN = float("nan")

# (a fault written into mini_config, the one-line message it must give): a
# NaN r_max must not yield a "feasible" certificate, and no fault may reach
# the code behind the boundary as a traceback
BAD_CONFIGS = [
    (lambda c: c["search"].update(r_max=NAN), "bad search section: r_max must be a positive number, got nan"),
    (lambda c: c["search"].update(r_max=0), "bad search section: r_max must be a positive number, got 0"),
    (lambda c: c["search"].update(r_max="1"), "bad search section: r_max must be a positive number, got '1'"),
    # delta and eta are fixed in param_search: an older config's values are refused like any unknown key
    (lambda c: c["search"].update(delta=NAN), "bad search section: unknown key 'delta'; r_max is the only search setting"),
    (lambda c: c["search"].update(delta=0.005), "bad search section: unknown key 'delta'; r_max is the only search setting"),
    (lambda c: c["search"].update(eta_grid=[20, 40]), "bad search section: unknown key 'eta_grid'; r_max is the only search setting"),
    (lambda c: c["search"].update(bound_radius=NAN), "bad search section: unknown key 'bound_radius'; r_max is the only search setting"),
    (lambda c: c["cliques"]["solo"].update(formula=5), "clique 'solo' formula must be a string"),
    (lambda c: c["cliques"]["solo"].update(formula=None), "clique 'solo' formula must be a string"),
    (lambda c: c.update(search=[1]), "config section 'search' must be a JSON object"),
    (lambda c: c["search"].update(f0_range=3), "bad search section: unknown key 'f0_range'; r_max is the only search setting"),
    # and so is the gain cap of still older configs
    (lambda c: c["search"].update(kappa_cap=30), "bad search section: unknown key 'kappa_cap'; r_max is the only search setting"),
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
     "secondary softening must be a finite number > 0, got '0.1'"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "softening": 0}),
     "secondary softening must be a finite number > 0, got 0"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "softening": -1.0}),
     "secondary softening must be a finite number > 0, got -1.0"),
    (lambda c: c["noise"].update(bound=NAN), "noise bound must be a finite number >= 0, got nan"),
    (lambda c: c["noise"].update(bound=-0.1), "noise bound must be a finite number >= 0, got -0.1"),
    (lambda c: c["noise"].update(seed=1.5), "noise seed must be an integer, got 1.5"),
    (lambda c: c["noise"].update(seed=-1), "noise seed must be an integer >= 0, got -1"),
    (lambda c: c["sim"].update(dt=NAN), "sim dt must be a finite number > 0, got nan"),
    (lambda c: c["sim"].update(dt=0.0), "sim dt must be a finite number > 0, got 0.0"),
    # a team of no clique has no deadline to run to
    (lambda c: c.update(agents={}, cliques={}, initial_states={}), "config needs at least one clique"),
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
    # a misspelt key in any object is refused, not read as its default
    (lambda c: c.update(nosie={"bound": 0.0}),
     "config: unknown key 'nosie' (known: agents, cliques, initial_states, coupling, secondary, noise, sim, search)"),
    (lambda c: c["noise"].update(sead=2), "config section 'noise': unknown key 'sead' (known: bound, distribution, seed)"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": [1], "softenning": 0.1}),
     "config section 'secondary': unknown key 'softenning' (known: kind, group, gain, softening, known)"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "atractions": {}}),
     "config section 'coupling': unknown key 'atractions' (known: kind, attractions)"),
    (lambda c: c["sim"].update(ddt=0.01), "config section 'sim': unknown key 'ddt' (known: dt)"),
    (lambda c: c["agents"]["1"].update(dmi=2), "agent 1: unknown key 'dmi' (known: dim, drift, input)"),
    (lambda c: c["agents"]["1"].update(drift={"kind": "affine", "A": [[0.0]], "b": [0.0], "c": [1.0]}),
     "agent 1 drift: unknown key 'c' (known: kind, A, b)"),
    (lambda c: c["agents"]["1"].update(input={"matrix": [[1.0]], "gain": 2}),
     "agent 1 input: unknown key 'gain' (known: matrix)"),
    (lambda c: c["cliques"]["solo"].update(coupling_bnd=0.5),
     "clique 'solo': unknown key 'coupling_bnd' (known: members, formula, coupling_bound)"),
    (lambda c: c["initial_states"].update({"7": [0.0]}), "initial_states names agent '7', which is not a declared agent"),
    # an agent id in a list is a JSON integer: a string, float or bool is named, not read as another fault
    (lambda c: c["cliques"]["solo"].update(members=["1"]), "clique 'solo' member '1' must be an integer agent id"),
    (lambda c: c["cliques"]["solo"].update(members=[1.0]), "clique 'solo' member 1.0 must be an integer agent id"),
    (lambda c: c["cliques"]["solo"].update(members=[True]), "clique 'solo' member True must be an integer agent id"),
    (lambda c: c["cliques"]["solo"].update(members=[1, 1]), "clique 'solo' lists member 1 more than once"),
    (lambda c: c.update(secondary={"kind": "pairwise_repulsion", "group": ["1"]}),
     "secondary group must be a list of declared agent ids, got ['1']"),
    (lambda c: c.update(coupling={"kind": "saturating_attraction", "attractions": {"1": [[0.5, "1"]]}}),
     "coupling attractions '1': [[0.5, '1']] is not a declared agent's list of [finite gain, declared agent id] pulls"),
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


ORDER_FORMULA = "F[1,4](dot([0.7,0.3], x1 + x2 - x3) - 2.5 >= 0)"  # six nonzero coefficients


def order_config(members):
    """Three planar agents in one clique that lists them as members."""
    return {"agents": {str(i): {"dim": 2} for i in (1, 2, 3)},
            "cliques": {"mix": {"members": members, "formula": ORDER_FORMULA, "coupling_bound": 0.2}},
            "initial_states": {"1": [0.5, 1.0], "2": [1.5, 2.5], "3": [2.0, 0.5]},
            "noise": {"bound": 0.1, "seed": 3}, "sim": {"dt": 0.005}}


def test_canonical_json_is_key_order_invariant():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"b": 1, "a": {"y": 2, "x": 4}})
    # a clique's member order is not part of the config
    cfg = order_config([3, 1, 2])
    assert config_hash(cfg) == config_hash(order_config([1, 2, 3]))
    assert cfg["cliques"]["mix"]["members"] == [3, 1, 2]  # hashed sorted, not sorted in place


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


def test_search_section_holds_only_r_max():
    """r_max is the search section's one key, and the section may be empty
    or absent (no cap on r)."""
    cfg = mini_config()
    del cfg["search"]
    validate_config(cfg)
    for search in ({}, {"r_max": 2}, {"r_max": float("inf")}):
        validate_config(dict(cfg, search=search))
    assert run_construct(cfg)["cliques"]["solo"]["r_star"] > 1.0


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
    # the hash an older version wrote for a clique listed out of order, whose
    # document holds its columns in member order
    cfg = order_config([3, 1, 2])
    doc = {**run_construct(cfg), "config_hash": hashlib.sha256(canonical_json(cfg).encode()).hexdigest()}
    with pytest.raises(ConfigError, match=r"^barrier document was produced from a different config "
                                          r"\(hash mismatch\); re-run construction$"):
        build_cliques(cfg, doc)


def test_member_order_does_not_change_the_pipeline(tmp_path, capsys):
    """Every stacked state lists its agents by ascending id, so a clique
    listed as [3, 1, 2] and as [1, 2, 3] gives byte-identical barrier
    documents and equal verify reports, and monitor, which reads the team's
    columns, prints verify's rho bit for bit.  The literal's six products
    could give other bits summed in another order."""
    docs, reports = [], []
    for members in ([3, 1, 2], [1, 2, 3]):
        out = tmp_path / "".join(map(str, members))
        out.mkdir()
        cfg_path, barriers = out / "config.json", out / "barriers.json"
        cfg_path.write_text(json.dumps(order_config(members)))
        assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
        assert main(["simulate", str(cfg_path), str(barriers), "--seed", "0", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out / "log.json"), str(cfg_path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        assert main(["monitor", ORDER_FORMULA, str(out / "trajectory.csv")]) == 0
        assert capsys.readouterr().out == repr(reports[-1]["cliques"]["mix"]["rho"]) + "\n"
        docs.append(barriers.read_bytes())
    assert docs[0] == docs[1] and reports[0] == reports[1]


def test_build_scenario_overrides_and_known_group_check():
    cfg = mini_config()
    doc = run_construct(cfg)
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=42)
    assert scenario.noise.seed == 42
    assert scenario.dt == 0.05  # only the config's sim dt, which its hash covers
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
    # dt has no override: the config's sim dt is the run's; a usage error is one line
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir), "--dt", "0.01"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unrecognized arguments: --dt 0.01"]
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir), "--seed", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: argument --seed: invalid int value: 'x'"]
    # a seed override that numpy's generator would refuse
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir), "--seed", "-3"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: noise seed must be an integer >= 0, got -3"]
    # a barrier or log document that is not JSON, or not UTF-8, is named in the one line
    bad_json = tmp_path / "bad.json"
    for text, reason in ((b"{1: 2}", "Expecting property name enclosed in double quotes"),
                         (b"\xff{}", "'utf-8' codec can't decode byte 0xff")):
        bad_json.write_bytes(text)
        for argv in (["simulate", str(cfg_path), str(bad_json), "-o", str(outdir)],
                     ["verify", str(bad_json), str(cfg_path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad_json} is not valid JSON: {reason}"), err
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


def test_cli_verify_of_aborted_run_exits_1(tmp_path, capsys):
    """A coupling bound too small for the demo's attraction aborts the run at
    step 0.  verify then skips the monitor (the log spans no task window):
    exit 1 with rho null, not a usage error."""
    cfg = demo_config()
    cfg["cliques"]["formation"]["coupling_bound"] = 0.5
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    barriers, outdir = tmp_path / "b.json", tmp_path / "out"
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 1
    assert "simulation aborted at step 0" in capsys.readouterr().out
    assert main(["verify", str(outdir / "log.json"), str(cfg_path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == "" and not report["completed"] and not report["passed"]
    for entry in report["cliques"].values():
        assert entry["rho"] is None and entry["rho_ok"] is False and entry["passed"] is False


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


def test_cli_monitor_refuses_non_finite_time(tmp_path, capsys):
    """--at nan and --at inf lie outside every signal span: exit 2 with one
    stderr line, and no value printed."""
    sig = tmp_path / "sig.csv"
    sig.write_text("t,x1_0\n0.0,5.0\n0.5,1.0\n1.0,3.0\n")
    for at in ("nan", "inf", "-inf"):
        assert main(["monitor", "dot([1], x1) >= 0", str(sig), f"--at={at}"]) == 2, at
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: evaluation time {at} outside the signal span"]


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
        (lambda b: b["terms"][0]["unit"]["predicate"].update(c=["1.5"]),
         "barrier document: term 0 predicate c must be a 1-D array of finite numbers"),
        (lambda b: b["terms"][0]["unit"]["predicate"].update(d=[1.0]),
         "barrier document: term 0 predicate d must be a finite number, got [1.0]"),
        (lambda b: b["terms"][0]["unit"].update(predicate={
            "kind": "quad_ball", "A": [[1.0]], "b": [0.0], "e": NAN, "support": [1]}),
         "barrier document: term 0 predicate e must be a finite number, got nan"),
        (lambda b: b["terms"][0]["unit"].update(predicate={"kind": "quad_ball", "A": [[True]], "b": [0.0], "e": 1.0}),
         "barrier document: term 0 predicate A must be a 2-D array of finite numbers"),
        (lambda b: b["terms"][0].update(unit=float("inf")), "barrier document: term 0 unit must be a JSON object"),
        (lambda b: b["terms"][0]["unit"].pop("kind"),
         "barrier document: term 0 unit kind must be 'always' or 'eventually', got None"),
        (lambda b: b["terms"][0]["unit"].update(predicate=[1.0]),
         "barrier document: term 0 predicate must be a JSON object"),
        (lambda b: b["terms"][0].update(gamma=None), "barrier document: term 0 gamma must be a JSON object"),
        (lambda b: b.update(terms={}), "barrier document: terms must be a non-empty list"),
        (lambda b: b["terms"][0]["gamma"].update(decay=1e308, gamma_inf=1e3),
         "barrier document: term 0 gamma: the funnel rate decay * (gamma_inf - gamma0) must be finite"),
        # finite coefficients whose squares overflow in the team step
        (lambda b: b["terms"][0]["unit"]["predicate"]["c"].__setitem__(0, 1e300),
         "barrier document: term 0 predicate c must be at most 1e+50 in magnitude"),
        (lambda b: b["terms"][0]["unit"]["predicate"].update(d=1e308),
         "barrier document: term 0 predicate d must be at most 1e+50 in magnitude"),
        (lambda b: b["terms"][0]["unit"].update(predicate={"kind": "quad_ball", "A": [[1.0]], "b": [-1e51], "e": 1.0}),
         "barrier document: term 0 predicate b must be at most 1e+50 in magnitude"),
        # finite funnel values and bound radii whose products with eta overflow in the kernel's weights
        (lambda b: b["terms"][0]["gamma"].update(gamma0=-1e307, decay=0.0),
         "barrier document: term 0 gamma gamma0 must be at most 1e+307 / max(eta, 1) in magnitude, got -1e+307 at eta 40.0"),
        (lambda b: b.update(bound_radius=1e308),
         "barrier document: bound_radius must be at most 1e+307 / max(eta, 1) in magnitude, got 1e+308 at eta 40.0"),
        (lambda b: b["terms"][0]["gamma"].update(gamma_inf=2.6e305, decay=0.0),
         "barrier document: term 0 gamma gamma_inf must be at most 1e+307 / max(eta, 1) in magnitude"),
        (lambda b: b.update(eta=0.5, bound_radius=1.1e307),
         "barrier document: bound_radius must be at most 1e+307 / max(eta, 1) in magnitude, got 1.1e+307 at eta 0.5"),
    ]
    clique_edits = [
        (lambda c: c.update(kappa=NAN), "barrier document: clique 'solo' kappa must be a finite number, got nan"),
        (lambda c: c.update(barrier="x"), "barrier document: barrier must be a JSON object"),
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


@pytest.mark.parametrize("dt", [0.003, 1e-300, 1e308])
def test_construct_refuses_a_dt_the_run_refuses(dt, demo_doc, tmp_path, capsys, monkeypatch):
    """A sim dt that does not divide the demo's latest task deadline (20)
    into 1 to 2**53 - 1 steps is refused by construct before any search,
    with one line naming it; the run of the demo's barriers at that dt
    refuses it too."""
    cfg = demo_config()
    cfg["sim"]["dt"] = dt
    cfg_path, barriers = tmp_path / "config.json", tmp_path / "barriers.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setattr("stlcbf.config.maximize_r", lambda *a: pytest.fail("searched before the dt check"))
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: sim dt {dt!r} must divide the latest task deadline 20 into fewer than 2**53 steps"]
    assert captured.out == "" and not barriers.exists()
    scenario, _, _ = build_scenario(*demo_doc[:2])
    with pytest.raises(ValueError, match="^horizon must be a positive integer multiple of dt$"):
        run(dataclasses.replace(scenario, dt=dt))


def test_verify_refuses_a_log_dt_off_the_run_grid(tmp_path, capsys):
    """The log reader counts a completed run's steps by the run's rule: a
    log dt that does not divide the latest deadline (1), or divides it into
    2**53 steps or more, is one line."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    barriers, outdir = tmp_path / "barriers.json", tmp_path / "out"
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 0
    capsys.readouterr()
    for dt in (0.03, 1e-300):
        _edit_log_doc(outdir, lambda d: d["log"].update(dt=dt))
        assert main(["verify", str(outdir / "log.json"), str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: log: horizon must be a positive integer multiple of dt"]


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

    def not_utf8():
        data = good_csv[:3] + b"\xff" + good_csv[4:]
        (outdir / "trajectory.csv").write_bytes(data)
        _edit_log_doc(outdir, lambda d: d["log"]["trajectory"].update(sha256=hashlib.sha256(data).hexdigest()))

    faults = [
        (lambda: (outdir / "trajectory.csv").unlink(), "No such file or directory"),
        (lambda: append(b"0.0\r\n"), "sha256 does not match the log document"),
        (not_utf8, f"{outdir / 'trajectory.csv'}: 'utf-8' codec can't decode byte 0xff"),
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


def _mutant(doc, path, value):
    """A copy of doc with the value at path set to value, or dropped for DROP."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


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
            cfg_path.write_text(json.dumps(_mutant(base, path, value)))
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
    assert len(paths) * len(MUTATIONS) == 224
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


def _nodes(node, path=()):
    """Paths to every value under node, objects and lists included."""
    for key, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(v, (dict, list)):
            yield from _nodes(v, path + (key,))


LOG_MUTATIONS = (DROP, NAN, float("inf"), 1e308, "x", [1], {}, None, -1.0, 0, True, [[NAN]])


def _two_clique_construction(tmp_path):
    """pair_config with a planar solo clique whose barrier holds affine and
    ball terms of both unit kinds, written and constructed under tmp_path:
    (config path, barrier document path)."""
    cfg = pair_config()
    cfg["agents"]["1"]["dim"] = 2
    cfg["initial_states"]["1"] = [2.0, 0.5]
    cfg["cliques"]["solo"]["formula"] = "G[0,1](ball2(x1 - [2,0], 2)) & F[0.5,1](dot([1,0], x1) >= 0)"
    cfg_path, barriers = tmp_path / "config.json", tmp_path / "b.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["construct", str(cfg_path), "-o", str(barriers)]) == 0
    return cfg_path, barriers


def _mutant_fault(code, err):
    """Whether a command's exit code and stderr show a fault: exit 3, a
    traceback, or an exit 2 that is not exactly one line."""
    return code not in (0, 1, 2) or "Traceback" in err or (code == 2 and len(err.splitlines()) != 1)


def test_log_document_mutation_table(tmp_path, capsys):
    """Seeded single-field mutants of a log document, its embedded barrier
    document included, through verify: each ends in exit 0, 1 or 2, with
    exactly one stderr line on exit 2 and never a traceback.  The run's
    barriers hold affine and ball terms of both unit kinds."""
    cfg_path, barriers = _two_clique_construction(tmp_path)
    outdir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(barriers), "-o", str(outdir)]) == 0
    log_path = outdir / "log.json"
    good = json.loads(log_path.read_text())
    kinds = {t["unit"]["predicate"]["kind"] for t in good["barrier_doc"]["cliques"]["solo"]["barrier"]["terms"]}
    assert kinds == {"affine", "quad_ball"}
    capsys.readouterr()
    paths = list(_nodes(good))
    rng = np.random.default_rng(41)
    codes, faults = [], []
    for _ in range(400):
        path = paths[int(rng.integers(len(paths)))]
        value = LOG_MUTATIONS[int(rng.integers(len(LOG_MUTATIONS)))]
        log_path.write_text(json.dumps(_mutant(good, path, value)))
        code = main(["verify", str(log_path), str(cfg_path)])
        err = capsys.readouterr().err
        codes.append(code)
        if _mutant_fault(code, err):
            faults.append((path, "drop" if value is DROP else value, code, err[-300:]))
    assert faults == []
    assert {0, 2} <= set(codes)


def test_barrier_document_mutation_table(tmp_path, capsys):
    """Single-field mutants of the same run's barrier document through
    simulate: each ends in exit 0, 1 or 2, with exactly one stderr line on
    exit 2 and never a traceback.  First the explicit rows, each with its
    exit code and stderr line: a predicate over no state (an affine c of []
    or a ball A with no column), a kappa whose product with b overflows, an
    eta whose softmin gap and a funnel whose rate no input could meet (the
    run stopped at step 0 on an infeasible QP), a deadline whose step count
    overflows, and a clique whose every deadline is before the first step,
    which logs no barrier value and so fails barrier_ok with min_barrier
    nan.  Then 600 seeded draws."""
    cfg_path, barriers = _two_clique_construction(tmp_path)
    good = json.loads(barriers.read_text())
    solo, other = ("cliques", "solo", "barrier", "terms", 0), ("cliques", "other", "barrier", "terms", 0)
    rows = [
        (other + ("unit", "predicate", "c"), [], 2, "barrier document: term 0 predicate c must hold at least one coefficient"),
        (solo + ("unit", "predicate"), {"kind": "quad_ball", "A": [[]], "b": [0.0], "e": 1.0}, 2,
         "barrier document: term 0 predicate A must have at least one column"),
        (("cliques", "other", "kappa"), 1e308, 2, "barrier document: clique 'other' kappa must be at most 1e+307"),
        (("cliques", "other", "kappa"), 2.0**1023, 2, "barrier document: clique 'other' kappa must be at most 1e+307"),
        (("cliques", "other", "barrier", "eta"), 1e-300, 2, "barrier document: eta must be at least ln(terms + 1)"),
        (other + ("gamma",), dict(good["cliques"]["other"]["barrier"]["terms"][0]["gamma"], gamma_inf=1e305, decay=1e3),
         2, "barrier document: term 0 gamma decay * (gamma_inf - gamma0) must be at most 1e+307"),
        (other + ("unit", "b"), 1e308, 2, "horizon must be a positive integer multiple of dt"),
        (other + ("unit", "b"), 1e-300, 0, None),
    ]
    mutant = tmp_path / "mutant.json"
    for path, value, want, msg in rows:
        mutant.write_text(json.dumps(_mutant(good, path, value)))
        code = main(["simulate", str(cfg_path), str(mutant), "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == want, (path, value, captured.err[-300:])
        err = captured.err.splitlines()
        assert err == [] if msg is None else len(err) == 1 and err[0].startswith("error: " + msg), err
    assert main(["verify", str(tmp_path / "out" / "log.json"), str(cfg_path)]) == 1  # the last row's run
    verdict = json.loads(capsys.readouterr().out)["cliques"]["other"]
    assert np.isnan(verdict["min_barrier"]) and not verdict["barrier_ok"]

    paths = list(_nodes(good))
    values = LOG_MUTATIONS + (1e-300, 2.0**1023)
    rng = np.random.default_rng(5)
    codes, faults = [], []
    for _ in range(600):
        path = paths[int(rng.integers(len(paths)))]
        value = values[int(rng.integers(len(values)))]
        mutant.write_text(json.dumps(_mutant(good, path, value)))
        code = main(["simulate", str(cfg_path), str(mutant), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        codes.append(code)
        if _mutant_fault(code, err):
            faults.append((path, "drop" if value is DROP else value, code, err[-300:]))
    assert faults == []
    assert {0, 2} <= set(codes)
