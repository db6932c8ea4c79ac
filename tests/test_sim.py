import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from stlcbf import (
    AffinePredicate,
    AgentModel,
    Always,
    Atom,
    BallPredicate,
    Clique,
    CouplingSpec,
    GammaParams,
    NoiseSpec,
    OperatorUnit,
    Scenario,
    SecondaryControlSpec,
    StateLayout,
    build_barrier,
    build_scenario,
    demo_config,
    log_from_dict,
    log_to_dict,
    read_signal_csv,
    robustness,
    run,
    run_construct,
    verify,
    write_log_csv,
)
from stlcbf import barrier, sim
from stlcbf.controller import QpInfeasibleError, Team
from stlcbf.sim import _coupling_fn, _secondary_fn

from oracles import naive_run, naive_write_log_csv

# the benchmark's random task generator, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import _psi, formula_text  # noqa: E402


def passive_clique(agent_id=1, dim=2, C=0.0, kappa=1.0, horizon=1.0, name="solo"):
    """Clique whose barrier stays deep in the safe set, so the QP returns 0."""
    unit = OperatorUnit("always", AffinePredicate(np.zeros(dim), 5.0), 0.0, horizon)
    cb = build_barrier([unit], [GammaParams(-1.0, 0.5, 0.3, 0.0)], eta=10.0, bound_radius=50.0)
    return Clique(name=name, members=(agent_id,), barrier=cb, coupling_bound=C, kappa=kappa)


def passive_scenario(dim=2, x0=None, **kw):
    clique = passive_clique(dim=dim, C=kw.pop("C", 0.0), horizon=kw.pop("horizon_b", 1.0))
    agents = {1: AgentModel(agent_id=1, state_dim=dim, drift=kw.pop("drift", None))}
    if x0 is None:
        x0 = np.ones(dim)
    return Scenario(agents=agents, cliques=(clique,), x0={1: np.asarray(x0, float)}, **kw)


def _pair_team():
    """Team of two free 2-D agents, for the stacked coupling and secondary input."""
    agents = {i: AgentModel(agent_id=i, state_dim=2) for i in (1, 2)}
    return Team((passive_clique(1), passive_clique(2, name="other")), agents)


def test_coupling_forces_formula():
    spec = CouplingSpec(kind="saturating_attraction",
                        attractions={1: ((0.5, 2),), 2: ()})
    team = _pair_team()
    c = _coupling_fn(spec, team)(team.stack({1: np.array([0.0, 0.0]), 2: np.array([3.0, -0.25])}), 0.0)
    out = team.split(c)
    assert np.allclose(out[1], 0.5 * np.array([1.0, -0.25]))
    assert np.array_equal(out[2], np.zeros(2))
    with pytest.raises(ValueError, match="unknown coupling kind"):
        CouplingSpec(kind="magnet")
    with pytest.raises(ValueError, match="callable"):
        CouplingSpec(kind="scripted")


def test_secondary_controls_formula():
    spec = SecondaryControlSpec(kind="pairwise_repulsion", group=(1, 2), gain=2.0, softening=0.5)
    team = _pair_team()
    f_u = _secondary_fn(spec, team)(team.stack({1: np.array([0.0, 0.0]), 2: np.array([3.0, 4.0])}), 0.0)
    out = team.split(f_u)
    want = 2.0 * np.array([-3.0, -4.0]) / (5.0 + 0.5)
    assert np.allclose(out[1], want)
    assert np.allclose(out[2], -want)
    with pytest.raises(ValueError, match="unknown secondary"):
        SecondaryControlSpec(kind="push")
    with pytest.raises(ValueError, match="callable"):
        SecondaryControlSpec(kind="scripted")


def test_scenario_validation():
    clique = passive_clique()
    agents = {1: AgentModel(agent_id=1, state_dim=2)}
    for dt, shown in ((0.0, "0.0"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=f"^dt must be a finite number > 0, got {shown}$"):
            Scenario(agents=agents, cliques=(clique,), x0={1: np.zeros(2)}, dt=dt)
    with pytest.raises(ValueError, match="missing initial state"):
        Scenario(agents=agents, cliques=(clique,), x0={})
    # the scenario's team refuses cliques that do not fit the agents, and a
    # repulsion group needs members of one dimension with as many inputs as states
    pair = {1: agents[1], 2: AgentModel(agent_id=2, state_dim=2)}
    mixed = {1: agents[1], 2: AgentModel(agent_id=2, state_dim=3)}
    wide = {1: agents[1], 2: AgentModel(agent_id=2, state_dim=2, input_map=np.eye(2, 3))}
    repel = SecondaryControlSpec("pairwise_repulsion", (1, 2), 0.1, 0.05)
    shapes = "pairwise repulsion needs group members of one dimension with as many inputs as states"
    for agents_, cliques, kw, msg in (
        (pair, (clique,), {}, "cliques must partition the agents [1, 2], but their members are [1]"),
        (agents, (clique, clique), {}, "cliques must partition the agents [1], but their members are [1, 1]"),
        ({1: AgentModel(agent_id=1, state_dim=3)}, (clique,), {},
         "clique 'solo': member dimensions add up to 3, but its barrier has dim 2"),
        (mixed, (clique, passive_clique(2, dim=3, name="other")), {"secondary": repel}, shapes),
        (wide, (clique, passive_clique(2, name="other")), {"secondary": repel}, shapes),
        (mixed, (clique, passive_clique(2, dim=3, name="other")),
         {"coupling": CouplingSpec("saturating_attraction", attractions={1: ((0.5, 2),)})},
         "agent 1 is pulled toward agent 2 of another dimension"),
        (pair, (clique, passive_clique(2, name="other")),
         {"secondary": SecondaryControlSpec("pairwise_repulsion", (1, 2), 0.1, 0.05, known=True)},
         "known secondary control requires the whole group inside one clique (agent 2 in 'other')"),
        ({}, (), {}, "a team needs at least one clique"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            Scenario(agents=agents_, cliques=cliques, x0={i: np.zeros(a.state_dim) for i, a in agents_.items()}, **kw)
    # coupling and secondary control may name only the scenario's agents
    for kw, msg in (
        ({"secondary": SecondaryControlSpec("pairwise_repulsion", (1, 9), 0.1, 0.05)},
         "secondary group names agent 9, which the scenario does not have"),
        ({"coupling": CouplingSpec("saturating_attraction", attractions={1: ((0.5, 9),)})},
         "attraction names agent 9, which the scenario does not have"),
        ({"coupling": CouplingSpec("saturating_attraction", attractions={7: ((0.5, 1),)})},
         "attraction names agent 7, which the scenario does not have"),
        ({"x0": [0.0, 0.0, 0.0]}, "agent 1 initial state has wrong dimension"),
        ({"x0": [math.nan, 0.0]}, "agent 1 initial state must hold finite numbers"),
        ({"x0": [0.0, -math.inf]}, "agent 1 initial state must hold finite numbers"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            passive_scenario(dt=0.1, **kw)
    # the specs refuse their own values when they are made
    for make, msg in (
        (lambda: NoiseSpec(seed=1.5), "noise seed must be an integer, got 1.5"),
        (lambda: NoiseSpec(seed=-1), "noise seed must be an integer >= 0, got -1"),
        (lambda: CouplingSpec("saturating_attraction", attractions={1: ((math.nan, 2),)}),
         "agent 1 attraction gain must be a finite number, got nan"),
        (lambda: SecondaryControlSpec("pairwise_repulsion", (1,), known="yes"),
         "secondary known must be true or false, got 'yes'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            make()


def test_run_rejects_bad_horizon():
    sc = passive_scenario(dt=0.3)  # the clique's deadline 1.0 is no multiple of 0.3
    with pytest.raises(ValueError, match="integer multiple"):
        run(sc)


def test_switch_events_reach_the_aborting_step():
    """Each activity switch s is logged at the first step time t with
    s <= t + 1e-12, up to and including the step where the run ends (a
    disturbance abort or an infeasible QP), and never at the final time."""
    units = [OperatorUnit("always", AffinePredicate(np.zeros(2), 5.0), 0.0, b) for b in (0.5 + 1e-13, 1.0)]
    cb = build_barrier(units, [GammaParams(-1.0, 0.5, 0.3, 0.0)] * 2, eta=10.0, bound_radius=50.0)
    clique = Clique(name="solo", members=(1,), barrier=cb, coupling_bound=1.0, kappa=1.0)

    def from_step(k, out):  # a scripted callback that acts from step k on
        def fn(states, t):
            return out() if t >= 0.1 * k - 0.05 else {}
        return fn

    def push():
        return {1: np.array([2.0, 0.0])}

    def stuck():
        raise QpInfeasibleError("forced")

    switch = {"t": 0.5, "kind": "switch", "detail": "activity switch at 0.5"}
    for kw, events in (
        ({}, [switch]),
        ({"coupling": CouplingSpec("scripted", scripted=from_step(4, push))}, []),
        ({"coupling": CouplingSpec("scripted", scripted=from_step(5, push))}, [switch]),
        ({"secondary": SecondaryControlSpec("scripted", scripted=from_step(4, stuck))}, []),
        ({"secondary": SecondaryControlSpec("scripted", scripted=from_step(5, stuck))}, [switch]),
    ):
        log = run(Scenario(agents={1: AgentModel(agent_id=1, state_dim=2)}, cliques=(clique,),
                           x0={1: np.ones(2)}, dt=0.1, **kw))
        assert log.events[: len(events)] == events
        assert all(e["kind"] != "switch" for e in log.events[len(events):])
        assert log.completed == (not kw)


def test_equilibrium_run_stays_put():
    sc = passive_scenario(dt=0.1, x0=[2.0, -1.0])
    log = run(sc)
    assert log.completed
    assert log.times.shape == (11,)
    assert np.array_equal(log.states[1], np.tile([2.0, -1.0], (11, 1)))
    assert np.array_equal(log.inputs[1], np.zeros((10, 2)))
    # u = 0 means the constraint is strictly slack on every step
    assert np.all(log.residuals[1] > 0.0)
    assert np.all(log.barriers["solo"] > 0.0)
    assert np.array_equal(log.disturbance_norms[1], np.zeros(10))
    assert np.array_equal(log.shares[1], np.ones(10))


def test_run_is_deterministic():
    kw = dict(dt=0.02, x0=[1.0, 0.5],
              noise=NoiseSpec(bound=0.1, distribution="uniform_ball", seed=5))
    a = run(passive_scenario(C=0.2, **kw))
    b = run(passive_scenario(C=0.2, **kw))
    assert np.array_equal(a.states[1], b.states[1])
    assert np.array_equal(a.inputs[1], b.inputs[1])
    assert np.array_equal(a.disturbance_norms[1], b.disturbance_norms[1])


def test_uniform_ball_noise_respects_bound():
    sc = passive_scenario(dt=0.01, C=0.25,
                          noise=NoiseSpec(bound=0.25, distribution="uniform_ball", seed=3))
    log = run(sc)
    dn = log.disturbance_norms[1]
    assert np.all(dn <= 0.25 + 1e-12)
    assert np.max(dn) > 0.1  # the sampler actually uses the ball


def _ks_uniform(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the samples u from U[0, 1]."""
    u = np.sort(u)
    k = np.arange(1, len(u) + 1)
    return float(max(np.max(k / len(u) - u), np.max(u - (k - 1) / len(u))))


def test_uniform_ball_noise_law():
    """Uniform in the ball of radius bound: for a planar agent and a 3-d
    one, (||w_i|| / bound) ** n_i is U[0, 1], and the direction is uniform on
    the sphere, so its angle (n_i = 2) or each coordinate (n_i = 3, by
    Archimedes) is uniform and its second moment is I / n_i.  4,000 seeded
    draws per agent; 1.95 / sqrt(4000) is the KS test's 0.1% level."""
    unit = OperatorUnit("always", AffinePredicate(np.ones(5), 1.0), 0.0, 1.0)
    cb = build_barrier([unit], [GammaParams(-1.0, 0.5, 0.3, 0.0)], eta=10.0, bound_radius=6.0)
    team = Team([Clique("pair", (1, 2), cb, 1.0, 1.0)],
                {1: AgentModel(agent_id=1, state_dim=2), 2: AgentModel(agent_id=2, state_dim=3)})
    n = 4000
    w = np.array(list(sim._ball_draws(NoiseSpec(bound=0.5, seed=11), team, n)))
    crit = 1.95 / math.sqrt(n)
    for i, dim in ((1, 2), (2, 3)):
        wi = w[:, team.blocks[i]]
        r = np.linalg.norm(wi, axis=1)
        assert np.all(r <= 0.5)
        assert _ks_uniform((r / 0.5) ** dim) < crit
        d = wi / r[:, None]
        if dim == 2:
            assert _ks_uniform((np.arctan2(d[:, 1], d[:, 0]) + math.pi) / (2 * math.pi)) < crit
        else:
            for j in range(3):
                assert _ks_uniform((d[:, j] + 1.0) / 2.0) < crit
        assert np.max(np.abs(d.T @ d / n - np.eye(dim) / dim)) < 0.03


def test_integrator_is_first_order():
    # rotation drift has an exact solution; forward Euler error should halve
    # with the step size
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    errs = []
    for dt in (0.01, 0.005):
        sc = passive_scenario(dt=dt, x0=[1.0, 0.0], drift=lambda x, t: A @ x)
        log = run(sc)
        exact = np.array([math.cos(1.0), math.sin(1.0)])
        errs.append(float(np.linalg.norm(log.states[1][-1] - exact)))
    ratio = errs[0] / errs[1]
    assert 1.7 < ratio < 2.3


def test_switch_events_logged():
    units = [
        OperatorUnit("always", AffinePredicate(np.zeros(1), 5.0), 0.0, 0.4),
        OperatorUnit("always", AffinePredicate(np.zeros(1), 6.0), 0.0, 1.0),
    ]
    cb = build_barrier(units, [GammaParams(-1.0, 0.5, 0.3, 0.0)] * 2, eta=10.0, bound_radius=50.0)
    clique = Clique("s", (1,), cb, 0.0, 1.0)
    sc = Scenario(agents={1: AgentModel(agent_id=1, state_dim=1)}, cliques=(clique,),
                  x0={1: np.zeros(1)}, dt=0.1)
    log = run(sc)
    switches = [e for e in log.events if e["kind"] == "switch"]
    assert len(switches) == 1 and "0.4" in switches[0]["detail"]
    assert log.completed and log.times[-1] == 1.0


def test_disturbance_bound_abort():
    spec = CouplingSpec(kind="scripted", scripted=lambda states, t: {1: np.array([3.0, 0.0])})
    sc = passive_scenario(dt=0.1, C=0.5, coupling=spec)
    log = run(sc)
    assert not log.completed
    assert log.events[-1]["kind"] == "disturbance_bound"
    assert "exceeds declared bound" in log.events[-1]["detail"]
    # aborting step is logged, then the run stops
    assert log.times.shape == (2,)
    assert log.inputs[1].shape == (1, 2)
    assert log.disturbance_norms[1][0] == pytest.approx(3.0)


def test_nan_disturbance_aborts():
    """A non-finite disturbance norm is over any bound: the run ends with a
    disturbance_bound event instead of going on with nan states."""
    spec = CouplingSpec(kind="scripted", scripted=lambda states, t: {1: np.array([math.nan, 0.0])})
    log = run(passive_scenario(dt=0.1, C=0.5, coupling=spec))
    assert not log.completed
    assert log.events[-1]["kind"] == "disturbance_bound"
    assert log.events[-1]["detail"] == "agent 1 disturbance nan exceeds declared bound 0.5"
    assert log.times.shape == (2,) and math.isnan(log.disturbance_norms[1][0])


@pytest.mark.parametrize("make, msg", [
    (lambda: NoiseSpec(bound=math.nan), "noise bound must be a finite number >= 0, got nan"),
    (lambda: NoiseSpec(bound=math.inf), "noise bound must be a finite number >= 0, got inf"),
    (lambda: NoiseSpec(bound=-0.1), "noise bound must be a finite number >= 0, got -0.1"),
    (lambda: SecondaryControlSpec(gain=math.nan), "secondary gain must be a finite number, got nan"),
    (lambda: SecondaryControlSpec(gain=-math.inf), "secondary gain must be a finite number, got -inf"),
    (lambda: SecondaryControlSpec(softening=math.nan),
     "secondary softening must be a finite number > 0, got nan"),
    (lambda: SecondaryControlSpec(softening=0.0), "secondary softening must be a finite number > 0, got 0.0"),
    (lambda: SecondaryControlSpec(softening=-1.0),
     "secondary softening must be a finite number > 0, got -1.0"),
])
def test_dynamics_specs_refuse_bad_numbers(make, msg):
    """A nan noise bound, gain or softening used to run to completion with
    nan states; a softening <= 0 divides by zero in the repulsion."""
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        make()


def test_qp_infeasible_abort():
    # ball predicate centered at the agent: zero gradient with a rising funnel
    # leaves the QP no feasible input
    pred = BallPredicate(np.eye(2), np.zeros(2), 0.25)
    unit = OperatorUnit("always", pred, 0.0, 1.0)
    cb = build_barrier([unit], [GammaParams(0.9, 0.99, 1.0, 0.0)], eta=10.0, bound_radius=50.0)
    clique = Clique("stuck", (1,), cb, 0.0, 1e-3)
    sc = Scenario(agents={1: AgentModel(agent_id=1, state_dim=2)}, cliques=(clique,),
                  x0={1: np.zeros(2)}, dt=0.1)
    log = run(sc)
    assert not log.completed
    assert log.events[-1]["kind"] == "qp_infeasible"
    assert log.times.shape == (1,)
    assert log.inputs[1].shape == (0, 2)


def test_verify_pass_and_floors():
    sc = passive_scenario(dt=0.1, x0=[2.0, -1.0])
    log = run(sc)
    clique = sc.cliques[0]
    formula = Always(0.0, 1.0, Atom(AffinePredicate(np.array([1.0, 0.0]), 0.0)))
    report = verify(log, {"solo": formula}, [clique], {"solo": 0.5})
    assert report["passed"] and report["completed"]
    entry = report["cliques"]["solo"]
    assert entry["rho"] == pytest.approx(2.0)
    assert not {"floor", "max_speed", "tol_rho"} & set(entry)
    assert entry["barrier_ok"] and entry["rho_ok"] and entry["passed"]
    # an unreachable r_star flips rho_ok, a doctored barrier flips barrier_ok
    bad = verify(log, {"solo": formula}, [clique], {"solo": 5.0})
    assert not bad["passed"] and not bad["cliques"]["solo"]["rho_ok"]
    log.barriers["solo"][0] = -1.0
    worse = verify(log, {"solo": formula}, [clique], {"solo": 0.5})
    assert not worse["cliques"]["solo"]["barrier_ok"]


def test_verify_has_no_sampling_slack():
    """rho must reach r_star itself: a run moving at speed 1 with dt 0.1,
    whose rho 2.0 lies within the old slack 2 dt speed = 0.2 below r_star
    2.1, fails verify on rho_ok alone."""
    sc = passive_scenario(dt=0.1, x0=[2.0, -1.0], drift=lambda x, t: np.array([1.0, 0.0]))
    log = run(sc)
    assert np.allclose(np.diff(log.states[1], axis=0), [0.1, 0.0])
    formula = Always(0.0, 1.0, Atom(AffinePredicate(np.array([1.0, 0.0]), 0.0)))
    entry = verify(log, {"solo": formula}, sc.cliques, {"solo": 2.1})["cliques"]["solo"]
    assert entry["rho"] == 2.0 and entry["barrier_ok"]
    assert not entry["rho_ok"] and not entry["passed"]


def test_run_at_the_coefficient_bound_stays_finite():
    """Predicate coefficients at the bound (1e50) give a run with no float
    overflow in the kernel or the law (pytest's filter makes an overflow
    warning an error)."""
    pred = BallPredicate(1e50 * np.eye(2), np.full(2, 1e50), 1e50)
    cb = build_barrier([OperatorUnit("always", pred, 0.0, 1.0)], [GammaParams(-1.0, 0.5, 0.3, 0.0)],
                       eta=10.0, bound_radius=50.0)
    sc = Scenario(agents={1: AgentModel(agent_id=1, state_dim=2)}, cliques=(Clique("big", (1,), cb, 0.1, 1.0),),
                  x0={1: np.array([1.0, -1.0])}, dt=0.1)
    assert np.isfinite(run(sc).x).all()


def pipeline_config(text, x0):
    """demos/08_yardstick.py's config for a task text over x0 in R^8: four
    planar agents in one clique, no coupling, no noise, dt 0.005."""
    return {
        "agents": {str(i): {"dim": 2} for i in range(1, 5)},
        "cliques": {"team": {"members": [1, 2, 3, 4], "formula": text, "coupling_bound": 0.05}},
        "initial_states": {str(i): x0[2 * i - 2 : 2 * i].tolist() for i in range(1, 5)},
        "noise": {"bound": 0.0},
        "sim": {"dt": 0.005},
        "search": {},
    }


@pytest.mark.parametrize("seed, k, feasible", [(7, 0, True), (7, 3, True), (9, 4, True), (2, 1, False)])
def test_pipeline_reaches_r_star_on_random_tasks(seed, k, feasible):
    """construct, build_scenario(seed=0), run and verify: G tasks (7, 0) and
    (7, 3) and the F & U task (9, 4) pass with rho >= r_star.  In task
    (2, 1), x0 violates an until's left-hand side, so rho at t = 0 is
    negative whatever the run does, and construction refuses the task."""
    rng = np.random.default_rng([seed, k])
    check_pipeline(formula_text(rng, k, 10.0), rng.uniform(0.0, 10.0, size=8), feasible)


@pytest.mark.parametrize("k", range(4))
def test_pipeline_passes_f_set_tasks(k):
    """F-set tasks (1, 0) to (1, 3) of demos/08_yardstick.py, one per
    workloads._psi shape 1 + 3 (k % 4), each an eventually over a random
    conjunction: construction finds them feasible and the run passes
    verify with rho >= r_star."""
    rng = np.random.default_rng([101, k])
    a = float(rng.uniform(0.0, 6.5))
    text = f"F[{a:.2f},{a + 3.5:.2f}]({_psi(rng, 1 + 3 * (k % 4))})"
    check_pipeline(text, rng.uniform(0.0, 10.0, size=8), True)


def check_pipeline(text, x0, feasible):
    """run_construct, build_scenario(seed=0), run and verify on
    pipeline_config(text, x0): the task's feasibility is the one given, and
    a feasible task passes with rho >= r_star > 0."""
    cfg = pipeline_config(text, x0)
    doc = run_construct(cfg)
    entry = doc["cliques"]["team"]
    assert entry["feasible"] == feasible
    if not feasible:
        return
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=0)
    report = verify(run(scenario), formulas, scenario.cliques, r_stars)
    c = report["cliques"]["team"]
    assert report["passed"] and c["rho"] >= c["r_star"] == entry["r_star"] > 0.0, c


@pytest.mark.parametrize("seed", [0, 1])
def test_demo_with_known_secondary_passes_verify(seed):
    """With secondary.known the formation members model their repulsion in
    their constraints (the known rows of Team.half_spaces), and the demo
    still constructs, runs and passes verify."""
    cfg = demo_config()
    cfg["secondary"]["known"] = True
    scenario, formulas, r_stars = build_scenario(cfg, run_construct(cfg), seed=seed)
    assert scenario._team.known == {1, 2, 3}
    report = verify(run(scenario), formulas, scenario.cliques, r_stars)
    assert report["passed"], report
    print(f"known secondary, seed {seed}: min barrier "
          + ", ".join(f"{n} {e['min_barrier']:.4f}" for n, e in sorted(report["cliques"].items())))


@pytest.mark.parametrize("seed", [0, 3])
def test_clique_order_does_not_change_the_log(seed, demo_doc, tmp_path):
    """build_scenario lists the demo's cliques in name order; a Scenario
    given them in reverse order writes the same trajectory CSV bytes,
    because the team keeps its cliques in name order whatever order it is
    given."""
    cfg, doc, _ = demo_doc
    sc, _, _ = build_scenario(cfg, doc, seed=seed)
    names = [cl.name for cl in sc.cliques]
    assert names == sorted(names) and len(names) == 2
    reverse = Scenario(agents=sc.agents, cliques=sc.cliques[::-1], x0=sc.x0, dt=sc.dt, coupling=sc.coupling,
                       secondary=sc.secondary, noise=sc.noise)
    for j, scenario in enumerate((sc, reverse)):
        write_log_csv(run(scenario), tmp_path / f"{j}.csv")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()


def test_verify_fails_on_incomplete_log():
    spec = CouplingSpec(kind="scripted", scripted=lambda states, t: {1: np.array([3.0, 0.0])})
    sc = passive_scenario(dt=0.1, C=0.5, coupling=spec)
    log = run(sc)
    clique = sc.cliques[0]
    formula = Always(0.0, 0.1, Atom(AffinePredicate(np.array([1.0, 0.0]), 0.0)))
    report = verify(log, {"solo": formula}, [clique], {"solo": 0.0})
    assert not report["completed"] and not report["passed"]


def test_verify_reports_nan_rho_for_a_non_finite_state():
    """A completed run whose state left the finite range has no signal to
    monitor (a signal refuses it): rho is nan and the clique fails."""
    sc = passive_scenario(dt=0.1, x0=[2.0, -1.0])
    log = run(sc)
    formula = Always(0.0, 1.0, Atom(AffinePredicate(np.array([1.0, 0.0]), 0.0)))
    log.x[3, 0] = math.inf
    entry = verify(log, {"solo": formula}, [sc.cliques[0]], {"solo": 0.5})["cliques"]["solo"]
    assert math.isnan(entry["rho"]) and not entry["rho_ok"] and not entry["passed"]


def test_csv_round_trip_is_exact(tmp_path):
    sc = passive_scenario(dt=0.02, C=0.2, x0=[1.0, 0.5],
                          noise=NoiseSpec(bound=0.1, distribution="uniform_ball", seed=9))
    log = run(sc)
    path = tmp_path / "trajectory.csv"
    write_log_csv(log, path)
    layout, sig = read_signal_csv(path)
    assert layout == StateLayout(ids=(1,), dims=(2,))
    assert np.array_equal(sig.times, log.times)
    assert np.array_equal(sig.states, log.states[1])
    # the recovered signal monitors identically to the in-memory one
    f = Always(0.0, 1.0, Atom(AffinePredicate(np.array([1.0, 0.0]), 0.0)))
    assert robustness(f, sig) == log.clique_robustness(f, sc.cliques[0])


def test_read_signal_csv_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="needs exactly one 't' column"):
        read_signal_csv(p)
    p.write_text("t,y1_0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="no x"):
        read_signal_csv(p)
    p.write_text("t,x1_1\n0.0,1.0\n")
    with pytest.raises(ValueError, match="not contiguous"):
        read_signal_csv(p)
    # int() reads the Arabic-Indic digit one as 1, so this column aliases x1_0
    p.write_text("t,x1_0,x\u0661_0\n0.0,1.0,5.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="repeats agent 1 component 0"):
        read_signal_csv(p)
    # every fault of the rows is a one-line error naming the file
    for text, msg in BAD_SIGNAL_CSVS:
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(msg)) as err:
            read_signal_csv(p)
        assert str(err.value).startswith(str(p)) and str(err.value).count(str(p)) == 1
        assert "\n" not in str(err.value)


def test_signal_csv_skips_a_column_int_cannot_read(tmp_path):
    """str.isdigit() accepts a superscript two, which int() refuses: a
    column x\u00b2_0 is not a state column, so the CSV reads as agent 1's
    two components instead of failing on int('\u00b2')."""
    p = tmp_path / "sup.csv"
    p.write_text("t,x1_0,x1_1,x\u00b2_0\n0.0,1.0,2.0,9.0\n0.5,3.0,4.0,9.0\n", encoding="utf-8")
    layout, sig = read_signal_csv(p)
    assert layout.ids == (1,) and layout.dims == (2,)
    assert sig.states.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# (CSV text, what the reader's one-line error says)
BAD_SIGNAL_CSVS = [
    ("", "empty file"),
    ("t,x1_0\n0.5\n", "line 2: a row shorter than the header"),
    ("t,x1_0\n0.0,1.0\n0.5\n", "line 3: a row shorter than the header"),
    ("t,x1_0\n0.0," + "1" * 200000 + "\n", "field larger than field limit"),
    ("t,x1_0\n0.0,abc\n", "a non-numeric t or x cell"),
    ("t,x1_0\n0.0,1.0\n0.5,\n", "a non-numeric t or x cell"),
    ("t,x1_0\n0.0,nan\n0.5,1.0\n", "non-finite t or x cell"),
    ("t,x1_0\n0.0,1.0\ninf,1.0\n", "non-finite t or x cell"),
    ("t,x1_0\n", "times must be a non-empty 1-D array"),
    ("t,x1_0\n0.5,1.0\n", "signals start at time 0"),
    ("t,x1_0\n0.0,1.0\n0.0,2.0\n", "times must be strictly increasing"),
    # two columns of one agent and component, or two t columns: the reader
    # would pick one of them silently
    ("t,x1_0,x1_0\n0.0,1.0,5.0\n0.5,1.0,5.0\n", "column 'x1_0' repeats agent 1 component 0"),
    ("t,x1_0,x01_0\n0.0,1.0,5.0\n0.5,1.0,5.0\n", "column 'x01_0' repeats agent 1 component 0"),
    ("t,x1_00,x1_0\n0.0,1.0,5.0\n0.5,1.0,5.0\n", "column 'x1_0' repeats agent 1 component 0"),
    ("t,x1_0,t\n0.0,1.0,0.0\n0.5,1.0,0.5\n", "needs exactly one 't' column"),
]


def test_log_dict_round_trip(tmp_path):
    sc = passive_scenario(dt=0.1, C=0.2,
                          noise=NoiseSpec(bound=0.1, distribution="uniform_ball", seed=2))
    log = run(sc)
    sha = write_log_csv(log, tmp_path / "trajectory.csv")
    doc = json.loads(json.dumps(log_to_dict(log, "trajectory.csv", sha)))
    back = log_from_dict(doc, tmp_path, Team(sc.cliques, sc.agents))
    assert np.array_equal(back.times, log.times)
    assert np.array_equal(back.states[1], log.states[1])
    assert np.array_equal(back.inputs[1], log.inputs[1])
    assert np.array_equal(back.barriers["solo"], log.barriers["solo"])
    assert back.completed == log.completed
    assert back.dt == log.dt
    assert back.events == log.events
    assert isinstance(next(iter(back.states)), int)


def test_adversarial_noise_pushes_against_gradient():
    # with an off-center ball term the adversarial sampler must align the
    # disturbance with -grad b
    pred = BallPredicate(np.eye(2), np.array([-1.0, 0.0]), 4.0)
    unit = OperatorUnit("always", pred, 0.0, 1.0)
    cb = build_barrier([unit], [GammaParams(-2.0, -0.5, 1.0, 0.0)], eta=10.0, bound_radius=50.0)
    clique = Clique("adv", (1,), cb, 0.3, 1.0)
    sc = Scenario(agents={1: AgentModel(agent_id=1, state_dim=2)}, cliques=(clique,),
                  x0={1: np.array([2.0, 0.0])}, dt=0.1,
                  noise=NoiseSpec(bound=0.3, distribution="adversarial", seed=0))
    log = run(sc)
    assert log.completed
    assert np.allclose(log.disturbance_norms[1], 0.3)
    # the barrier still never dips below zero: the QP compensates
    assert np.all(log.barriers["adv"] > 0.0)


# --- the stacked team step against the per-agent oracle --------------------

def _abort_then_raise(states, t):
    """Scripted coupling: agent 4 over its bound at t = 0.29, nothing before,
    and an error at every later t, which the per-agent loop never reaches."""
    if t > 0.29 + 1e-12:
        raise RuntimeError(f"coupling called at t = {t:g}, past the breach")
    return {4: np.array([0.0, 2.0])} if t >= 0.29 - 1e-12 else {}


def _oracle_scenario(noise, coupling, secondary, stuck, eta, interleaved=False, plain=False, group=(1, 2, 3)):
    """Five agents in two cliques, sized so that every QP is active at times.

    "team" = agents 1-3 (dim 2; agent 2 has an affine drift, agent 3 a
    non-identity square input map) must reach a point and a ball while
    keeping a formation constraint; "side" = agents 4 (dim 2, input map
    with three inputs) and 5 (dim 3, affine drift) has mixed member
    dimensions and expires at t = 0.6 while the run goes on to t = 1.
    interleaved=True makes the cliques (1, 3) and (2, 4, 5), so neither
    clique's stacked state is one run of the team vector: agent 3 keeps the
    formation with agent 1, and agent 2 one with agent 4 until t = 0.3, a
    switch of side's barrier.
    stuck=True adds agent 6, parked at the centre of a ball whose funnel
    rises past it, so its constraint direction vanishes with rhs > 0
    mid-run.  eta is the softmin sharpness of both task barriers.
    plain=True gives the team the demo's shape: agent 5 has dim 2 as well,
    and every agent an identity input map and no drift.  group is the
    repulsion's group.
    """
    dims = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2 if plain else 3}
    team_ids, side_ids = ((1, 3), (2, 4, 5)) if interleaved else ((1, 2, 3), (4, 5))

    def row(ids, parts):
        """A clique-state vector: parts[i] on member i's block, zero elsewhere."""
        return np.concatenate([np.asarray(parts.get(i, np.zeros(dims[i])), dtype=float) for i in ids])

    def sel(ids, i):
        """The rows picking member i's block out of a clique state."""
        return np.stack([row(ids, {i: e}) for e in np.eye(dims[i])])

    team_units = [
        OperatorUnit("eventually", AffinePredicate(row(team_ids, {1: [1.0, 0]}), -1.0), 0.4, 1.0),
        OperatorUnit("always", AffinePredicate(row(team_ids, {1: [0, 1.0], team_ids[1]: [0, -1.0]}), 1.0), 0.0, 1.0),
        OperatorUnit("eventually", BallPredicate(sel(team_ids, 3), np.array([-0.5, 0.5]), 1.0), 0.5, 1.0),
    ]
    team_params = [GammaParams(g0, g_inf, decay, u.t_star) for (g0, g_inf, decay), u in
                   zip([(-2.0, 0.2, 3.0), (-0.5, 0.3, 2.0), (-2.0, 0.3, 2.0)], team_units)]
    side_units = [
        OperatorUnit("always", AffinePredicate(row(side_ids, {4: [1.0, 0], 5: [0, 0, 1.0][-dims[5]:]}), 1.0),
                     0.0, 0.6),
        OperatorUnit("eventually", BallPredicate(sel(side_ids, 5), -0.5 * np.ones(dims[5]), 1.0), 0.2, 0.6),
    ]
    side_curves = [(-1.0, 2.6, 4.0), (-1.0, 0.8, 3.0)]
    if interleaved:
        side_units.append(
            OperatorUnit("always", AffinePredicate(row(side_ids, {2: [0, 1.0], 4: [0, -1.0]}), 1.0), 0.0, 0.3))
        side_curves.append((-0.5, 0.3, 2.0))
    side_params = [GammaParams(g0, g_inf, decay, u.t_star) for (g0, g_inf, decay), u in
                   zip(side_curves, side_units)]
    cliques = [
        Clique("team", team_ids, build_barrier(team_units, team_params, eta=eta, bound_radius=30.0), 0.8, 2.0),
        Clique("side", side_ids, build_barrier(side_units, side_params, eta=eta, bound_radius=30.0), 0.8, 2.0),
    ]
    A2 = np.array([[-0.1, 0.2], [0.0, -0.1]])
    A5 = np.array([[0.0, -0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, -0.1]])
    b5 = np.array([0.05, 0.0, 0.0])
    agents = {
        1: AgentModel(1, 2),
        2: AgentModel(2, 2, drift=lambda x, t: A2 @ x + 0.1),
        3: AgentModel(3, 2, input_map=np.array([[1.0, 0.3], [0.0, 1.5]])),
        4: AgentModel(4, 2, input_map=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])),
        5: AgentModel(5, 3, drift=lambda x, t: A5 @ x + b5),
    }
    if plain:
        agents = {i: AgentModel(i, 2) for i in dims}
    x0 = {1: [0.0, 0.0], 2: [0.0, 0.5], 3: [-0.5, 0.5], 4: [1.0, 1.0], 5: [0.0, 0.0, 0.5][-dims[5]:]}
    if stuck:
        unit = OperatorUnit("always", BallPredicate(np.eye(2), np.zeros(2), 1.0), 0.0, 1.0)
        cb = build_barrier([unit], [GammaParams(-2.0, 1.5, 2.0, 0.0)], eta=10.0, bound_radius=50.0)
        cliques.append(Clique("stuck", (6,), cb, 0.0, 3.0))
        agents[6] = AgentModel(6, 2)
        x0[6] = [0.0, 0.0]
    sec = {
        "none": SecondaryControlSpec(),
        "repulsion": SecondaryControlSpec("pairwise_repulsion", group, 0.1, 0.05),
        "known": SecondaryControlSpec("pairwise_repulsion", group, 0.1, 0.05, known=True),
        "scripted": SecondaryControlSpec(
            "scripted", scripted=lambda states, t: {
                2: 0.05 * np.array([math.sin(5 * t), math.cos(5 * t)]), 4: 0.02 * np.ones(3)}),
    }[secondary]
    attraction = CouplingSpec("saturating_attraction", attractions={
        1: ((0.2, 4),), 2: ((0.2, 4),), 3: ((0.1, 1), (0.1, 2)), 4: ((0.2, 1), (0.2, 2))})
    coup = {
        "none": CouplingSpec(),
        "attraction": attraction,
        "scripted": CouplingSpec("scripted", scripted=lambda states, t: {
            1: 0.1 * np.tanh(states[4] - states[1]), 5: np.array([0.05, 0.0, -0.05])}),
        # two agents over their bounds at t = 0.3
        "abort": CouplingSpec("scripted", scripted=lambda states, t: (
            {1: np.array([5.0, 0.0]), 4: np.array([0.0, 2.0])} if t >= 0.3 - 1e-12 else {})),
        # agent 1 over its bound at t = 0.42, the step before the stuck agent's QP fails
        "abort-before-infeasible": CouplingSpec("scripted", scripted=lambda states, t: (
            {1: np.array([5.0, 0.0])} if t >= 0.42 - 1e-12 else {})),
        "abort-then-raise": CouplingSpec("scripted", scripted=_abort_then_raise),
    }[coupling]
    return Scenario(agents=agents, cliques=tuple(cliques),
                    x0={i: np.asarray(v, float) for i, v in x0.items()}, dt=0.01,
                    coupling=coup, secondary=sec,
                    noise=NoiseSpec(bound=0.1, distribution=noise, seed=7))


def _assert_bitwise(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), what


def _assert_matches_naive_run(log, ref):
    assert log.completed == ref.completed and log.dt == ref.dt
    assert log.events == ref.events
    _assert_bitwise(log.times, ref.times, "times")
    for name in ("states", "inputs", "barriers", "residuals", "shares", "disturbance_norms"):
        got, want = getattr(log, name), getattr(ref, name)
        assert list(got) == list(want), name
        for key in want:
            _assert_bitwise(got[key], want[key], f"{name}[{key}]")


# (noise, coupling, secondary, stuck, softmin eta[, interleaved cliques[, plain[, repulsion group]]])
ORACLE_CASES = {
    "ball-attraction-repulsion": ("uniform_ball", "attraction", "repulsion", False, 3.0),
    "adversarial-attraction-known": ("adversarial", "attraction", "known", False, 3.0),
    "adversarial-scripted-repulsion": ("adversarial", "scripted", "repulsion", False, 3.0),
    "none-scripted-scripted": ("none", "scripted", "scripted", False, 3.0),
    "ball-none-known": ("uniform_ball", "none", "known", False, 3.0),
    "disturbance-abort": ("uniform_ball", "abort", "repulsion", False, 3.0),
    "qp-infeasible-abort": ("none", "none", "none", True, 3.0),
    # a breach, then in the same chunk a step that raises: an infeasible QP,
    # or a coupling that raises past the breach after side's switch at 0.3
    "disturbance-abort-then-qp-infeasible": ("none", "abort-before-infeasible", "none", True, 3.0),
    "interleaved-disturbance-abort-then-raise": ("uniform_ball", "abort-then-raise", "repulsion", False, 3.0, True),
    "interleaved-ball-attraction-repulsion": ("uniform_ball", "attraction", "repulsion", False, 3.0, True),
    # a repulsion group whose blocks are not one run of the team vector
    "gathered-ball-attraction-repulsion": ("uniform_ball", "attraction", "repulsion", False, 3.0, True, False, (1, 3)),
    # a sharper softmin shrinks some members' gradient blocks to rounding
    # size, and their demand with them: the runs must still complete
    "sharp-ball-attraction-repulsion": ("uniform_ball", "attraction", "repulsion", False, 10.0),
    "sharp-adversarial-attraction-known": ("adversarial", "attraction", "known", False, 10.0),
    "sharp-adversarial-scripted-repulsion": ("adversarial", "scripted", "repulsion", False, 10.0),
    "sharp-none-scripted-scripted": ("none", "scripted", "scripted", False, 10.0),
    "sharp-ball-none-known": ("uniform_ball", "none", "known", False, 10.0),
    # the benchmark's shape: equal blocks, identity maps, no drift
    "plain-ball-attraction-repulsion": ("uniform_ball", "attraction", "repulsion", False, 3.0, False, True),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_run_matches_per_agent_oracle_bitwise(case):
    _, coupling, _, stuck, *_ = ORACLE_CASES[case]
    sc = _oracle_scenario(*ORACLE_CASES[case])
    log = run(sc)
    _assert_matches_naive_run(log, naive_run(sc))

    # the case exercises what it names
    kinds = [e["kind"] for e in log.events]
    if coupling == "abort":
        assert kinds[-2:] == ["disturbance_bound"] * 2 and log.times[-1] == pytest.approx(0.31)
    elif coupling == "abort-before-infeasible":  # the QP fails at 0.43 (qp-infeasible-abort)
        assert kinds == ["disturbance_bound"] and log.times[-1] == pytest.approx(0.43)
    elif coupling == "abort-then-raise":  # the switch at 0.3 is dropped with the steps past the breach
        assert kinds == ["disturbance_bound"] and log.times[-1] == pytest.approx(0.30)
        with pytest.raises(RuntimeError, match="past the breach"):
            sc.coupling.scripted(sc.x0, 0.3)
    elif stuck:
        assert kinds[-1] == "qp_infeasible" and 0.1 < log.events[-1]["t"] < 0.9
    else:
        assert log.completed
        assert np.isnan(log.barriers["side"][-1]) and not np.isnan(log.barriers["side"][0])
        assert log.shares[4][-1] == 0.0 and log.residuals[5][-1] == 0.0
        for i in (1, 2, 3, 4, 5):
            assert np.any(np.abs(log.residuals[i][:50]) < 1e-9)  # the QP was active



@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_ball_noise_chunks_match_per_agent_oracle_bitwise(case, monkeypatch):
    """Uniform-ball noise and the funnel rows tabulated 7 steps ahead
    instead of 256: a 100-step run crosses 14 chunk boundaries and ends on
    a partial chunk, and side expires inside a chunk (so does its switch
    in the interleaved case).  It still reads each of the seed's two noise
    streams (normals, uniforms) in naive_run's per-step, per-agent order, so
    the draws do not depend on the chunk size, and gives the per-agent law
    of naive_run.  No step of the run fetches its funnel
    rows from the t-cache (ball cliques included): every kernel call takes
    the tabulated rows."""
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 7)
    sc = _oracle_scenario(*ORACLE_CASES[case])
    with monkeypatch.context() as m:
        m.setattr(barrier, "_args", lambda *_: pytest.fail("a step fetched rows from the t-cache"))
        log = run(sc)
    _assert_matches_naive_run(log, naive_run(sc))
    assert len(log.times) - 1 > 7
    assert any(isinstance(tm.unit.predicate, BallPredicate) for cl in sc.cliques for tm in cl.barrier.terms)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_log_files_match_naive_writer_and_read_back_bitwise(case, tmp_path):
    """The whole-row CSV writer gives the per-cell writer's bytes and their
    sha256, and write -> log_from_dict -> verify gives back every field bit
    for bit and the in-memory verify report."""
    sc = _oracle_scenario(*ORACLE_CASES[case])
    log = run(sc)
    sha = write_log_csv(log, tmp_path / "trajectory.csv")
    naive_write_log_csv(log, tmp_path / "naive.csv")
    data = (tmp_path / "trajectory.csv").read_bytes()
    assert data == (tmp_path / "naive.csv").read_bytes()
    assert sha == hashlib.sha256(data).hexdigest()

    doc = json.loads(json.dumps(log_to_dict(log, "trajectory.csv", sha)))
    back = log_from_dict(doc, tmp_path, Team(sc.cliques, sc.agents))
    assert (back.completed, back.dt, back.events) == (log.completed, log.dt, log.events)
    assert (back.layout, back.input_layout, back.clique_names) == (
        log.layout, log.input_layout, log.clique_names)
    for name in ("times", "x", "u", "b", "res", "share", "dist"):
        _assert_bitwise(getattr(back, name), getattr(log, name), name)
    formulas = {cl.name: Always(0.0, 0.05, Atom(AffinePredicate(np.ones(cl.barrier.dim), 1.0)))
                for cl in sc.cliques}
    r_stars = {cl.name: 0.0 for cl in sc.cliques}
    assert verify(back, formulas, sc.cliques, r_stars) == verify(log, formulas, sc.cliques, r_stars)
