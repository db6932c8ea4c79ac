import dataclasses
import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from stlcbf import controller
from stlcbf import (
    AffinePredicate,
    AgentModel,
    BallPredicate,
    Clique,
    GammaParams,
    OperatorUnit,
    QpInfeasibleError,
    Team,
    barrier_state,
    build_barrier,
    solve_agent_qp,
    team_control,
)

from stlcbf import barrier
from oracles import _constraint_from_state, _share_from_state, random_team, step_rows


def two_agent_clique(kappa=2.0, C=0.5, eta=10.0):
    units = [
        OperatorUnit("always", AffinePredicate(np.array([1.0, 0, 0, 0]), 2.0), 0.0, 4.0),
        OperatorUnit("eventually", AffinePredicate(np.array([0, 0, 0, 1.0]), 3.0), 1.0, 5.0),
    ]
    params = [GammaParams(-1.0, 0.5, 0.3, u.t_star) for u in units]
    cb = build_barrier(units, params, eta=eta, bound_radius=6.0)
    clique = Clique(name="pair", members=(1, 2), barrier=cb, coupling_bound=C, kappa=kappa)
    agents = {1: AgentModel(agent_id=1, state_dim=2), 2: AgentModel(agent_id=2, state_dim=2)}
    return clique, agents


def member_constraint(clique, agents, x, t, i, known=(), f_u=None):
    """Half-space (a, rhs) of member i, a'u >= rhs, as team_control forms it
    in the team-wide pass, with the stacked secondary input f_u (zero by
    default) known to the members in known.

    agents holds exactly the clique's members, so the team vector is x.
    """
    team = Team([clique], agents, known)
    f_u = np.zeros(team.input_dim) if f_u is None else f_u
    [(entry, (shares, values, rhs, _, _))] = step_rows(team, [t])
    a = team.half_spaces(x, team.drift(x, t), f_u, entry, (shares, values, rhs))[2]
    return a[team.input_blocks[i]], float(rhs[team.rows[i]])


def test_agent_model_defaults_and_validation():
    m = AgentModel(agent_id=1, state_dim=3)
    assert m.drift is None and m.input_map is None  # zero drift, identity input map
    assert m.input_dim == 3
    with pytest.raises(ValueError, match="full row rank"):
        AgentModel(agent_id=1, state_dim=2, input_map=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError, match="full row rank"):
        AgentModel(agent_id=1, state_dim=2, input_map=np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        AgentModel(agent_id=1, state_dim=2, input_map=np.eye(3))
    drift = lambda x, t: -x
    m2 = AgentModel(agent_id=2, state_dim=2, drift=drift)
    assert np.array_equal(m2.drift(np.array([1.0, -2.0]), 0.0), np.array([-1.0, 2.0]))


def test_agent_model_derives_its_input_dim():
    """input_dim is the input map's column count, or state_dim without a
    map, and cannot be set; a state_dim that is not an integer >= 1 is
    refused with one line where the model is built."""
    assert AgentModel(1, 2, input_map=np.eye(2, 3)).input_dim == 3
    with pytest.raises(TypeError):
        AgentModel(1, 2, input_dim=3)
    for bad in (2.0, True, 0):
        with pytest.raises(ValueError, match=f"^state_dim must be an integer >= 1, got {re.escape(repr(bad))}$"):
            AgentModel(1, bad)


def test_clique_validation():
    """A nan passes a plain sign test and would give nan inputs, so each
    non-finite or out-of-range kappa or coupling bound is a one-line error,
    and so are members that do not strictly ascend, the order of the
    clique's stacked state."""
    clique, _ = two_agent_clique()
    for field, value, msg in (
        ("members", (2, 1), "members must strictly ascend, got [2, 1]"),
        ("members", (1, 1), "members must strictly ascend, got [1, 1]"),
        ("kappa", 0.0, "kappa must be a finite number > 0, got 0.0"),
        ("kappa", -1.0, "kappa must be a finite number > 0, got -1.0"),
        ("kappa", math.nan, "kappa must be a finite number > 0, got nan"),
        ("kappa", math.inf, "kappa must be a finite number > 0, got inf"),
        ("coupling_bound", -0.5, "coupling bound must be a finite number >= 0, got -0.5"),
        ("coupling_bound", math.nan, "coupling bound must be a finite number >= 0, got nan"),
        ("coupling_bound", math.inf, "coupling bound must be a finite number >= 0, got inf"),
        # kappa times the barrier's largest funnel value or bound radius (6.0) overflows the scale
        ("kappa", 1e307, "kappa must be at most 1e+307 / max(1, largest funnel value or bound radius "
                         "in magnitude), got 1e+307 with 6.0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            dataclasses.replace(clique, **{field: value})
    assert dataclasses.replace(clique, coupling_bound=0.0).coupling_bound == 0.0


def half_space_shares(clique, agents, x, t):
    """The load shares Team.half_spaces gives the clique's members at (x, t)."""
    team = Team([clique], agents)
    [(entry, rows)] = step_rows(team, [t])
    team.half_spaces(x, team.drift(x, t), np.zeros(team.input_dim), entry, rows[:3])
    return rows[0]


def test_load_share_partition():
    clique, agents = two_agent_clique()
    shares = half_space_shares(clique, agents, np.array([0.5, -1.0, 2.0, 0.25]), 0.5).tolist()
    assert min(shares) > 0.0 and abs(sum(shares) - 1.0) < 1e-12


def test_share_fallback_when_gradient_vanishes(monkeypatch):
    clique, agents = two_agent_clique()
    monkeypatch.setattr(controller, "_state", lambda *_: (0.5, np.zeros(4), 0.0, None, None))
    assert half_space_shares(clique, agents, np.zeros(4), 0.5).tolist() == [1.0, 1.0]


def test_share_denominators_add_left_to_right(monkeypatch):
    """From Python 3.12 on, sum() of floats is compensated: it adds the block
    norms 1, 1e16, 1 up to 1e16 + 2, where a left-to-right sum (that of
    Python 3.11 and before) gives 1e16.  The shares, and the oracle's, add
    left to right on every Python, so a config gives the same bytes on each."""
    unit = OperatorUnit("always", AffinePredicate(np.ones(6), 2.0), 0.0, 4.0)
    cb = build_barrier([unit], [GammaParams(-1.0, 0.5, 0.3, 0.0)], eta=10.0, bound_radius=6.0)
    clique = Clique(name="trio", members=(1, 2, 3), barrier=cb, coupling_bound=0.5, kappa=2.0)
    agents = {i: AgentModel(agent_id=i, state_dim=2) for i in (1, 2, 3)}
    state = SimpleNamespace(value=0.5, dbdt=0.0, grad_x=np.array([1.0, 0.0, 1e16, 0.0, 1.0, 0.0]))
    monkeypatch.setattr(controller, "_state", lambda *_: (state.value, state.grad_x, state.dbdt, None, None))
    expected = [1.0 / 1e16, 1.0, 1.0 / 1e16]
    assert half_space_shares(clique, agents, np.zeros(6), 0.5).tolist() == expected
    assert [_share_from_state(clique, agents, state, i) for i in (1, 2, 3)] == expected


def test_agent_constraint_matches_manual_computation():
    clique, agents = two_agent_clique(kappa=2.0, C=0.5)
    x = np.array([0.5, -1.0, 2.0, 0.25])
    t = 0.5
    st = barrier_state(clique.barrier, x, t)
    a, rhs = member_constraint(clique, agents, x, t, 1)
    g1 = st.grad_x[0:2]
    assert np.array_equal(a, g1)  # identity input map
    share = np.linalg.norm(g1) / (np.linalg.norm(g1) + np.linalg.norm(st.grad_x[2:4]))
    want = (
        np.linalg.norm(g1) * math.sqrt(4 * 2) * 0.5
        - share * (st.dbdt + 2.0 * st.value)
    )
    assert abs(rhs - want) < 1e-12


def test_known_secondary_enters_rhs():
    clique, agents = two_agent_clique()
    fu = np.array([0.3, -0.2])
    # stacked f_u; the unknown member 2 gets a non-zero input that must not enter
    f_u = np.concatenate([fu, [5.0, -7.0]])
    x = np.array([0.5, -1.0, 2.0, 0.25])
    _, rhs_plain = member_constraint(clique, agents, x, 0.5, 1)
    a, rhs_known = member_constraint(clique, agents, x, 0.5, 1, known=(1,), f_u=f_u)
    st = barrier_state(clique.barrier, x, 0.5)
    assert abs((rhs_plain - rhs_known) - float(st.grad_x[0:2] @ fu)) < 1e-12
    assert member_constraint(clique, agents, x, 0.5, 2, known=(1,), f_u=f_u)[1] == \
        member_constraint(clique, agents, x, 0.5, 2)[1]


def test_rhs_scales_with_coupling_bound():
    c_small, agents = two_agent_clique(C=0.1)
    c_big, _ = two_agent_clique(C=1.0)
    x = np.array([0.5, -1.0, 2.0, 0.25])
    _, rhs_small = member_constraint(c_small, agents, x, 0.5, 1)
    _, rhs_big = member_constraint(c_big, agents, x, 0.5, 1)
    assert rhs_big > rhs_small


def test_solve_agent_qp_closed_form():
    a = np.array([3.0, 4.0])
    u = solve_agent_qp(a, 10.0)
    # KKT: active constraint, u parallel to a
    assert abs(float(a @ u) - 10.0) < 1e-9
    assert np.allclose(u, (10.0 / 25.0) * a)
    assert np.array_equal(solve_agent_qp(a, 0.0), np.zeros(2))
    assert np.array_equal(solve_agent_qp(a, -5.0), np.zeros(2))
    with pytest.raises(QpInfeasibleError):
        solve_agent_qp(np.zeros(2), 1.0)
    # a tiny direction with a demand of its own size needs a bounded input
    u = solve_agent_qp(np.array([1e-13, 0.0]), 4e-13)
    assert np.allclose(u, [4.0, 0.0], rtol=1e-12, atol=0)
    with pytest.raises(QpInfeasibleError):
        solve_agent_qp(np.zeros(2), 4e-13)


def test_solve_agent_qp_direction_below_normal_range():
    """||a||^2 underflows to 0 here, yet the input the half-space needs is
    [2.7, 0]; the scaled path finds it, and a truly zero direction is still
    infeasible."""
    u = solve_agent_qp(np.array([1e-175, 0.0]), 2.7e-175)
    assert np.allclose(u, [2.7, 0.0], rtol=1e-15, atol=0)
    u = solve_agent_qp(np.array([3e-170, -4e-170]), 5e-170)
    assert np.allclose(u, [0.6, -0.8], rtol=1e-15, atol=0)
    with pytest.raises(QpInfeasibleError):
        solve_agent_qp(np.array([1e-300, 0.0]), 1.0)
    with pytest.raises(QpInfeasibleError):
        solve_agent_qp(np.zeros(2), 1e-300)


def test_qp_beats_random_feasible_candidates_spot():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=n)
        rhs = float(rng.normal())
        u = solve_agent_qp(a, rhs)
        assert float(a @ u) >= rhs - 1e-9
        for _ in range(10):
            cand = u + rng.normal(size=n)
            if float(a @ cand) < rhs:
                cand += a * (rhs - float(a @ cand)) / float(a @ a)
            assert np.linalg.norm(u) <= np.linalg.norm(cand) + 1e-12


def two_clique_team():
    """Cliques "main" = agents 1 (dim 2), 2 (dim 3, affine drift) and 3 (dim
    2, input map with three inputs), and "side" = agents 4 (dim 1) and 5
    (dim 2).  Agent 1 enters main's predicates only through coefficients of
    order 1e-156, so at x_1 = 0 its gradient block has a squared norm below
    the normal range."""
    sel = np.zeros((2, 7))
    sel[:, 5:] = np.eye(2)
    units = [
        OperatorUnit("always", AffinePredicate(np.array([3e-156, -4e-156, 1.0, 0.0, -0.5, 0.3, 0.0]), 1.0),
                     0.0, 2.0),
        OperatorUnit("eventually", BallPredicate(sel, np.array([-1.0, 0.5]), 1.0), 0.5, 2.0),
    ]
    params = [GammaParams(-2.0, 0.3, 2.0, u.t_star) for u in units]
    main = Clique("main", (1, 2, 3), build_barrier(units, params, eta=5.0, bound_radius=30.0), 1.5, 2.0)
    side_units = [
        OperatorUnit("always", AffinePredicate(np.array([1.0, -1.0, 0.5]), 0.5), 0.0, 1.0),
        OperatorUnit("eventually", BallPredicate(np.eye(3), np.array([0.5, -0.5, 0.0]), 1.0), 0.2, 1.0),
    ]
    side_params = [GammaParams(-1.0, 0.4, 3.0, u.t_star) for u in side_units]
    side = Clique("side", (4, 5), build_barrier(side_units, side_params, eta=5.0, bound_radius=30.0), 0.5, 1.0)
    A2 = np.array([[-0.1, 0.2, 0.0], [0.0, -0.1, 0.3], [0.1, 0.0, -0.2]])
    agents = {
        1: AgentModel(1, 2),
        2: AgentModel(2, 3, drift=lambda x, t: A2 @ x + 0.1),
        3: AgentModel(3, 2, input_map=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])),
        4: AgentModel(4, 1),
        5: AgentModel(5, 2),
    }
    return (main, side), agents


def test_team_control_matches_per_agent_solves():
    """Every agent's input from the team-wide closed form equals
    solve_agent_qp(a, rhs) of its half-space, and the half-spaces are the
    per-agent law's; the second team has mixed dimensions, an input map, a
    drifted agent and a member whose gradient block is below the normal
    range.  Inputs and residuals (Team.residuals over the step's rows, as a
    run fills its log) are compared bit for bit."""
    clique, agents = two_agent_clique()
    states = {1: np.array([0.5, -1.0]), 2: np.array([2.0, 0.25])}
    team = Team([clique], agents)
    x = team.stack(states)
    [(entry, rows)] = step_rows(team, [0.5])
    tc = team_control(team, x, 0.5, np.zeros(team.input_dim), entry, rows)
    residuals = team.residuals(rows[3], rows[4], rows[2])
    for i in clique.members:
        a, rhs = member_constraint(clique, agents, x, 0.5, i)
        assert np.array_equal(tc.inputs[team.input_blocks[i]], solve_agent_qp(a, rhs))
        assert residuals[team.rows[i]] >= -1e-9

    cliques, agents = two_clique_team()
    team = Team(cliques, agents)
    f_u = np.zeros(team.input_dim)
    rng = np.random.default_rng(3)
    tiny_active = 0
    for _ in range(40):
        x = rng.normal(size=team.dim)
        x[team.blocks[1]] = 0.0
        t = float(rng.uniform(0.0, 0.9))
        [(entry, rows)] = step_rows(team, [t])
        tc = team_control(team, x, t, f_u, entry, rows)
        _, _, rhs, a, _ = rows
        residuals = team.residuals(a, tc.inputs, rhs)
        for cl in cliques:
            x_bar = x[np.concatenate([np.arange(team.blocks[i].start, team.blocks[i].stop) for i in cl.members])]
            st = barrier_state(cl.barrier, x_bar, t)
            for i in cl.members:
                a_i, rhs_i = a[team.input_blocks[i]], float(rhs[team.rows[i]])
                want_a, want_rhs = _constraint_from_state(cl, agents, {}, st, x_bar, t, i)
                assert np.array_equal(a_i, want_a) and rhs_i == want_rhs
                u = solve_agent_qp(a_i, rhs_i)
                assert tc.inputs[team.input_blocks[i]].tobytes() == u.tobytes()
                assert residuals[team.rows[i]] == float(np.dot(a_i, u)) - rhs_i
        a_1 = a[team.input_blocks[1]]
        if rhs[team.rows[1]] > 0.0 and 0.0 < float(np.dot(a_1, a_1)) < sys.float_info.min:
            tiny_active += 1
    assert tiny_active >= 5  # the rescaled path of solve_agent_qp ran


def test_team_control_expired_clique():
    clique, agents = two_agent_clique()
    team = Team([clique], agents)
    [(entry, rows)] = step_rows(team, [5.0])  # horizon reached
    tc = team_control(team, np.ones(4), 5.0, np.zeros(team.input_dim), entry, rows)
    shares, values, rhs, a, u = rows
    assert np.array_equal(tc.inputs, np.zeros(4))
    assert math.isnan(values[0])  # clique "pair"
    assert shares.tolist() == [0.0, 0.0] and team.residuals(a, u, rhs).tolist() == [0.0, 0.0]
    # a nan time is refused, not taken for one past every deadline
    with pytest.raises(ValueError, match=r"^times must not be nan$"):
        step_rows(team, [math.nan])


def test_team_control_rejects_shared_members():
    clique, agents = two_agent_clique()
    with pytest.raises(ValueError, match=re.escape("cliques must partition the agents [1, 2], "
                                                   "but their members are [1, 1, 2, 2]")):
        Team([clique, clique], agents)


def test_team_refuses_cliques_that_do_not_fit_the_agents():
    """An agent in no clique, a member that is no agent, member dimensions
    that miss the barrier's and two cliques of one name are each a one-line
    error."""
    clique, agents = two_agent_clique()
    cases = (
        ({**agents, 7: AgentModel(agent_id=7, state_dim=1)}, [clique],
         "cliques must partition the agents [1, 2, 7], but their members are [1, 2]"),
        ({1: agents[1]}, [clique], "cliques must partition the agents [1], but their members are [1, 2]"),
        ({1: agents[1], 2: AgentModel(agent_id=2, state_dim=3)}, [clique],
         "clique 'pair': member dimensions add up to 5, but its barrier has dim 4"),
        # two columns b_pair would be logged, and verify would check one of them twice
        ({i: AgentModel(agent_id=i, state_dim=2) for i in (1, 2, 3, 4)},
         [clique, dataclasses.replace(clique, members=(3, 4))],
         "clique names must be distinct, but they are ['pair', 'pair']"),
        ({}, [], "a team needs at least one clique"),  # no deadline to run to
    )
    for team_agents, cliques, msg in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            Team(cliques, team_agents)


def test_aggregated_condition_holds_under_worst_coupling():
    # if every agent meets its share, the clique-level barrier condition holds
    # for any disturbance with per-agent norm at most C
    clique, agents = two_agent_clique(kappa=2.0, C=0.5)
    rng = np.random.default_rng(8)
    for _ in range(50):
        states = {1: rng.normal(size=2), 2: rng.normal(size=2)}
        t = float(rng.uniform(0.0, 3.9))
        team = Team([clique], agents)
        x = team.stack(states)
        [(entry, rows)] = step_rows(team, [t])
        tc = team_control(team, x, t, np.zeros(team.input_dim), entry, rows)
        st = barrier_state(clique.barrier, x, t)
        total = st.dbdt + clique.kappa * st.value
        for i in clique.members:
            g_i = st.grad_x[team.blocks[i]]
            u = tc.inputs[team.input_blocks[i]]
            gn = float(np.linalg.norm(g_i))
            worst_c = -0.5 * g_i / gn if gn > 0 else np.zeros(2)
            total += float(g_i @ (u + worst_c))
        assert total >= -1e-9


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


# (member state dims, affine terms, ball terms) per clique
TEAM_SHAPES = {
    # clique dims 2, 5, 18 and 2; product and gradient row counts from 2 to
    # 20; balls in three cliques; blocks interleaved across the cliques
    "mixed": [((2,), 2, 1), ((2, 3), 3, 2), ((9, 9), 16, 1), ((1, 1), 1, 0)],
    # the shape of demos/05_scaling.py: many cliques of three planar agents
    "homogeneous": [((2, 2, 2), 16, 0)] * 7,
}


@pytest.mark.parametrize("shape", sorted(TEAM_SHAPES))
def test_team_pass_gives_each_clique_the_bits_of_barrier_state(shape):
    """The team step's one kernel call over the stack of live cliques gives
    every clique the value, gradient block, rate, softmin weights and term
    values that barrier_state gives on that clique alone, bit for bit, and
    Team.half_spaces puts the value and the gradient block into the team's
    arrays.  The times cross every switch of every clique, and the cliques
    expire at different times; an expired clique gets value nan and a zero
    gradient block."""
    rng = np.random.default_rng(29)
    team = random_team(rng, TEAM_SHAPES[shape])
    switches = sorted({s for cl in team.cliques for s in cl.barrier.schedule})
    times = np.concatenate((np.linspace(0.0, switches[-1], 61), switches, np.array(switches) - 1e-3))
    times = np.unique(times[(times >= 0.0) & (times < switches[-1])])
    checked = expired = 0
    for t, (entry, rows) in zip(times.tolist(), step_rows(team, times)):
        x = rng.normal(scale=2.0, size=team.dim)
        (st, live, *_), gam, rate = entry
        value, grad, dbdt, w, vals = barrier._state(st, x, gam, rate)
        at = np.arange(team.dim)[st.states]  # the index in x of each gradient entry
        ends = [*st.seg.tolist()[1:], len(w)]
        grad_x = team.half_spaces(x, team.drift(x, t), np.zeros(team.input_dim), entry, rows[:3])[0]
        values = rows[1]
        for p, c in enumerate(live.tolist()):
            cl, idx, _ = team._parts[c]
            ref = barrier_state(cl.barrier, x[idx], t)
            slots = slice(st.seg[p], ends[p])
            assert _bits(value[p]) == _bits(ref.value) == _bits(values[c]), (t, c)
            assert _bits(dbdt[p]) == _bits(ref.dbdt), (t, c)
            assert _bits(w[slots]) == _bits(ref.weights) and _bits(vals[slots]) == _bits(ref.term_values), (t, c)
            assert _bits(grad[np.searchsorted(at, idx)]) == _bits(ref.grad_x) == _bits(grad_x[idx]), (t, c)
            checked += 1
        for c in sorted(set(range(len(team.cliques))) - set(live.tolist())):
            assert math.isnan(values[c]) and not grad_x[team._parts[c][1]].any()
            expired += 1
    assert checked > 200 and expired > 0
