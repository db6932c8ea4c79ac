"""Acceptance suite: one test per shipped guarantee, each printing the
numbers it checked.  Tolerances here are contractual; do not loosen them."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from stlcbf import (
    AffinePredicate,
    BallPredicate,
    GammaParams,
    OperatorUnit,
    SampledSignal,
    StateLayout,
    barrier_from_dict,
    barrier_state,
    barrier_value,
    build_barrier,
    build_scenario,
    canonical_json,
    config_hash,
    demo_config,
    gamma_eval,
    left_limit_value,
    parse,
    robustness,
    run,
    run_construct,
    solve_agent_qp,
)
from stlcbf import controller
from stlcbf.controller import AgentModel, Clique, Team

from oracles import central_fd, naive_robustness, random_formula


def random_barrier(rng, dim=3, n_aff=4, n_ball=1, eta=15.0, radius=30.0, n_deadlines=3):
    """Random composite barrier with a few distinct deadlines."""
    deadlines = np.sort(rng.uniform(0.5, 8.0, size=n_deadlines))
    units, params = [], []
    for _ in range(n_aff):
        c = rng.normal(size=dim)
        c /= np.linalg.norm(c)
        pred = AffinePredicate(c, float(rng.normal()))
        kind = "always" if rng.uniform() < 0.5 else "eventually"
        b = float(rng.choice(deadlines))
        a = float(rng.uniform(0.0, b))
        units.append(OperatorUnit(kind, pred, a, b))
    for _ in range(n_ball):
        A = np.eye(dim) * float(rng.uniform(0.3, 1.0))
        pred = BallPredicate(A, rng.normal(size=dim), float(rng.uniform(1.0, 9.0)))
        b = float(rng.choice(deadlines))
        a = float(rng.uniform(0.0, b))
        units.append(OperatorUnit("eventually", pred, a, b))
    for u in units:
        g0 = float(rng.uniform(-4.0, -0.5))
        gi = float(rng.uniform(g0 + 0.5, g0 + 5.0))
        decay = float(rng.uniform(0.0, 1.5))
        params.append(GammaParams(g0, gi, decay, u.t_star))
    return build_barrier(units, params, eta=eta, bound_radius=radius)


def test_c01_softmin_under_approximates_min():
    """barrier value <= active minimum exactly; gap <= ln(p)/eta."""
    rng = np.random.default_rng(100)
    configs = [random_barrier(rng,
                              dim=int(rng.integers(2, 5)),
                              n_aff=int(rng.integers(2, 7)),
                              n_ball=int(rng.integers(0, 3)),
                              eta=float(rng.uniform(5.0, 60.0)))
               for _ in range(100)]
    n_checked = 0
    worst_gap_excess = -math.inf
    t0 = time.perf_counter()
    for cb in configs:
        for _ in range(10):
            t = float(rng.uniform(0.0, cb.horizon * 0.999))
            p = int(cb.active_mask(t).sum()) + 1  # active task terms + bound
            gap_cap = math.log(p) / cb.eta
            X = rng.normal(scale=rng.choice([0.5, 2.0, 8.0]), size=(100, cb.dim))
            for idx, x in enumerate(X):
                st = barrier_state(cb, x, t)
                assert len(st.term_values) == p
                if idx == 0:
                    # the reported terms are exactly the public evaluators'
                    bound = cb.bound_radius - math.sqrt(float(np.dot(x, x)) + cb.smooth_eps**2) + cb.smooth_eps
                    ref = np.append(cb.term_values(x, t)[cb.active_mask(t)], bound)
                    assert np.array_equal(ref, st.term_values)
                m = float(np.min(st.term_values))
                assert st.value <= m  # exact, no tolerance
                worst_gap_excess = max(worst_gap_excess, (m - st.value) - gap_cap)
                n_checked += 1
    elapsed = time.perf_counter() - t0
    assert n_checked == 100_000
    assert worst_gap_excess <= 1e-12
    assert elapsed < 5.0
    print(f"criterion 1: {n_checked} evaluations, "
          f"max gap minus ln(p)/eta = {worst_gap_excess:.3e}, {elapsed:.2f} s")


def test_c02_gradients_match_finite_differences():
    rng = np.random.default_rng(200)
    configs = [
        random_barrier(rng, dim=3, n_aff=5, n_ball=0, eta=15.0),
        random_barrier(rng, dim=4, n_aff=3, n_ball=2, eta=25.0),
        random_barrier(rng, dim=2, n_aff=2, n_ball=1, eta=40.0),
    ]
    worst_gx = worst_gt = 0.0
    for cb in configs:
        bounds = [0.0, *cb.schedule]
        for _ in range(34):
            # keep the FD stencil inside one activity interval
            j = int(rng.integers(0, len(bounds) - 1))
            lo, hi = bounds[j], bounds[j + 1]
            t = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            x = rng.normal(scale=2.0, size=cb.dim)
            st = barrier_state(cb, x, t)
            fd_gx = central_fd(lambda y: barrier_value(cb, y, t), x)
            err_gx = np.linalg.norm(st.grad_x - fd_gx) / max(1.0, np.linalg.norm(st.grad_x))
            eps = 1e-6
            fd_gt = (barrier_value(cb, x, t + eps) - barrier_value(cb, x, t - eps)) / (2 * eps)
            err_gt = abs(st.dbdt - fd_gt) / max(1.0, abs(st.dbdt))
            worst_gx = max(worst_gx, err_gx)
            worst_gt = max(worst_gt, err_gt)
            assert err_gx < 1e-5
            assert err_gt < 1e-5
    print(f"criterion 2: 102 points over 3 configs, "
          f"max rel err grad_x = {worst_gx:.3e}, dbdt = {worst_gt:.3e}")


def test_c03_gamma_curves_hit_target_and_stay_above(demo_doc):
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(200):
        r = float(rng.uniform(-1.0, 1.0))
        g0 = r - float(rng.uniform(0.1, 3.0))
        gi = r + float(rng.uniform(0.1, 3.0))
        t_star = float(rng.uniform(0.1, 10.0))
        g = GammaParams.from_target(g0, gi, r, t_star)
        worst = max(worst, abs(gamma_eval(g, t_star) - r))
        assert abs(gamma_eval(g, t_star) - r) <= 1e-9
        grid = np.linspace(0.0, 3.0 * t_star + 1.0, 1000)
        vals = np.array([gamma_eval(g, t) for t in grid])
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals[grid >= t_star] >= r - 1e-9)
    # the shipped demo's curves obey the same contract at r_star
    cfg, doc, _ = demo_doc
    n_demo = 0
    for name, entry in doc["cliques"].items():
        cb = barrier_from_dict(entry["barrier"])
        r_star = entry["r_star"]
        for tm in cb.terms:
            if tm.unit.until_lhs or tm.gamma.gamma0 >= r_star:
                continue
            err = abs(gamma_eval(tm.gamma, tm.gamma.t_star) - r_star)
            worst = max(worst, err)
            assert err <= 1e-9
            n_demo += 1
    assert n_demo > 0
    print(f"criterion 3: 200 random curves + {n_demo} demo terms, "
          f"max |gamma(t_star) - r| = {worst:.3e}")


def test_c04_qp_beats_random_candidates_and_satisfies_kkt():
    rng = np.random.default_rng(400)
    worst_kkt = 0.0
    n_candidates = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n)
        while np.linalg.norm(a) < 1e-6:
            a = rng.normal(size=n)
        rhs = float(rng.normal())
        u = solve_agent_qp(a, rhs)
        if rhs > 0.0:  # constraint active at the optimum
            worst_kkt = max(worst_kkt, abs(float(a @ u) - rhs))
            assert abs(float(a @ u) - rhs) < 1e-9
        else:
            assert np.array_equal(u, np.zeros(n))
        for _ in range(10):
            cand = rng.normal(scale=3.0, size=n)
            gap = rhs - float(a @ cand)
            if gap > 0.0:
                cand = cand + a * gap / float(a @ a)
            assert float(a @ cand) >= rhs - 1e-9
            assert np.linalg.norm(u) <= np.linalg.norm(cand) + 1e-12
            n_candidates += 1
    assert n_candidates == 10_000
    print(f"criterion 4: 1000 instances, {n_candidates} candidates beaten, "
          f"max |a.u - rhs| when active = {worst_kkt:.3e}")


def test_c05_load_shares_partition_to_one(monkeypatch):
    """The shares are those of Team.half_spaces, the law team_control runs,
    with the barrier kernel entry of the team step returning a random
    gradient."""
    agents = {i: AgentModel(i, n) for i, n in ((1, 2), (2, 3), (3, 1))}
    unit = OperatorUnit("always", AffinePredicate(np.zeros(6), 5.0), 0.0, 1.0)
    cb = build_barrier([unit], [GammaParams(-1.0, 0.5, 0.3, 0.0)], eta=10.0, bound_radius=50.0)
    team = Team([Clique("p", (1, 2, 3), cb, 0.1, 1.0)], agents)
    x = np.zeros(6)  # also the drift and the secondary input
    g = np.zeros(6)  # each draw's gradient
    monkeypatch.setattr(controller, "_state", lambda *_: SimpleNamespace(value=0.0, dbdt=0.0, grad_x=g))

    rng = np.random.default_rng(500)
    worst = 0.0
    n_checked = n_degenerate = 0
    for _ in range(10_000):
        scale = float(rng.choice([1e-14, 1e-6, 1.0, 1e3]))
        g[:] = rng.normal(scale=scale, size=6)
        shares = team.half_spaces(x, 0.0, x, x)[3].tolist()
        den = sum(float(np.linalg.norm(g[team.blocks[i]])) for i in (1, 2, 3))
        if den > 1e-12:
            worst = max(worst, abs(sum(shares) - 1.0))
            assert abs(sum(shares) - 1.0) <= 1e-12
            n_checked += 1
        else:
            assert shares == [1.0, 1.0, 1.0]  # conservative fallback
            n_degenerate += 1
    assert n_checked + n_degenerate == 10_000
    assert n_checked > 0
    print(f"criterion 5: {n_checked} partitions (+{n_degenerate} degenerate), "
          f"max |sum - 1| = {worst:.3e}")


def test_c06_midpoint_concavity():
    rng = np.random.default_rng(600)
    configs = [random_barrier(rng, dim=int(rng.integers(2, 5)),
                              n_aff=int(rng.integers(2, 6)),
                              n_ball=int(rng.integers(0, 3)),
                              eta=float(rng.uniform(5.0, 50.0)))
               for _ in range(4)]
    worst = math.inf
    for cb in configs:
        for _ in range(2500):
            t = float(rng.uniform(0.0, cb.horizon * 0.999))
            x1 = rng.normal(scale=rng.choice([0.5, 3.0, 10.0]), size=cb.dim)
            x2 = rng.normal(scale=rng.choice([0.5, 3.0, 10.0]), size=cb.dim)
            mid = barrier_value(cb, 0.5 * (x1 + x2), t)
            avg = 0.5 * (barrier_value(cb, x1, t) + barrier_value(cb, x2, t))
            worst = min(worst, mid - avg)
            assert mid >= avg - 1e-9
    print(f"criterion 6: 10000 triples, min midpoint margin = {worst:.3e}")


def test_c07_switch_monotonicity(demo_doc):
    cfg, doc, _ = demo_doc
    rng = np.random.default_rng(700)
    barriers = [random_barrier(rng, dim=3, n_aff=5, n_ball=1, n_deadlines=3)]
    barriers += [barrier_from_dict(e["barrier"]) for e in doc["cliques"].values()]
    worst = math.inf
    n_switches = 0
    for cb in barriers:
        for s in cb.schedule:
            X = rng.normal(scale=rng.choice([1.0, 5.0]), size=(1000, cb.dim))
            if s >= cb.horizon:
                # past the last deadline there is nothing left to compare
                with pytest.raises(ValueError, match="expired"):
                    barrier_value(cb, X[0], s)
                assert math.isfinite(left_limit_value(cb, X[0], s))
                continue
            n_switches += 1
            for x in X:
                after = barrier_value(cb, x, s)
                before = left_limit_value(cb, x, s)
                worst = min(worst, after - before)
                assert after >= before
    assert n_switches >= 3
    print(f"criterion 7: {n_switches} switches x 1000 states, "
          f"min (value - left limit) = {worst:.3e}")


def test_c08_demo_ten_seeds(demo_doc):
    cfg, doc, construct_s = demo_doc
    layout = StateLayout(ids=(1, 2, 3, 4), dims=(2, 2, 2, 2))
    texts = [cfg["cliques"][n]["formula"] for n in sorted(cfg["cliques"])]
    combined = parse(" & ".join(f"({t})" for t in texts), layout)
    r_floor = min(float(e["r_star"]) for e in doc["cliques"].values())

    t0 = time.perf_counter()
    rows = []
    for seed in range(10):
        scenario, formulas, r_stars = build_scenario(cfg, doc, seed=seed)
        log = run(scenario)
        assert log.completed
        assert not any(e["kind"] == "qp_infeasible" for e in log.events)
        mins = {n: float(np.min(v)) for n, v in log.barriers.items()}
        for n, v in mins.items():
            assert v >= -1e-3, f"seed {seed} clique {n} barrier dipped to {v}"
        stack = np.concatenate([log.states[i] for i in (1, 2, 3, 4)], axis=1)
        rho = robustness(combined, SampledSignal(log.times, stack))
        speed = log.max_speed((1, 2, 3, 4))
        threshold = min(r_floor, 0.005) - 2.0 * log.dt * speed
        assert rho >= threshold
        rows.append((seed, mins, rho, threshold, speed))
    elapsed = time.perf_counter() - t0
    assert construct_s + elapsed < 60.0

    names = sorted(doc["cliques"])
    print("criterion 8: (a) no QP infeasibility on any seed")
    worst_b = {n: min(r[1][n] for r in rows) for n in names}
    print(f"criterion 8: (b) worst min barrier per clique = "
          + ", ".join(f"{n}: {worst_b[n]:.5f}" for n in names))
    worst_rho = min(r[2] for r in rows)
    print(f"criterion 8: (c) worst rho = {worst_rho:.5f} vs threshold "
          f"{rows[0][3]:.5f} (floor min(r_star, 0.005) = {min(r_floor, 0.005):g}, "
          f"max speed ~ {max(r[4] for r in rows):.1f})")
    print(f"criterion 8: construct {construct_s:.1f} s + 10 runs {elapsed:.1f} s < 60 s")


def test_c09_adversarial_noise_margin(demo_doc):
    import copy

    cfg, doc, _ = demo_doc
    cfg2 = copy.deepcopy(cfg)
    cfg2["noise"]["distribution"] = "adversarial"
    doc2 = copy.deepcopy(doc)
    doc2["config_hash"] = config_hash(cfg2)  # barrier search never sees the noise model
    scenario, _, _ = build_scenario(cfg2, doc2)
    assert scenario.noise.distribution == "adversarial"
    assert scenario.noise.bound == 0.1
    log = run(scenario)
    assert log.completed
    mins = {n: float(np.min(v)) for n, v in log.barriers.items()}
    for n, v in mins.items():
        assert v >= -1e-3
    print("criterion 9: adversarial noise at bound 0.1, min barriers = "
          + ", ".join(f"{n}: {v:.5f}" for n, v in sorted(mins.items())))


def test_c10_construction_feasible_and_deterministic(demo_doc):
    cfg, doc, first_s = demo_doc
    assert first_s < 300.0
    for name, entry in doc["cliques"].items():
        assert entry["feasible"]
        assert entry["r_star"] > 0.0
    t0 = time.perf_counter()
    doc2 = run_construct(demo_config())
    second_s = time.perf_counter() - t0
    assert second_s < 300.0
    assert canonical_json(doc) == canonical_json(doc2)
    stats = ", ".join(
        f"{n}: r_star={e['r_star']:.6g} kappa={e['kappa']:.6g}"
        for n, e in sorted(doc["cliques"].items())
    )
    print(f"criterion 10: {stats}; runs {first_s:.1f} s and {second_s:.1f} s, "
          "documents byte-identical")


def test_c11_monitor_matches_brute_force():
    rng = np.random.default_rng(1100)
    n_match = 0
    for _ in range(1000):
        n_agents = int(rng.integers(1, 4))
        layout = StateLayout(
            ids=tuple(range(1, n_agents + 1)),
            dims=tuple(int(rng.integers(1, 3)) for _ in range(n_agents)),
        )
        steps = rng.uniform(0.01, 0.4, size=49)
        times = np.concatenate([[0.0], np.cumsum(steps)])
        states = rng.normal(scale=3.0, size=(50, layout.dim))
        f = random_formula(rng, layout, span=float(times[-1]))
        got = robustness(f, SampledSignal(times, states), 0.0)
        want = naive_robustness(f, times, states, 0.0)
        assert got == want  # exact equality, no tolerance
        n_match += 1
    print(f"criterion 11: {n_match}/1000 random formulas match the "
          "brute-force evaluator exactly")
