import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stlcbf import (
    AffinePredicate,
    BallPredicate,
    GammaParams,
    OperatorUnit,
    SearchConfig,
    StateLayout,
    barrier_from_dict,
    barrier_value,
    build_barrier,
    compute_kappa,
    feasibility_check,
    left_limit_value,
    maximize_r,
    normalize,
    parse,
)
from stlcbf.param_search import _ascend, _check_eq7, _feasible_at, _default_bound_radius, _h_opt_capped

from oracles import naive_ascend, naive_barrier_state, random_barrier

# the benchmark's random task generator, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import formula_text  # noqa: E402

TASK_LAYOUT = StateLayout(ids=(1, 2, 3, 4), dims=(2, 2, 2, 2))


def random_task(k, seed=7):
    """The k-th seeded random task (seed 7 gives the tasks of
    demos/06_search_differential.py): its units and x0 in [0, 10]^8."""
    rng = np.random.default_rng([seed, k])
    units = normalize(parse(formula_text(rng, k, 10.0), TASK_LAYOUT))
    return units, rng.uniform(0.0, 10.0, size=8)


def unit_h_x(kind="always", a=0.0, b=2.0, until_lhs=False):
    """h(x) = x over a 1-D state."""
    return OperatorUnit(kind, AffinePredicate(np.array([1.0]), 0.0), a, b, until_lhs)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(delta=0.0)
    with pytest.raises(ValueError):
        SearchConfig(eta_grid=())
    # NaN fails every check, and each message names its field
    for field in ("delta", "r_max", "kappa_cap"):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SearchConfig(**{field: math.nan})
    with pytest.raises(ValueError, match="^eta_grid must be"):
        SearchConfig(eta_grid=(20.0, math.nan))
    assert SearchConfig(r_max=math.inf, kappa_cap=math.inf).r_max == math.inf


def test_analytic_one_dimensional_case():
    # single always-unit with t_star = 0: r can climb to just under
    # h(x0) - delta - softmin gap
    x0 = np.array([1.0])
    cfg = SearchConfig(delta=0.005, eta_grid=(40.0,))
    res = maximize_r([unit_h_x()], x0, cfg)
    assert res.feasible and res.barrier is not None
    gap = math.log(2) / 40.0
    assert 1.0 - 0.005 - gap - 0.05 < res.r_star < 1.0
    assert barrier_value(res.barrier, x0, 0.0) >= cfg.delta


def test_search_is_deterministic():
    x0 = np.array([0.5, -0.25])
    pred1 = AffinePredicate(np.array([1.0, 0.0]), 1.0)
    pred2 = BallPredicate(np.eye(2), np.array([-1.0, 0.0]), 2.0)
    units = [
        OperatorUnit("always", pred1, 0.0, 3.0),
        OperatorUnit("eventually", pred2, 1.0, 4.0),
    ]
    cfg = SearchConfig(r_max=1.5)
    r1 = maximize_r(units, x0, cfg)
    r2 = maximize_r(units, x0, cfg)
    assert r1.r_star == r2.r_star
    assert r1.kappa == r2.kappa
    for t1, t2 in zip(r1.barrier.terms, r2.barrier.terms):
        assert t1.gamma == t2.gamma
    assert r1.diagnostics["eta"] == r2.diagnostics["eta"]


def test_infeasible_from_bad_start():
    # target region immediately required but x0 is outside it
    u = OperatorUnit("always", AffinePredicate(np.array([1.0]), -5.0), 0.0, 1.0)
    res = maximize_r([u], np.array([0.0]), SearchConfig())
    assert not res.feasible and res.r_star == 0.0 and res.barrier is None
    assert any("unsatisfiable" in w for w in res.diagnostics["warnings"])


def test_infeasible_empty_ball():
    u = OperatorUnit("eventually", BallPredicate(np.eye(1), np.zeros(1), -1.0), 0.0, 2.0)
    res = maximize_r([u], np.array([3.0]), SearchConfig())
    assert not res.feasible


def test_r_max_honored():
    res = maximize_r([unit_h_x()], np.array([1.0]), SearchConfig(r_max=0.1, eta_grid=(30.0,)))
    assert res.feasible
    assert res.r_star <= 0.1


def test_ball_target_caps_r():
    # eventually reach a ball of squared radius 0.64: r* < 0.64
    u = OperatorUnit("eventually", BallPredicate(np.eye(1), np.array([-2.0]), 0.64), 0.0, 3.0)
    res = maximize_r([u], np.array([0.0]), SearchConfig(eta_grid=(40.0,)))
    assert res.feasible
    assert 0.0 < res.r_star < 0.64


def test_feasibility_check_validates_placement_rules():
    x0 = np.array([1.0])
    u = unit_h_x()  # t_star = 0, h(x0) = 1
    ok = [GammaParams.from_target(0.5, 1.2, 0.5, 0.0)]
    rep = feasibility_check([u], x0, 0.5, 20.0, 4.0, ok, 0.005)
    assert rep.feasible
    assert rep.initial_margin > 0.005
    assert set(rep.switch_margins) == {2.0}
    # gamma0 below r when the target applies immediately
    with pytest.raises(ValueError, match="must lie in"):
        feasibility_check([u], x0, 0.5, 20.0, 4.0, [GammaParams(0.2, 1.2, 0.0, 0.0)], 0.005)
    # gamma0 above h(x0)
    with pytest.raises(ValueError, match="must lie in"):
        feasibility_check([u], x0, 0.5, 20.0, 4.0, [GammaParams(1.1, 1.2, 0.0, 0.0)], 0.005)
    # gamma_inf must exceed sup h for a ball predicate... stays below, that is
    ub = OperatorUnit("eventually", BallPredicate(np.eye(1), np.array([-2.0]), 1.0), 0.0, 2.0)
    bad = [GammaParams(-4.0, 1.5, 0.9, 2.0)]
    with pytest.raises(ValueError, match="sup h"):
        feasibility_check([ub], np.array([0.0]), 0.1, 20.0, 4.0, bad, 0.005)
    # decay inconsistent with the target rule
    with pytest.raises(ValueError, match="inconsistent"):
        feasibility_check(
            [unit_h_x(a=1.0)], x0, 1.5, 20.0, 4.0, [GammaParams(0.5, 2.0, 0.01, 1.0)], 0.005
        )


def test_feasibility_monotone_in_r_spot():
    x0 = np.array([1.0])
    units = (unit_h_x(),)
    cfg = SearchConfig(eta_grid=(30.0,))
    caps = (_h_opt_capped(units[0], x0),)
    d0 = _default_bound_radius(units, x0)
    win_hi, _ = _feasible_at(units, x0, 0.9, cfg, d0, caps)
    win_lo, _ = _feasible_at(units, x0, 0.45, cfg, d0, caps)
    assert win_hi is not None and win_lo is not None


def test_witness_ascent_converges():
    x0 = np.array([0.5, -0.25])
    units = [
        OperatorUnit("always", AffinePredicate(np.array([1.0, 0.0]), 1.0), 0.0, 3.0),
        OperatorUnit("eventually", AffinePredicate(np.array([0.0, 1.0]), 2.0), 1.0, 4.0),
    ]
    res = maximize_r(units, x0, SearchConfig(r_max=1.0))
    assert res.feasible
    for s, g in res.diagnostics["grad_norms"].items():
        assert g < 1e-6, f"ascent at switch {s} left gradient norm {g}"
    # every witness certifies a left-limit value above delta
    for s, m in res.diagnostics["switch_margins"].items():
        assert m >= res.diagnostics["delta"]


def test_compute_kappa_floor_and_example():
    pred = AffinePredicate(np.array([1.0]), 0.0)
    u = OperatorUnit("always", pred, 0.0, 5.0)
    # flat curves slew nothing: kappa_min
    cb = build_barrier([u], [GammaParams(0.0, 1.0, 0.0, 0.0)], eta=5.0, bound_radius=2.0)
    assert compute_kappa(cb, 0.1) == 1.0
    # hand-computed: Delta_max = 1, b_max = sup_h - gamma0 = 2, eta = 5, delta = 0.1
    cb2 = build_barrier([u], [GammaParams(0.0, 1.0, 1.0, 0.0)], eta=5.0, bound_radius=2.0)
    want = 1.1 * (1.0 / 0.1) * math.exp(5.0 * (2.0 - 0.1))
    assert abs(compute_kappa(cb2, 0.1) - want) < 1e-6 * want


def test_compute_kappa_clamps():
    pred = AffinePredicate(np.array([1.0]), 0.0)
    u = OperatorUnit("always", pred, 0.0, 5.0)
    cb = build_barrier([u], [GammaParams(0.0, 1.0, 1.0, 0.0)], eta=200.0, bound_radius=50.0)
    assert compute_kappa(cb, 0.005) == 1e6
    with pytest.raises(ValueError):
        compute_kappa(cb, 0.0)


def test_kappa_cap_config():
    res = maximize_r([unit_h_x()], np.array([1.0]), SearchConfig(eta_grid=(40.0,), kappa_cap=12.0))
    assert res.feasible
    assert res.kappa <= 12.0


def test_until_lhs_floor_recorded():
    # an until keeps its lhs gamma0 finite and reported via the barrier terms
    lhs = AffinePredicate(np.array([-1.0]), 3.0)  # 3 - x
    rhs = AffinePredicate(np.array([1.0]), 0.0)
    units = [
        OperatorUnit("always", lhs, 1.0, 3.0, until_lhs=True),
        OperatorUnit("eventually", rhs, 3.0, 3.0),
    ]
    res = maximize_r(units, np.array([1.0]), SearchConfig(r_max=0.8))
    assert res.feasible
    lhs_terms = [tm for tm in res.barrier.terms if tm.unit.until_lhs]
    assert len(lhs_terms) == 1
    assert math.isfinite(lhs_terms[0].gamma.gamma0)


def _bits(v):
    a = np.asarray(v)
    return a.dtype, a.shape, a.tobytes()


def _ascent_barriers(doc, rng):
    """The demo barriers and seeded random ones, with and without balls."""
    barriers = [barrier_from_dict(doc["cliques"][name]["barrier"]) for name in sorted(doc["cliques"])]
    return barriers + [
        random_barrier(rng, n_ball=0),
        random_barrier(rng, dim=4, n_aff=3, n_ball=2, eta=30.0),
        random_barrier(rng, dim=2, n_aff=1, n_ball=1, radius=3.0),
    ]


def _nan_funnels(monkeypatch, hit=lambda cb: True):
    """Make the funnel rows the kernel fetches NaN for every barrier that
    hit accepts: in barrier_state, left_limit_* and the ascent's trials alike,
    so each value there is NaN."""
    from stlcbf import barrier, param_search

    fetch = barrier._args

    def args(cb, x, t, k):
        x, iv, gam, rate = fetch(cb, x, t, k)
        return (x, iv, gam * math.nan, rate) if hit(cb) else (x, iv, gam, rate)

    monkeypatch.setattr(barrier, "_args", args)
    monkeypatch.setattr(param_search, "_args", args)


def _starts(rng, D, dim):
    """A start inside the bound ball and one outside it (projected first)."""
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    return float(rng.uniform(0.1, 0.9)) * D * u, float(rng.uniform(1.5, 3.0)) * D * u


def test_ascend_matches_naive_oracle_bitwise(demo_doc, monkeypatch):
    """The ascent, whose Armijo trials run only the kernel's value half,
    against the ascent that evaluates a full state per trial: the same
    witness, state, gradient norm and verdict bit for bit, and a state that
    matches the reference evaluator at the witness.  At every switch of
    the demo barriers and of seeded random ones (with and without balls) the
    ascent starts inside the bound ball, outside it (projected first) and at
    the previous switch's witness.  The runs with the search's own settings
    end converged or at the iteration limit; those with the tolerance
    patched to 0 end in a stall; a barrier whose funnel rows are NaN ends
    with no accepted trial.  Every exit's bracket holds its value."""
    from stlcbf import param_search

    _, doc, _ = demo_doc
    rng = np.random.default_rng(83)
    barriers = _ascent_barriers(doc, rng)
    barriers.append(random_barrier(rng, dim=2, n_aff=2, n_ball=0))
    _nan_funnels(monkeypatch, lambda cb: cb is barriers[-1])
    verdicts, exits = Counter(), Counter()
    for cb in barriers:
        D = cb.bound_radius
        witness = np.zeros(cb.dim)
        for s in cb.schedule:
            inside, outside = _starts(rng, D, cb.dim)
            runs = ((inside, 600, 1e-6), (outside, 600, 1e-6), (witness, 600, 1e-6), (inside, 1000, 0.0))
            for i, (x_start, max_iters, tol) in enumerate(runs):
                monkeypatch.setattr(param_search, "_MAX_ASCENT_ITERS", max_iters)
                monkeypatch.setattr(param_search, "_ASCENT_TOL", tol)
                x, st, gnorm, converged, why, ub = _ascend(cb, s, x_start)
                rx, rst, rgnorm, rconverged = naive_ascend(cb, s, x_start, max_iters, tol)
                assert _bits(x) == _bits(rx), s
                for name in ("value", "grad_x", "dbdt", "weights", "active", "term_values"):
                    assert _bits(getattr(st, name)) == _bits(getattr(rst, name)), (s, name)
                assert _bits(gnorm) == _bits(rgnorm) and converged is rconverged
                exits[why] += 1
                if not math.isnan(st.value):  # and it is the state at the witness
                    ref = naive_barrier_state(cb, x, s, left_limit=True)
                    for name in ("value", "grad_x", "dbdt", "weights"):
                        got, want = np.atleast_1d(getattr(st, name)), np.atleast_1d(ref[name])
                        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name
                    assert st.value <= ub + 1e-12 * max(1.0, abs(ub)), (s, why)
                verdicts[converged, math.isnan(st.value)] += 1
                if i == 0:
                    next_witness = x
            witness = next_witness
    assert verdicts[True, False] > 0 and verdicts[False, False] > 0 and verdicts[False, True] > 0
    assert set(exits) == {"converged", "iteration limit", "stall", "no accepted trial"}, exits


def test_nan_margin_is_infeasible(monkeypatch):
    """A NaN margin must not pass for a certificate: with NaN funnel rows
    every barrier value is NaN, and a "value < delta" test is False for NaN.
    The same funnels are feasible with their own rows."""
    layout = StateLayout(ids=(1,), dims=(2,))
    units = normalize(parse("G[0,6](dot([0,1], x1) >= 0) & F[2,6](norm_inf(x1 - [3,2]) <= 1)", layout))
    x0 = np.array([0.0, 1.0])
    r = 0.9
    curves = [(0.95, 1.05), (0.8, 1.02), (-2.2, 1.02), (0.4, 1.02), (-0.2, 1.02)]
    params = [GammaParams.from_target(g0, gi, r, u.t_star) for u, (g0, gi) in zip(units, curves)]
    assert feasibility_check(units, x0, r, 20.0, 10.0, params, 0.01).feasible
    _nan_funnels(monkeypatch)
    report = feasibility_check(units, x0, r, 20.0, 10.0, params, 0.01)
    assert not report.feasible
    assert math.isnan(report.initial_margin)
    assert list(report.switch_margins) == [6.0] and math.isnan(report.switch_margins[6.0])


def test_upper_bound_dominates_naive_maximum(demo_doc, monkeypatch):
    """The concavity bound f(x) + D ||g|| - g.x, at every iterate of the
    ascent, is at least the best value naive_ascend reaches at that switch:
    it bounds the maximum over the ball from any point, not only near it."""
    from stlcbf import param_search

    _, doc, _ = demo_doc
    rng = np.random.default_rng(97)
    seen = []

    def record(fn, pos):
        def wrapped(*args):
            st = fn(*args)
            seen.append((np.asarray(args[pos], dtype=float), st))
            return st
        return wrapped

    monkeypatch.setattr(param_search, "left_limit_state", record(param_search.left_limit_state, 1))
    monkeypatch.setattr(param_search, "_finish", record(param_search._finish, 1))
    checked = 0
    for cb in _ascent_barriers(doc, rng):
        D = cb.bound_radius
        for s in cb.schedule:
            starts = _starts(rng, D, cb.dim)
            best = max(naive_ascend(cb, s, x, 600, 1e-6)[1].value for x in starts)
            for x_start in starts:
                seen.clear()
                _ascend(cb, s, x_start)
                assert len(seen) > 1
                for x, st in seen:
                    ub = param_search._upper_bound(st, x, D)
                    assert ub >= best - 1e-12 * max(1.0, abs(best)), (s, ub, best)
                checked += len(seen)
    assert checked > 1000


def test_feasibility_report_records_exits_and_brackets(demo_doc):
    """Every switch gets an exit reason and a bracket [value, bound] around
    the maximum, and the search copies both into its diagnostics.  The
    ascent does not depend on delta: with delta = 5.0, above the bound, the
    report fails on the same converged maximum that passes delta = 0.01."""
    layout = StateLayout(ids=(1,), dims=(2,))
    units = normalize(parse("G[0,6](dot([0,1], x1) >= 0) & F[2,6](norm_inf(x1 - [3,2]) <= 1)", layout))
    x0 = np.array([0.0, 1.0])
    r = 0.9
    curves = [(0.95, 1.05), (0.8, 1.02), (-2.2, 1.02), (0.4, 1.02), (-0.2, 1.02)]
    params = [GammaParams.from_target(g0, gi, r, u.t_star) for u, (g0, gi) in zip(units, curves)]
    passed, failed = (feasibility_check(units, x0, r, 20.0, 10.0, params, delta) for delta in (0.01, 5.0))
    assert passed.feasible and not failed.feasible
    for report in (passed, failed):
        assert report.exits == {6.0: "converged"} and report.warnings == []
        value, ub = report.brackets[6.0]
        assert value == report.switch_margins[6.0] <= ub < 5.0
        assert value == pytest.approx(0.0306853, abs=1e-7) and ub == pytest.approx(value, abs=1e-8)
    assert _bits(failed.witnesses[6.0]) == _bits(passed.witnesses[6.0])
    assert failed.brackets == passed.brackets
    _, doc, _ = demo_doc
    for entry in doc["cliques"].values():
        diag = entry["diagnostics"]
        assert set(diag["ascent_exits"]) == set(diag["ascent_brackets"]) == set(diag["switch_margins"])
        for s, (value, ub) in diag["ascent_brackets"].items():
            assert value == diag["switch_margins"][s] and value <= ub
            assert diag["ascent_exits"][s] in ("converged", "iteration limit", "stall", "no accepted trial")


def test_failed_reports_hold_naive_maxima(monkeypatch):
    """Every switch of every failed report in the search on random task 5
    holds what naive_ascend reaches from the same chained start (x0, then
    the previous switch's witness), bit for bit: a failed report's witnesses
    and margins are maxima, as a feasible report's are."""
    from stlcbf import param_search

    calls, check_fn = [], param_search.feasibility_check

    def check(units, x0, r, eta, bound_radius, params, delta):
        report = check_fn(units, x0, r, eta, bound_radius, params, delta)
        calls.append((units, x0, eta, bound_radius, params, report))
        return report

    monkeypatch.setattr(param_search, "feasibility_check", check)
    maximize_r(*random_task(5), SearchConfig())
    failed = [c for c in calls if not c[-1].feasible]
    assert failed
    for units, x0, eta, bound_radius, params, report in failed:
        cb = build_barrier(units, params, eta=eta, bound_radius=bound_radius)
        assert list(report.witnesses) == list(cb.schedule)
        x_start = x0
        for s in cb.schedule:
            rx, rst, rgnorm, _ = naive_ascend(cb, s, x_start, 600, 1e-6)
            assert _bits(report.witnesses[s]) == _bits(rx), (eta, s)
            assert _bits(report.switch_margins[s]) == _bits(rst.value), (eta, s)
            assert _bits(report.grad_norms[s]) == _bits(rgnorm), (eta, s)
            x_start = rx


def test_search_quality_on_random_tasks():
    """Random tasks 5, 11 and 17 are feasible, with r_star no lower than the
    blind curve search found (1.0439 and 0.1154; it found no feasible r on
    task 17), and tasks 8 and 14 stay infeasible."""
    for k, floor in ((5, 1.0429), (11, 0.1144), (17, 0.0)):
        res = maximize_r(*random_task(k), SearchConfig())
        assert res.feasible and res.r_star >= floor and res.r_star > 0.0, (k, res.r_star)
    for k in (8, 14):
        res = maximize_r(*random_task(k), SearchConfig())
        assert not res.feasible and res.r_star == 0.0, k


def test_placements_clear_delta_at_their_witnesses(monkeypatch):
    """Oracle for the closed-form placement: every placement the search sends
    to feasibility_check on seeded random tasks passes _check_eq7, and its
    barrier reaches delta at (x0, 0) and, in the left limit, at each switch's
    relaxation witness -- so the ascents of the check have a start-free
    certificate to find."""
    from stlcbf import param_search

    placed, place_fn = [], param_search._place

    def record(units, x0, r, eta, delta, d0, caps, relax):
        out = place_fn(units, x0, r, eta, delta, d0, caps, relax)
        if out is not None:
            placed.append((units, x0, r, eta, delta, dict(relax), out))
        return out

    monkeypatch.setattr(param_search, "_place", record)
    for k in range(12):
        maximize_r(*random_task(k, seed=31), SearchConfig())
    assert len(placed) >= 30
    for units, x0, r, eta, delta, relax, (params, radius) in placed:
        _check_eq7(units, params, x0, r)
        cb = build_barrier(units, params, eta=eta, bound_radius=radius)
        assert barrier_value(cb, x0, 0.0) >= delta
        for s, (x, _) in relax.items():
            assert left_limit_value(cb, x, s) >= delta, (r, eta, s)
