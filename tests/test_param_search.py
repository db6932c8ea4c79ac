import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stlcbf import (
    AffinePredicate,
    Always,
    BallPredicate,
    Conj,
    Eventually,
    GammaParams,
    OperatorUnit,
    StateLayout,
    Until,
    barrier_from_dict,
    barrier_state,
    build_barrier,
    feasibility_check,
    left_limit_state,
    maximize_r,
    normalize,
    parse,
)
from stlcbf.config import clique_formulas, clique_layouts
from stlcbf.param_search import (
    _ASCENT_TOL, _DELTA, _ETA, _KAPPA, _MAX_ASCENT_ITERS, _RELAX_RADIUS, _ascend, _check_eq7, _probe,
    _default_bound_radius, _h_opt_capped, _r_high, _relaxation, _softmin,
)

from oracles import naive_ascend, naive_barrier_state, naive_relaxation, random_barrier

# the benchmark's random task generator, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import formula_text  # noqa: E402

TASK_LAYOUT = StateLayout(ids=(1, 2, 3, 4), dims=(2, 2, 2, 2))


def random_task(k, seed=7, spell_until=False):
    """The k-th seeded random task (seed 7 gives the 24-task set of
    demos/08_yardstick.py): its units and x0 in [0, 10]^8.

    With spell_until, each psi' U[a,b] psi'' of the task is replaced by
    G[a,b](psi') & F[b,b](psi''): psi' is held on [a, b] only, so x0 may
    violate it without making the task unsatisfiable.  Such tasks give the
    search probes it cannot place and checks that fail, which the tasks
    themselves, whose untils hold psi' from t = 0, refuse before any probe."""
    rng = np.random.default_rng([seed, k])
    f = parse(formula_text(rng, k, 10.0), TASK_LAYOUT)
    if spell_until:
        terms = f.children if isinstance(f, Conj) else (f,)
        f = Conj(tuple(
            Conj((Always(t.a, t.b, t.lhs), Eventually(t.b, t.b, t.rhs))) if isinstance(t, Until) else t
            for t in terms
        ))
    return normalize(f), rng.uniform(0.0, 10.0, size=8)


def unit_h_x(kind="always", a=0.0, b=2.0):
    """h(x) = x over a 1-D state."""
    return OperatorUnit(kind, AffinePredicate(np.array([1.0]), 0.0), a, b)


def test_r_max_validation():
    """r_max, the search's one setting, must be a positive number or inf:
    NaN fails the check too."""
    for bad in (0.0, -1.0, math.nan, -math.inf, "1", True):
        with pytest.raises(ValueError, match="^r_max must be a positive number"):
            maximize_r([unit_h_x()], np.array([1.0]), r_max=bad)
    assert maximize_r([unit_h_x()], np.array([1.0]), r_max=math.inf).feasible


def test_analytic_one_dimensional_case():
    # single always-unit with t_star = 0: r can climb to just under
    # h(x0) - delta - softmin gap
    x0 = np.array([1.0])
    res = maximize_r([unit_h_x()], x0)
    assert res.feasible and res.barrier is not None
    gap = math.log(2) / 40.0
    assert _DELTA == 0.005 and 1.0 - _DELTA - gap - 0.05 < res.r_star < 1.0
    assert barrier_state(res.barrier, x0, 0.0).value >= _DELTA


def test_search_is_deterministic():
    x0 = np.array([0.5, -0.25])
    pred1 = AffinePredicate(np.array([1.0, 0.0]), 1.0)
    pred2 = BallPredicate(np.eye(2), np.array([-1.0, 0.0]), 2.0)
    units = [
        OperatorUnit("always", pred1, 0.0, 3.0),
        OperatorUnit("eventually", pred2, 1.0, 4.0),
    ]
    r1 = maximize_r(units, x0, r_max=1.5)
    r2 = maximize_r(units, x0, r_max=1.5)
    assert r1.r_star == r2.r_star
    assert r1.kappa == r2.kappa
    for t1, t2 in zip(r1.barrier.terms, r2.barrier.terms):
        assert t1.gamma == t2.gamma
    assert r1.diagnostics["eta"] == r2.diagnostics["eta"]


def test_infeasible_from_bad_start():
    # target region immediately required but x0 is outside it
    u = OperatorUnit("always", AffinePredicate(np.array([1.0]), -5.0), 0.0, 1.0)
    res = maximize_r([u], np.array([0.0]))
    assert not res.feasible and res.r_star == 0.0 and res.barrier is None
    assert any("unsatisfiable" in w for w in res.diagnostics["warnings"])


def test_infeasible_empty_ball():
    u = OperatorUnit("eventually", BallPredicate(np.eye(1), np.zeros(1), -1.0), 0.0, 2.0)
    res = maximize_r([u], np.array([3.0]))
    assert not res.feasible


def test_r_max_honored():
    res = maximize_r([unit_h_x()], np.array([1.0]), r_max=0.1)
    assert res.feasible
    assert res.r_star <= 0.1


def test_ball_target_caps_r():
    # eventually reach a ball of squared radius 0.64: r* < 0.64
    u = OperatorUnit("eventually", BallPredicate(np.eye(1), np.array([-2.0]), 0.64), 0.0, 3.0)
    res = maximize_r([u], np.array([0.0]))
    assert res.feasible
    assert 0.0 < res.r_star < 0.64


def test_feasibility_check_validates_placement_rules():
    x0 = np.array([1.0])
    u = unit_h_x()  # t_star = 0, h(x0) = 1
    ok = [GammaParams.from_target(0.5, 1.2, 0.5, 0.0)]
    rep = feasibility_check(build_barrier([u], ok, 20.0, 4.0), x0, 0.5)
    assert rep.feasible
    assert rep.initial_margin > _DELTA
    assert set(rep.switch_margins) == {2.0}
    # gamma0 below r when the target applies immediately
    with pytest.raises(ValueError, match="must lie in"):
        feasibility_check(build_barrier([u], [GammaParams(0.2, 1.2, 0.0, 0.0)], 20.0, 4.0), x0, 0.5)
    # gamma0 above h(x0)
    with pytest.raises(ValueError, match="must lie in"):
        feasibility_check(build_barrier([u], [GammaParams(1.1, 1.2, 0.0, 0.0)], 20.0, 4.0), x0, 0.5)
    # gamma_inf must exceed sup h for a ball predicate... stays below, that is
    ub = OperatorUnit("eventually", BallPredicate(np.eye(1), np.array([-2.0]), 1.0), 0.0, 2.0)
    bad = [GammaParams(-4.0, 1.5, 0.9, 2.0)]
    with pytest.raises(ValueError, match="sup h"):
        feasibility_check(build_barrier([ub], bad, 20.0, 4.0), np.array([0.0]), 0.1)
    # decay inconsistent with the target rule
    with pytest.raises(ValueError, match="inconsistent"):
        feasibility_check(build_barrier([unit_h_x(a=1.0)], [GammaParams(0.5, 2.0, 0.01, 1.0)], 20.0, 4.0), x0, 1.5)


def test_feasibility_monotone_in_r_spot():
    x0 = np.array([1.0])
    units = (unit_h_x(),)
    caps = (_h_opt_capped(units[0], x0),)
    d0 = _default_bound_radius(units, x0)
    relax = _relaxation(units, x0, d0, _r_high(units, x0, caps, math.inf) + 1.0)
    assert _probe(units, x0, 0.9, d0, caps, relax).feasible
    assert _probe(units, x0, 0.45, d0, caps, relax).feasible


def test_witness_ascent_converges():
    x0 = np.array([0.5, -0.25])
    units = [
        OperatorUnit("always", AffinePredicate(np.array([1.0, 0.0]), 1.0), 0.0, 3.0),
        OperatorUnit("eventually", AffinePredicate(np.array([0.0, 1.0]), 2.0), 1.0, 4.0),
    ]
    res = maximize_r(units, x0, r_max=1.0)
    assert res.feasible
    for s, g in res.diagnostics["grad_norms"].items():
        assert g < 1e-6, f"ascent at switch {s} left gradient norm {g}"
    # every witness certifies a left-limit value above delta
    for s, m in res.diagnostics["switch_margins"].items():
        assert m >= res.diagnostics["delta"]


def test_every_result_ships_the_fixed_kappa():
    """kappa is the fixed _KAPPA on a feasible result and on both infeasible
    exits: no feasible r found, and an unsatisfiable task refused before any
    probe (random task 8, its untils spelled G[a,b] & F[b,b] or not)."""
    res = maximize_r([unit_h_x()], np.array([1.0]))
    assert res.feasible and res.kappa == _KAPPA == 30.0
    assert not any("kappa" in w for w in res.diagnostics["warnings"]) and "kappa_raw" not in res.diagnostics
    for spell_until in (True, False):
        res = maximize_r(*random_task(8, spell_until=spell_until))
        assert not res.feasible and res.kappa == _KAPPA, spell_until


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
    hit accepts: in barrier_state, left_limit_state and the search's
    value-only calls alike, so each value there is NaN."""
    from stlcbf import barrier, param_search

    fetch = barrier._args

    def args(cb, x, t, left=False):
        st, x, gam, rate = fetch(cb, x, t, left)
        return (st, x, gam * math.nan, rate) if hit(cb) else (st, x, gam, rate)

    monkeypatch.setattr(barrier, "_args", args)
    monkeypatch.setattr(param_search, "_args", args)


def _starts(rng, D, dim):
    """A start inside the bound ball and one outside it (projected first)."""
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    return float(rng.uniform(0.1, 0.9)) * D * u, float(rng.uniform(1.5, 3.0)) * D * u


def test_ascend_matches_naive_oracle_bitwise(demo_doc, monkeypatch):
    """The ascent, whose rejected Armijo trials stop at the kernel's value,
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


def test_relaxation_matches_naive_oracle_bitwise(demo_doc):
    """The relaxation, whose bisection runs the kernel with floor inf on the
    switch's rows fetched once, against one that bisects on
    left_limit_state(...).value: the same witness and value per switch bit
    for bit, at _ETA and the level maximize_r passes, on the
    demo cliques and on seeded G tasks.  Some witnesses are bisected back
    (valued at the floor or above) and some are not."""
    cfg, _, _ = demo_doc
    layouts, formulas = clique_layouts(cfg), clique_formulas(cfg)
    tasks = [(normalize(formulas[name]),
              np.concatenate([np.asarray(cfg["initial_states"][str(i)], dtype=float) for i in layouts[name].ids]))
             for name in sorted(formulas)]
    tasks += [random_task(k) for k in (0, 3, 6, 9)]
    bisected = Counter()
    for units, x0 in tasks:
        units = tuple(units)
        r_hi = _r_high(units, x0, [_h_opt_capped(u, x0) for u in units], math.inf)
        assert r_hi > 0.0
        d0 = _default_bound_radius(units, x0)
        got = _relaxation(units, x0, d0, r_hi + 1.0)
        want = naive_relaxation(units, x0, _ETA, _RELAX_RADIUS * d0, r_hi + 1.0, _MAX_ASCENT_ITERS, _ASCENT_TOL)
        assert list(got) == list(want)
        for s, (x, rho) in want.items():
            assert _bits(got[s][0]) == _bits(x) and _bits(got[s][1]) == _bits(rho), s
            bisected[rho >= r_hi + 0.5] += 1
    assert bisected[True] > 0 and bisected[False] > 0, bisected


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
    cb = build_barrier(units, params, 20.0, 10.0)
    assert feasibility_check(cb, x0, r).feasible
    _nan_funnels(monkeypatch)
    report = feasibility_check(cb, x0, r)
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

    def record(fn, pos, state=lambda out: out):
        def wrapped(*args):
            out = fn(*args)
            st = state(out)
            if st.grad_x is not None:  # not a rejected trial, which stops at its value
                seen.append((np.asarray(args[pos], dtype=float), st))
            return out
        return wrapped

    monkeypatch.setattr(param_search, "left_limit_state", record(param_search.left_limit_state, 1))
    # the kernel's results at the trial points
    monkeypatch.setattr(param_search, "_state", record(param_search._state, 1,
                                                       lambda out: SimpleNamespace(value=out[0], grad_x=out[1])))
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


def test_feasibility_report_records_exits_and_brackets(demo_doc, monkeypatch):
    """Every switch gets an exit reason and a bracket [value, bound] around
    the maximum, and the search copies both into its diagnostics.  The
    ascent does not depend on delta: with delta patched to 5.0, above the
    bound, the report fails on the same converged maximum that passes the
    search's delta."""
    from stlcbf import param_search

    layout = StateLayout(ids=(1,), dims=(2,))
    units = normalize(parse("G[0,6](dot([0,1], x1) >= 0) & F[2,6](norm_inf(x1 - [3,2]) <= 1)", layout))
    x0 = np.array([0.0, 1.0])
    r = 0.9
    curves = [(0.95, 1.05), (0.8, 1.02), (-2.2, 1.02), (0.4, 1.02), (-0.2, 1.02)]
    params = [GammaParams.from_target(g0, gi, r, u.t_star) for u, (g0, gi) in zip(units, curves)]
    cb = build_barrier(units, params, 20.0, 10.0)
    passed = feasibility_check(cb, x0, r)
    monkeypatch.setattr(param_search, "_DELTA", 5.0)
    failed = feasibility_check(cb, x0, r)
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
    """Every switch of every failed report in the search on random task 5,
    its untils spelled G[a,b] & F[b,b], holds what naive_ascend reaches from
    the same chained start (x0, then the previous switch's witness), bit for
    bit: a failed report's witnesses and margins are maxima, as a feasible
    report's are."""
    from stlcbf import param_search

    calls, check_fn = [], param_search.feasibility_check

    def check(cb, x0, r):
        report = check_fn(cb, x0, r)
        calls.append((cb, x0, report))
        return report

    monkeypatch.setattr(param_search, "feasibility_check", check)
    maximize_r(*random_task(5, spell_until=True))
    failed = [c for c in calls if not c[-1].feasible]
    assert failed
    for cb, x0, report in failed:
        assert list(report.witnesses) == list(cb.schedule)
        x_start = x0
        for s in cb.schedule:
            rx, rst, rgnorm, _ = naive_ascend(cb, s, x_start, 600, 1e-6)
            assert _bits(report.witnesses[s]) == _bits(rx), s
            assert _bits(report.switch_margins[s]) == _bits(rst.value), s
            assert _bits(report.grad_norms[s]) == _bits(rgnorm), s
            x_start = rx


def test_search_quality_on_random_tasks():
    """Random tasks 5, 11 and 17, their untils spelled G[a,b] & F[b,b], are
    feasible, with r_star no lower than the blind curve search found on
    those units (1.0439 and 0.1154; it found no feasible r on task 17).
    The until task (9, 4) is feasible with r_star 0.925, and tasks 8 and 14
    stay infeasible, spelled either way."""
    for k, floor in ((5, 1.0429), (11, 0.1144), (17, 0.0)):
        res = maximize_r(*random_task(k, spell_until=True))
        assert res.feasible and res.r_star >= floor and res.r_star > 0.0, (k, res.r_star)
    res = maximize_r(*random_task(4, seed=9))
    assert res.feasible and res.r_star >= 0.92, res.r_star
    for k in (8, 14):
        for spell_until in (False, True):
            res = maximize_r(*random_task(k, spell_until=spell_until))
            assert not res.feasible and res.r_star == 0.0, (k, spell_until)


def test_placements_clear_delta_at_their_witnesses(monkeypatch):
    """Oracle for the closed-form placement: every placement the search sends
    to feasibility_check on seeded random tasks passes _check_eq7, and its
    barrier reaches delta at (x0, 0) and, in the left limit, at each switch's
    relaxation witness -- so the ascents of the check have a start-free
    certificate to find.  Untils are spelled G[a,b] & F[b,b], which lets
    until tasks reach the placement."""
    from stlcbf import param_search

    placed, place_fn = [], param_search._place

    def record(units, x0, r, d0, caps, relax):
        out = place_fn(units, x0, r, d0, caps, relax)
        if out is not None:
            placed.append((units, x0, r, dict(relax), out))
        return out

    monkeypatch.setattr(param_search, "_place", record)
    for k in range(12):
        maximize_r(*random_task(k, seed=31, spell_until=True))
    assert len(placed) >= 30
    for units, x0, r, relax, (params, radius) in placed:
        cb = build_barrier(units, params, eta=_ETA, bound_radius=radius)
        _check_eq7(cb.terms, x0, r)
        assert barrier_state(cb, x0, 0.0).value >= _DELTA
        for s, (x, _) in relax.items():
            assert left_limit_state(cb, x, s).value >= _DELTA, (r, s)


def test_softmin_adds_left_to_right():
    """e^-36.8 is below half an ulp of 1, so the weights 1, e^-36.8, e^-36.8
    added left to right stay 1 and the softmin is exactly the minimum, on
    every Python; the compensated sum() of Python 3.12 and later gives
    1 + 2^-52 instead."""
    assert _softmin([0.0, 36.8, 36.8], 1.0) == 0.0
    assert math.fsum([1.0, math.exp(-36.8), math.exp(-36.8)]) > 1.0  # the case tells the two sums apart


def test_probe_schedule(monkeypatch):
    """The search probes the top of its bracket first, halves r until a
    probe is feasible (at most 60 times, not below _R_TOLERANCE / 8), then
    probes each bracket's midpoint until the bracket is at most _R_TOLERANCE
    wide; r_star is the last feasible probe.  Each search computes the
    relaxation once, and each probe makes at most one feasibility check.
    Random tasks 0, 3, 4, 7 and 12, their untils spelled G[a,b] & F[b,b],
    are feasible at the first probe, feasible after halving, never feasible,
    never feasible and feasible after halving."""
    from stlcbf import param_search
    from stlcbf.param_search import _R_TOLERANCE

    probes, probe_fn = [], param_search._probe  # (r, feasible) per probe
    calls = Counter()  # relaxations, and checks in the current probe

    def record(units, x0, r, d0, caps, relax):
        calls["check"] = 0
        out = probe_fn(units, x0, r, d0, caps, relax)
        assert calls["check"] <= 1, r
        probes.append((r, out is not None and out.feasible))
        return out

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(param_search, "_probe", record)
    monkeypatch.setattr(param_search, "_relaxation", counted("relaxation", param_search._relaxation))
    monkeypatch.setattr(param_search, "feasibility_check", counted("check", param_search.feasibility_check))
    kinds = []
    for k in (0, 3, 4, 7, 12):
        probes.clear()
        calls["relaxation"] = 0
        res = maximize_r(*random_task(k, spell_until=True))
        assert res.diagnostics["r_bracket_high"] > 0.0 and calls["relaxation"] == 1, k
        rs = [r for r, _ in probes]
        first = next((i for i, (_, ok) in enumerate(probes) if ok), None)
        kinds.append("never" if first is None else "first" if first == 0 else "halved")
        assert rs[0] == res.diagnostics["r_bracket_high"], k
        halved = rs if first is None else rs[: first + 1]
        assert 1 <= len(halved) <= 61 and not any(ok for _, ok in probes[: len(halved) - 1]), k
        assert all(b == 0.5 * a for a, b in zip(halved, halved[1:])), k
        if first is None:
            assert not res.feasible and res.r_star == 0.0
            assert len(halved) == 61 or 0.5 * halved[-1] < max(_R_TOLERANCE / 8.0, 1e-12), k
            continue
        lo, hi = rs[first], rs[max(first - 1, 0)]
        for r, ok in probes[first + 1 :]:
            assert hi - lo > _R_TOLERANCE and r == 0.5 * (lo + hi), k
            lo, hi = (r, hi) if ok else (lo, r)
        assert hi - lo <= _R_TOLERANCE, k
        assert res.feasible and res.r_star == lo == [r for r, ok in probes if ok][-1], k
    assert kinds == ["first", "halved", "never", "never", "halved"]


def test_failed_search_diagnostics(monkeypatch):
    """A search with no feasible probe reports the failed check with the
    largest worst margin (the first such): its margin as best_margin, its
    eta, margins, ascent exits and brackets in the documented key order, and
    its warnings, then "no feasible r found".  Random tasks 8 and 14, their
    untils spelled G[a,b] & F[b,b], get no placement at any probe, so they
    report only the first three keys; as drawn, x0 violates an until's
    left-hand side, so the search refuses them before any probe.  Tasks 0
    and 12 are run with every check refuted."""
    from stlcbf import param_search

    reports, check_fn = [], param_search.feasibility_check
    for k in (8, 14):
        for spell_until, warning in ((True, "no feasible r found"),
                                     (False, "upper bracket for r is non-positive; task unsatisfiable from x0")):
            res = maximize_r(*random_task(k, spell_until=spell_until))
            assert not res.feasible and list(res.diagnostics) == ["delta", "r_bracket_high", "warnings"], k
            assert res.diagnostics["warnings"] == [warning], (k, spell_until)

    def refute(cb, x0, r):
        report = check_fn(cb, x0, r)
        report.feasible = False
        reports.append((min([report.initial_margin] + list(report.switch_margins.values())), cb.eta, report))
        return report

    monkeypatch.setattr(param_search, "feasibility_check", refute)
    for k in (0, 12):
        reports.clear()
        res = maximize_r(*random_task(k))
        diag = res.diagnostics
        assert not res.feasible and res.barrier is None and reports, k
        assert list(diag) == [
            "delta", "r_bracket_high", "warnings", "best_margin", "eta",
            "initial_margin", "switch_margins", "ascent_exits", "ascent_brackets",
        ], k
        worst, eta, best = next(w for w in reports if w[0] == max(w[0] for w in reports))
        assert diag["best_margin"] == worst and diag["eta"] == eta, k
        assert diag["initial_margin"] == best.initial_margin and diag["switch_margins"] == best.switch_margins, k
        assert diag["ascent_exits"] == best.exits and diag["ascent_brackets"] == best.brackets, k
        assert diag["warnings"] == best.warnings + ["no feasible r found"], k
