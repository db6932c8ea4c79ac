"""Offline selection of barrier parameters.

Given the operator units of one clique and the clique's initial state, pick
eta, the bound radius D, and per-unit funnel curves maximizing the robustness
target r subject to

    (i)  b(x0, 0) >= delta, and
    (ii) for every switch s_j of the activity schedule there exists a state
         xi_j with left-limit barrier value >= delta at s_j.

Constraint (ii) is certified by maximizing the concave left-limit value
x -> b(x, s_j^-) with projected gradient ascent; concavity makes
any stationary point a global maximum, so the certificate is sound.
Concavity also bounds the maximum from the returned iterate x with gradient
g: max over ||y|| <= D of f(y) <= f(x) + D ||g|| - g.x (first-order
concavity, then Cauchy-Schwarz).  Each switch's exit reason and bracket
[value, bound] go into the report and the search diagnostics.

The outer search probes r in one loop: the top of its bracket, halvings
until a probe is feasible, then bisection.  Every probe blends the terms
with one softmin sharpness, _ETA.  Once per search, a relaxation gives each
switch s a witness x_s: the maximizer of the softmin over the units that have
reached r by s, with their funnels flat.  For each probed r the funnel curves
are then placed in closed form so that x0 and every x_s clear delta
(gamma_inf below the relaxation's value, gamma0 deep enough where a unit has
not yet reached r), and one feasibility check certifies or refutes them.
The margin delta (_DELTA) and eta (_ETA) are fixed, as is the rest of the
search policy; the cap r_max is maximize_r's one setting.

_MAX_LOG_DEPTH is the bound derived above barrier._SCALE_LIMIT, so every
document the search writes loads.  The others were measured on the demo
and the 264 tasks of demos/08's three sets (pipeline verdicts of the moved
tasks): _RELAX_RADIUS 4 or 16 lowers r_star on 18 tasks (6 passes fail) or
raises it on 3 (1 fail passes); _CLEARANCE 0.05 or 0.2 lowers it on 117
(4 passes fail) or raises it on 68 (6 fails pass); without
_GAMMA_INF_OFFSET no r_star moves, but 26 entries, the demo's document and
3 verdicts do (F-set passes 80 -> 79).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .barrier import (
    GammaParams,
    CompositeBarrier,
    build_barrier,
    barrier_state,
    left_limit_state,
    _barrier_state,
    _args,
    _state,
)
from .formula import OperatorUnit
from .predicates import AffinePredicate, BallPredicate, is_finite_number

__all__ = [
    "feasibility_check",
    "maximize_r",
]

# The search policy: fixed values, not settable per config (r_max is the one setting).
_DELTA = 0.005  # the margin b must clear at (x0, 0) and at every switch's witness
_ETA = 40.0  # softmin sharpness of every barrier the search places
_R_TOLERANCE = 1e-3  # bisection stops once the bracket on r is this narrow
_MAX_ASCENT_ITERS = 600
_ASCENT_TOL = 1e-6  # projected gradient norm that counts as stationary
_KAPPA = 30.0  # the controller's linear class-K gain, shipped on every result; nothing certifies it yet
_RELAX_RADIUS = 8.0  # the relaxation's ball radius, in default bound radii
_CLEARANCE = 0.1  # margin above delta + softmin gap kept by terms not yet at r
_GAMMA_INF_OFFSET = 0.1  # gamma_inf sits at most this far above r
_MAX_LOG_DEPTH = 700.0  # a funnel needing gamma_inf - gamma0 > e^700 is not placed


def _check_r_max(r_max) -> None:
    # False for NaN, so a NaN r_max is refused
    if not (r_max == math.inf or (is_finite_number(r_max) and r_max > 0.0)):
        raise ValueError(f"r_max must be a positive number, got {r_max!r}")


@dataclass
class FeasibilityReport:
    feasible: bool
    initial_margin: float
    switch_margins: dict  # switch time -> best left-limit value found
    witnesses: dict  # switch time -> maximizing state
    bound_weights: dict  # constraint time -> softmin weight of the bound term
    grad_norms: dict  # switch time -> gradient norm at the witness
    exits: dict  # switch time -> how the ascent ended (see _ascend)
    brackets: dict  # switch time -> (value, upper bound): the maximum lies in between
    warnings: list
    barrier: CompositeBarrier  # the barrier checked


@dataclass(frozen=True)
class SearchResult:
    r_star: float
    barrier: CompositeBarrier | None
    witnesses: dict
    kappa: float
    feasible: bool
    diagnostics: dict


def _true_h_opt(unit) -> float:
    pred = unit.predicate
    return pred.h_opt if isinstance(pred, BallPredicate) else math.inf


def _h_opt_capped(unit, x0: np.ndarray) -> float:
    """Finite stand-in for sup h: affine predicates are capped above h(x0)."""
    pred = unit.predicate
    if isinstance(pred, BallPredicate):
        return float(pred.h_opt)
    h0 = float(pred.value(x0))
    return h0 + 10.0 * (1.0 + abs(h0))


def _r_high(units, x0: np.ndarray, caps, r_max: float) -> float:
    """The top of the bracket on r: below r_max, every cap, and h(x0) of
    every unit required at t = 0."""
    natural = min(caps)
    for u in units:
        if _true_h_opt(u) <= 0.0:
            natural = 0.0  # unsatisfiable region: sup h <= 0 leaves no r > 0
        if u.t_star <= 0.0:
            natural = min(natural, float(u.predicate.value(x0)))
    return min(r_max, natural * (1.0 - 1e-6))


def _default_bound_radius(units, x0: np.ndarray) -> float:
    reach = 0.0
    for u in units:
        pred = u.predicate
        if isinstance(pred, AffinePredicate):
            cn = float(np.linalg.norm(pred.c))
            if cn > 1e-12:
                reach = max(reach, abs(pred.d) / cn + 1.0)
        else:
            xc, *_ = np.linalg.lstsq(pred.A, -pred.b, rcond=None)
            smin = float(np.linalg.svd(pred.A, compute_uv=False)[-1])
            rad = math.sqrt(max(pred.e, 0.0)) / max(smin, 1e-9)
            reach = max(reach, float(np.linalg.norm(xc)) + rad)
    return 2.0 * max(float(np.linalg.norm(x0)), reach, 1.0)


def _check_eq7(terms, x0: np.ndarray, r: float):
    for tm in terms:
        u, g = tm.unit, tm.gamma
        h0 = float(u.predicate.value(x0))
        if u.t_star > 0.0:
            if not g.gamma0 < h0:
                raise ValueError(f"gamma0 {g.gamma0} must be < h(x0) = {h0}")
        else:
            if not (r - 1e-12 <= g.gamma0 < h0):
                raise ValueError(f"gamma0 {g.gamma0} must lie in [r, h(x0)) = [{r}, {h0})")
        if not g.gamma_inf > max(r, g.gamma0):
            raise ValueError(f"gamma_inf {g.gamma_inf} must exceed max(r, gamma0)")
        hopt = _true_h_opt(u)
        if not g.gamma_inf < hopt:
            raise ValueError(f"gamma_inf {g.gamma_inf} must stay below sup h = {hopt}")
        ref = GammaParams.from_target(g.gamma0, g.gamma_inf, r, u.t_star)
        if abs(ref.decay - g.decay) > 1e-9 * max(1.0, abs(ref.decay)):
            raise ValueError(f"decay {g.decay} inconsistent with the target rule ({ref.decay})")


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm's own formula for a 1-D float vector, without its overhead
    return math.sqrt(float(np.dot(v, v)))


def _project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    n = _norm(x)
    return x if n <= radius else x * (radius / n)


def _upper_bound(st, x: np.ndarray, radius: float) -> float:
    """Concavity bound on the ascent's goal: max over ||y|| <= D of the
    left-limit value is at most f(x) + D ||g|| - g.x, with g the gradient at x."""
    g = st.grad_x
    return st.value + radius * _norm(g) - float(np.dot(g, x))


def _ascend(cb: CompositeBarrier, s: float, x_start: np.ndarray):
    """Maximize the concave left-limit barrier value at switch s over ||x|| <= D.

    Projected gradient ascent with a Barzilai-Borwein step and Armijo
    backtracking, until the projected gradient norm drops below _ASCENT_TOL
    or _MAX_ASCENT_ITERS steps are taken.  A trial point needs only the
    barrier value, so each trial runs the kernel on the switch's funnel rows,
    fetched once, with the acceptance threshold as its floor: a rejected
    trial stops after the softmin.  Returns (x, state, projected gradient norm, converged,
    exit, ub): exit is "converged", "iteration limit", "stall" or "no
    accepted trial", and ub is _upper_bound at x, so the maximum lies in
    [state.value, ub].
    """
    radius = cb.bound_radius

    def done(x, st, gnorm, why):
        return x, st, gnorm, gnorm < _ASCENT_TOL, why, _upper_bound(st, x, radius)

    x = _project_ball(np.asarray(x_start, dtype=float).copy(), radius)
    st = left_limit_state(cb, x, s)
    stack, _, gam, rate = _args(cb, x, s, left=True)
    alpha = 1.0
    prev_x = None
    prev_g = None
    stall = 0
    for _ in range(_MAX_ASCENT_ITERS):
        g = st.grad_x
        gnorm = _norm(g)
        # projected gradient: remove outward component on the ball boundary
        nx = _norm(x)
        if nx >= radius - 1e-12:
            xhat = x / max(nx, 1e-12)
            out = float(np.dot(g, xhat))
            if out > 0.0:
                gnorm = _norm(g - out * xhat)
        if gnorm < _ASCENT_TOL:
            return done(x, st, gnorm, "converged")
        if prev_x is not None:
            ds = x - prev_x
            dy = g - prev_g
            den = float(np.dot(ds, dy))
            if den < -1e-18:
                alpha = min(max(-float(np.dot(ds, ds)) / den, 1e-10), 1e6)
        prev_x, prev_g = x, g
        accepted = False
        a = alpha
        for _ in range(60):
            x_new = _project_ball(x + a * g, radius)
            armijo = st.value + 1e-4 * float(np.dot(g, x_new - x))
            trial = _state(stack, x_new, gam, rate, armijo)
            if trial[0] >= armijo:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            return done(x, st, gnorm, "no accepted trial")
        st_new = _barrier_state(trial, stack)
        if st_new.value - st.value < 1e-15 * max(1.0, abs(st.value)):
            stall += 1
            if stall >= 25:
                return done(x_new, st_new, gnorm, "stall")
        else:
            stall = 0
        x, st = x_new, st_new
    return done(x, st, _norm(st.grad_x), "iteration limit")


def feasibility_check(cb: CompositeBarrier, x0: np.ndarray, r: float) -> FeasibilityReport:
    """Check constraints (i)-(ii) on the barrier cb for target r."""
    x0 = np.asarray(x0, dtype=float)
    _check_eq7(cb.terms, x0, r)
    report = FeasibilityReport(
        feasible=True, initial_margin=math.nan, switch_margins={}, witnesses={},
        bound_weights={}, grad_norms={}, exits={}, brackets={}, warnings=[], barrier=cb,
    )
    st0 = barrier_state(cb, x0, 0.0)
    report.initial_margin = st0.value
    report.bound_weights[0.0] = float(st0.weights[-1])
    # "not >=" so that a NaN margin is infeasible
    if not st0.value >= _DELTA:
        report.feasible = False
    x_start = x0
    for s in cb.schedule:
        x_w, st, gnorm, converged, why, ub = _ascend(cb, s, x_start)
        report.switch_margins[s] = st.value
        report.witnesses[s] = x_w
        report.grad_norms[s] = gnorm
        report.bound_weights[s] = float(st.weights[-1])
        report.exits[s] = why
        report.brackets[s] = (st.value, ub)
        if not converged:
            report.warnings.append(
                f"ascent at switch {s:g} stopped with gradient norm {gnorm:.2e}"
            )
        if not st.value >= _DELTA:
            report.feasible = False
        x_start = x_w
    return report


def _relaxation(units, x0: np.ndarray, d0: float, level: float) -> dict:
    """A witness x_s and its value rho_s per switch s, from the relaxed
    problem no placement can beat: maximize the softmin over the units that
    have reached r by s (t* <= s <= deadline), each with its funnel flat at 0.

    A constant term at level caps the objective, and the ball has radius
    _RELAX_RADIUS * d0: a far witness costs the units not yet at r there,
    and the bound radius the placement needs.  No probed r needs a value
    above level - 0.5, and the capped objective is flat above level, where
    the ascent may run far out; a witness valued >= level - 0.5 is therefore
    pulled back to the first point of the segment from x0 that is.  Returns
    {s: (x_s, rho_s)} in schedule order."""
    floor = level - 0.5
    schedule = sorted({u.deadline for u in units})
    ceiling = OperatorUnit("always", AffinePredicate(np.zeros(x0.shape[0]), level), 0.0, schedule[-1])
    out = {}
    for s in schedule:
        reached = [u for u in units if u.t_star <= s <= u.deadline] + [ceiling]
        cb = build_barrier(reached, [GammaParams(0.0, 1.0, 0.0, u.t_star) for u in reached],
                           eta=_ETA, bound_radius=_RELAX_RADIUS * d0)
        x, st, *_ = _ascend(cb, s, x0)
        # the switch's rows, fetched once; floor inf stops each value-only call after the softmin
        stack, _, gam, rate = _args(cb, x0, s, left=True)
        if st.value >= floor:
            # concave along the segment from x0: its points valued >= floor form [t1, 1]
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if _state(stack, x0 + mid * (x - x0), gam, rate, math.inf)[0] >= floor:
                    hi = mid
                else:
                    lo = mid
            x = x0 + hi * (x - x0)
        out[s] = (x, float(_state(stack, x, gam, rate, math.inf)[0]))
    return out


def _softmin(values, eta: float) -> float:
    m = min(values)
    # left to right on every Python: sum() of floats is compensated from 3.12 on
    return m - math.log(reduce(operator.add, [math.exp(-eta * (v - m)) for v in values])) / eta


def _place(units, x0: np.ndarray, r: float, d0: float, caps, relax: dict):
    """Funnel curves and bound radius for target r, in closed form from the
    relaxation's witnesses; None when the witnesses already rule r out.

    At each constraint time t (0 at x0, then every switch s at x_s) the
    terms split in two.  Those at r by t sit at most gamma_inf below their
    h, and gamma_inf stays slack below rho_t - delta, so their share of the
    softmin weight is at most exp(-eta (delta + slack)).  The others (the
    units with t* > t, and the bound term) are each kept at least
    low_t = delta + ln(n_t)/eta + _CLEARANCE above 0, so their share is at
    most exp(-eta (delta + _CLEARANCE)).  slack makes the two shares sum to
    exp(-eta delta): every witness then has barrier value >= delta, and one
    feasibility_check decides whether the ascents find as much."""
    slack = -math.log1p(-math.exp(-_CLEARANCE * _ETA)) / _ETA + 1e-6
    points = [(0.0, x0)] + [(s, x) for s, (x, _) in relax.items()]
    lows = [_DELTA + math.log(1 + sum(u.t_star > t for u in units)) / _ETA + _CLEARANCE for t, _ in points]
    now = [float(u.predicate.value(x0)) for u in units if u.t_star <= 0.0]
    if now and r > _softmin(now, _ETA) - _DELTA - slack:
        return None
    params = []
    for u, cap in zip(units, caps):
        gi = min([r + _GAMMA_INF_OFFSET, 0.5 * (r + cap)]
                 + [rho - _DELTA - slack for s, (_, rho) in relax.items() if u.t_star <= s <= u.deadline])
        if not gi > r:
            return None
        g0 = r
        # the largest gamma0 <= r whose curve stays <= h(x_t) - low_t at every t < t*
        for (t, x), low in zip(points, lows):
            most = float(u.predicate.value(x)) - low
            if t < u.t_star and most < gi:
                # gamma(t) = gi - (gi - g0)^(1 - theta) (gi - r)^theta with theta = t / t*
                theta = t / u.t_star
                log_gap = (math.log(gi - most) - theta * math.log(gi - r)) / (1.0 - theta)
                if log_gap > _MAX_LOG_DEPTH:
                    return None
                g0 = min(g0, gi - math.exp(log_gap))
        if not g0 < float(u.predicate.value(x0)):
            return None
        params.append(GammaParams.from_target(g0, gi, r, u.t_star))
    radius = max(d0, max(_norm(x) for _, x in points) + max(lows))
    return params, radius


def _probe(units, x0: np.ndarray, r: float, d0: float, caps, relax: dict):
    """Place the curves for r (see _place) and check the placement once.
    Returns the report, or None when the placement rules r out."""
    placed = _place(units, x0, r, d0, caps, relax)
    if placed is None:
        return None
    params, radius = placed
    return feasibility_check(build_barrier(units, params, _ETA, radius), x0, r)


def _report_diag(diag: dict, report: FeasibilityReport, **head) -> None:
    """Add head's entries to the search diagnostics diag, then report's
    margins, ascent exits and brackets (and, for a feasible report, its
    gradient norms and bound weights), and report's warnings to diag's."""
    diag["warnings"].extend(report.warnings)
    diag.update(head, initial_margin=report.initial_margin, switch_margins=dict(report.switch_margins))
    if report.feasible:
        diag["grad_norms"] = dict(report.grad_norms)
    diag.update(ascent_exits=dict(report.exits), ascent_brackets=dict(report.brackets))
    if report.feasible:
        diag["bound_weights"] = dict(report.bound_weights)


def maximize_r(units, x0: np.ndarray, r_max: float = math.inf) -> SearchResult:
    """One loop of probes on the bracket [r_lo, hi]: r_hi (at most r_max),
    then halvings (at most 60, none below _R_TOLERANCE / 8) until a probe is
    feasible, then bisection.  A probe places curves from the relaxation's
    witnesses, computed once, and checks them once (see _probe).  Returns the
    winning check's barrier."""
    units = tuple(units)
    x0 = np.asarray(x0, dtype=float)
    if not units:
        raise ValueError("no units to search over")
    _check_r_max(r_max)
    caps = tuple(_h_opt_capped(u, x0) for u in units)
    r_hi = _r_high(units, x0, caps, r_max)
    d0 = _default_bound_radius(units, x0)
    diag = {"delta": _DELTA, "r_bracket_high": r_hi, "warnings": []}
    if r_hi <= 0.0:
        diag["warnings"].append("upper bracket for r is non-positive; task unsatisfiable from x0")
        return SearchResult(0.0, None, {}, _KAPPA, False, diag)

    relax = _relaxation(units, x0, d0, r_hi + 1.0)  # the witnesses every probe places at
    winner = best_fail = r_lo = None
    hi, r, halvings = r_hi, r_hi, 0
    while True:
        report = _probe(units, x0, r, d0, caps, relax)
        if report is not None and report.feasible:
            winner, r_lo = report, r
        else:
            hi = r
            if report is not None:
                worst = min([report.initial_margin] + list(report.switch_margins.values()))
                if best_fail is None or worst > best_fail[0]:
                    best_fail = (worst, report)
        if winner is not None:
            if hi - r_lo <= _R_TOLERANCE:
                break
            r = 0.5 * (r_lo + hi)
        else:
            r *= 0.5
            halvings += 1
            if halvings > 60 or r < max(_R_TOLERANCE / 8.0, 1e-12):
                break

    if winner is None:
        if best_fail is not None:
            worst, report = best_fail
            _report_diag(diag, report, best_margin=worst, eta=report.barrier.eta)
        diag["warnings"].append("no feasible r found")
        return SearchResult(0.0, None, {}, _KAPPA, False, diag)

    cb = winner.barrier
    _report_diag(diag, winner, eta=cb.eta, bound_radius=cb.bound_radius)
    return SearchResult(float(r_lo), cb, dict(winner.witnesses), _KAPPA, True, diag)
