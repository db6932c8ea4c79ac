"""Offline selection of barrier parameters.

Given the operator units of one clique and the clique's initial state, pick
eta, the bound radius D, and per-unit funnel curves maximizing the robustness
target r subject to

    (i)  b(x0, 0) >= delta, and
    (ii) for every switch s_j of the activity schedule there exists a state
         xi_j with left-limit barrier value >= delta at s_j.

Constraint (ii) is certified by maximizing the concave map
x -> left_limit_value(x, s_j) with projected gradient ascent; concavity makes
any stationary point a global maximum, so the certificate is sound.
Concavity also bounds the maximum from the returned iterate x with gradient
g: max over ||y|| <= D of f(y) <= f(x) + D ||g|| - g.x (first-order
concavity, then Cauchy-Schwarz).  Each switch's exit reason and bracket
[value, bound] go into the report and the search diagnostics.

The outer search bisects on r.  Once per eta, a relaxation gives each
switch s a witness x_s: the maximizer of the softmin over the units that have
reached r by s, with their funnels flat.  For fixed r and eta the funnel
curves are then placed in closed form so that x0 and every x_s clear delta
(gamma_inf below the relaxation's value, gamma0 deep enough where a unit has
not yet reached r), and one feasibility check certifies or refutes them.

Also computes the linear class-K gain kappa used by the controller: the
conservative closed form kappa = 1.1 * Delta_max * exp(eta*(b_max - delta))
/ delta, clamped, with a configurable ceiling (the closed form is sound but
can be astronomically loose for large eta * b_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import (
    GammaParams,
    CompositeBarrier,
    build_barrier,
    barrier_state,
    left_limit_state,
    left_limit_value,
    _finish,
    _left_interval,
    _args,
    _value,
)
from .formula import OperatorUnit
from .predicates import AffinePredicate, BallPredicate, is_finite_number

__all__ = [
    "SearchConfig",
    "feasibility_check",
    "maximize_r",
    "compute_kappa",
]

# The search policy: fixed tuning values, not settable per config.
_R_TOLERANCE = 1e-3  # bisection stops once the bracket on r is this narrow
_MAX_ASCENT_ITERS = 600
_ASCENT_TOL = 1e-6  # projected gradient norm that counts as stationary
_KAPPA_MIN = 1.0
_KAPPA_CLAMP = 1e6
_RELAX_RADIUS = 8.0  # the relaxation's ball radius, in default bound radii
_CLEARANCE = 0.1  # margin above delta + softmin gap kept by terms not yet at r
_GAMMA_INF_OFFSET = 0.1  # gamma_inf sits at most this far above r
_MAX_LOG_DEPTH = 700.0  # a funnel needing gamma_inf - gamma0 > e^700 is not placed


@dataclass(frozen=True)
class SearchConfig:
    delta: float = 0.005
    eta_grid: tuple = (20.0, 40.0)
    r_max: float = math.inf
    kappa_cap: float = math.inf

    def __post_init__(self):
        def need(ok, names, what):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {what}")

        # every test below is False for NaN, so a NaN field is refused
        need(_positive, ("delta",), "a finite positive number")
        need(lambda v: v == math.inf or _positive(v), ("r_max", "kappa_cap"), "a positive number")
        need(lambda v: isinstance(v, (tuple, list)) and len(v) > 0 and all(map(_positive, v)),
             ("eta_grid",), "a non-empty list of finite positive numbers")


def _positive(v) -> bool:
    return is_finite_number(v) and v > 0.0


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


def _check_eq7(units, params, x0: np.ndarray, r: float):
    for u, g in zip(units, params):
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
    barrier value, so trials run the kernel's value half on the switch's
    funnel rows, fetched once, and only the accepted one is finished into a
    full state.  Returns (x, state, projected gradient norm, converged,
    exit, ub): exit is "converged", "iteration limit", "stall" or "no
    accepted trial", and ub is _upper_bound at x, so the maximum lies in
    [state.value, ub].
    """
    radius = cb.bound_radius

    def done(x, st, gnorm, why):
        return x, st, gnorm, gnorm < _ASCENT_TOL, why, _upper_bound(st, x, radius)

    x = _project_ball(np.asarray(x_start, dtype=float).copy(), radius)
    st = left_limit_state(cb, x, s)
    rows = _args(cb, x, s, _left_interval(cb, s))[1:]
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
            trial = _value(cb, x_new, *rows)
            if trial[0] >= st.value + 1e-4 * float(np.dot(g, x_new - x)):
                accepted = True
                break
            a *= 0.5
        if not accepted:
            return done(x, st, gnorm, "no accepted trial")
        st_new = _finish(*trial)
        if st_new.value - st.value < 1e-15 * max(1.0, abs(st.value)):
            stall += 1
            if stall >= 25:
                return done(x_new, st_new, gnorm, "stall")
        else:
            stall = 0
        x, st = x_new, st_new
    return done(x, st, _norm(st.grad_x), "iteration limit")


def feasibility_check(
    units,
    x0: np.ndarray,
    r: float,
    eta: float,
    bound_radius: float,
    params,
    delta: float,
) -> FeasibilityReport:
    """Check constraints (i)-(ii) for one concrete parameter choice."""
    units = tuple(units)
    params = tuple(params)
    x0 = np.asarray(x0, dtype=float)
    _check_eq7(units, params, x0, r)
    cb = build_barrier(units, params, eta=eta, bound_radius=bound_radius)
    report = FeasibilityReport(
        feasible=True, initial_margin=math.nan, switch_margins={}, witnesses={},
        bound_weights={}, grad_norms={}, exits={}, brackets={}, warnings=[],
    )
    st0 = barrier_state(cb, x0, 0.0)
    report.initial_margin = st0.value
    report.bound_weights[0.0] = float(st0.weights[-1])
    # "not >=" so that a NaN margin is infeasible
    if not st0.value >= delta:
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
        if not st.value >= delta:
            report.feasible = False
        x_start = x_w
    return report


def _relaxation(units, x0: np.ndarray, eta: float, d0: float, level: float) -> dict:
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
                           eta=eta, bound_radius=_RELAX_RADIUS * d0)
        x, st, *_ = _ascend(cb, s, x0)
        if st.value >= floor:
            # concave along the segment from x0: its points valued >= floor form [t1, 1]
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if left_limit_value(cb, x0 + mid * (x - x0), s) >= floor:
                    hi = mid
                else:
                    lo = mid
            x = x0 + hi * (x - x0)
        out[s] = (x, left_limit_value(cb, x, s))
    return out


def _softmin(values, eta: float) -> float:
    m = min(values)
    return m - math.log(sum(math.exp(-eta * (v - m)) for v in values)) / eta


def _place(units, x0: np.ndarray, r: float, eta: float, delta: float, d0: float, caps, relax: dict):
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
    slack = -math.log1p(-math.exp(-_CLEARANCE * eta)) / eta + 1e-6
    points = [(0.0, x0)] + [(s, x) for s, (x, _) in relax.items()]
    lows = [delta + math.log(1 + sum(u.t_star > t for u in units)) / eta + _CLEARANCE for t, _ in points]
    now = [float(u.predicate.value(x0)) for u in units if u.t_star <= 0.0]
    if now and r > _softmin(now, eta) - delta - slack:
        return None
    params = []
    for u, cap in zip(units, caps):
        gi = min([r + _GAMMA_INF_OFFSET, 0.5 * (r + cap)]
                 + [rho - delta - slack for s, (_, rho) in relax.items() if u.t_star <= s <= u.deadline])
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


def _feasible_at(units, x0, r, cfg: SearchConfig, d0: float, caps, relax: dict | None = None):
    """Place the curves for r at each eta of the grid, from largest down, and
    check each placement once; the first feasible one wins.  Larger eta
    shrinks the softmin gap ln(p)/eta, so it is tried first.  relax holds
    each eta's relaxation (see _relaxation), filled on first use.  Returns
    (winner dict or None, best_fail)."""
    relax = {} if relax is None else relax
    best_fail = None
    for eta in sorted(cfg.eta_grid, reverse=True):
        if eta not in relax:
            relax[eta] = _relaxation(units, x0, eta, d0, _r_high(units, x0, caps, cfg.r_max) + 1.0)
        placed = _place(units, x0, r, eta, cfg.delta, d0, caps, relax[eta])
        if placed is None:
            continue
        params, radius = placed
        report = feasibility_check(units, x0, r, eta, radius, params, cfg.delta)
        if report.feasible:
            return {"report": report, "params": params, "eta": eta, "bound_radius": radius}, best_fail
        worst = min([report.initial_margin] + list(report.switch_margins.values()))
        if best_fail is None or worst > best_fail[0]:
            best_fail = (worst, report, eta)
    return None, best_fail


def compute_kappa(cb: CompositeBarrier, delta: float) -> float:
    """Linear class-K gain: 1.1 * Delta_max * exp(eta*(b_max - delta)) / delta.

    Delta_max is the largest funnel slewing rate, b_max bounds the term values
    over the operating ball.  Computed in log space and clamped: the closed
    form explodes for large eta * b_max while any gain enforcing the barrier
    condition suffices in practice.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    delta_max = 0.0
    b_max = -math.inf
    for tm in cb.terms:
        g = tm.gamma
        delta_max = max(delta_max, g.decay * (g.gamma_inf - g.gamma0))
        pred = tm.unit.predicate
        if isinstance(pred, AffinePredicate):
            sup_h = float(np.linalg.norm(pred.c)) * cb.bound_radius + pred.d
        else:
            sup_h = float(pred.e)
        b_max = max(b_max, sup_h - g.gamma0)
    if delta_max <= 0.0:
        return _KAPPA_MIN
    log_kappa = math.log(1.1 * delta_max / delta) + cb.eta * (max(b_max, delta) - delta)
    if log_kappa >= math.log(_KAPPA_CLAMP):
        return _KAPPA_CLAMP
    return max(math.exp(log_kappa), _KAPPA_MIN)


def maximize_r(units, x0: np.ndarray, cfg: SearchConfig) -> SearchResult:
    """Bisection on r; each probe places curves from the relaxation's
    witnesses and checks them once per eta (see _feasible_at)."""
    units = tuple(units)
    x0 = np.asarray(x0, dtype=float)
    if not units:
        raise ValueError("no units to search over")
    caps = tuple(_h_opt_capped(u, x0) for u in units)
    r_hi = _r_high(units, x0, caps, cfg.r_max)
    d0 = _default_bound_radius(units, x0)
    relax = {}  # eta -> the relaxation's witnesses, shared by every probe

    def diag_base():
        return {"delta": cfg.delta, "r_bracket_high": r_hi, "warnings": []}

    if r_hi <= 0.0:
        diag = diag_base()
        diag["warnings"].append("upper bracket for r is non-positive; task unsatisfiable from x0")
        return SearchResult(0.0, None, {}, _KAPPA_MIN, False, diag)

    winner, best_fail = _feasible_at(units, x0, r_hi, cfg, d0, caps, relax)
    r_lo = r_hi if winner is not None else None
    if winner is None:
        hi = r_hi
        r = r_hi
        for _ in range(60):
            r *= 0.5
            if r < max(_R_TOLERANCE / 8.0, 1e-12):
                break
            winner, fail = _feasible_at(units, x0, r, cfg, d0, caps, relax)
            if winner is not None:
                r_lo = r
                break
            hi = r
            if fail is not None and (best_fail is None or fail[0] > best_fail[0]):
                best_fail = fail
        if winner is None:
            diag = diag_base()
            if best_fail is not None:
                worst, report, eta = best_fail
                diag["best_margin"] = worst
                diag["eta"] = eta
                diag["initial_margin"] = report.initial_margin
                diag["switch_margins"] = dict(report.switch_margins)
                diag["ascent_exits"] = dict(report.exits)
                diag["ascent_brackets"] = dict(report.brackets)
                diag["warnings"].extend(report.warnings)
            diag["warnings"].append("no feasible r found")
            return SearchResult(0.0, None, {}, _KAPPA_MIN, False, diag)
        # bisect between the feasible probe and the last infeasible r
        while hi - r_lo > _R_TOLERANCE:
            mid = 0.5 * (r_lo + hi)
            cand, _ = _feasible_at(units, x0, mid, cfg, d0, caps, relax)
            if cand is not None:
                winner = cand
                r_lo = mid
            else:
                hi = mid

    report = winner["report"]
    cb = build_barrier(
        units, winner["params"], eta=winner["eta"], bound_radius=winner["bound_radius"]
    )
    kappa_raw = compute_kappa(cb, cfg.delta)
    kappa = min(kappa_raw, cfg.kappa_cap)
    diag = diag_base()
    diag.update(
        {
            "eta": winner["eta"],
            "bound_radius": winner["bound_radius"],
            "initial_margin": report.initial_margin,
            "switch_margins": dict(report.switch_margins),
            "grad_norms": dict(report.grad_norms),
            "ascent_exits": dict(report.exits),
            "ascent_brackets": dict(report.brackets),
            "bound_weights": dict(report.bound_weights),
            "kappa_raw": kappa_raw,
        }
    )
    diag["warnings"].extend(report.warnings)
    if kappa_raw >= _KAPPA_CLAMP:
        diag["warnings"].append(
            f"kappa clamped at {_KAPPA_CLAMP:g}; closed-form gain overflowed"
        )
    if kappa < kappa_raw:
        diag["warnings"].append(
            f"kappa capped at {cfg.kappa_cap:g} (closed form gave {kappa_raw:g})"
        )
    return SearchResult(
        r_star=float(r_lo),
        barrier=cb,
        witnesses=dict(report.witnesses),
        kappa=float(kappa),
        feasible=True,
        diagnostics=diag,
    )
