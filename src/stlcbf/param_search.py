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
Concavity also bounds the maximum from any iterate x with gradient g:
max over ||y|| <= D of f(y) <= f(x) + D ||g|| - g.x (first-order concavity,
then Cauchy-Schwarz).  An ascent stops as soon as this bound drops below
delta: the switch is then provably infeasible, and infeasible is the
conservative verdict, so the early stop can never pass an unsound
certificate.  Ascents that can reach delta run on to the stationarity
tolerance, so every witness the search ships is still a maximizer.  Each
switch's exit reason and bracket [value, bound] go into the report and the
search diagnostics.

The outer search bisects on r.  For fixed r, funnel curves are placed from
per-unit fractions and then repaired: whenever a constraint fails, the terms
pinching the softmin at the witness are identified and their curves are
lowered where the schedule still allows it (start depth before the critical
time, asymptote after it).  Restart 0 uses deterministic shallow fractions;
further restarts draw fractions from a seeded generator.

Also computes the linear class-K gain kappa used by the controller: the
conservative closed form kappa = 1.1 * Delta_max * exp(eta*(b_max - delta))
/ delta, clamped, with a configurable ceiling (the closed form is sound but
can be astronomically loose for large eta * b_max).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .barrier import (
    GammaParams,
    CompositeBarrier,
    build_barrier,
    barrier_state,
    left_limit_state,
    _finish,
    _left_interval,
    _value,
)
from .predicates import AffinePredicate, BallPredicate, is_finite_number

__all__ = [
    "SearchConfig",
    "feasibility_check",
    "maximize_r",
    "compute_kappa",
]

_TIME_TOL = 1e-9

# The search policy: fixed tuning values, not settable per config.
_R_TOLERANCE = 1e-3  # bisection stops once the bracket on r is this narrow
_MAX_ASCENT_ITERS = 600
_ASCENT_TOL = 1e-6  # projected gradient norm that counts as stationary
_MAX_REPAIR_ROUNDS = 16
_KAPPA_MIN = 1.0
_KAPPA_CLAMP = 1e6
_F0_DEFAULT = 0.9  # restart 0's placement fractions
_F1_DEFAULT = 0.1
_F0_RANGE = (0.3, 0.95)  # later restarts draw their fractions from these
_F1_RANGE = (0.05, 0.5)
_GAMMA_INF_SPAN = 1.0


@dataclass(frozen=True)
class SearchConfig:
    delta: float = 0.005
    eta_grid: tuple = (20.0, 40.0)
    restarts: int = 4
    r_max: float = math.inf
    seed: int = 0
    kappa_cap: float = math.inf

    def __post_init__(self):
        def need(ok, names, what):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {what}")

        # every test below is False for NaN, so a NaN field is refused
        need(_positive, ("delta",), "a finite positive number")
        need(lambda v: v == math.inf or _positive(v), ("r_max", "kappa_cap"), "a positive number")
        need(lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0,
             ("restarts", "seed"), "an integer >= 0")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
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
    blocking: dict  # constraint time (0.0 or switch) -> list of (term index or "bound", value)
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


@dataclass
class _Placement:
    f0: float
    f1: float
    depth: int = 0
    shrinks: int = 0


def _materialize(unit, pl: _Placement, r: float, x0: np.ndarray, cap: float) -> GammaParams | None:
    """Funnel curve from placement fractions; None if the Eq-interval is empty.

    gamma_inf sits just above max(r, gamma0): pushing it higher only demands
    more than the target r after the critical time, so its offset is capped by
    _GAMMA_INF_SPAN rather than scaled to the (possibly huge) h_opt cap.
    """
    h0 = float(unit.predicate.value(x0))
    if unit.t_star > 0.0:
        anchor = min(0.0, h0 - 1.0)
        depth = (1.0 - pl.f0) * (h0 - anchor) * (2.0**pl.depth)
        gamma0 = h0 - depth
    else:
        # gamma0 must start in [r, h(x0)) when the target applies immediately
        if h0 <= r + 1e-12:
            return None
        gamma0 = r + pl.f0 * (0.5 ** (pl.shrinks + pl.depth)) * (h0 - r)
    lo = max(r, gamma0)
    if cap <= lo + 1e-12:
        return None
    frac = min(max(pl.f1 * (0.5**pl.shrinks), 1e-9), 0.999999)
    gamma_inf = lo + frac * min(cap - lo, _GAMMA_INF_SPAN)
    return GammaParams.from_target(gamma0, gamma_inf, r, unit.t_star)


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


def _ascend(cb: CompositeBarrier, s: float, x_start: np.ndarray, max_iters: int, tol: float,
            floor: float = -math.inf, info: dict | None = None):
    """Maximize the concave left-limit barrier value at switch s over ||x|| <= D.

    Projected gradient ascent with a Barzilai-Borwein step and Armijo
    backtracking.  A trial point needs only the barrier value, so trials run
    the kernel's value half and only the accepted one is finished into a
    full state.  Returns (x, state, projected gradient norm, converged).

    An unconverged iterate whose concavity bound _upper_bound lies below
    floor ends the ascent: no point of the ball reaches floor, so a caller
    that needs value >= floor stops only on a verdict already certain, the
    conservative one.  An ascent that can reach floor runs to the stopping
    rule as before.  The test is False for NaN and never fires at the
    default floor.  If info is a dict, the exit ("converged", "bound",
    "iteration limit", "stall" or "no accepted trial") and the bound at the
    returned point go into info["exit"] and info["ub"].
    """
    radius = cb.bound_radius

    def done(x, st, gnorm, why):
        if info is not None:
            info["exit"] = why
            info["ub"] = _upper_bound(st, x, radius)
        return x, st, gnorm, gnorm < tol

    k = _left_interval(cb, s)
    x = _project_ball(np.asarray(x_start, dtype=float).copy(), radius)
    st = left_limit_state(cb, x, s)
    alpha = 1.0
    prev_x = None
    prev_g = None
    stall = 0
    for _ in range(max_iters):
        g = st.grad_x
        gnorm = _norm(g)
        # projected gradient: remove outward component on the ball boundary
        nx = _norm(x)
        if nx >= radius - 1e-12:
            xhat = x / max(nx, 1e-12)
            out = float(np.dot(g, xhat))
            if out > 0.0:
                gnorm = _norm(g - out * xhat)
        if gnorm < tol:
            return done(x, st, gnorm, "converged")
        if _upper_bound(st, x, radius) < floor:
            return done(x, st, gnorm, "bound")
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
            trial = _value(cb, x_new, s, k)
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


def _blocking_terms(state, eta: float, delta: float) -> list:
    """Terms pinching the softmin below a safe clearance at a witness."""
    p = len(state.term_values)
    tau = delta + math.log(p) / eta + 0.01
    out = []
    for i, v in enumerate(state.term_values):
        if v < tau:
            key = "bound" if i == p - 1 else int(state.active[i])
            out.append((key, float(v)))
    return out


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
        blocking={}, bound_weights={}, grad_norms={}, exits={}, brackets={}, warnings=[],
    )
    st0 = barrier_state(cb, x0, 0.0)
    report.initial_margin = st0.value
    report.bound_weights[0.0] = float(st0.weights[-1])
    # "not >=" so that a NaN margin is infeasible
    if not st0.value >= delta:
        report.feasible = False
        report.blocking[0.0] = _blocking_terms(st0, eta, delta)
    x_start = x0
    for s in cb.schedule:
        info = {}
        x_w, st, gnorm, converged = _ascend(
            cb, s, x_start, _MAX_ASCENT_ITERS, _ASCENT_TOL, floor=delta, info=info
        )
        report.switch_margins[s] = st.value
        report.witnesses[s] = x_w
        report.grad_norms[s] = gnorm
        report.bound_weights[s] = float(st.weights[-1])
        report.exits[s] = info["exit"]
        report.brackets[s] = (st.value, info["ub"])
        # a bound exit has its verdict and is not an unconverged ascent
        if not converged and info["exit"] != "bound":
            report.warnings.append(
                f"ascent at switch {s:g} stopped with gradient norm {gnorm:.2e}"
            )
        if not st.value >= delta:
            report.feasible = False
            report.blocking[s] = _blocking_terms(st, eta, delta)
        x_start = x_w
    return report


def _repair(units, params, placements, blocking) -> tuple:
    """Lower the curves of blocking terms where the schedule allows.

    Returns (changed, need_bigger_d).  A blocker with decay > 0 whose critical
    time equals the constraint time sits exactly at the target floor r and
    cannot be lowered; it is left untouched.
    """
    changed = False
    need_d = False
    for s, entries in blocking.items():
        for key, _val in entries:
            if key == "bound":
                need_d = True
                continue
            u = units[key]
            g = params[key]
            pl = placements[key]
            if g.decay == 0.0:
                pl.depth += 1
                changed = True
            elif u.t_star > s + _TIME_TOL:
                pl.depth += 1
                changed = True
            elif u.t_star < s - _TIME_TOL:
                pl.shrinks += 1
                changed = True
    return changed, need_d


def _attempt(units, x0, r, eta, bound_radius, caps, placements, cfg: SearchConfig):
    """Placement + repair rounds at fixed (r, eta, restart). Returns
    (report or None, params, D, rounds).

    The bound radius is enlarged (doubled, at most 10 times) while a witness
    leans on the bound term, so that D never artificially shapes the
    certificate; if doubling stops shrinking the bound term's weight the
    optimum is genuinely radius-limited and the result is accepted with a
    warning (margins alone decide feasibility).
    """
    d_cur = bound_radius
    d_doublings = 0
    last = None
    params = None
    rounds = 0
    prev_weight = None
    while rounds <= _MAX_REPAIR_ROUNDS and d_doublings <= 10:
        params = []
        ok = True
        for u, pl, cap in zip(units, placements, caps):
            g = _materialize(u, pl, r, x0, cap)
            if g is None:
                ok = False
                break
            params.append(g)
        if not ok:
            return None, None, d_cur, rounds
        report = feasibility_check(units, x0, r, eta, d_cur, params, cfg.delta)
        last = report
        if report.feasible:
            w = max(report.bound_weights.values())
            if w < 1e-6:
                return report, params, d_cur, rounds
            if d_doublings >= 10 or (prev_weight is not None and w > 0.5 * prev_weight):
                report.warnings.append(
                    f"witness leans on the bound term (softmin weight {w:.2e}); "
                    f"bound radius left at {d_cur:g}"
                )
                return report, params, d_cur, rounds
            prev_weight = w
            d_cur *= 2.0
            d_doublings += 1
            continue
        changed, need_d = _repair(units, params, placements, report.blocking)
        if need_d and d_doublings < 10:
            d_cur *= 2.0
            d_doublings += 1
            changed = True
        if not changed:
            break
        rounds += 1
    return last, params, d_cur, rounds


def _feasible_at(units, x0, r, cfg: SearchConfig, d0: float, caps):
    """Try the eta grid and restarts at one r; first feasible configuration
    wins.  The grid is tried from largest eta down: the softmin gap ln(p)/eta
    shrinks with eta, so larger eta is never less feasible and needs the least
    curve-lowering repair.  Returns (winner dict or None, best_fail)."""
    best_fail = None
    for eta in sorted(cfg.eta_grid, reverse=True):
        for restart in range(cfg.restarts):
            if restart == 0:
                placements = [_Placement(_F0_DEFAULT, _F1_DEFAULT) for _ in units]
            else:
                rng = np.random.default_rng([cfg.seed, restart])
                placements = [
                    _Placement(
                        float(rng.uniform(*_F0_RANGE)),
                        float(rng.uniform(*_F1_RANGE)),
                    )
                    for _ in units
                ]
            report, params, d_used, rounds = _attempt(
                units, x0, r, eta, d0, caps, placements, cfg
            )
            if report is not None and report.feasible:
                return (
                    {
                        "report": report, "params": params, "eta": eta,
                        "bound_radius": d_used, "restart": restart, "rounds": rounds,
                    },
                    best_fail,
                )
            if report is not None:
                worst = min(
                    [report.initial_margin] + list(report.switch_margins.values())
                )
                if best_fail is None or worst > best_fail[0]:
                    best_fail = (worst, report, eta, restart)
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
    """Bisection on r with per-r feasibility (placement + repair) inside."""
    units = tuple(units)
    x0 = np.asarray(x0, dtype=float)
    if not units:
        raise ValueError("no units to search over")
    caps = tuple(_h_opt_capped(u, x0) for u in units)
    natural = min(caps)
    for u in units:
        if _true_h_opt(u) <= 0.0:
            natural = 0.0  # unsatisfiable region: sup h <= 0 leaves no r > 0
        if u.t_star <= 0.0:
            natural = min(natural, float(u.predicate.value(x0)))
    r_hi = min(cfg.r_max, natural * (1.0 - 1e-6))
    d0 = _default_bound_radius(units, x0)

    def diag_base():
        return {"delta": cfg.delta, "r_bracket_high": r_hi, "warnings": []}

    if r_hi <= 0.0:
        diag = diag_base()
        diag["warnings"].append("upper bracket for r is non-positive; task unsatisfiable from x0")
        return SearchResult(0.0, None, {}, _KAPPA_MIN, False, diag)

    winner, best_fail = _feasible_at(units, x0, r_hi, cfg, d0, caps)
    r_lo = r_hi if winner is not None else None
    if winner is None:
        hi = r_hi
        r = r_hi
        for _ in range(60):
            r *= 0.5
            if r < max(_R_TOLERANCE / 8.0, 1e-12):
                break
            winner, fail = _feasible_at(units, x0, r, cfg, d0, caps)
            if winner is not None:
                r_lo = r
                break
            hi = r
            if fail is not None and (best_fail is None or fail[0] > best_fail[0]):
                best_fail = fail
        if winner is None:
            diag = diag_base()
            if best_fail is not None:
                worst, report, eta, restart = best_fail
                diag["best_margin"] = worst
                diag["eta"] = eta
                diag["restart"] = restart
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
            cand, _ = _feasible_at(units, x0, mid, cfg, d0, caps)
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
            "restart": winner["restart"],
            "repair_rounds": winner["rounds"],
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
