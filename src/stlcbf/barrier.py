"""Time-varying control barrier functions for temporal task units.

Each operator unit l contributes a term

    b_l(x, t) = -gamma_l(t) + h_l(x)

where gamma_l is a nondecreasing funnel curve reaching the robustness target r
at the unit's critical time t_star (deadline b for eventually, start a for
always).  Active terms (t < deadline) are blended by a softmin

    b(x, t) = -(1/eta) ln( sum_l o_l(t) exp(-eta b_l(x, t)) )

which under-approximates the pointwise min, plus an always-active boundedness
term D - ||x|| keeping the superlevel sets compact.  Terms drop out at their
deadlines, so b is piecewise smooth in t with switches at the sorted unique
deadlines s_1 < ... < s_q; it is undefined at t >= s_q.

The barrier has one kernel, _state, a single flat function body: the team
step of a run calls it directly, barrier_state and left_limit_state build
their BarrierState from its result, and CompositeBarrier.term_values
returns its term values on the first activity interval, where every term
is active.  The barrier compiles once: the affine rows c and every ball's A
rows are stacked into one matrix, and each activity interval (the terms
with deadline >= s_k) gets its selection indices and gradient rows.  A call
then takes one product over all stacked rows, forms h_l for every term and
selects the active ones.  The x-products are deliberately not taken over a
per-interval submatrix: (C @ x)[sel] and C[sel] @ x can differ in the last
bit, and two identities hold exactly only because every caller sees the
same floats for a term -- the reported term values equal
term_values(x, t)[active], and b(x, s) >= left limit at s with no
tolerance, since both sides blend the same b_l.  A selection that is one
run of consecutive indices is kept as a slice, so its gather is a view.

gamma_l(t) and its rate depend on t alone, so the kernel takes them as
arguments: the activity interval and the rows of gamma_l(t) and
-d gamma_l/dt over its active terms, from one _gamma.  The checked entries
(barrier_state, barrier_value, left_limit_*) fetch the rows from a t-cache
that holds them for the last (t, interval) pair: a search or a sweep
evaluates many states at one time.  A run knows its time grid, so
_funnel_rows tabulates the rows over many steps at once and the team step
hands them to _state with no lookup and no check.  One _gamma over a grid
gives each row the bits of _gamma at that row's time.

The kernel has an exit after the softmin, taken by a value below a floor
the caller passes.  barrier_value, left_limit_value and term_values take it
with floor inf.  An Armijo trial of the switch-certifying ascent in
param_search passes its acceptance threshold: a rejected trial stops
there, and an accepted one runs on to its gradient, rate and weights, once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .formula import OperatorUnit
from .predicates import (
    AffinePredicate, BallPredicate, doc_object, finite_number, is_finite_number, predicate_to_dict,
    predicate_from_dict,
)

__all__ = [
    "GammaParams",
    "BarrierTerm",
    "CompositeBarrier",
    "BarrierState",
    "gamma_eval",
    "build_barrier",
    "barrier_value",
    "barrier_state",
    "left_limit_value",
    "left_limit_state",
    "barrier_to_dict",
    "barrier_from_dict",
]


@dataclass(frozen=True)
class GammaParams:
    """Funnel curve gamma(t) = (gamma0 - gamma_inf) exp(-decay t) + gamma_inf."""

    gamma0: float
    gamma_inf: float
    decay: float
    t_star: float

    def __post_init__(self):
        for name in ("gamma0", "gamma_inf", "decay", "t_star"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.gamma0 < self.gamma_inf:
            raise ValueError(f"gamma0 ({self.gamma0}) must be < gamma_inf ({self.gamma_inf})")
        for name in ("decay", "t_star"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not math.isfinite(self.decay * (self.gamma_inf - self.gamma0)):
            raise ValueError(f"the funnel rate decay * (gamma_inf - gamma0) must be finite, "
                             f"got {self.decay!r} * ({self.gamma_inf!r} - {self.gamma0!r})")

    @classmethod
    def from_target(cls, gamma0: float, gamma_inf: float, r: float, t_star: float) -> "GammaParams":
        """Pick the decay rate so that gamma(t) >= r for all t >= t_star.

        If gamma0 < r the curve must climb: decay solves gamma(t_star) = r
        exactly.  If gamma0 >= r the curve already starts above the target and
        a flat rate (decay = 0) suffices.
        """
        gamma0 = float(gamma0)
        gamma_inf = float(gamma_inf)
        r = float(r)
        t_star = float(t_star)
        if gamma0 < r:
            if t_star <= 0.0:
                raise ValueError("gamma0 < r requires t_star > 0 to reach the target")
            if not gamma_inf > r:
                raise ValueError(f"gamma_inf ({gamma_inf}) must exceed r ({r}) when gamma0 < r")
            # (r - gamma_inf)/(gamma0 - gamma_inf) in (0, 1) here
            decay = -math.log((r - gamma_inf) / (gamma0 - gamma_inf)) / t_star
        else:
            decay = 0.0
        return cls(gamma0, gamma_inf, decay, t_star)


def gamma_eval(g: GammaParams, t: float) -> float:
    return (g.gamma0 - g.gamma_inf) * math.exp(-g.decay * t) + g.gamma_inf


@dataclass(frozen=True)
class BarrierTerm:
    unit: OperatorUnit
    gamma: GammaParams

    def __post_init__(self):
        if abs(self.gamma.t_star - self.unit.t_star) > 1e-12:
            raise ValueError(
                f"gamma t_star {self.gamma.t_star} does not match the unit's "
                f"critical time {self.unit.t_star}"
            )
        # the funnel is evaluated up to the deadline, where its exponent is -decay * deadline
        if not math.isfinite(self.gamma.decay * self.deadline):
            raise ValueError(
                f"gamma decay * unit deadline must be finite, got {self.gamma.decay!r} * {self.deadline!r}"
            )

    @property
    def deadline(self) -> float:
        return self.unit.deadline


def _as_slice(idx: np.ndarray):
    """The basic slice that selects what the index array idx selects when idx
    is one ascending run of consecutive indices, else idx: the kernel's
    gathers through it then take a view instead of a copy."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        return slice(int(idx[0]), int(idx[0]) + len(idx))
    return idx


class _Interval(NamedTuple):
    """Precomputed data of one activity interval: the terms with deadline
    >= s_k, which are active on [s_{k-1}, s_k) and in the left limit at s_k."""

    active: np.ndarray  # active task terms, ascending term index
    kpos: object  # their kernel positions (see _as_slice)
    funnel: tuple  # their -decay, gamma0 - gamma_inf, gamma_inf and -decay (gamma_inf - gamma0) rows
    wpos: object  # per gradient row: its term's weight (active terms, then the bound term; see _as_slice)
    G: np.ndarray  # gradient rows: active affine c, then active ball -2A
    n_aff_rows: int
    ball_rows: np.ndarray  # rows of the stacked product feeding the ball rows of G


@dataclass(frozen=True, eq=False)
class CompositeBarrier:
    terms: tuple
    eta: float
    bound_radius: float
    dim: int
    smooth_eps: float = 1e-9
    schedule: tuple = field(init=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("composite barrier needs at least one term")
        for name in ("eta", "bound_radius", "smooth_eps"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.bound_radius < 0.0:
            raise ValueError("bound_radius must be >= 0")
        deadlines = np.array([tm.deadline for tm in self.terms], dtype=float)
        if np.any(deadlines <= 0.0):
            raise ValueError("every unit deadline must be positive")
        aff, balls = [], []
        for i, tm in enumerate(self.terms):
            pred = tm.unit.predicate
            if pred.dim != self.dim:
                raise ValueError("predicate dimension does not match barrier dim")
            (aff if isinstance(pred, AffinePredicate) else balls).append(i)
        # kernel order: affine terms, then balls; the term at kernel
        # position k owns rows row_start[k]:row_start[k + 1] of the stacked matrix
        order = aff + balls
        n, n_aff = len(order), len(aff)
        preds = [self.terms[i].unit.predicate for i in order]
        mat = np.concatenate([np.atleast_2d(p.c) for p in preds[:n_aff]]
                             + [p.A for p in preds[n_aff:]])
        off = np.concatenate([[p.d for p in preds[:n_aff]]] + [p.b for p in preds[n_aff:]])
        row_start = np.cumsum([0] + [1] * n_aff + [p.A.shape[0] for p in preds[n_aff:]])
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        g0 = np.array([self.terms[i].gamma.gamma0 for i in order])
        gi = np.array([self.terms[i].gamma.gamma_inf for i in order])
        dec = np.array([self.terms[i].gamma.decay for i in order])
        funnel = (-dec, g0 - gi, gi, -(dec * (gi - g0)))  # kernel order
        schedule = tuple(sorted(set(deadlines.tolist())))
        intervals = []
        for s in schedule:
            active = np.flatnonzero(deadlines >= s)
            active.flags.writeable = False
            kpos = pos[active]
            # (row, term's position among the active), sorted: affine rows come first
            pairs = sorted((r, j) for j, k in enumerate(kpos)
                           for r in range(row_start[k], row_start[k + 1]))
            rows = np.array([r for r, _ in pairs], dtype=int)
            n_aff_rows = int(np.count_nonzero(rows < n_aff))
            grad_rows = mat[rows]
            grad_rows[n_aff_rows:] *= -2.0
            wpos = np.array([j for _, j in pairs], dtype=int)
            intervals.append(_Interval(
                active=active,
                kpos=_as_slice(kpos),
                funnel=tuple(row[kpos] for row in funnel),
                wpos=_as_slice(wpos) if n_aff_rows == len(rows) else wpos,  # the kernel scales ball rows in place
                G=grad_rows,
                n_aff_rows=n_aff_rows,
                ball_rows=rows[n_aff_rows:],
            ))
        for name, value in (
            ("schedule", schedule),
            ("_deadlines", deadlines),
            ("_n_aff", n_aff),
            ("_mat", mat),
            ("_off", off),
            ("_n_balls", n - n_aff),
            ("_ball_e", np.array([p.e for p in preds[n_aff:]])),
            ("_ball_start", row_start[n_aff:-1] - n_aff),
            ("_intervals", tuple(intervals)),
            ("_tcache", (None, None, None, None, None)),  # (t, k, interval, gamma row, rate row)
        ):
            object.__setattr__(self, name, value)

    @property
    def horizon(self) -> float:
        return self.schedule[-1]

    def term_values(self, x: np.ndarray, t: float) -> np.ndarray:
        """b_l(x,t) for every task term (ignoring activity): the kernel's term
        values on the first activity interval, where every term is active."""
        iv = self._intervals[0]
        return _state(self, np.asarray(x, dtype=float), iv, *_gamma(t, iv.funnel), math.inf)[4][:-1]

    def active_mask(self, t: float) -> np.ndarray:
        return self._deadlines > t


@dataclass(slots=True)
class BarrierState:
    """One-pass evaluation: value, gradients and softmin weights at (x, t)."""

    value: float
    grad_x: np.ndarray
    dbdt: float
    weights: np.ndarray  # over active task terms, bound term last
    active: np.ndarray  # indices of active task terms
    term_values: np.ndarray  # b_l at active task terms, bound term last


def _state(cb: CompositeBarrier, x: np.ndarray, iv: _Interval, gam: np.ndarray, rate: np.ndarray,
           floor: float = -math.inf) -> tuple:
    """The barrier kernel at a state x of shape (dim,) on activity interval
    iv, given gamma_l(t) and -d gamma_l/dt of iv's active terms as the
    C-contiguous rows gam and rate (np.dot over a strided row can round
    differently).  Nothing is checked here.  The team step takes the
    interval and rows from _funnel_rows, the checked entries from _args.

    Returns (value, gradient in x, rate in t, softmin weights, term values),
    the last two over iv's active terms with the bound term last.  A value
    below floor ends the call after the softmin, with the gradient, rate and
    weights None: the value-only entries pass floor = inf, and an Armijo
    trial of the ascent its acceptance threshold.
    """
    y = cb._mat.dot(x)  # ndarray.dot is np.dot without its dispatch layer
    y += cb._off
    h = y
    if cb._n_balls:
        yb = y[cb._n_aff :]
        h = np.concatenate((y[: cb._n_aff], cb._ball_e - np.add.reduceat(yb * yb, cb._ball_start)))
    nx = math.sqrt(x.dot(x).item() + cb.smooth_eps**2)
    active, kpos, _, wpos, G, n_aff_rows, ball_rows = iv
    vals = np.empty(len(active) + 1)
    np.subtract(h[kpos], gam, out=vals[:-1])
    vals[-1] = cb.bound_radius - nx + cb.smooth_eps
    m = min(vals.tolist())
    w = m - vals
    w *= cb.eta
    np.exp(w, out=w)
    z = float(np.add.reduce(w))
    value = m - math.log(z) / cb.eta
    if value < floor:
        return value, None, None, None, vals
    w /= z
    rw = w[wpos]
    if len(ball_rows):
        rw[n_aff_rows:] *= y[ball_rows]
    grad = rw.dot(G)
    grad -= (w[-1] / nx) * x
    return value, grad, w[:-1].dot(rate).item(), w, vals


def _barrier_state(result: tuple, iv: _Interval) -> BarrierState:
    """A full kernel result on activity interval iv as a BarrierState."""
    value, grad, dbdt, w, vals = result
    return BarrierState(value=value, grad_x=grad, dbdt=dbdt, weights=w, active=iv.active, term_values=vals)


def _gamma(times, funnel: tuple) -> tuple:
    """gamma_l and -d gamma_l/dt of the terms whose rows funnel holds: one
    row at a time t, or one C-contiguous row per time of a (T, 1) column of
    times.  Elementwise, so a row of a column's result has the bits of the
    result at that row's time."""
    negdec, gdiff, gi, negrate = funnel
    e = negdec * times
    np.exp(e, out=e)
    gam = gdiff * e
    gam += gi
    e *= negrate
    return gam, e


def _args(cb: CompositeBarrier, x, t: float, k: int) -> tuple:
    """The kernel's arguments after cb for a checked call at (x, t) on
    activity interval k (k = len(schedule): expired): x as a (dim,) float
    array, the interval and its rows from the t-cache."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cb.dim,):
        raise ValueError(f"state must have shape ({cb.dim},)")
    if k == len(cb.schedule):
        raise ValueError(
            f"barrier undefined at t={t:g}: every task term has expired "
            f"(final deadline {cb.horizon:g})"
        )
    tc = cb._tcache
    if tc[0] != t or tc[1] != k:
        iv = cb._intervals[k]
        tc = (t, k, iv, *_gamma(t, iv.funnel))
        object.__setattr__(cb, "_tcache", tc)
    return x, tc[2], tc[3], tc[4]


def _funnel_rows(cb: CompositeBarrier, times: np.ndarray):
    """The interval and rows _args gives at each of the ascending times, all
    before the final deadline, tabulated: one _gamma over the times of each
    activity interval."""
    lo = 0
    for iv, hi in zip(cb._intervals, np.searchsorted(times, cb.schedule).tolist()):
        if hi > lo:
            yield from zip(repeat(iv), *_gamma(times[lo:hi, None], iv.funnel))
            lo = hi


def barrier_state(cb: CompositeBarrier, x: np.ndarray, t: float) -> BarrierState:
    x, iv, gam, rate = _args(cb, x, t, bisect.bisect_right(cb.schedule, t))
    return _barrier_state(_state(cb, x, iv, gam, rate), iv)


def barrier_value(cb: CompositeBarrier, x: np.ndarray, t: float) -> float:
    return _state(cb, *_args(cb, x, t, bisect.bisect_right(cb.schedule, t)), math.inf)[0]


def _left_interval(cb: CompositeBarrier, s: float) -> int:
    """The activity interval just below s: terms with deadline >= s are
    still in; a NaN threshold keeps no term."""
    thr = s - 1e-12 * max(1.0, abs(s))
    return bisect.bisect_left(cb.schedule, thr) if thr == thr else len(cb.schedule)


def left_limit_state(cb: CompositeBarrier, x: np.ndarray, s: float) -> BarrierState:
    x, iv, gam, rate = _args(cb, x, s, _left_interval(cb, s))
    return _barrier_state(_state(cb, x, iv, gam, rate), iv)


def left_limit_value(cb: CompositeBarrier, x: np.ndarray, s: float) -> float:
    """Barrier value in the limit t -> s from below (deadline-s terms kept)."""
    return _state(cb, *_args(cb, x, s, _left_interval(cb, s)), math.inf)[0]


def build_barrier(units, params, eta: float, bound_radius: float, smooth_eps: float = 1e-9) -> CompositeBarrier:
    """Assemble the composite barrier from units and their funnel curves."""
    units = tuple(units)
    params = tuple(params)
    if not units:
        raise ValueError("cannot build a barrier from an empty unit list")
    if len(units) != len(params):
        raise ValueError("one GammaParams required per unit")
    dims = {u.predicate.dim for u in units}
    if len(dims) != 1:
        raise ValueError(f"units disagree on the state dimension: {sorted(dims)}")
    terms = tuple(BarrierTerm(unit=u, gamma=g) for u, g in zip(units, params))
    return CompositeBarrier(
        terms=terms, eta=float(eta), bound_radius=float(bound_radius),
        dim=dims.pop(), smooth_eps=float(smooth_eps),
    )


def barrier_to_dict(cb: CompositeBarrier) -> dict:
    return {
        "eta": cb.eta,
        "bound_radius": cb.bound_radius,
        "dim": cb.dim,
        "smooth_eps": cb.smooth_eps,
        "terms": [
            {
                "unit": {
                    "kind": tm.unit.kind,
                    "a": tm.unit.a,
                    "b": tm.unit.b,
                    "predicate": predicate_to_dict(tm.unit.predicate),
                },
                "gamma": asdict(tm.gamma),
            }
            for tm in cb.terms
        ],
    }


def barrier_from_dict(doc: dict) -> CompositeBarrier:
    """Rebuild a barrier from barrier_to_dict's output.  The barrier's own
    numbers (eta, bound radius, smoothing, unit windows, funnel curves,
    predicate coefficients) are checked finite here: a NaN eta or bound
    radius would otherwise build a barrier whose every value is NaN."""
    terms = doc_object(doc, "barrier").get("terms")
    if not (isinstance(terms, list) and terms):
        raise ValueError("barrier document: terms must be a non-empty list")
    units, params = [], []
    for i, entry in enumerate(terms):
        u = doc_object(doc_object(entry, f"term {i}").get("unit"), f"term {i} unit")
        if u.get("kind") not in ("always", "eventually"):
            raise ValueError(f"barrier document: term {i} unit kind must be 'always' or 'eventually', "
                             f"got {u.get('kind')!r}")
        units.append(
            OperatorUnit(
                kind=u["kind"],
                predicate=predicate_from_dict(u.get("predicate"), f"term {i} predicate "),
                a=finite_number(u, "a", f"term {i} unit "),
                b=finite_number(u, "b", f"term {i} unit "),
            )
        )
        g = doc_object(entry.get("gamma"), f"term {i} gamma")
        values = [finite_number(g, key, f"term {i} gamma ") for key in ("gamma0", "gamma_inf", "decay", "t_star")]
        try:
            params.append(GammaParams(*values))
        except ValueError as err:
            raise ValueError(f"barrier document: term {i} gamma: {err}") from None
    return build_barrier(
        units, params, eta=finite_number(doc, "eta", ""), bound_radius=finite_number(doc, "bound_radius", ""),
        smooth_eps=finite_number(doc, "smooth_eps", "", 1e-9),
    )
