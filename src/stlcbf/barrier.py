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

The barrier has one kernel, _state, a single flat function body over a
stack of K barriers (_Stack), each on one activity interval (the terms
with deadline >= s_k) and reading its state from a vector the caller
passes.  A barrier builds the K = 1 stack of each of its intervals once,
on first use: barrier_state and left_limit_state build their BarrierState
from the kernel's result, and CompositeBarrier.term_values returns its
term values on the first interval, where every term is active.  The team
step of a run passes a stack of every live clique's barrier
(controller.Team), so one call serves the whole team, and builds no K = 1
stack.  Every reduction gives a barrier the same bits in any stack: its
product rows (an affine c, a ball's A rows) and its state's squared norm
are np.vecdot rows over its own state, one call per state dimension among
the stacked barriers, and the softmin, the ball sums, the gradient and the
rate are segmented ufuncs (np.minimum.reduceat, np.add.reduceat) over all
of them.  So a term's value is the same float in every interval and every
stack, and two identities hold exactly: the reported term values equal
term_values(x, t)[active], and b(x, s) >= left limit at s with no
tolerance, since both sides blend the same b_l.  A gather that is one run
of consecutive indices is kept as a slice, a view.

gamma_l(t) and its rate depend on t alone, so the kernel takes them as
arguments: rows of gamma_l(t) (less an affine term's constant d, so that
its value is c x minus the row) and -d gamma_l/dt over the stack's slots,
from one _gamma.  The two checked entries, barrier_state and
left_limit_state, fetch the rows through _args from a t-cache that holds
them for the last (t, interval) pair: a search or a sweep evaluates many
states at one time.  A run knows its time grid, so Team.funnels tabulates
the team's rows over many steps at once and the team step hands them to
_state with no lookup and no check.  One _gamma over a grid gives each row
the bits of _gamma at that row's time.

The kernel has an exit after the softmin, taken by a single barrier's
value below a floor the caller passes: a caller that needs the value alone
passes floor inf, and an Armijo trial of the switch-certifying ascent in
param_search its acceptance threshold, so that only an accepted trial runs
on to its gradient, rate and weights.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .formula import OperatorUnit
from .predicates import (
    BallPredicate, doc_object, finite_number, is_finite_number, predicate_to_dict,
    predicate_from_dict,
)

__all__ = [
    "GammaParams",
    "CompositeBarrier",
    "BarrierState",
    "gamma_eval",
    "build_barrier",
    "barrier_state",
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


@dataclass(frozen=True, eq=False)
class CompositeBarrier:
    terms: tuple
    eta: float
    bound_radius: float
    dim: int = field(init=False)  # the terms' predicates' state dimension
    schedule: tuple = field(init=False)
    smooth_eps: ClassVar[float] = 1e-9  # the bound term is D - sqrt(||x||^2 + eps^2) + eps

    def __post_init__(self):
        if not self.terms:
            raise ValueError("cannot build a barrier from an empty unit list")
        preds = [tm.unit.predicate for tm in self.terms]
        dims = {p.dim for p in preds}
        if len(dims) != 1:
            raise ValueError(f"units disagree on the state dimension: {sorted(dims)}")
        for name in ("eta", "bound_radius"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.bound_radius < 0.0:
            raise ValueError("bound_radius must be >= 0")
        deadlines = np.array([tm.deadline for tm in self.terms], dtype=float)
        if np.any(deadlines <= 0.0):
            raise ValueError("every unit deadline must be positive")
        balls = [isinstance(p, BallPredicate) for p in preds]
        # the term at index i owns rows _row_start[i]:_row_start[i + 1] of the
        # stacked coefficient rows and offsets: an affine c and d, a ball's A and b
        off = [p.b if ball else [p.d] for p, ball in zip(preds, balls)]
        g0, gi, dec = (np.array([getattr(tm.gamma, f) for tm in self.terms]) for f in ("gamma0", "gamma_inf", "decay"))
        schedule = tuple(sorted(set(deadlines.tolist())))
        active = []
        for s in schedule:
            active.append(np.flatnonzero(deadlines >= s))
            active[-1].flags.writeable = False
        for name, value in (
            ("dim", dims.pop()),
            ("schedule", schedule),
            ("_deadlines", deadlines),
            ("_mat", np.concatenate([p.A if ball else p.c[None] for p, ball in zip(preds, balls)])),
            ("_off", np.concatenate(off)),
            ("_row_start", np.cumsum([0] + [len(o) for o in off])),
            ("_ball_e", np.array([p.e if ball else math.nan for p, ball in zip(preds, balls)])),  # nan: affine
            ("_funnel", np.array([-dec, g0 - gi, gi, -(dec * (gi - g0))])),
            ("_active", tuple(active)),  # per activity interval
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_intervals", [None] * len(schedule))  # K = 1 stacks, built on first use
        object.__setattr__(self, "_tcache", (None, None, None, None, None))  # (t, k, stack, gamma row, rate row)

    @property
    def horizon(self) -> float:
        return self.schedule[-1]

    def term_values(self, x: np.ndarray, t: float) -> np.ndarray:
        """b_l(x,t) for every task term (ignoring activity): the kernel's term
        values on the first activity interval, where every term is active."""
        st = self._interval(0)
        return _state(st, np.asarray(x, dtype=float), *_gamma(t, st.funnel), math.inf)[4][:-1]

    def active_mask(self, t: float) -> np.ndarray:
        return self._deadlines > t

    def _interval(self, k: int) -> "_Stack":
        """The K = 1 stack of activity interval k.  A run's team step reads
        only the team's stacks, so each is built on its first checked call."""
        st = self._intervals[k]
        if st is None:
            st = self._intervals[k] = _stack([(self, k, None)])
        return st


_EPS = CompositeBarrier.smooth_eps
_EPS2 = _EPS**2
# The kernel scales each slot's distance below the softmin by eta, and a
# funnel value or the bound radius enters that distance at most twice: a
# document's values up to _SCALE_LIMIT / max(eta, 1) in magnitude keep it
# below 2e307, with room for the predicates' values.  Construction places a
# funnel at most e^700 (about 1.01e304) below its gamma_inf, so every
# document it writes at an eta up to 980 loads.
# The law's load db/dt + kappa b gets the same room.  db/dt is a mean of
# the funnels' rates under the softmin weights, each at most its rate at
# t = 0, decay (gamma_inf - gamma0), which is kept at most _SCALE_LIMIT; b
# lies at most the softmin gap ln(terms + 1) / eta below its least term,
# and an eta of at least ln(terms + 1) / _value_scale keeps kappa times the
# gap within _SCALE_LIMIT, as Clique keeps kappa times the scale.
_SCALE_LIMIT = 1e307


def _value_scale(cb: CompositeBarrier) -> float:
    """The largest funnel value or bound radius of cb in magnitude, or 1."""
    return max([1.0, cb.bound_radius] + [abs(v) for tm in cb.terms for v in (tm.gamma.gamma0, tm.gamma.gamma_inf)])


@dataclass(slots=True)
class BarrierState:
    """One-pass evaluation: value, gradients and softmin weights at (x, t)."""

    value: float
    grad_x: np.ndarray
    dbdt: float
    weights: np.ndarray  # over active task terms, bound term last
    active: np.ndarray  # indices of active task terms
    term_values: np.ndarray  # b_l at active task terms, bound term last


def _as_slice(idx: np.ndarray):
    """The basic slice that selects what the index array idx selects when idx
    is one ascending run of consecutive indices, else idx: a gather through
    it then takes a view instead of a copy."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        return slice(int(idx[0]), int(idx[0]) + len(idx))
    return idx


class _Stack(NamedTuple):
    """The barrier kernel's gathers over a stack of K barriers, each on one
    activity interval (see _stack).  Every barrier owns a segment of slots:
    its active task terms in ascending term order, then its bound term.  It
    owns as many product rows, one per slot in slot order (an affine term's
    c, a zero row for a ball or the bound), then the A rows of its balls.

    Fields marked (K = 1) are a slice, an int, () or a numpy scalar for a
    single barrier read from its own state vector: its gathers are views and
    its per-barrier values numpy scalars, whose arithmetic has the bits of
    an array's."""

    products: tuple  # per state dimension: (coefficient rows (R, K_g, dim), index of the states (K_g, dim) (K = 1),
    #                  and where its products and barriers lie in y and the norms)
    off: np.ndarray  # per product row: b of a ball's rows, else 0
    balls: tuple  # None, or (product rows of the balls, start of each ball there, e, their slots, slot of each row)
    perm: object  # per slot: its product row (K = 1)
    seg: np.ndarray  # each barrier's first slot
    owner: object  # per slot: its barrier (K = 1)
    pick: object  # the per-barrier values of a segmented reduction (K = 1)
    eta_slots: np.ndarray  # per slot: its barrier's eta
    eta: object  # per barrier (K = 1), and so on
    radius: object
    grad: np.ndarray  # gradient coefficients: per state entry, one per product row of its barrier
    grad_idx: np.ndarray  # per gradient coefficient: its weight in the weights by slot, or with balls by product row
    grad_start: np.ndarray  # first gradient coefficient of each state entry
    bound: object  # each barrier's bound slot (K = 1)
    state_owner: object  # per state entry, in the order of its index in x: its barrier (K = 1)
    states: object  # the barriers' state entries' indices in x, ascending (K = 1)
    funnel: tuple  # per slot: -decay, gamma0 - gamma_inf, gamma_inf, -decay (gamma_inf - gamma0), an affine d; 0 for a bound
    active: np.ndarray  # K = 1: the interval's active task terms, else None
    order: tuple  # the barriers in stack order, as positions in the parts _stack was given


def _layout(cb: CompositeBarrier, k: int) -> tuple:
    """Barrier cb's slots and product rows on activity interval k, as
    (active terms, coefficient rows, offsets (a ball's b), gradient rows,
    slot of each row, funnel rows (5, slots)).  A ball's slot row and the
    bound's are zero; a ball's A rows follow the slot rows, ball by ball."""
    act = cb._active[k]
    n = len(act) + 1
    ball = np.flatnonzero(cb._ball_e[act] == cb._ball_e[act]).tolist()
    ball_rows = [np.arange(cb._row_start[act[j]], cb._row_start[act[j] + 1]) for j in ball]
    rows = np.concatenate([cb._row_start[act], [0], *ball_rows])
    zero = [*ball, n - 1]
    coef, off = cb._mat[rows], cb._off[rows]
    coef[zero], off[zero] = 0.0, 0.0
    grad = coef.copy()  # the gradient rows: an affine c, a ball's -2 A
    grad[n:] *= -2.0
    slot = np.concatenate([np.arange(n), *(np.full(len(r), j) for j, r in zip(ball, ball_rows))])
    funnel = np.zeros((5, n))
    funnel[:4, :-1] = cb._funnel[:, act]
    funnel[4] = off[:n]  # an affine term's d goes with its gamma row (see _gamma)
    off[:n] = 0.0
    return act, coef, off, grad, slot, funnel


def _stack(parts) -> _Stack:
    """The kernel's gathers for the barriers of parts, each given as
    (barrier, activity interval index, index of its state in the kernel's x),
    the index None when x is the barrier's own state (K = 1).  The stack
    orders the barriers by state dimension, stably: the products and the
    squared state norms of the barriers of one dimension are one np.vecdot
    each, and every other reduction is one segmented ufunc over all
    barriers."""
    single = len(parts) == 1 and parts[0][2] is None
    order = tuple(sorted(range(len(parts)), key=lambda p: parts[p][0].dim))
    cbs = [parts[p][0] for p in order]
    index = [parts[p][2] for p in order]
    lays = [_layout(parts[p][0], parts[p][1]) for p in order]  # (act, coef, off, grad, slot, funnel)
    n_slots = [len(lay[0]) + 1 for lay in lays]
    seg = np.cumsum([0] + n_slots[:-1])
    products, off, row_slot, row_of, n_y = [], [], [], [], 0  # row_of[b][r]: product row r of barrier b in y
    for dim in sorted({cb.dim for cb in cbs}):
        members = [b for b, cb in enumerate(cbs) if cb.dim == dim]
        n_rows = max(len(lays[b][2]) for b in members)
        mat = np.zeros((n_rows, len(members), dim))  # y holds row r of member i at r * len(members) + i
        offs = np.zeros((n_rows, len(members)))
        slots = np.zeros((n_rows, len(members)), dtype=int)  # a padding row reads slot 0, and nothing reads it
        for i, b in enumerate(members):
            _, coef, o, _, s, _ = lays[b]
            mat[: len(o), i], offs[: len(o), i], slots[: len(o), i] = coef, o, seg[b] + s
            row_of.append(n_y + i + len(members) * np.arange(len(o)))
        # with several dimensions, each writes its products and squared norms into its part of y and of the norms
        products.append((mat[:, 0] if single else mat, slice(None) if single else np.array([index[b] for b in members]),
                         slice(n_y, n_y + mat.size // dim), mat.shape[:2], slice(members[0], members[-1] + 1)))
        off.append(offs.ravel())
        row_slot.append(slots.ravel())
        n_y += mat.size // dim
    balls, ball_rows, ball_start, ball_e, ball_slots = None, [], [], [], []
    for b, (act, _, _, _, s, _) in enumerate(lays):
        for j in dict.fromkeys(s[n_slots[b] :].tolist()):  # the balls in slot order
            ball_start.append(len(ball_rows))
            ball_rows += row_of[b][s == j][1:].tolist()  # past the ball's zero slot row
            ball_e.append(cbs[b]._ball_e[act[j]])
            ball_slots.append(seg[b] + j)
    if ball_start:
        balls = (np.array(ball_rows), np.array(ball_start), np.array(ball_e), np.array(ball_slots),
                 np.concatenate(row_slot))
    # the gradient, per state entry in the order of its index in x: one
    # coefficient per product row of its barrier, weighed by the row's
    # slot's weight (times its product for a ball row)
    entries = sorted((j if single else int(index[b][j]), b, j) for b, cb in enumerate(cbs) for j in range(cb.dim))
    weight_of = [row_of[b] if balls else seg[b] + lays[b][4] for b in range(len(lays))]
    sizes = [len(lays[b][4]) for _, b, _ in entries]

    def per_barrier(values):
        return np.float64(values[0]) if single else np.array(values, dtype=float)

    return _Stack(
        products=tuple(products),
        off=np.concatenate(off),
        balls=balls,
        perm=_as_slice(np.concatenate([row_of[b][: n_slots[b]] for b in range(len(lays))])),
        seg=seg,
        owner=slice(None) if single else np.repeat(np.arange(len(lays)), n_slots),
        pick=0 if single else slice(None),
        eta_slots=np.repeat([cb.eta for cb in cbs], n_slots),
        eta=per_barrier([cb.eta for cb in cbs]),
        radius=per_barrier([cb.bound_radius for cb in cbs]),
        grad=np.concatenate([lays[b][3][:, j] for _, b, j in entries]),
        grad_idx=np.concatenate([weight_of[b] for _, b, _ in entries]),
        grad_start=np.cumsum([0] + sizes[:-1]),
        bound=n_slots[0] - 1 if single else seg + np.array(n_slots) - 1,
        state_owner=() if single else np.array([b for _, b, _ in entries]),
        states=slice(None) if single else _as_slice(np.array([e for e, _, _ in entries])),
        funnel=tuple(np.concatenate([lay[5] for lay in lays], axis=1)),
        active=lays[0][0] if single else None,
        order=order,
    )


def _state(st: _Stack, x: np.ndarray, gam: np.ndarray, rate: np.ndarray, floor: float | None = None) -> tuple:
    """The barrier kernel over the K barriers of stack st, reading their
    states from x, given _gamma's rows of every slot (gamma_l(t) less an
    affine term's d, and -d gamma_l/dt; 0 at a bound slot) as the
    C-contiguous rows gam and rate.  Nothing is checked
    here.  The team step takes the stack and rows from Team.funnels, the
    checked entries (K = 1) from _args.

    Every reduction gives a barrier the same bits in any stack: a product
    row and a squared state norm are np.vecdot rows over the barrier's own
    state, and the softmin, the ball sums, the gradient and the rate are
    segmented ufuncs (np.minimum.reduceat, np.add.reduceat), whose segments
    do not see each other.  Zero-padding vecdot rows to one length instead
    would change their blocking once a row reaches 16 entries.

    Returns (value, gradient in x, rate in t, softmin weights, term values):
    value and rate per barrier (numpy scalars for K = 1), the gradient per
    state entry in the order of its index in x, the last two per slot.  A
    value below a floor (K = 1) ends the call after the softmin, with the
    gradient, rate and weights None: a value-only caller passes floor =
    inf, and an Armijo trial of the ascent its acceptance threshold.
    """
    (products, off, balls, perm, seg, owner, pick, eta_slots, eta, radius, grad_coef, grad_idx, grad_start,
     bound, state_owner, states, _, _, _) = st
    if len(products) == 1:
        mat, index, _, _, _ = products[0]
        X = x[index]
        y = np.vecdot(mat, X).ravel()
        sq = np.vecdot(X, X)
    else:
        y, sq = np.empty(len(off)), np.empty(len(seg))
        for mat, index, rows, shape, barriers in products:
            X = x[index]
            np.vecdot(mat, X, out=y[rows].reshape(shape))
            np.vecdot(X, X, out=sq[barriers])
    nx = np.sqrt(sq + _EPS2)
    vals = y[perm]
    vals[bound] = radius - nx + _EPS
    if balls is not None:
        yb = y[balls[0]]
        yb += off[balls[0]]
        vals[balls[3]] = balls[2] - np.add.reduceat(yb * yb, balls[1])
    vals -= gam
    m = np.minimum.reduceat(vals, seg)
    w = m[owner] - vals
    w *= eta_slots
    np.exp(w, out=w)
    z = np.add.reduceat(w, seg)
    value = m[pick] - np.log(z[pick]) / eta
    if floor is not None and value < floor:
        return value, None, None, None, vals
    w /= z[owner]
    rw = w
    if balls is not None:  # a ball row's weight is its term's times its product
        rw = w[balls[4]]
        rw[balls[0]] *= yb
    grad = np.add.reduceat(grad_coef * rw[grad_idx], grad_start)
    grad -= (w[bound] / nx)[state_owner] * x[states]
    return value, grad, np.add.reduceat(w * rate, seg)[pick], w, vals


def _barrier_state(result: tuple, st: _Stack) -> BarrierState:
    """A full kernel result on a single barrier's stack st as a BarrierState."""
    value, grad, dbdt, w, vals = result
    return BarrierState(value=float(value), grad_x=grad, dbdt=float(dbdt), weights=w, active=st.active,
                        term_values=vals)


def _gamma(times, funnel: tuple) -> tuple:
    """gamma_l less the term's offset and -d gamma_l/dt of the slots whose
    rows funnel holds: one row at a time t, or one C-contiguous row per time
    of a (T, 1) column of times.  An affine term's value is then its product
    c x minus the first, which saves the kernel adding d to the product.
    Elementwise, so a row of a column's result has the bits of the result at
    that row's time."""
    negdec, gdiff, gi, negrate, off = funnel
    e = negdec * times
    np.exp(e, out=e)
    gam = gdiff * e
    gam += gi
    gam -= off
    e *= negrate
    return gam, e


def _args(cb: CompositeBarrier, x, t: float, left: bool = False) -> tuple:
    """What a checked call at (x, t) hands the kernel: the stack of the
    activity interval at t, x as a (dim,) float array, and the stack's rows
    from the t-cache.  With left, the interval is the one just below t:
    terms with deadline >= t are still in, and a NaN t keeps no term."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cb.dim,):
        raise ValueError(f"state must have shape ({cb.dim},)")
    if left:
        thr = t - 1e-12 * max(1.0, abs(t))
        k = bisect.bisect_left(cb.schedule, thr) if thr == thr else len(cb.schedule)
    else:
        k = bisect.bisect_right(cb.schedule, t)
    if k == len(cb.schedule):
        raise ValueError(
            f"barrier undefined at t={t:g}: every task term has expired "
            f"(final deadline {cb.horizon:g})"
        )
    tc = cb._tcache
    if tc[0] != t or tc[1] != k:
        st = cb._interval(k)
        tc = (t, k, st, *_gamma(t, st.funnel))
        object.__setattr__(cb, "_tcache", tc)
    return tc[2], x, tc[3], tc[4]


def barrier_state(cb: CompositeBarrier, x: np.ndarray, t: float) -> BarrierState:
    args = _args(cb, x, t)
    return _barrier_state(_state(*args), args[0])


def left_limit_state(cb: CompositeBarrier, x: np.ndarray, s: float) -> BarrierState:
    """The barrier state in the limit t -> s from below (deadline-s terms kept)."""
    args = _args(cb, x, s, left=True)
    return _barrier_state(_state(*args), args[0])


def build_barrier(units, params, eta: float, bound_radius: float) -> CompositeBarrier:
    """Assemble the composite barrier from units and their funnel curves."""
    units = tuple(units)
    params = tuple(params)
    if len(units) != len(params):
        raise ValueError("one GammaParams required per unit")
    terms = tuple(BarrierTerm(unit=u, gamma=g) for u, g in zip(units, params))
    return CompositeBarrier(terms=terms, eta=float(eta), bound_radius=float(bound_radius))


def barrier_to_dict(cb: CompositeBarrier) -> dict:
    return {
        "eta": cb.eta,
        "bound_radius": cb.bound_radius,
        "dim": cb.dim,
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
    numbers (eta, bound radius, unit windows, funnel curves, predicate
    coefficients) are checked finite here: a NaN eta or bound radius would
    otherwise build a barrier whose every value is NaN.  The funnel values
    and the bound radius are also bounded by _SCALE_LIMIT / max(eta, 1), the
    funnel rates by _SCALE_LIMIT, and eta from below by the softmin gap (see
    _SCALE_LIMIT).
    Keys it does not read, such as the smooth_eps of older documents, are
    ignored."""
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
    cb = build_barrier(
        units, params, eta=finite_number(doc, "eta", ""), bound_radius=finite_number(doc, "bound_radius", ""))
    scaled = [("bound_radius", cb.bound_radius)] + [(f"term {i} gamma {key}", getattr(tm.gamma, key))
                                                    for i, tm in enumerate(cb.terms) for key in ("gamma0", "gamma_inf")]
    for name, value in scaled:
        if max(cb.eta, 1.0) * abs(value) > _SCALE_LIMIT:
            raise ValueError(f"barrier document: {name} must be at most {_SCALE_LIMIT:g} / max(eta, 1) in magnitude, "
                             f"got {value!r} at eta {cb.eta!r}")
    eta_min = math.log(len(cb.terms) + 1) / _value_scale(cb)
    if cb.eta < eta_min:
        raise ValueError(f"barrier document: eta must be at least ln(terms + 1) / max(1, largest funnel value or "
                         f"bound radius in magnitude) = {eta_min:g}, got {cb.eta!r}")
    for i, tm in enumerate(cb.terms):
        rate = tm.gamma.decay * (tm.gamma.gamma_inf - tm.gamma.gamma0)
        if rate > _SCALE_LIMIT:
            raise ValueError(f"barrier document: term {i} gamma decay * (gamma_inf - gamma0) must be at most "
                             f"{_SCALE_LIMIT:g}, got {rate!r}")
    return cb
