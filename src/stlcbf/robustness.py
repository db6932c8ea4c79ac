"""Robust semantics of task formulas over sampled signals.

The quantitative semantics follow the usual recursive definitions:

    rho(mu, t)          = h(x(t))
    rho(psi' & psi'', t)= min(rho(psi', t), rho(psi'', t))
    rho(G[a,b] psi, t)  = min over tt in [t+a, t+b] of rho(psi, tt)
    rho(F[a,b] psi, t)  = max over tt in [t+a, t+b] of rho(psi, tt)
    rho(p U[a,b] q, t)  = max over tt in [t+a, t+b] of
                            min(rho(q, tt), min over s in [t, tt] of rho(p, s))

Negation lives in the predicate leaves (flipped literals), so no Not rule is
needed.  A formula is satisfied at t when rho > 0.

Window rule on sampled signals: a logged run is an explicit-Euler,
zero-order-hold polygon, and every admitted predicate (and conjunction) is
concave, so on each segment a state formula is at least its smaller end
value.  Min-type sides (G, an until's inner minimum from t, a state formula
at t as the window [t, t]) round outward to the bracketing samples; max-type
sides (F, an until's outer maximum) round inward, and one holding no sample
takes the min over its bracketing pair.  Window ends within 1e-9 (relative)
of a sample count as on it.  The sampled rho is then a lower bound on the
polygon's.  Windows beyond the signal span raise ValueError.

Cost: each temporal operator evaluates its body only on the samples its
window reads (an until's lhs from the inner minimum's start, its rhs on the
witnesses), and each literal reads only its support's columns (see
predicates), so a literal costs window samples times support entries.  A
sample's predicate value has the same bits in every slice, so the result
equals an evaluation over the whole signal exactly.  A signal whose state
width differs from a predicate's dimension is refused by the predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formula import Atom, Conj, Always, Eventually, Until, Formula, state_literals, is_state_formula

__all__ = ["SampledSignal", "robustness"]


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Finite trajectory: strictly increasing finite times from 0 and stacked
    finite states."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or times.shape[0] < 1:
            raise ValueError("times must be a non-empty 1-D array")
        if not np.isfinite(times).all():  # a nan time would pass the increase test below
            raise ValueError("times must be finite")
        if not np.isfinite(states).all():
            raise ValueError("states must be finite")
        if times[0] != 0.0:
            raise ValueError("signals start at time 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if states.shape[0] != times.shape[0]:
            raise ValueError("times and states lengths differ")

    @property
    def span(self) -> float:
        return float(self.times[-1])


def _tol(at: float) -> float:
    return 1e-9 * max(1.0, abs(at))


def _window(times: np.ndarray, lo: float, hi: float, outward: bool) -> tuple[int, int]:
    """Index range [i0, i1] of the samples a window [lo, hi] is read on.
    Outward: from the last sample at or before lo to the first at or after
    hi.  Inward: the samples in the window, an empty range i0 = i1 + 1 if
    there are none, i1 and i0 then being the bracketing pair."""
    if lo < times[0] - _tol(lo) or hi > times[-1] + _tol(hi):
        raise ValueError(
            f"window [{lo:g}, {hi:g}] extends beyond the signal span "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    if not outward:
        return (int(np.searchsorted(times, lo - _tol(lo), side="left")),
                int(np.searchsorted(times, hi + _tol(hi), side="right")) - 1)
    i0 = int(np.searchsorted(times, lo + _tol(lo), side="right")) - 1
    i1 = int(np.searchsorted(times, hi - _tol(hi), side="left"))
    return min(i0, i1), max(i0, i1)  # samples closer than the tolerance may cross


def _sup(values: np.ndarray, i0: int, i1: int) -> float:
    """The max-type side over the inward range [i0, i1]: its largest value,
    or the smaller of the bracketing pair i1, i0 if the range is empty."""
    return float(np.max(values[i0 : i1 + 1]) if i0 <= i1 else np.min(values[i1 : i0 + 1]))


def _series(f, states: np.ndarray) -> np.ndarray:
    """Pointwise robustness of a psi-class formula over the rows of states:
    its literals' values, folded by a running minimum."""
    first, *rest = state_literals(f)
    out = first.pred.values(states)
    for lit in rest:
        np.minimum(out, lit.pred.values(states), out=out)
    return out


def _eval(f: Formula, signal: SampledSignal, t: float) -> float:
    times, states = signal.times, signal.states
    if is_state_formula(f):  # read on the window [t, t]
        i0, i1 = _window(times, t, t, outward=True)
        return float(np.min(_series(f, states[i0 : i1 + 1])))
    if isinstance(f, Conj):
        return min(_eval(c, signal, t) for c in f.children)
    if isinstance(f, Always):
        i0, i1 = _window(times, t + f.a, t + f.b, outward=True)
        return float(np.min(_series(f.body, states[i0 : i1 + 1])))
    if not isinstance(f, (Eventually, Until)):
        raise TypeError(f"cannot evaluate {type(f).__name__}")
    i0, i1 = _window(times, t + f.a, t + f.b, outward=False)
    j0, j1 = min(i0, i1), max(i0, i1)  # the witnesses: the window's samples or its bracketing pair
    if isinstance(f, Eventually):
        return _sup(_series(f.body, states[j0 : j1 + 1]), i0 - j0, i1 - j0)
    # an until: the inner minimum of witness m runs over lhs from the sample
    # at or before t (or j0, if samples closer than the tolerance put it first)
    ks = min(_window(times, t, t, outward=True)[0], j0)
    low = np.minimum.accumulate(_series(f.lhs, states[ks : j1 + 1]))[j0 - ks :]
    return _sup(np.minimum(_series(f.rhs, states[j0 : j1 + 1]), low), i0 - j0, i1 - j0)


def robustness(f: Formula, signal: SampledSignal, t: float = 0.0) -> float:
    """Robustness of formula f over the signal, evaluated at time t."""
    t = float(t)
    # every comparison with NaN is False, and _tol(inf) is inf
    if not math.isfinite(t) or t < signal.times[0] - _tol(t) or t > signal.times[-1] + _tol(t):
        raise ValueError(f"evaluation time {t:g} outside the signal span")
    return _eval(f, signal, t)
