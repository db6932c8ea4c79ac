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

Window rule on sampled signals: sup/inf over a window become max/min over the
sample points falling in the closed window (with a 1e-9 relative tolerance on
the endpoints).  If no sample falls inside, the two bracketing samples are
used instead.  Windows that extend beyond the signal span raise ValueError.
State formulas evaluated at an off-grid t use the nearest sample (ties go to
the earlier one).
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


def _window_indices(times: np.ndarray, lo: float, hi: float) -> tuple[int, int]:
    """Inclusive index range of samples in [lo, hi], snapping to the
    bracketing pair when the window contains no sample."""
    if lo < times[0] - _tol(lo) or hi > times[-1] + _tol(hi):
        raise ValueError(
            f"window [{lo:g}, {hi:g}] extends beyond the signal span "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    i0 = int(np.searchsorted(times, lo - _tol(lo), side="left"))
    i1 = int(np.searchsorted(times, hi + _tol(hi), side="right")) - 1
    if i0 > i1:
        i0 = max(i0 - 1, 0)
        i1 = min(i1 + 1, len(times) - 1)
    return i0, i1


def _nearest_index(times: np.ndarray, t: float) -> int:
    i = int(np.searchsorted(times, t))
    if i <= 0:
        return 0
    if i >= len(times):
        return len(times) - 1
    return i if (times[i] - t) < (t - times[i - 1]) else i - 1


def _state_series(f, signal: SampledSignal, cache: dict) -> np.ndarray:
    """Pointwise robustness series of a psi-class formula."""
    key = id(f)
    if key not in cache:
        series = [lit.pred.values(signal.states) for lit in state_literals(f)]
        cache[key] = series[0] if len(series) == 1 else np.min(series, axis=0)
    return cache[key]


def _eval(f: Formula, signal: SampledSignal, t: float, cache: dict) -> float:
    times = signal.times
    if is_state_formula(f):
        return float(_state_series(f, signal, cache)[_nearest_index(times, t)])
    if isinstance(f, Conj):
        return min(_eval(c, signal, t, cache) for c in f.children)
    if isinstance(f, (Always, Eventually)):
        i0, i1 = _window_indices(times, t + f.a, t + f.b)
        series = _state_series(f.body, signal, cache)[i0 : i1 + 1]
        return float(np.min(series) if isinstance(f, Always) else np.max(series))
    if isinstance(f, Until):
        i0, i1 = _window_indices(times, t + f.a, t + f.b)
        lhs = _state_series(f.lhs, signal, cache)
        rhs = _state_series(f.rhs, signal, cache)
        ks = int(np.searchsorted(times, t - _tol(t), side="left"))
        # low[m - i0] = min of lhs over [min(ks, m), m]: lhs[m] itself before
        # ks, then the running minimum from ks on
        low = lhs[i0 : i1 + 1].copy()
        j = max(i0, ks)
        low[j - i0 :] = np.minimum.accumulate(lhs[ks : i1 + 1])[j - ks :]
        return float(np.max(np.minimum(rhs[i0 : i1 + 1], low)))
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def robustness(f: Formula, signal: SampledSignal, t: float = 0.0) -> float:
    """Robustness of formula f over the signal, evaluated at time t."""
    t = float(t)
    # every comparison with NaN is False, and _tol(inf) is inf
    if not math.isfinite(t) or t < signal.times[0] - _tol(t) or t > signal.times[-1] + _tol(t):
        raise ValueError(f"evaluation time {t:g} outside the signal span")
    return _eval(f, signal, t, {})
