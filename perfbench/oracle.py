"""Brute-force robustness evaluator that checks the monitor workload.

It re-implements the sampled-window robust semantics with plain loops: linear
scans for windows and nearest samples, no searchsorted, no per-formula cache,
no vectorised window minima.  Predicate series come from the predicates' own
bulk evaluation, so both sides select from the same floats; min and max
selection is exact, so a correct monitor agrees with this evaluator bit for
bit.
"""

from __future__ import annotations

import math

from stlcbf.formula import Always, Conj, Eventually, Until, is_state_formula, state_literals


def _tol(at: float) -> float:
    return 1e-9 * max(1.0, abs(at))


def _window(times, lo: float, hi: float) -> list:
    """Indices of the samples in [lo, hi]; the bracketing pair if none."""
    if lo < times[0] - _tol(lo) or hi > times[-1] + _tol(hi):
        raise ValueError(f"window [{lo}, {hi}] beyond the signal span")
    idx = [k for k, tt in enumerate(times) if lo - _tol(lo) <= tt <= hi + _tol(hi)]
    if not idx:
        before = max(k for k, tt in enumerate(times) if tt < lo)
        idx = [before, before + 1]
    return idx


def _nearest(times, t: float) -> int:
    best, best_d = 0, abs(times[0] - t)
    for k in range(1, len(times)):
        d = abs(times[k] - t)
        if d < best_d:
            best, best_d = k, d
    return best


def _series(f, states) -> list:
    cols = [lit.pred.values(states).tolist() for lit in state_literals(f)]
    return [min(col[k] for col in cols) for k in range(len(cols[0]))]


def brute_robustness(f, times, states, t: float = 0.0) -> float:
    """Robustness of formula f at time t over samples (times, states)."""
    times = [float(v) for v in times]
    if is_state_formula(f):
        return float(_series(f, states)[_nearest(times, t)])
    if isinstance(f, Conj):
        return min(brute_robustness(c, times, states, t) for c in f.children)
    if isinstance(f, (Always, Eventually)):
        ser = _series(f.body, states)
        vals = [ser[k] for k in _window(times, t + f.a, t + f.b)]
        return float(min(vals) if isinstance(f, Always) else max(vals))
    if isinstance(f, Until):
        lhs = _series(f.lhs, states)
        rhs = _series(f.rhs, states)
        ks = min(k for k, tt in enumerate(times) if tt >= t - _tol(t))
        best = -math.inf
        # running minimum of lhs over [ks, m] as m walks the window in order
        run, run_end = math.inf, ks - 1
        for m in _window(times, t + f.a, t + f.b):
            if m < ks:
                low = lhs[m]
            else:
                while run_end < m:
                    run_end += 1
                    run = min(run, lhs[run_end])
                low = run
            best = max(best, min(rhs[m], low))
        return float(best)
    raise TypeError(f"cannot evaluate {type(f).__name__}")
