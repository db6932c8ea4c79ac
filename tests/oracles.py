"""Independent reference implementations used by the test suite.

The robustness oracle below re-implements the documented sampled-window
semantics with plain nested loops: no caching, no vectorized window searches,
no incremental prefix minima.  Predicate values are taken from the predicate
objects' own bulk evaluation so that both sides compare the same float series
(min/max selection is exact, so structural agreement implies bitwise
agreement); the predicate arithmetic itself is cross-checked separately in
test_predicates.

The barrier oracle evaluates a composite barrier term by term with the
predicates' own value and gradient methods, gamma_eval and gamma_rate, and
the softmin formula written out in Python floats; it shares no index
bookkeeping, stacking or caching with the package's kernel.

The run oracle, naive_run, is the simulator as it was before the stacked team
step: per-agent dicts of states, one team_control pass per agent over its
clique, per-agent coupling, repulsion and noise loops, and np.eye input maps.
It keeps the float operations of the law in their original order, so the
package's run must reproduce its logs bit for bit.

The CSV oracle, naive_write_log_csv, is the trajectory CSV writer as it was
before whole-row writes; the package's writer must give the same bytes.

The ascent oracle, naive_ascend, is the switch-certifying ascent as it was
before the barrier kernel was split into a value half and a finishing half:
it evaluates the full left_limit_state at every Armijo trial point and takes
norms with np.linalg.norm.  The package's ascent must return the same
witness and state bit for bit.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from stlcbf.barrier import GammaParams, barrier_state, build_barrier, gamma_eval, left_limit_state
from stlcbf.controller import QpInfeasibleError
from stlcbf.formula import (
    Atom, Conj, Always, Eventually, OperatorUnit, Until, is_state_formula, state_literals,
)
from stlcbf.predicates import AffinePredicate, BallPredicate, StateLayout
from stlcbf.sim import TrajectoryLog


def _tol(at: float) -> float:
    return 1e-9 * max(1.0, abs(at))


def _window(times, lo, hi):
    if lo < times[0] - _tol(lo) or hi > times[-1] + _tol(hi):
        raise ValueError("window beyond span")
    idx = [i for i, tt in enumerate(times) if lo - _tol(lo) <= tt <= hi + _tol(hi)]
    if not idx:
        before = max(i for i, tt in enumerate(times) if tt < lo)
        idx = [before, before + 1]
    return idx


def _nearest(times, t):
    best, best_d = 0, abs(times[0] - t)
    for i in range(1, len(times)):
        d = abs(times[i] - t)
        if d < best_d:
            best, best_d = i, d
    return best


def _series(f, states):
    cols = [lit.pred.values(states) for lit in state_literals(f)]
    return [min(col[k] for col in cols) for k in range(states.shape[0])]


def naive_robustness(f, times, states, t=0.0) -> float:
    """Brute-force recursive evaluation of the robust semantics."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if is_state_formula(f):
        return float(_series(f, states)[_nearest(times, t)])
    if isinstance(f, Conj):
        return min(naive_robustness(c, times, states, t) for c in f.children)
    if isinstance(f, (Always, Eventually)):
        ser = _series(f.body, states)
        vals = [ser[i] for i in _window(times, t + f.a, t + f.b)]
        return float(min(vals) if isinstance(f, Always) else max(vals))
    if isinstance(f, Until):
        lhs = _series(f.lhs, states)
        rhs = _series(f.rhs, states)
        ks = min(i for i, tt in enumerate(times) if tt >= t - _tol(t))
        best = -math.inf
        for m in _window(times, t + f.a, t + f.b):
            run = min(lhs[s] for s in range(min(ks, m), m + 1))
            best = max(best, min(rhs[m], run))
        return float(best)
    raise TypeError(type(f).__name__)


def random_state_formula(rng, layout, max_lits=3, allow_ball=True):
    """Random psi-class conjunction of predicate literals over the layout."""
    n = layout.dim
    lits = []
    for _ in range(int(rng.integers(1, max_lits + 1))):
        if allow_ball and rng.uniform() < 0.25:
            k = int(rng.integers(1, 3))
            A = rng.normal(size=(k, n))
            b = rng.normal(size=k)
            e = float(rng.uniform(0.1, 4.0))
            lits.append(Atom(BallPredicate(A, b, e)))
        else:
            c = rng.normal(size=n)
            d = float(rng.normal())
            pred = AffinePredicate(c, d)
            if rng.uniform() < 0.3:
                pred = pred.flipped()
            lits.append(Atom(pred))
    return lits[0] if len(lits) == 1 else Conj(tuple(lits))


def random_temporal_formula(rng, layout, span):
    """Random single-operator formula with its window inside [0, span]."""
    a = float(rng.uniform(0.0, 0.6 * span))
    b = float(rng.uniform(a, span))
    kind = rng.integers(0, 3)
    if kind == 0:
        return Always(a, b, random_state_formula(rng, layout))
    if kind == 1:
        return Eventually(a, b, random_state_formula(rng, layout))
    return Until(a, b, random_state_formula(rng, layout), random_state_formula(rng, layout))


def random_formula(rng, layout, span):
    """Fragment-conformant random formula of depth <= 2."""
    k = int(rng.integers(1, 4))
    if k == 1:
        return random_temporal_formula(rng, layout, span)
    return Conj(tuple(random_temporal_formula(rng, layout, span) for _ in range(k)))


def central_fd(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.shape[0]):
        dp = x.copy()
        dm = x.copy()
        dp[j] += eps
        dm[j] -= eps
        g[j] = (fn(dp) - fn(dm)) / (2.0 * eps)
    return g


def gamma_rate(g, t: float) -> float:
    """Time derivative of the funnel curve gamma_eval(g, t); nonnegative
    since gamma0 < gamma_inf."""
    return g.decay * (g.gamma_inf - g.gamma0) * math.exp(-g.decay * t)


def naive_barrier_state(cb, x, t, left_limit=False) -> dict:
    """Reference evaluation of a composite barrier at (x, t).

    Active terms are those with deadline > t, or for the left limit at a
    switch t those with deadline >= t (up to a relative 1e-12).  Returns the
    fields of a BarrierState plus "all_terms", b_l(x, t) over every task term.
    """
    x = [float(v) for v in x]
    if left_limit:
        keep = [tm.deadline >= t - 1e-12 * max(1.0, abs(t)) for tm in cb.terms]
    else:
        keep = [tm.deadline > t for tm in cb.terms]
    all_terms = [float(tm.unit.predicate.value(np.array(x))) - gamma_eval(tm.gamma, t)
                 for tm in cb.terms]
    active = [i for i, k in enumerate(keep) if k]
    if not active:
        raise ValueError("every task term has expired")
    nx = math.sqrt(sum(v * v for v in x) + cb.smooth_eps**2)
    vals = [all_terms[i] for i in active] + [cb.bound_radius - nx + cb.smooth_eps]
    m = min(vals)
    ex = [math.exp(-cb.eta * (v - m)) for v in vals]
    z = sum(ex)
    w = [e / z for e in ex]
    grad = [-w[-1] * v / nx for v in x]
    for wl, i in zip(w, active):
        g = cb.terms[i].unit.predicate.gradient(np.array(x))
        grad = [a + wl * float(b) for a, b in zip(grad, g)]
    dbdt = -sum(wl * gamma_rate(cb.terms[i].gamma, t) for wl, i in zip(w, active))
    return {
        "value": m - math.log(z) / cb.eta,
        "grad_x": np.array(grad),
        "dbdt": dbdt,
        "weights": np.array(w),
        "active": np.array(active, dtype=int),
        "term_values": np.array(vals),
        "all_terms": np.array(all_terms),
    }


def random_barrier(rng, dim=3, n_aff=4, n_ball=1, eta=12.0, radius=8.0):
    """A seeded composite barrier: n_aff affine always/eventually units with
    random windows, then n_ball always-ball units, and random funnels."""
    units, params = [], []
    for _ in range(n_aff):
        pred = AffinePredicate(rng.normal(size=dim), float(rng.normal()))
        kind = "always" if rng.uniform() < 0.5 else "eventually"
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.5, a + 4.0))
        units.append(OperatorUnit(kind, pred, a, b))
    for _ in range(n_ball):
        pred = BallPredicate(rng.normal(size=(2, dim)), rng.normal(size=2), float(rng.uniform(1, 5)))
        units.append(OperatorUnit("always", pred, 0.0, float(rng.uniform(1.0, 5.0))))
    for u in units:
        g0 = float(rng.uniform(-3.0, 0.0))
        gi = g0 + float(rng.uniform(0.5, 2.0))
        dec = float(rng.uniform(0.0, 1.0))
        params.append(GammaParams(g0, gi, dec, u.t_star))
    return build_barrier(units, params, eta=eta, bound_radius=radius)


# ---------------------------------------------------------------------------
# Ascent oracle: one full left_limit_state per Armijo trial


def _project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    n = float(np.linalg.norm(x))
    return x if n <= radius else x * (radius / n)


def naive_ascend(cb, s: float, x_start: np.ndarray, max_iters: int, tol: float):
    """Maximize the concave left-limit barrier value at switch s over ||x|| <= D.

    Projected gradient ascent with a Barzilai-Borwein step and Armijo
    backtracking.  Returns (x, state, projected gradient norm, converged).
    """
    radius = cb.bound_radius
    x = _project_ball(np.asarray(x_start, dtype=float).copy(), radius)
    st = left_limit_state(cb, x, s)
    alpha = 1.0
    prev_x = None
    prev_g = None
    stall = 0
    gnorm = float(np.linalg.norm(st.grad_x))
    for _ in range(max_iters):
        g = st.grad_x
        gnorm = float(np.linalg.norm(g))
        # projected gradient: remove outward component on the ball boundary
        if float(np.linalg.norm(x)) >= radius - 1e-12:
            xhat = x / max(float(np.linalg.norm(x)), 1e-12)
            out = float(np.dot(g, xhat))
            if out > 0.0:
                gnorm = float(np.linalg.norm(g - out * xhat))
        if gnorm < tol:
            return x, st, gnorm, True
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
            st_new = left_limit_state(cb, x_new, s)
            if st_new.value >= st.value + 1e-4 * float(np.dot(g, x_new - x)):
                accepted = True
                break
            a *= 0.5
        if not accepted:
            return x, st, gnorm, gnorm < tol
        if st_new.value - st.value < 1e-15 * max(1.0, abs(st.value)):
            stall += 1
            if stall >= 25:
                return x_new, st_new, gnorm, gnorm < tol
        else:
            stall = 0
        x, st = x_new, st_new
    gnorm = float(np.linalg.norm(st.grad_x))
    return x, st, gnorm, gnorm < tol


# ---------------------------------------------------------------------------
# Simulator oracle: the per-agent team step

_ZERO_TOL = 1e-12


def _naive_f(model, x, t):
    if model.drift is None:
        return np.zeros(model.state_dim)
    return np.asarray(model.drift(x, t), dtype=float)


def _naive_g(model):
    if model.input_map is None:
        return np.eye(model.state_dim)
    return model.input_map


def _clique_layout(clique, agents: dict) -> StateLayout:
    """The clique's stacked state layout, from its members' agent models."""
    return StateLayout(tuple(clique.members), tuple(agents[i].state_dim for i in clique.members))


def _n_hat(clique, agents: dict) -> float:
    """sqrt(clique dimension * largest agent dimension of the team)."""
    return math.sqrt(clique.barrier.dim * max(m.state_dim for m in agents.values()))


def _share_from_state(clique, agents, state, i: int) -> float:
    lay = _clique_layout(clique, agents)
    norms = [float(np.linalg.norm(state.grad_x[lay.block(j)])) for j in clique.members]
    den = sum(norms)
    if den <= _ZERO_TOL:
        return 1.0
    return norms[clique.members.index(i)] / den


def _constraint_from_state(clique, agents, known, state, x_bar, t, i) -> tuple:
    model = agents[i]
    blk = _clique_layout(clique, agents).block(i)
    grad_i = state.grad_x[blk]
    x_i = x_bar[blk]
    share = _share_from_state(clique, agents, state, i)
    g = _naive_g(model)
    a = g.T @ grad_i
    rhs = (
        float(np.linalg.norm(grad_i)) * _n_hat(clique, agents) * clique.coupling_bound
        - share * (state.dbdt + clique.kappa * state.value)
        - float(np.dot(grad_i, _naive_f(model, x_i, t)))
    )
    if i in known:
        fu = np.asarray(known[i](x_bar, t), dtype=float)
        rhs -= float(np.dot(grad_i, g @ fu))
    return a, rhs


def _solve_agent_qp(a, rhs):
    a = np.asarray(a, dtype=float)
    if rhs <= 0.0:
        return np.zeros_like(a)
    nn = float(np.dot(a, a))
    if nn <= (_ZERO_TOL * rhs) ** 2:
        raise QpInfeasibleError(f"constraint direction vanished with rhs = {rhs:g} > 0")
    return (rhs / nn) * a


def naive_team_control(cliques, agents: dict, known: dict, states: dict, t: float) -> dict:
    """The per-agent law; known maps an agent to the callable (clique stack, t)
    -> f_u that its constraint models."""
    ids = set()
    for cl in cliques:
        for i in cl.members:
            if i in ids:
                raise ValueError(f"agent {i} appears in two cliques")
            ids.add(i)
    inputs, bvals, bstates, residuals, shares = {}, {}, {}, {}, {}
    for cl in cliques:
        x_bar = np.concatenate([np.asarray(states[i], dtype=float) for i in cl.members])
        if t >= cl.barrier.horizon - 1e-12:
            for i in cl.members:
                inputs[i] = np.zeros(agents[i].input_dim)
                residuals[i] = 0.0
                shares[i] = 0.0
            bvals[cl.name] = math.nan
            continue
        state = barrier_state(cl.barrier, x_bar, t)
        bvals[cl.name] = state.value
        bstates[cl.name] = state
        for i in cl.members:
            a, rhs = _constraint_from_state(cl, agents, known, state, x_bar, t, i)
            try:
                u = _solve_agent_qp(a, rhs)
            except QpInfeasibleError as err:
                raise QpInfeasibleError(
                    f"agent {i} infeasible at t = {t:g}: {err} "
                    f"(barrier value {state.value:g})"
                ) from None
            inputs[i] = u
            residuals[i] = float(np.dot(a, u)) - rhs
            shares[i] = _share_from_state(cl, agents, state, i)
    for i in agents:
        if i not in inputs:
            inputs[i] = np.zeros(agents[i].input_dim)
            residuals[i] = 0.0
            shares[i] = 0.0
    return {"inputs": inputs, "barrier_values": bvals, "barrier_states": bstates,
            "residuals": residuals, "shares": shares}


def _sat1(v):
    return np.clip(np.asarray(v, dtype=float), -1.0, 1.0)


def naive_coupling_forces(spec, states: dict, t: float) -> dict:
    if spec.kind == "none":
        return {}
    if spec.kind == "scripted":
        return {i: np.asarray(v, dtype=float) for i, v in spec.scripted(states, t).items()}
    out = {}
    for i, pulls in spec.attractions.items():
        c = np.zeros_like(np.asarray(states[i], dtype=float))
        for gain, target in pulls:
            c = c + gain * _sat1(np.asarray(states[target], dtype=float) - states[i])
        out[i] = c
    return out


def naive_secondary_controls(spec, states: dict, t: float) -> dict:
    if spec.kind == "none":
        return {}
    if spec.kind == "scripted":
        return {i: np.asarray(v, dtype=float) for i, v in spec.scripted(states, t).items()}
    out = {}
    for i in spec.group:
        fu = np.zeros_like(np.asarray(states[i], dtype=float))
        for j in spec.group:
            if j == i:
                continue
            diff = np.asarray(states[i], dtype=float) - states[j]
            fu = fu + diff / (float(np.linalg.norm(diff)) + spec.softening)
        out[i] = spec.gain * fu
    return out


def naive_known_secondary_fn(layout, member: int, group, gain, softening):
    """The repulsion a clique member declares known, on the clique stack."""
    blocks = {j: layout.block(j) for j in group}

    def fn(x_bar, t):
        xi = x_bar[blocks[member]]
        fu = np.zeros_like(xi)
        for j in group:
            if j == member:
                continue
            diff = xi - x_bar[blocks[j]]
            fu = fu + diff / (float(np.linalg.norm(diff)) + softening)
        return gain * fu

    return fn


def _naive_noise(spec, agents: dict, clique_of: dict, tc: dict, rng) -> dict:
    out = {}
    for i, model in agents.items():
        n = model.state_dim
        if spec.bound == 0.0 or spec.distribution == "none":
            out[i] = np.zeros(n)
        elif spec.distribution == "uniform_ball":
            d = rng.normal(size=n)
            nd = float(np.linalg.norm(d))
            d = d / nd if nd > 0 else np.zeros(n)
            out[i] = spec.bound * float(rng.uniform()) ** (1.0 / n) * d
        else:  # adversarial: push straight against the barrier gradient
            cl = clique_of[i]
            st = tc["barrier_states"].get(cl.name)
            w = np.zeros(n)
            if st is not None:
                g_i = st.grad_x[_clique_layout(cl, agents).block(i)]
                gn = float(np.linalg.norm(g_i))
                if gn > 1e-12:
                    w = -spec.bound * g_i / gn
            out[i] = w
    return out


def naive_run(scenario) -> TrajectoryLog:
    """The per-agent simulator loop: the reference for the stacked run."""
    sc = scenario
    agent_ids = sorted(sc.agents)
    agents = {i: sc.agents[i] for i in agent_ids}
    horizon = sc.horizon if sc.horizon is not None else max(cl.barrier.horizon for cl in sc.cliques)
    n_steps = int(round(horizon / sc.dt))
    if n_steps < 1 or abs(n_steps * sc.dt - horizon) > 1e-9:
        raise ValueError("horizon must be a positive integer multiple of dt")
    times = np.linspace(0.0, horizon, n_steps + 1)
    clique_of = {i: cl for cl in sc.cliques for i in cl.members}
    sec = sc.secondary
    known = {}
    if sec.known:
        for i in sec.group:
            known[i] = naive_known_secondary_fn(_clique_layout(clique_of[i], agents), i, sec.group, sec.gain,
                                                sec.softening)

    x = {i: np.asarray(sc.x0[i], dtype=float).copy() for i in agent_ids}
    states = {i: np.empty((n_steps + 1, agents[i].state_dim)) for i in agent_ids}
    inputs = {i: np.empty((n_steps, agents[i].input_dim)) for i in agent_ids}
    barriers = {cl.name: np.empty(n_steps) for cl in sc.cliques}
    residuals = {i: np.empty(n_steps) for i in agent_ids}
    shares = {i: np.empty(n_steps) for i in agent_ids}
    dist_norms = {i: np.empty(n_steps) for i in agent_ids}
    for i in agent_ids:
        states[i][0] = x[i]
    events = []
    rng = np.random.default_rng(sc.noise.seed)
    switch_times = sorted({s for cl in sc.cliques for s in cl.barrier.schedule})
    next_switch_idx = 0
    completed = True
    steps_done = 0

    for k in range(n_steps):
        t = float(times[k])
        while next_switch_idx < len(switch_times) and switch_times[next_switch_idx] <= t + 1e-12:
            events.append({"t": t, "kind": "switch", "detail": f"activity switch at {switch_times[next_switch_idx]:g}"})
            next_switch_idx += 1
        try:
            tc = naive_team_control(sc.cliques, agents, known, x, t)
        except QpInfeasibleError as err:
            events.append({"t": t, "kind": "qp_infeasible", "detail": str(err)})
            completed = False
            break
        noise = _naive_noise(sc.noise, agents, clique_of, tc, rng)
        coup = naive_coupling_forces(sc.coupling, x, t)
        sec = naive_secondary_controls(sc.secondary, x, t)
        abort = False
        new_x = {}
        for i in agent_ids:
            model = agents[i]
            u_extra = sec.get(i)
            u = tc["inputs"][i] + (u_extra if u_extra is not None else 0.0)
            c = coup.get(i, np.zeros(model.state_dim))
            w = noise[i]
            g = _naive_g(model)
            dist = c + w
            if u_extra is not None and i not in known:
                dist = dist + g @ u_extra
            dn = float(np.linalg.norm(dist))
            dist_norms[i][k] = dn
            bound = clique_of[i].coupling_bound
            if dn > bound + 1e-9:
                events.append({
                    "t": t, "kind": "disturbance_bound",
                    "detail": f"agent {i} disturbance {dn:.4f} exceeds declared bound {bound:g}",
                })
                abort = True
            inputs[i][k] = u
            residuals[i][k] = tc["residuals"][i]
            shares[i][k] = tc["shares"][i]
            new_x[i] = x[i] + sc.dt * (_naive_f(model, x[i], t) + g @ u + c + w)
        for cl in sc.cliques:
            barriers[cl.name][k] = tc["barrier_values"][cl.name]
        if abort:
            completed = False
            steps_done = k + 1
            for i in agent_ids:
                states[i][k + 1] = new_x[i]
            break
        x = new_x
        for i in agent_ids:
            states[i][k + 1] = x[i]
        steps_done = k + 1

    if completed:
        steps_done = n_steps
    t_len = steps_done
    dims = [agents[i].state_dim for i in agent_ids]
    input_dims = [agents[i].input_dim for i in agent_ids]
    return TrajectoryLog(
        times=times[: t_len + 1],
        x=np.concatenate([states[i][: t_len + 1] for i in agent_ids], axis=1),
        u=np.concatenate([inputs[i][:t_len] for i in agent_ids], axis=1),
        b=np.stack([b[:t_len] for b in barriers.values()], axis=1),
        res=np.stack([residuals[i][:t_len] for i in agent_ids], axis=1),
        share=np.stack([shares[i][:t_len] for i in agent_ids], axis=1),
        dist=np.stack([dist_norms[i][:t_len] for i in agent_ids], axis=1),
        layout=StateLayout(tuple(agent_ids), tuple(dims)),
        input_layout=StateLayout(tuple(agent_ids), tuple(input_dims)),
        clique_names=tuple(barriers),
        events=events,
        completed=completed,
        dt=sc.dt,
    )


def naive_write_log_csv(log: TrajectoryLog, path) -> None:
    """The trajectory CSV writer as it was before whole-row writes: one
    csv.writer row per step built cell by cell from the per-agent views.
    The package's writer must produce the same bytes."""
    ids = sorted(log.states)
    cols = ["t"]
    for i in ids:
        cols += [f"x{i}_{c}" for c in range(log.states[i].shape[1])]
    for i in ids:
        cols += [f"u{i}_{c}" for c in range(log.inputs[i].shape[1])]
    cols += [f"b_{name}" for name in sorted(log.barriers)]
    for i in ids:
        cols += [f"res_{i}", f"share_{i}", f"dist_{i}"]
    t_steps = log.times.shape[0] - 1
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(cols)
        for k in range(t_steps + 1):
            last = k == t_steps
            row = [repr(float(log.times[k]))]
            for i in ids:
                row += [repr(float(v)) for v in log.states[i][k]]
            for i in ids:
                if last:
                    row += [""] * log.inputs[i].shape[1]
                else:
                    row += [repr(float(v)) for v in log.inputs[i][k]]
            for name in sorted(log.barriers):
                row.append("" if last else repr(float(log.barriers[name][k])))
            for i in ids:
                if last:
                    row += [""] * 3
                else:
                    row += [
                        repr(float(log.residuals[i][k])),
                        repr(float(log.shares[i][k])),
                        repr(float(log.disturbance_norms[i][k])),
                    ]
            wr.writerow(row)
