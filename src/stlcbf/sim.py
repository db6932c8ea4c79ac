"""Coupled multi-agent simulation under the decentralized barrier law.

Explicit Euler with zero-order-hold inputs and noise: the closed loop is
discontinuous at activity switches and across softmin weight changes, so a
higher-order smooth integrator would buy nothing; the fixed step keeps the
sample-and-hold control semantics honest.  Everything needed for independent
verification is logged per step against the pre-step state.

A run goes from 0 to the latest clique deadline in steps of the scenario's
dt (a config's sim dt, which the config hash covers).  _grid_steps holds
the rule that the deadline be k dt, 1 <= k < 2**53; construction applies
it before any search and the log reader to a log's dt.

The loop works on the stacked team state of controller.Team: coupling,
repulsion, noise and the Euler update act on whole vectors (a repulsion
group whose blocks are adjacent reads its states as a view and writes into
one vector the run owns), the team pass of the live cliques and its funnel
rows are tabulated over the time grid ahead of the steps that use them
(Team.funnels), so each step makes one barrier kernel call for the whole
team, and each step's results go straight into the row of one preallocated
table laid out as the trajectory CSV: the Euler update writes the next
state into its row, the log is that table, the CSV writer formats its rows
as they are and the readers fill one back from the file's bytes a block of
lines at a time, splitting plain blocks at their commas (_csv_blocks).  Its
fields, per agent or stacked, are column views.

A step computes only what the next state needs: it writes what only the
log reads (its QP's a, rhs and u, and its disturbance) into rows of chunk
buffers, and one pass per chunk fills the residual and disturbance-norm
columns and finds the first step over its bound, where the run ends as if
it had stopped there.  The later steps are discarded, so scripted
callbacks must be pure functions of (states, t).  The activity-switch
events are read off the schedule once the steps are settled.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .barrier import _as_slice
from .controller import Clique, QpInfeasibleError, Team, team_control
from .predicates import StateLayout, is_finite_number
from .robustness import SampledSignal, robustness

__all__ = [
    "CouplingSpec",
    "SecondaryControlSpec",
    "NoiseSpec",
    "Scenario",
    "pairwise_repulsion",
    "run",
    "verify",
    "write_log_csv",
    "read_signal_csv",
    "log_to_dict",
    "log_from_dict",
]


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Uncontrolled coupling c_i(x, t) entering every agent's dynamics.

    saturating_attraction: c_i = sum of gain * sat(x_target - x_i) over the
    agent's (gain, target) list, sat the componentwise saturation to [-1, 1].
    """

    kind: str = "none"  # none | saturating_attraction | scripted
    attractions: dict = field(default_factory=dict)  # id -> ((gain, target_id), ...)
    scripted: object = None  # callable (dict id -> state, t) -> dict id -> vector

    def __post_init__(self):
        if self.kind not in ("none", "saturating_attraction", "scripted"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "scripted" and self.scripted is None:
            raise ValueError("scripted coupling needs a callable")
        for i, pulls in self.attractions.items():
            for gain, _ in pulls:
                if not is_finite_number(gain):
                    raise ValueError(f"agent {i} attraction gain must be a finite number, got {gain!r}")


def _attraction_pulls(attractions: dict, blocks: dict) -> tuple:
    """Saturating attraction as (dst, src, gains, -1s, 1s) arrays into a
    stacked state: one entry per state component of every pull (Scenario
    has checked that it joins agents of one dimension), each agent's pulls
    in their listed order."""
    dst, src, gains = [], [], []
    for i, pulls in attractions.items():
        for gain, target in pulls:
            a, b = blocks[i], blocks[target]
            dst += range(a.start, a.stop)
            src += range(b.start, b.stop)
            gains += [gain] * (a.stop - a.start)
    return (np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp), np.array(gains, dtype=float),
            np.full(len(dst), -1.0), np.full(len(dst), 1.0))


def _attract(x: np.ndarray, dst: np.ndarray, src: np.ndarray, gains: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    # the saturation to [-1, 1], with the bounds as arrays (numpy's faster path);
    # bincount adds its weights one after another from 0.0, so each
    # component's pulls add up in their listed order
    return np.bincount(dst, gains * np.minimum(np.maximum(x[src] - x[dst], lo), hi), minlength=len(x))


@dataclass(frozen=True, eq=False)
class SecondaryControlSpec:
    """Additional control objective stacked on top of the QP input.

    pairwise_repulsion: f_u_i = gain * sum over j in the group of
    (x_i - x_j) / (||x_i - x_j|| + softening), for group members i.
    known: the group's members model f_u in their constraints, so it is not
    counted as disturbance; kind "none" stores it as False.
    """

    kind: str = "none"  # none | pairwise_repulsion | scripted
    group: tuple = ()
    gain: float = 1.0
    softening: float = 0.01
    scripted: object = None  # callable (dict id -> state, t) -> dict id -> input
    known: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "pairwise_repulsion", "scripted"):
            raise ValueError(f"unknown secondary control kind {self.kind!r}")
        if self.kind == "scripted" and self.scripted is None:
            raise ValueError("scripted secondary control needs a callable")
        if not isinstance(self.known, bool):
            raise ValueError(f"secondary known must be true or false, got {self.known!r}")
        if not is_finite_number(self.gain):
            raise ValueError(f"secondary gain must be a finite number, got {self.gain!r}")
        if not (is_finite_number(self.softening) and self.softening > 0.0):
            raise ValueError(f"secondary softening must be a finite number > 0, got {self.softening!r}")
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "softening", float(self.softening))
        object.__setattr__(self, "known", self.known and self.kind != "none")


def _check_relations(agents: dict, cliques: dict, coupling: CouplingSpec, secondary: SecondaryControlSpec) -> None:
    """Refuse a pull between agents of two state dimensions, a pairwise
    repulsion group that is not of one dimension with as many inputs as
    states, and a known group outside one clique (cliques: name -> members)."""
    for i, pulls in coupling.attractions.items():
        for _, target in pulls:
            if agents[i].state_dim != agents[target].state_dim:
                raise ValueError(f"agent {i} is pulled toward agent {target} of another dimension")
    shapes = {(agents[i].state_dim, agents[i].input_dim) for i in secondary.group}
    if secondary.kind == "pairwise_repulsion" and (len(shapes) > 1 or any(n != m for n, m in shapes)):
        raise ValueError("pairwise repulsion needs group members of one dimension with as many inputs as states")
    group = set(secondary.group) if secondary.known else set()
    for name in sorted(cliques):
        inside = [i for i in cliques[name] if i in group]
        if inside and not group <= set(cliques[name]):
            raise ValueError(f"known secondary control requires the whole group inside one clique "
                             f"(agent {inside[0]} in {name!r})")


def pairwise_repulsion(points: np.ndarray, gain: float, softening: float) -> np.ndarray:
    """Repulsion inside a group of k agents with states as the rows of points:
    row i is gain * sum over j != i, in row order, of
    (x_i - x_j) / (||x_i - x_j|| + softening).  gain and softening are
    floats, or arrays of one value shaped as the (k, d) result and the
    (k, k) distances."""
    diff = points[:, None, :] - points[None, :, :]
    scale = np.sqrt(np.vecdot(diff, diff)) + softening
    scale.ravel()[:: len(points) + 1] = 1.0  # the j == i term is then exactly 0 and adds nothing
    terms = diff / scale[..., None]
    # a sequential sum over j: np.sum pairs terms up for groups of 8 or more,
    # and starting from the j == i term's +0 instead of 0 changes no bit
    return gain * np.add.accumulate(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-agent disturbance w_i with ||w_i|| <= bound, held over each step.
    For uniform-ball noise the seed spawns two child streams, one of normals
    for the directions and one of uniforms for the radii (see _ball_draws)."""

    bound: float = 0.0
    distribution: str = "uniform_ball"  # uniform_ball | adversarial | none
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("uniform_ball", "adversarial", "none"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"noise seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be an integer >= 0, got {self.seed!r}")
        if not (is_finite_number(self.bound) and self.bound >= 0.0):
            raise ValueError(f"noise bound must be a finite number >= 0, got {self.bound!r}")
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True, eq=False)
class Scenario:
    agents: dict  # id -> AgentModel
    cliques: tuple
    x0: dict  # id -> initial state
    dt: float = 0.005
    coupling: CouplingSpec = CouplingSpec()
    secondary: SecondaryControlSpec = SecondaryControlSpec()
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        if not (is_finite_number(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt}")
        for i, model in self.agents.items():
            if i not in self.x0:
                raise ValueError(f"missing initial state for agent {i}")
            if np.shape(self.x0[i]) != (model.state_dim,):
                raise ValueError(f"agent {i} initial state has wrong dimension")
            if not all(map(is_finite_number, np.ravel(self.x0[i]).tolist())):
                raise ValueError(f"agent {i} initial state must hold finite numbers")
        pulled = [j for i, pulls in self.coupling.attractions.items() for j in (i, *(t for _, t in pulls))]
        for what, ids in (("secondary group", self.secondary.group), ("attraction", pulled)):
            for i in ids:
                if i not in self.agents:
                    raise ValueError(f"{what} names agent {i}, which the scenario does not have")
        _check_relations(self.agents, {cl.name: cl.members for cl in self.cliques}, self.coupling, self.secondary)
        # the run's team, which also refuses cliques that do not fit the agents
        known = self.secondary.group if self.secondary.known else ()
        object.__setattr__(self, "_team", Team(self.cliques, self.agents, known))


class _Columns:
    """The trajectory CSV's columns for a team, in header order: t, the
    states and the inputs in the team's stacked layouts, the barrier values
    in clique-name order, then res, share and dist of each agent in turn.
    Every field is a basic slice of a row."""

    def __init__(self, team: Team):
        self.layout, self.input_layout = team.layout, team.input_layout
        self.clique_names = names = tuple(cl.name for cl in team.cliques)
        self.x = slice(1, 1 + team.dim)
        self.u = slice(self.x.stop, self.x.stop + team.input_dim)
        self.b = slice(self.u.stop, self.u.stop + len(names))
        end = self.b.stop + 3 * len(team.ids)
        self.res, self.share, self.dist = (slice(self.b.stop + j, end, 3) for j in range(3))
        self.header = ["t"]
        self.header += [f"x{i}_{c}" for i, n in zip(self.layout.ids, self.layout.dims) for c in range(n)]
        self.header += [f"u{i}_{c}" for i, n in zip(self.input_layout.ids, self.input_layout.dims) for c in range(n)]
        self.header += [f"b_{name}" for name in names]
        self.header += [f"{k}_{i}" for i in self.layout.ids for k in ("res", "share", "dist")]


@dataclass
class TrajectoryLog:
    """A run's record as the trajectory CSV's table: row k holds t_k, the
    pre-step state and step k's fields, and the terminal row holds the final
    t and state with its step cells nan.  The fields below are views of the
    table in the team's stacked layouts (agents in ascending id order, as
    controller.Team stacks them)."""

    table: np.ndarray  # (T+1, len(columns.header))
    columns: _Columns
    events: list
    completed: bool
    dt: float

    times = property(lambda log: log.table[:, 0])  # (T+1,)
    x = property(lambda log: log.table[:, log.columns.x])  # (T+1, n_total) states
    u = property(lambda log: log.table[:-1, log.columns.u])  # (T, m_total) applied inputs (QP + secondary)
    # (T, n_cliques) barrier values in clique-name order, nan once the clique expired
    b = property(lambda log: log.table[:-1, log.columns.b])
    res = property(lambda log: log.table[:-1, log.columns.res])  # (T, n) QP constraint slack a'u - rhs
    share = property(lambda log: log.table[:-1, log.columns.share])  # (T, n) load shares
    dist = property(lambda log: log.table[:-1, log.columns.dist])  # (T, n) ||c + w (+ g f_u if unplanned)||
    layout = property(lambda log: log.columns.layout)
    input_layout = property(lambda log: log.columns.input_layout)
    clique_names = property(lambda log: log.columns.clique_names)  # in the team's clique order

    # per-agent and per-clique column views
    states = property(lambda log: {i: log.x[:, s] for i, s in log.layout.slices().items()})
    inputs = property(lambda log: {i: log.u[:, s] for i, s in log.input_layout.slices().items()})
    barriers = property(lambda log: dict(zip(log.clique_names, log.b.T)))
    residuals = property(lambda log: dict(zip(log.layout.ids, log.res.T)))
    shares = property(lambda log: dict(zip(log.layout.ids, log.share.T)))
    disturbance_norms = property(lambda log: dict(zip(log.layout.ids, log.dist.T)))

    def clique_robustness(self, formula, clique: Clique) -> float:
        """The monitor's robustness of formula at t = 0 over the clique's
        member states, stacked in ascending id order as in the clique's
        layout, or nan when a state left the finite range (a signal refuses
        it)."""
        blocks = self.layout.slices()
        states = self.x[:, np.r_[tuple(blocks[i] for i in clique.members)]]
        if not np.isfinite(states).all():
            return math.nan
        return robustness(formula, SampledSignal(self.times, states), 0.0)


def _noise_fn(spec: NoiseSpec, team: Team, n_steps: int):
    """w(tc) of every agent, stacked, for each of the n_steps steps in turn.

    Uniform-ball noise does not depend on the step, so it is drawn
    _CHUNK_ROWS steps ahead (see _ball_draws).  Adversarial noise reads the
    step's barrier gradient from tc.
    """
    if spec.bound == 0.0 or spec.distribution == "none":
        zero = np.zeros(team.dim)
        return lambda tc: zero
    dims = team.layout.dims
    if spec.distribution == "adversarial":  # push straight against the barrier gradient
        def push(tc):
            gn = np.repeat(tc.grad_norms, dims)
            return np.divide(-spec.bound * tc.grad, gn, out=np.zeros(team.dim), where=gn > 1e-12)

        return push
    draws = _ball_draws(spec, team, n_steps)
    return lambda tc: next(draws)


def _ball_draws(spec: NoiseSpec, team: Team, n_steps: int):
    """Rows w_i = (bound * r_i ** (1 / n_i)) * (d_i / ||d_i||), d_i ~ N(0, I)
    and r_i ~ U[0, 1), generated a chunk of steps at a time.

    The seed spawns two child streams: the first gives every d_i and the
    second every r_i, each step by step and agent by agent in id order.
    Each stream is read in that order, so the draws do not depend on the
    chunk size.  The radius is Python's float power, which does not depend
    on numpy's SIMD dispatch as np.power does.
    """
    normals, uniforms = np.random.default_rng(spec.seed).spawn(2)
    dims = team.layout.dims
    exps = [1.0 / n for n in dims]
    for start in range(0, n_steps, _CHUNK_ROWS):
        steps = min(_CHUNK_ROWS, n_steps - start)
        d = normals.standard_normal((steps, team.dim))
        d += 0.0  # normal(size=n) returns 0.0 + z, which turns a -0.0 draw into +0.0
        nd = np.repeat(team.block_norms(d), dims, axis=1)
        # a block of norm 0 is all +0.0 already, which where= leaves in place
        np.divide(d, nd, out=d, where=nd > 0)
        radius = uniforms.random((steps, len(dims)))
        radius.flat = [spec.bound * v ** e for v, e in zip(radius.ravel().tolist(), exps * steps)]
        d *= np.repeat(radius, dims, axis=1)
        yield from d


def _scattered(fn, team: Team, blocks: dict, size: int):
    """A scripted callback on per-agent views of the team state, with its
    per-agent vectors scattered into one (size,) vector (0 where it gives none)."""

    def call(x, t):
        out = np.zeros(size)
        for i, v in fn(team.split(x), t).items():
            out[blocks[i]] = v
        return out

    return call


def _coupling_fn(spec: CouplingSpec, team: Team):
    """c(x, t) of every agent on the stacked team state."""
    if spec.kind == "none":
        return lambda x, t: np.zeros(team.dim)
    if spec.kind == "scripted":
        return _scattered(spec.scripted, team, team.blocks, team.dim)
    pulls = _attraction_pulls(spec.attractions, team.blocks)
    return lambda x, t: _attract(x, *pulls)


def _secondary_fn(spec: SecondaryControlSpec, team: Team):
    """f_u(x, t) of every agent in the stacked input layout (0 where an agent
    gets none).  The repulsion writes into one vector the run owns, which
    each call overwrites: its caller uses it before the next step.  Scenario
    has checked that its group's blocks are all of one size."""
    if spec.kind == "scripted":
        return _scattered(spec.scripted, team, team.input_blocks, team.input_dim)
    if spec.kind == "none" or not spec.group:
        return lambda x, t: np.zeros(team.input_dim)
    out = np.zeros(team.input_dim)
    # the group's states and inputs, as a slice when their blocks follow each
    # other in group order (a view), else as an index array (a copy)
    rows = np.r_[tuple(team.blocks[i] for i in spec.group)]
    states, inputs = _as_slice(rows), _as_slice(np.r_[tuple(team.input_blocks[i] for i in spec.group)])
    k = len(spec.group)
    shape = (k, len(rows) // k)
    gain, softening = np.full(shape, spec.gain), np.full((k, k), spec.softening)  # as arrays: a faster path

    def repel(x, t):
        out[inputs] = pairwise_repulsion(x[states].reshape(shape), gain, softening).ravel()
        return out

    return repel


# noise steps drawn, funnel rows tabulated, steps settled, or CSV rows
# written or lines read and hashed at a time
_CHUNK_ROWS = 256


def _latest_deadline(cliques) -> float:
    return max(cl.barrier.horizon for cl in cliques)


def _grid_steps(horizon: float, dt: float) -> int:
    """The steps k of dt a run to horizon takes: 1 <= k < 2**53, k dt within 1e-9 of horizon."""
    ratio = horizon / dt
    k = round(ratio) if 0.0 < ratio < 2.0**53 else 0  # so a nan or overflowing ratio is refused too
    if k < 1 or not abs(k * dt - horizon) <= 1e-9:
        raise ValueError("horizon must be a positive integer multiple of dt")
    return k


def run(scenario: Scenario) -> TrajectoryLog:
    sc = scenario
    team = sc._team
    horizon = _latest_deadline(sc.cliques)
    n_steps = _grid_steps(horizon, sc.dt)
    times = np.linspace(0.0, horizon, n_steps + 1)
    coupling = _coupling_fn(sc.coupling, team)
    secondary = _secondary_fn(sc.secondary, team)
    # the secondary input counts as disturbance unless the agent declared it
    # known (with no agent known the factor is all ones, which changes no bit)
    unmodelled = np.repeat([float(i not in team.known) for i in team.ids], team.input_layout.dims)
    if not team.known:
        unmodelled = None
    limits = team.coupling_bounds + 1e-9
    dt = np.full(team.dim, sc.dt)  # an array operand takes numpy's faster path than a float

    cols = _Columns(team)
    table = np.empty((n_steps + 1, len(cols.header)))
    table[:, 0] = times
    xs, us, bs = table[:, cols.x], table[:, cols.u], table[:, cols.b]
    residuals, shares, dist_norms = table[:, cols.res], table[:, cols.share], table[:, cols.dist]
    x = team.stack(sc.x0)
    xs[0] = x
    noise = _noise_fn(sc.noise, team, n_steps)
    # the events that end the run early, steps settled and steps begun (an infeasible QP's is not settled)
    aborts, steps_done, begun = [], n_steps, n_steps
    # what only the log reads of a chunk's steps, a row per step: each QP's
    # a, rhs and u and each disturbance
    a_rows, u_rows = np.empty((_CHUNK_ROWS, team.input_dim)), np.empty((_CHUNK_ROWS, team.input_dim))
    rhs_rows, dist_rows = np.empty((_CHUNK_ROWS, len(team.ids))), np.empty((_CHUNK_ROWS, team.dim))

    for lo in range(0, n_steps, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_steps)
        steps = zip(range(lo, hi), times[lo:hi].tolist(), team.funnels(times[lo:hi]),
                    a_rows, u_rows, rhs_rows, dist_rows)
        failure = None
        try:
            for k, t, funnels, a_k, u_k, rhs_k, dist_k in steps:
                f_u = secondary(x, t)
                tc = team_control(team, x, t, f_u, funnels, (shares[k], bs[k], rhs_k, a_k, u_k))
                w = noise(tc)
                c = coupling(x, t)
                u = np.add(tc.inputs, f_u, out=us[k])
                # disturbance the declared bound C must cover: everything the
                # constraint does not model
                np.add(c + w, team.input_effect(f_u if unmodelled is None else f_u * unmodelled), out=dist_k)
                x = np.add(x, dt * (tc.drift + team.input_effect(u) + c + w), out=xs[k + 1])
            k = hi
        except Exception as err:  # step k raised: the steps before it are settled first
            failure = err
        # the chunk's steps lo..k-1: their residuals and disturbance norms,
        # and the first of them whose norm is not within its bound (a nan
        # norm aborts too), where the run ends as if it had stopped there
        n = k - lo
        team.residuals(a_rows[:n], u_rows[:n], rhs_rows[:n], out=residuals[lo:k])
        dn = team.block_norms(dist_rows[:n], out=dist_norms[lo:k])
        over = ~(dn <= limits)
        if over.any():
            j = int(over.any(axis=1).argmax())
            t = times[lo + j].item()
            aborts = [{
                "t": t, "kind": "disturbance_bound",
                "detail": f"agent {team.ids[r]} disturbance {dn[j, r]:.4f} exceeds "
                f"declared bound {team.coupling_bounds[r]:g}",
            } for r in np.flatnonzero(over[j]).tolist()]
            steps_done = begun = lo + j + 1
            break
        if failure is not None:
            if not isinstance(failure, QpInfeasibleError):
                raise failure
            aborts = [{"t": t, "kind": "qp_infeasible", "detail": str(failure)}]
            steps_done, begun = k, k + 1
            break

    table[steps_done, cols.x.stop :] = np.nan
    # each activity switch s is logged at the first step begun whose t has
    # s <= t + 1e-12 (searchsorted finds the first t + 1e-12 >= s)
    switches = sorted({s for cl in sc.cliques for s in cl.barrier.schedule})
    reached = np.searchsorted(times[:begun] + 1e-12, switches).tolist()
    events = [{"t": times[k].item(), "kind": "switch", "detail": f"activity switch at {s:g}"}
              for s, k in zip(switches, reached) if k < begun] + aborts
    return TrajectoryLog(table[: steps_done + 1], cols, events, not aborts, sc.dt)


_TOL_B = 1e-3  # how far below 0 a logged barrier value may dip


def verify(log: TrajectoryLog, formulas: dict, cliques, r_stars: dict) -> dict:
    """Independent pass/fail check of a finished run.

    Per clique: the minimum logged barrier value must stay above -_TOL_B, and
    the monitored robustness at t = 0, a lower bound on the logged Euler
    polygon's (see robustness), must reach r_star.  The check reads no
    barrier term: the construction certifies r_star for every unit, an
    until's left-hand side included, since normalize holds it on [0, b].
    An aborted run has no signal over the task windows, so its cliques skip
    the monitor: rho is None and rho_ok False.
    """
    report = {"completed": log.completed, "cliques": {}, "passed": bool(log.completed)}
    for cl in cliques:
        r_star = float(r_stars[cl.name])
        rho = log.clique_robustness(formulas[cl.name], cl) if log.completed else None
        bvals = log.barriers[cl.name]
        # a column with no barrier value (empty, or every step past the clique's deadline) has no minimum
        min_b = math.nan if np.isnan(bvals).all() else float(np.nanmin(bvals))
        entry = {"min_barrier": min_b, "rho": rho, "r_star": r_star, "tol_b": _TOL_B,
                 "barrier_ok": min_b >= -_TOL_B, "rho_ok": rho is not None and rho >= r_star}
        entry["passed"] = entry["barrier_ok"] and entry["rho_ok"]
        report["cliques"][cl.name] = entry
        report["passed"] = report["passed"] and entry["passed"]
    return report


def write_log_csv(log: TrajectoryLog, path) -> str:
    """The log's table, one row per step (pre-step state, input, barrier);
    the final row holds the terminal state with step fields left empty.
    Floats are written as their repr, so they read back exactly.  Returns
    the sha256 hex digest of the bytes written."""
    steps = log.table[:-1]
    head = io.StringIO()
    csv.writer(head).writerow(log.columns.header)
    terminal = log.table[-1, : log.columns.x.stop].tolist()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text):
            data = text.encode()
            fh.write(data)
            digest.update(data)

        put(head.getvalue())
        for k in range(0, len(steps), _CHUNK_ROWS):
            put("".join(",".join(map(repr, row)) + "\r\n" for row in steps[k : k + _CHUNK_ROWS].tolist()))
        put(",".join(map(repr, terminal)) + "," * (steps.shape[1] - len(terminal)) + "\r\n")
    return digest.hexdigest()


def _text_lines(lines: list, fh, base: int, offset: int):
    r"""The text of a file's UTF-8 lines from line base + 1 and byte offset
    on: the byte lines in lines, then the lines text mode reads ('\r', '\n' or
    '\r\n' ends one) in fh's lines, each added to lines as it is read.  A byte
    that is not UTF-8 is refused with its line and file offset."""
    read_on = (lines.extend(split := data.splitlines(keepends=True)) or split for data in fh)
    for base, line in enumerate(chain(lines, chain.from_iterable(read_on)), base + 1):
        try:
            text = line.decode()
        except UnicodeDecodeError as err:
            raise ValueError(f"'utf-8' codec can't decode byte {line[err.start]:#04x} at line {base}, "
                             f"file offset {offset + err.start}: {err.reason}") from None
        offset += len(line)
        yield text


def _csv_head(fh) -> tuple:
    """The first row of a binary CSV file as csv.reader reads it (None if
    there is none), the lines it takes and their bytes; fh is left after them."""
    lines = []
    rd = csv.reader(_text_lines(lines, fh, 0, 0))
    header = next(rd, None)
    raw = b"".join(lines[: rd.line_num])
    fh.seek(len(raw))
    return header, rd.line_num, raw


def _csv_blocks(fh, base: int, width: int):
    r"""The rows of a binary CSV file from line base + 1 on, as csv.reader
    reads its text but cut to width cells, the line each ends on and their
    bytes, _CHUNK_ROWS lines of fh at a time; the rows are emptied when the
    next block is read.  A block that is ASCII, ends in '\n' and has no '"',
    NUL (refused by csv before Python 3.11), '\r' but before '\n' or line
    over the field limit holds the lines text mode reads and is split at its
    commas ('\v', '\f' and '\x1c'-'\x1e' stay in cells); csv.reader reads
    any other block."""
    while block := list(islice(fh, _CHUNK_ROWS)):
        data = b"".join(block)
        if (data.isascii() and b'"' not in data and b"\0" not in data and data.endswith(b"\n")
                and data.count(b"\r") == data.count(b"\r\n")
                and max(map(len, block)) <= csv.field_size_limit()):
            rows = [body.split(b",", width)[:width] if (body := line.rstrip(b"\r\n")) else [] for line in block]
            ends = range(base + 1, base + len(rows) + 1)
        else:
            # a quoted cell may run on past the block: the lines read on are added to it
            lines, rows, ends = data.splitlines(keepends=True), [], []
            rd = csv.reader(_text_lines(lines, fh, base, fh.tell() - len(data)))
            while rd.line_num < len(lines):
                if len(rows) == _CHUNK_ROWS:  # a '\r'-ended file is one line of fh
                    yield b"", rows, ends
                    del rows[:], ends[:]
                rows.append(next(rd)[:width])
                ends.append(base + rd.line_num)
            data = b"".join(lines)
        base = ends[-1]
        yield data, rows, ends
        rows.clear()


def read_signal_csv(path) -> tuple:
    """Read a trajectory CSV back as (layout, SampledSignal).

    Only the t and x{id}_{component} columns are used, so any CSV with that
    header shape works as monitor input.  Each block of rows (_csv_blocks)
    has its t and x cells converted at once; an empty file, a row too short
    for them, an oversized field, a non-numeric or a non-finite t or x cell,
    or times that are not strictly increasing from 0 are one-line ValueErrors.
    """
    numeric = True  # refused after the last row, as a later short row or csv fault comes first
    with open(path, "rb") as fh:
        try:
            header, base, _ = _csv_head(fh)
            if header is None:
                raise ValueError("empty file")
            layout, cols = _signal_columns(header)
            width, parts, pick = max(cols) + 1, [np.empty((0, len(cols)))], operator.itemgetter(*cols)
            for _, rows, ends in _csv_blocks(fh, base, width):
                picked = [pick(r) for r in rows if r]
                try:
                    parts.append(np.array(picked, dtype=float).reshape(len(picked), len(cols)))
                except ValueError:
                    numeric = False
        except IndexError:
            line = next(end for r, end in zip(rows, ends) if 0 < len(r) < width)
            raise ValueError(f"{path} line {line}: a row shorter than the header") from None
        except (csv.Error, ValueError) as err:  # an oversized field, a byte not UTF-8, or the header
            raise ValueError(f"{path}: {err}") from None
    if not numeric:
        raise ValueError(f"{path}: a non-numeric t or x cell")
    data = np.concatenate(parts)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite t or x cell")
    try:
        return layout, SampledSignal(data[:, 0], data[:, 1:])
    except ValueError as err:  # no rows, or times that do not run strictly up from 0
        raise ValueError(f"{path}: {err}") from None


def _signal_columns(header: list) -> tuple:
    """Layout of a signal CSV's x{id}_{component} columns, and the indices of
    its t column and state columns in layout order.  A second t column, or a
    second column of one agent and component (x1_0 and x01_0 alike), is
    refused: nothing says which of the two to read."""
    if header.count("t") != 1:
        raise ValueError("signal CSV needs exactly one 't' column")
    t_col = header.index("t")
    state_cols = {}
    for j, name in enumerate(header):
        if name.startswith("x") and "_" in name:
            agent, _, comp = name[1:].partition("_")
            if agent.isdecimal() and comp.isdecimal():  # what int() reads; isdigit() also takes '²'
                block = state_cols.setdefault(int(agent), {})
                if int(comp) in block:
                    raise ValueError(f"signal CSV column {name!r} repeats agent {int(agent)} component {int(comp)}")
                block[int(comp)] = j
    if not state_cols:
        raise ValueError("signal CSV has no x{id}_{component} columns")
    ids = sorted(state_cols)
    for i in ids:
        if sorted(state_cols[i]) != list(range(len(state_cols[i]))):
            raise ValueError(f"agent {i} state columns are not contiguous")
    layout = StateLayout(ids=tuple(ids), dims=tuple(len(state_cols[i]) for i in ids))
    return layout, [t_col] + [state_cols[i][c] for i in ids for c in range(len(state_cols[i]))]


def log_to_dict(log: TrajectoryLog, csv_name: str, sha256: str) -> dict:
    """The log section of a log document: what the trajectory CSV does not
    hold, and the CSV's file name and sha256."""
    return {
        "dt": log.dt,
        "completed": log.completed,
        "events": log.events,
        "trajectory": {"file": csv_name, "sha256": sha256},
    }


def _logged_steps(doc: dict, horizon: float) -> int:
    """Steps a run logs, from a checked log section: all of them if it
    completed, else those before its aborting event plus, on a disturbance
    abort, the aborted step (an infeasible QP gives that step no input)."""
    dt, events = doc["dt"], doc["events"]
    try:
        n_steps = _grid_steps(horizon, dt)
    except ValueError as err:
        raise ValueError(f"log: {err}") from None
    if doc["completed"]:
        return n_steps
    if not (events and events[-1]["kind"] in ("qp_infeasible", "disturbance_bound")):
        raise ValueError("log: an aborted run must end with a qp_infeasible or disturbance_bound event")
    k = events[-1]["t"] / dt  # the aborting step
    if not 0.0 <= k < n_steps:
        raise ValueError("log: dt and the events give no step count")
    return round(k) + (events[-1]["kind"] == "disturbance_bound")


def log_from_dict(doc: dict, directory, team: Team) -> TrajectoryLog:
    """Read a run of team back from a log section and the trajectory CSV it
    names in directory.  Each block of the CSV's lines (_csv_blocks) goes
    through its sha256 and, in one conversion, into the log's table of the
    size the completed flag and events give.  Any fault of the pair is a
    one-line ValueError or OSError."""
    doc = doc if isinstance(doc, dict) else {}
    events, link = doc.get("events"), doc.get("trajectory")
    if not (isinstance(events, list) and isinstance(link, dict) and is_finite_number(doc.get("dt"))
            and doc["dt"] > 0.0 and isinstance(doc.get("completed"), bool)
            and isinstance(link.get("file"), str) and isinstance(link.get("sha256"), str)
            and all(isinstance(e, dict) and is_finite_number(e.get("t")) and isinstance(e.get("kind"), str)
                    for e in events)):
        raise ValueError("log: needs a positive dt, a completed flag, events with a finite t and a kind, "
                         "and the trajectory CSV's file name and sha256")
    path = Path(directory) / link["file"]
    cols = _Columns(team)
    n_steps = _logged_steps(doc, _latest_deadline(team.cliques))
    nx, width = cols.x.stop, len(cols.header)  # the terminal row holds only the t and x columns
    # every row holds at least its commas and line end
    if (n_steps + 1) * (width + 1) > path.stat().st_size:
        raise ValueError(f"{path}: too short for the {n_steps + 1} rows the log's completed flag and events give")
    table = np.empty((n_steps + 1, width))
    digest = hashlib.sha256()
    n_rows, fault = 0, None  # the first bad line, reported after the hash and row count
    with open(path, "rb") as fh:
        try:
            header, base, raw = _csv_head(fh)
            digest.update(raw)
            if header != cols.header:
                raise ValueError("header does not match the config's agents and cliques")
            for data, rows, _ in _csv_blocks(fh, base, width + 1):  # so that an extra cell shows
                digest.update(data)
                first, n_rows = n_rows, n_rows + len(rows)
                if fault is None and first <= n_steps:
                    del rows[n_steps + 1 - first :]  # rows past the terminal row are only counted
                    if n_rows > n_steps:  # the terminal row: only t and x are read
                        rows[-1] = rows[-1][:nx] + ["nan"] * (width - nx)
                    try:
                        table[first : first + len(rows)] = np.array(rows, dtype=float).reshape(len(rows), width)
                    except ValueError:  # name the first row that is not width numbers
                        for j, row in enumerate(rows):
                            try:
                                np.array(row, dtype=float).reshape(width)
                            except ValueError:
                                fault = first + j + 2
                                break
        except (csv.Error, ValueError) as err:  # an oversized field, a byte not UTF-8, or another header
            raise ValueError(f"{path}: {err}") from None
    if digest.hexdigest() != link["sha256"]:
        raise ValueError(f"{path}: sha256 does not match the log document")
    if n_rows != n_steps + 1:
        raise ValueError(f"{path}: {n_rows} rows, but the log's completed flag and events give {n_steps + 1}")
    if fault is not None:
        raise ValueError(f"{path} line {fault}: a missing, extra or non-numeric cell")
    if not np.isfinite(table[:, :nx]).all():
        raise ValueError(f"{path}: non-finite t or x cell")
    return TrajectoryLog(table, cols, events, doc["completed"], float(doc["dt"]))
