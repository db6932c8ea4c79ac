"""Coupled multi-agent simulation under the decentralized barrier law.

Explicit Euler with zero-order-hold inputs and noise: the closed loop is
discontinuous at activity switches and across softmin weight changes, so a
higher-order smooth integrator would buy nothing; the fixed step keeps the
sample-and-hold control semantics honest.  Everything needed for independent
verification is logged per step against the pre-step state.

The loop works on the stacked team state of controller.Team: coupling,
repulsion, noise and the Euler update act on whole vectors, every clique's
barrier funnel rows are tabulated over the time grid ahead of the steps
that use them (Team.funnels), and each step's results go straight into the
row of one preallocated table laid out as the trajectory CSV: the log is
that table, the CSV writer formats its rows as they are and the reader
fills one back.  Its fields, per agent or stacked, are column views.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .controller import Clique, QpInfeasibleError, Team, team_control
from .predicates import StateLayout, is_finite_number
from .robustness import SampledSignal, robustness

__all__ = [
    "sat1",
    "CouplingSpec",
    "SecondaryControlSpec",
    "NoiseSpec",
    "Scenario",
    "TrajectoryLog",
    "pairwise_repulsion",
    "run",
    "verify",
    "write_log_csv",
    "read_signal_csv",
    "log_to_dict",
    "log_from_dict",
]


def sat1(v: np.ndarray) -> np.ndarray:
    """Componentwise saturation to [-1, 1] (np.clip's values, with less call overhead)."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float), -1.0), 1.0)


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Uncontrolled coupling c_i(x, t) entering every agent's dynamics.

    saturating_attraction: c_i = sum of gain * sat1(x_target - x_i) over the
    agent's (gain, target) list.
    """

    kind: str = "none"  # none | saturating_attraction | scripted
    attractions: dict = field(default_factory=dict)  # id -> ((gain, target_id), ...)
    scripted: object = None  # callable (dict id -> state, t) -> dict id -> vector

    def __post_init__(self):
        if self.kind not in ("none", "saturating_attraction", "scripted"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "scripted" and self.scripted is None:
            raise ValueError("scripted coupling needs a callable")


def _attraction_pulls(attractions: dict, blocks: dict) -> tuple:
    """Saturating attraction as (dst, src, gains) arrays into a stacked
    state: one entry per state component of every pull, each agent's pulls
    in their listed order."""
    dst, src, gains = [], [], []
    for i, pulls in attractions.items():
        for gain, target in pulls:
            a, b = blocks[i], blocks[target]
            if a.stop - a.start != b.stop - b.start:
                raise ValueError(f"agent {i} is pulled toward agent {target} of another dimension")
            dst += range(a.start, a.stop)
            src += range(b.start, b.stop)
            gains += [gain] * (a.stop - a.start)
    return np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp), np.array(gains, dtype=float)


def _attract(x: np.ndarray, dst: np.ndarray, src: np.ndarray, gains: np.ndarray) -> np.ndarray:
    # bincount adds its weights one after another from 0.0, so each
    # component's pulls add up in their listed order
    return np.bincount(dst, gains * sat1(x[src] - x[dst]), minlength=len(x))


@dataclass(frozen=True, eq=False)
class SecondaryControlSpec:
    """Additional control objective stacked on top of the QP input.

    pairwise_repulsion: f_u_i = gain * sum over j in the group of
    (x_i - x_j) / (||x_i - x_j|| + softening), for group members i.
    known: the group's members model f_u in their constraints, so it is not
    counted as disturbance.
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
        if not is_finite_number(self.gain):
            raise ValueError(f"secondary gain must be a finite number, got {self.gain!r}")
        if not (is_finite_number(self.softening) and self.softening > 0.0):
            raise ValueError(f"secondary softening must be a finite number > 0, got {self.softening!r}")


def pairwise_repulsion(points: np.ndarray, gain: float, softening: float) -> np.ndarray:
    """Repulsion inside a group of k agents with states as the rows of points:
    row i is gain * sum over j != i, in row order, of
    (x_i - x_j) / (||x_i - x_j|| + softening)."""
    diff = points[:, None, :] - points[None, :, :]
    scale = np.sqrt(np.vecdot(diff, diff)) + softening
    scale.ravel()[:: len(points) + 1] = 1.0  # the j == i term is then exactly 0 and adds nothing
    terms = diff / scale[..., None]
    # a sequential sum over j: np.sum pairs terms up for groups of 8 or more,
    # and starting from the j == i term's +0 instead of 0 changes no bit
    return gain * np.add.accumulate(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-agent disturbance w_i with ||w_i|| <= bound, held over each step."""

    bound: float = 0.0
    distribution: str = "uniform_ball"  # uniform_ball | adversarial | none
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("uniform_ball", "adversarial", "none"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        if not (is_finite_number(self.bound) and self.bound >= 0.0):
            raise ValueError(f"noise bound must be a finite number >= 0, got {self.bound!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    agents: dict  # id -> AgentModel
    cliques: tuple
    x0: dict  # id -> initial state
    dt: float = 0.005
    coupling: CouplingSpec = CouplingSpec()
    secondary: SecondaryControlSpec = SecondaryControlSpec()
    noise: NoiseSpec = NoiseSpec()
    horizon: float | None = None  # defaults to the latest clique deadline

    def __post_init__(self):
        if not (is_finite_number(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt}")
        for i in self.agents:
            if i not in self.x0:
                raise ValueError(f"missing initial state for agent {i}")
        pulled = [j for i, pulls in self.coupling.attractions.items() for j in (i, *(t for _, t in pulls))]
        for what, ids in (("secondary group", self.secondary.group), ("attraction", pulled)):
            for i in ids:
                if i not in self.agents:
                    raise ValueError(f"{what} names agent {i}, which the scenario does not have")
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
        self.by_name = sorted(range(len(names)), key=names.__getitem__)  # team clique indices
        self.barrier_cols = {names[c]: self.b.start + j for j, c in enumerate(self.by_name)}
        self.header = ["t"]
        self.header += [f"x{i}_{c}" for i, n in zip(self.layout.ids, self.layout.dims) for c in range(n)]
        self.header += [f"u{i}_{c}" for i, n in zip(self.input_layout.ids, self.input_layout.dims) for c in range(n)]
        self.header += [f"b_{names[c]}" for c in self.by_name]
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
    barriers = property(lambda log: {name: log.table[:-1, log.columns.barrier_cols[name]]
                                      for name in log.clique_names})
    residuals = property(lambda log: dict(zip(log.layout.ids, log.res.T)))
    shares = property(lambda log: dict(zip(log.layout.ids, log.share.T)))
    disturbance_norms = property(lambda log: dict(zip(log.layout.ids, log.dist.T)))

    def _member_states(self, members) -> np.ndarray:
        """The members' state columns, stacked in member order."""
        blocks = self.layout.slices()
        return self.x[:, np.concatenate([np.arange(blocks[i].start, blocks[i].stop) for i in members])]

    def clique_signal(self, clique: Clique) -> SampledSignal:
        return SampledSignal(self.times, self._member_states(clique.members))

    def max_speed(self, members) -> float:
        stack = self._member_states(members)
        if stack.shape[0] < 2:
            return 0.0
        return float(np.max(np.linalg.norm(np.diff(stack, axis=0), axis=1))) / self.dt


def _noise_fn(spec: NoiseSpec, team: Team, rng, n_steps: int):
    """w(tc) of every agent, stacked, for each of the n_steps steps in turn.

    Uniform-ball noise does not depend on the step, so it is drawn
    _CHUNK_ROWS steps ahead in the order of one draw per step (step by step,
    agent by agent in id order, n_i normals then one uniform), which keeps
    the stream and the trajectories, and then normalised over the whole
    chunk.  Adversarial noise reads the step's barrier gradient from tc.
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
    draws = _ball_draws(spec, team, rng, n_steps)
    return lambda tc: next(draws)


def _ball_draws(spec: NoiseSpec, team: Team, rng, n_steps: int):
    """Rows w_i = (bound * r_i ** (1 / n_i)) * (d_i / ||d_i||), d_i ~ N(0, I),
    generated a chunk of steps at a time."""
    dims = team.layout.dims
    draws = tuple(zip(team.blocks.values(), [1.0 / n for n in dims]))
    for start in range(0, n_steps, _CHUNK_ROWS):
        steps = min(_CHUNK_ROWS, n_steps - start)
        d = np.empty((steps, team.dim))
        radius = np.empty((steps, len(dims)))
        for row, rad in zip(d, radius):
            for j, (s, e) in enumerate(draws):
                rng.standard_normal(out=row[s])
                # random() draws the same double as uniform() with less overhead
                rad[j] = spec.bound * float(rng.random()) ** e
        d += 0.0  # normal(size=n) returns 0.0 + z, which turns a -0.0 draw into +0.0
        nd = np.repeat(team.block_norms(d), dims, axis=1)
        # a block of norm 0 is all +0.0 already, which where= leaves in place
        np.divide(d, nd, out=d, where=nd > 0)
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
    gets none)."""
    if spec.kind == "scripted":
        return _scattered(spec.scripted, team, team.input_blocks, team.input_dim)
    if spec.kind == "none" or not spec.group:
        return lambda x, t: np.zeros(team.input_dim)
    # (group size, dim) index arrays of the group's states and inputs
    rows = np.array([np.arange(b.start, b.stop) for b in (team.blocks[i] for i in spec.group)])
    cols = np.array([np.arange(b.start, b.stop) for b in (team.input_blocks[i] for i in spec.group)])

    def repel(x, t):
        s = np.zeros(team.input_dim)
        s[cols] = pairwise_repulsion(x[rows], spec.gain, spec.softening)
        return s

    return repel


_CHUNK_ROWS = 256  # steps of noise drawn or funnel rows tabulated, or CSV rows formatted, written and hashed, at a time


def _funnel_steps(team: Team, times: np.ndarray):
    """team.funnels over the step times, tabulated _CHUNK_ROWS steps at a time."""
    for start in range(0, len(times), _CHUNK_ROWS):
        yield from team.funnels(times[start : start + _CHUNK_ROWS])


def _latest_deadline(cliques) -> float:
    return max(cl.barrier.horizon for cl in cliques)


def run(scenario: Scenario) -> TrajectoryLog:
    sc = scenario
    team = sc._team
    horizon = sc.horizon if sc.horizon is not None else _latest_deadline(sc.cliques)
    n_steps = int(round(horizon / sc.dt))
    if n_steps < 1 or abs(n_steps * sc.dt - horizon) > 1e-9:
        raise ValueError("horizon must be a positive integer multiple of dt")
    times = np.linspace(0.0, horizon, n_steps + 1)
    coupling = _coupling_fn(sc.coupling, team)
    secondary = _secondary_fn(sc.secondary, team)
    # the secondary input counts as disturbance unless the agent declared it known
    unmodelled = np.repeat([float(i not in team.known) for i in team.ids], team.input_layout.dims)
    limits = team.coupling_bounds + 1e-9

    cols = _Columns(team)
    table = np.empty((n_steps + 1, len(cols.header)))
    table[:, 0] = times
    xs, us, bs = table[:, cols.x], table[:, cols.u], table[:, cols.b]
    residuals, shares, dist_norms = table[:, cols.res], table[:, cols.share], table[:, cols.dist]
    x = team.stack(sc.x0)
    xs[0] = x
    events = []
    noise = _noise_fn(sc.noise, team, np.random.default_rng(sc.noise.seed), n_steps)
    switch_times = sorted({s for cl in sc.cliques for s in cl.barrier.schedule})
    next_switch_idx = 0
    completed = True
    steps_done = 0

    for k, (t, funnels) in enumerate(zip(times[:-1].tolist(), _funnel_steps(team, times[:-1]))):
        while next_switch_idx < len(switch_times) and switch_times[next_switch_idx] <= t + 1e-12:
            events.append({"t": t, "kind": "switch", "detail": f"activity switch at {switch_times[next_switch_idx]:g}"})
            next_switch_idx += 1
        f_u = secondary(x, t)
        try:
            tc = team_control(team, x, t, f_u, funnels)
        except QpInfeasibleError as err:
            events.append({"t": t, "kind": "qp_infeasible", "detail": str(err)})
            completed = False
            break
        w = noise(tc)
        c = coupling(x, t)
        u = tc.inputs + f_u
        # disturbance the declared bound C must cover: everything the
        # constraint does not model
        dist = c + w + team.input_effect(f_u * unmodelled)
        dn = team.block_norms(dist)
        us[k] = u
        residuals[k] = tc.residuals
        shares[k] = tc.shares
        dist_norms[k] = dn
        bs[k] = tc.barrier_values
        x = x + sc.dt * (tc.drift + team.input_effect(u) + c + w)
        xs[k + 1] = x
        steps_done = k + 1
        over = (~(dn <= limits)).nonzero()[0]  # a nan norm aborts too
        if over.size:
            for r in over.tolist():
                events.append({
                    "t": t, "kind": "disturbance_bound",
                    "detail": f"agent {team.ids[r]} disturbance {float(dn[r]):.4f} exceeds "
                    f"declared bound {float(team.coupling_bounds[r]):g}",
                })
            completed = False
            break

    # the step loop wrote the barrier values in the team's clique order
    bs[:steps_done] = bs[:steps_done, cols.by_name]
    table[steps_done, cols.x.stop :] = np.nan
    return TrajectoryLog(table[: steps_done + 1], cols, events, completed, sc.dt)


_TOL_B = 1e-3  # how far below 0 a logged barrier value may dip


def verify(log: TrajectoryLog, formulas: dict, cliques, r_stars: dict) -> dict:
    """Independent pass/fail check of a finished run.

    Per clique: the minimum logged barrier value must stay above -_TOL_B, and
    the monitored robustness at t = 0 must reach the guaranteed floor minus a
    sampling slack 2 * dt * max logged speed.  The floor is r_star, except
    that a rebuilt until only pins its left-hand side down to the funnel
    starts: floor = min(r_star, smallest gamma0 among until-lhs terms).
    An aborted run has no signal over the task windows, so its cliques skip
    the monitor: rho is None and rho_ok False.
    """
    report = {"completed": log.completed, "cliques": {}, "passed": bool(log.completed)}
    for cl in cliques:
        name = cl.name
        r_star = float(r_stars[name])
        floor = r_star
        lhs_g0 = [tm.gamma.gamma0 for tm in cl.barrier.terms if tm.unit.until_lhs]
        if lhs_g0:
            floor = min(floor, min(lhs_g0))
        rho = robustness(formulas[name], log.clique_signal(cl), 0.0) if log.completed else None
        speed = log.max_speed(cl.members)
        tol_rho = 2.0 * log.dt * speed
        bvals = log.barriers[name]
        min_b = float(np.nanmin(bvals)) if bvals.size else math.nan
        b_ok = bool(bvals.size) and min_b >= -_TOL_B
        rho_ok = rho is not None and rho >= floor - tol_rho
        ok = b_ok and rho_ok
        report["cliques"][name] = {
            "min_barrier": min_b,
            "rho": rho,
            "r_star": r_star,
            "floor": floor,
            "max_speed": speed,
            "tol_rho": tol_rho,
            "tol_b": _TOL_B,
            "barrier_ok": b_ok,
            "rho_ok": rho_ok,
            "passed": ok,
        }
        report["passed"] = report["passed"] and ok
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


def read_signal_csv(path) -> tuple:
    """Read a trajectory CSV back as (layout, SampledSignal).

    Only the t and x{id}_{component} columns are used, so any CSV with that
    header shape works as monitor input.  The rows are streamed and only
    those cells kept; an empty file, a row too short for them, an oversized
    field, a non-numeric or a non-finite t or x cell is a one-line ValueError.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd, None)
            if header is None:
                raise ValueError("empty file")
            layout, cols = _signal_columns(header)
            pick = operator.itemgetter(*cols)
            rows = [pick(r) for r in rd if r]
        except csv.Error as err:  # an oversized field
            raise ValueError(f"{path}: {err}") from None
        except IndexError:
            raise ValueError(f"{path} line {rd.line_num}: a row shorter than the header") from None
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    except ValueError:
        raise ValueError(f"{path}: a non-numeric t or x cell") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite t or x cell")
    return layout, SampledSignal(data[:, 0], data[:, 1:])


def _signal_columns(header: list) -> tuple:
    """Layout of a signal CSV's x{id}_{component} columns, and the indices of
    its t column and state columns in layout order."""
    try:
        t_col = header.index("t")
    except ValueError:
        raise ValueError("signal CSV needs a 't' column") from None
    state_cols = {}
    for j, name in enumerate(header):
        if name.startswith("x") and "_" in name:
            agent, _, comp = name[1:].partition("_")
            if agent.isdigit() and comp.isdigit():
                state_cols.setdefault(int(agent), {})[int(comp)] = j
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
    if doc["completed"]:
        steps = horizon / dt
    elif events and events[-1]["kind"] in ("qp_infeasible", "disturbance_bound"):
        steps = events[-1]["t"] / dt + (events[-1]["kind"] == "disturbance_bound")
    else:
        raise ValueError("log: an aborted run must end with a qp_infeasible or disturbance_bound event")
    if not 0.0 <= steps < 2.0**53:
        raise ValueError("log: dt and the events give no step count")
    return int(round(steps))


def _hashed_lines(fh, digest):
    for line in fh:
        digest.update(line)
        yield line.decode()


def log_from_dict(doc: dict, directory, team: Team) -> TrajectoryLog:
    """Read a run of team back from a log section and the trajectory CSV it
    names in directory.  The CSV is streamed through its sha256 and a csv
    reader into the log's table, of the size that the section's completed
    flag and events give; any fault of the pair is a one-line ValueError or OSError."""
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
    nx = cols.x.stop  # the t and x columns, the only ones of the terminal row
    # every row holds at least its commas and line end
    if (n_steps + 1) * (len(cols.header) + 1) > path.stat().st_size:
        raise ValueError(f"{path}: too short for the {n_steps + 1} rows the log's completed flag and events give")
    table = np.empty((n_steps + 1, len(cols.header)))
    digest = hashlib.sha256()
    n_rows, fault = 0, None  # the first bad line, reported after the hash and row count
    with open(path, "rb") as fh:
        rows = csv.reader(_hashed_lines(fh, digest))
        try:
            if next(rows, None) != cols.header:
                raise ValueError(f"{path}: header does not match the config's agents and cliques")
            for row in rows:
                if n_rows <= n_steps and fault is None:
                    try:
                        if n_rows < n_steps:
                            table[n_rows] = row
                        else:  # the terminal row: only t and x are read
                            table[n_rows, :nx] = row[:nx]
                    except ValueError:
                        fault = n_rows + 2
                n_rows += 1
        except csv.Error as err:  # an oversized field
            raise ValueError(f"{path}: {err}") from None
    if digest.hexdigest() != link["sha256"]:
        raise ValueError(f"{path}: sha256 does not match the log document")
    if n_rows != n_steps + 1:
        raise ValueError(f"{path}: {n_rows} rows, but the log's completed flag and events give {n_steps + 1}")
    if fault is not None:
        raise ValueError(f"{path} line {fault}: a missing, extra or non-numeric cell")
    if not np.isfinite(table[:, :nx]).all():
        raise ValueError(f"{path}: non-finite t or x cell")
    table[n_steps, nx:] = np.nan
    return TrajectoryLog(table, cols, events, doc["completed"], float(doc["dt"]))
