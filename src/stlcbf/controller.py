"""Decentralized min-norm control law enforcing the barrier condition.

Every agent i of clique k solves, at its own state snapshot,

    min  u' u
    s.t. (db/dx_i) g_i u >= ||db/dx_i|| n_hat C
                            - N_i (db/dt + kappa b)
                            - (db/dx_i) f_i [- (db/dx_i) f_u if known]

where N_i splits the time-derivative burden proportionally to gradient-block
norms and n_hat = sqrt(n_bar_k * max agent dimension) inflates the noise
margin so that the per-agent conditions sum to the clique-level barrier
condition under any disturbance with ||c_i|| <= C.  The single-constraint QP
has the closed-form solution u = max(rhs, 0) / ||a||^2 * a.

team_control evaluates the law for a whole team on one stacked state vector
(see Team) in one pass.  One barrier kernel call over the stack of the live
cliques' barriers (the team pass) gives every clique's value, rate and
block of the team gradient, with the bits barrier_state gives that clique
alone; then team-wide vector operations give every agent's block norm,
share, half-space (Team.half_spaces) and closed-form input, with no loop
over the cliques.  The step writes shares, barrier values, right-hand
sides, directions and inputs into the caller's rows, such as rows of a
run's tables; the residuals a'u - rhs that only a log reads are left to
Team.residuals, which a run calls once over many steps' rows.  The team
keeps one pass per combination of its cliques' activity intervals, and
the caller tabulates each step's pass and funnel rows ahead over its time
grid (Team.funnels), so the step makes no interval lookup, no funnel
evaluation and no input check.  Every float operation is the one the
per-agent law takes, in the same order, and each row-wise dot product runs
np.dot's kernel on the agent's own block (see _Blocks), so the stacked step
reproduces the per-agent law bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .barrier import _SCALE_LIMIT, CompositeBarrier, _gamma, _stack, _state, _value_scale
from .barrier import barrier_state  # noqa: F401 -- perfbench/tracing.py wraps controller.barrier_state
from .predicates import StateLayout, is_finite_number, is_integer

__all__ = [
    "AgentModel",
    "Clique",
    "Team",
    "QpInfeasibleError",
    "solve_agent_qp",
    "team_control",
]

_ZERO_TOL = 1e-12


class QpInfeasibleError(RuntimeError):
    """The half-space constraint has no solution (a ~ 0, rhs > 0)."""


@dataclass(frozen=True, eq=False)
class AgentModel:
    """Control-affine agent: xdot = f(x,t) + g u + coupling + noise."""

    agent_id: int
    state_dim: int
    drift: object = None  # callable (x, t) -> (n,); None means zero drift
    input_map: np.ndarray | None = None  # constant g, shape (n, m); None = identity
    input_dim: int = field(init=False)  # m: the input map's columns, or n without a map

    def __post_init__(self):
        n = self.state_dim
        if not (is_integer(n) and n >= 1):
            raise ValueError(f"state_dim must be an integer >= 1, got {n!r}")
        m = n
        if self.input_map is not None:
            g = np.asarray(self.input_map, dtype=float)
            if g.ndim != 2 or g.shape[0] != n:
                raise ValueError(f"input map must have shape ({n}, m), got {g.shape}")
            m = g.shape[1]
            if m < n:
                raise ValueError("input map cannot have full row rank with m < n")
            smin = float(np.linalg.svd(g, compute_uv=False)[-1])
            if smin <= 1e-9:
                raise ValueError("input map must have full row rank")
            object.__setattr__(self, "input_map", g)
        object.__setattr__(self, "input_dim", m)


class _Blocks:
    """Dot products and Euclidean norms of the agent blocks of vectors in one
    state layout, over the last axis (leading axes are kept).

    Blocks of one size are gathered into rows and reduced with np.vecdot, which
    runs np.dot's kernel on each row, so every entry equals np.dot of its two
    blocks, and every norm np.linalg.norm of its block, bit for bit.  einsum,
    (v * v).sum() and hypot round differently in a fifth to a third of cases,
    and zero-padding blocks to one length changes the kernel's blocking once a
    padded row reaches 16 entries.
    """

    __slots__ = ("_shape", "_groups", "_n")

    def __init__(self, layout: StateLayout):
        dims = layout.dims
        self._n = len(dims)
        self._shape = (len(dims), dims[0]) if len(set(dims)) == 1 else None
        offsets = np.cumsum((0,) + dims)
        groups = []
        for d in sorted(set(dims)):
            rows = [r for r, e in enumerate(dims) if e == d]
            groups.append((np.array(rows), np.array([np.arange(offsets[r], offsets[r] + d) for r in rows])))
        self._groups = tuple(groups)

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._shape is not None:
            shape = self._shape if u.ndim == 1 else u.shape[:-1] + self._shape
            u = u.reshape(shape)
            return np.vecdot(u, u if v is u else v.reshape(shape))
        out = np.empty(u.shape[:-1] + (self._n,))
        for rows, idx in self._groups:
            out[..., rows] = np.vecdot(u[..., idx], v[..., idx])
        return out

    def norms(self, v: np.ndarray, out=None) -> np.ndarray:
        return np.sqrt(self.dot(v, v), out=out)


@dataclass(frozen=True, eq=False)
class Clique:
    """Agent subset jointly responsible for one formula: its members, by
    strictly ascending id, its barrier and the constants the barrier
    document gives it.  Team derives the members' layout and n_hat from the
    agents.  The law adds kappa * b, so kappa times the barrier's scale is
    kept at most _SCALE_LIMIT, as eta times it is (see _SCALE_LIMIT)."""

    name: str
    members: tuple
    barrier: CompositeBarrier
    coupling_bound: float
    kappa: float

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError(f"members must strictly ascend, got {list(self.members)}")
        if not (is_finite_number(self.coupling_bound) and self.coupling_bound >= 0.0):
            raise ValueError(f"coupling bound must be a finite number >= 0, got {self.coupling_bound!r}")
        if not (is_finite_number(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be a finite number > 0, got {self.kappa!r}")
        scale = _value_scale(self.barrier)
        if self.kappa * scale > _SCALE_LIMIT:
            raise ValueError(f"kappa must be at most {_SCALE_LIMIT:g} / max(1, largest funnel value or bound radius "
                             f"in magnitude), got {self.kappa!r} with {scale!r}")


class Team:
    """Run-constant layout of a team under the decentralized law.

    The team state is one (dim,) vector holding the agents' blocks in
    ascending id order; the inputs are stacked the same way in input_layout.
    Per clique, in name order whatever the order given, the team keeps the
    index of its stacked state, its members' blocks in ascending id order, in
    the team vector (a slice when the blocks are adjacent, else an index
    array) and its members' rows, and per agent the constant input map,
    drift, clique, n_hat and coupling bound, so that a step builds no
    per-agent dicts and no identity matrices.  The cliques (at least one)
    must partition the agents and have distinct names, and each clique's
    member dimensions must add up to its barrier's; n_hat = sqrt(n_bar_k *
    largest agent dimension of the team).  known holds the ids of the agents
    whose constraint models their secondary input f_u.
    """

    def __init__(self, cliques, agents: dict, known=()):
        self.cliques = tuple(sorted(cliques, key=lambda cl: cl.name))
        if not self.cliques:
            raise ValueError("a team needs at least one clique")
        self.known = frozenset(known)
        self.ids = tuple(sorted(agents))
        members = sorted(i for cl in self.cliques for i in cl.members)
        if members != list(self.ids):
            raise ValueError(f"cliques must partition the agents {list(self.ids)}, "
                             f"but their members are {members}")
        names = [cl.name for cl in self.cliques]
        if len(set(names)) != len(names):
            raise ValueError(f"clique names must be distinct, but they are {names}")
        models = [agents[i] for i in self.ids]
        self.layout = StateLayout(self.ids, tuple(m.state_dim for m in models))
        self.input_layout = StateLayout(self.ids, tuple(m.input_dim for m in models))
        self.dim = self.layout.dim
        self.input_dim = self.input_layout.dim
        self.rows = {i: r for r, i in enumerate(self.ids)}
        self.blocks = self.layout.slices()
        self.input_blocks = self.input_layout.slices()
        state_blocks = _Blocks(self.layout)
        self.block_norms = state_blocks.norms
        self._block_dot = state_blocks.dot
        self._input_dot = _Blocks(self.input_layout).dot
        self._drifts = tuple((self.blocks[m.agent_id], m.drift) for m in models if m.drift is not None)
        self._no_drift = np.broadcast_to(0.0, (self.dim,))  # read-only zeros
        # (state block, input block, g or None for identity) of every agent,
        # kept only when some agent has an input map
        self._maps = ()
        if any(m.input_map is not None for m in models):
            self._maps = tuple(
                (self.blocks[m.agent_id], self.input_blocks[m.agent_id], m.input_map) for m in models
            )
        # per clique: (clique, index of its stacked state in the team vector,
        # its members' team rows); per agent: its clique's index, n_hat and
        # coupling bound
        n = len(self.ids)
        max_dim = max(self.layout.dims, default=0)
        self._clique_of = np.empty(n, dtype=int)
        self._n_hat = np.empty(n)
        self.coupling_bounds = np.empty(n)
        parts = []
        for c, cl in enumerate(self.cliques):
            idx = np.concatenate([np.arange(self.blocks[i].start, self.blocks[i].stop) for i in cl.members])
            rows = [self.rows[i] for i in cl.members]
            if len(idx) != cl.barrier.dim:
                raise ValueError(f"clique {cl.name!r}: member dimensions add up to {len(idx)}, "
                                 f"but its barrier has dim {cl.barrier.dim}")
            self._clique_of[rows] = c
            self._n_hat[rows] = math.sqrt(cl.barrier.dim * max_dim)
            self.coupling_bounds[rows] = cl.coupling_bound
            parts.append((cl, idx, rows))
        self._parts = tuple(parts)
        self._order = [r for _, _, rows in self._parts for r in rows]  # clique by clique
        # each clique's member rows, padded to the largest clique with its
        # last member, and per agent the column of its clique's last member
        width = max(len(rows) for _, _, rows in parts)
        self._members = np.array([rows + rows[-1:] * (width - len(rows)) for _, _, rows in parts])
        self._last = np.array([len(parts[c][2]) - 1 for c in self._clique_of])
        self._passes = {}  # the team pass of each combination of the cliques' activity intervals
        self._input_row = np.repeat(np.arange(n), self.input_layout.dims)  # the agent row of each input entry
        self._known_rows = np.array([i in self.known for i in self.ids]) if self.known else None

    def stack(self, states: dict) -> np.ndarray:
        """Team vector of per-agent states."""
        return np.concatenate([np.asarray(states[i], dtype=float) for i in self.ids])

    def split(self, x: np.ndarray) -> dict:
        """Per-agent views of a team vector."""
        return {i: x[s] for i, s in self.blocks.items()}

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """f_i(x_i, t) of every agent, stacked (shared read-only zeros when no agent has one)."""
        if not self._drifts:
            return self._no_drift
        f = np.zeros(self.dim)
        for s, fn in self._drifts:
            f[s] = fn(x[s], t)
        return f

    def input_effect(self, u: np.ndarray) -> np.ndarray:
        """g_i u_i of every agent, stacked in the state layout.

        An identity map passes u_i through: np.eye(n) @ u_i differs from u_i
        at most in the sign of a zero entry, which the sums this feeds
        (drift + g u, c + w + g f_u) wash out.
        """
        if not self._maps:
            return u
        out = np.empty(self.dim)
        for s, si, g in self._maps:
            out[s] = u[si] if g is None else g @ u[si]
        return out

    def _pass(self, key: tuple):
        """The team pass on the cliques' activity intervals key (one per
        clique, len(schedule) once it expired): (the barrier stack of the
        live cliques, None when no clique is live, their team indices and
        kappas in stack order, each agent's clique in stack order, and the
        expired cliques and their members' rows, or None)."""
        if key not in self._passes:
            live = [c for c, (cl, _, _) in enumerate(self._parts) if key[c] < len(cl.barrier.schedule)]
            st = None
            if live:
                st = _stack([(self._parts[c][0].barrier, key[c], self._parts[c][1]) for c in live])
                live = [live[p] for p in st.order]
            dead = [c for c in range(len(self._parts)) if c not in live]
            pos = np.zeros(len(self._parts), dtype=int)  # an expired clique reads position 0
            pos[live] = np.arange(len(live))
            expired = (dead, [r for c in dead for r in self._parts[c][2]]) if dead else None
            self._passes[key] = (st, np.array(live, dtype=int), np.array([self.cliques[c].kappa for c in live]),
                                 pos[self._clique_of], expired)
        return self._passes[key]

    def funnels(self, times: np.ndarray) -> list:
        """The team pass and its funnel rows at each of the ascending times:
        per time (pass, gamma row, rate row), the rows None once every clique
        is past its final deadline.  A clique's activity interval at t is
        that of barrier_state, and it counts as expired from 1e-12 before its
        final deadline.  Between two switches of any clique the pass stays,
        and one _gamma tabulates its rows over those times."""
        if np.isnan(times).any():
            raise ValueError("times must not be nan")
        keys = np.empty((len(self._parts), len(times)), dtype=int)
        for c, (cl, _, _) in enumerate(self._parts):
            cb = cl.barrier
            keys[c] = np.searchsorted(cb.schedule, times, side="right")
            keys[c, np.searchsorted(times, cb.horizon - 1e-12) :] = len(cb.schedule)
        cuts = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)) + 1
        out = []
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(times)]):
            found = self._pass(tuple(keys[:, lo].tolist()))
            rows = _gamma(times[lo:hi, None], found[0].funnel) if len(found[1]) else [[None] * (hi - lo)] * 2
            out += zip(repeat(found), *rows)
        return out

    def residuals(self, a: np.ndarray, u: np.ndarray, rhs: np.ndarray, out=None) -> np.ndarray:
        """The slack a_i'u_i - rhs_i of every agent's half-space, over any
        leading axes of the directions and inputs a, u (input layout) and the
        right-hand sides rhs (one per agent): one row per step when a run
        fills its log's column for many steps at once."""
        return np.subtract(self._input_dot(a, u), rhs, out=out)

    def half_spaces(self, x: np.ndarray, drift: np.ndarray, f_u: np.ndarray, funnels: tuple, out: tuple) -> tuple:
        """Every agent's half-space a_i'u_i >= rhs_i at the time of funnels,
        the entry of self.funnels for it, in one pass: one barrier kernel
        call over the stack of live cliques gives their values, rates and
        gradient blocks, then team-wide vector operations form every agent's
        norm, share and rhs.  out is a triple of arrays (n_agents,),
        (n_cliques,) and (n_agents,) that the shares, the barrier values and
        the right-hand sides are written into.

        Returns (grad, block norms, a, ||a_i||^2): grad (dim,) holds each
        agent's block of its clique's barrier gradient, a (input_dim,) the
        directions g_i' grad_i (grad_i itself for an identity map, see
        input_effect), and per agent
            rhs_i = ||grad_i|| n_hat C - N_i (db/dt + kappa b) - grad_i' f_i
                    [- grad_i' g_i f_u_i if known].
        The float operations are those of the per-agent law, left to right.
        N_i is ||grad_i|| over the sum of its clique's block norms, added left
        to right in ascending id order by np.add.accumulate (sum() is compensated
        from Python 3.12 on, and np.add.reduceat pairs terms up from three
        members on), or 1 for every member of a clique whose sum is at most
        _ZERO_TOL (a vanishing gradient: each member takes the whole load).
        A clique past its final deadline (value nan) gives its members zero
        gradient, share and rhs.
        """
        shares, values, rhs = out
        (st, live, kappa, stack_of, expired), gam, rate = funnels
        if not len(live):  # every clique expired
            grad, load = np.zeros(self.dim), np.zeros(len(self.ids))
        else:
            value, grad, dbdt, _, _ = _state(st, x, gam, rate)
            if expired is not None:  # the stack's gradient covers the live cliques' entries
                grad, live_grad = np.zeros(self.dim), grad
                grad[st.states] = live_grad
            values[live] = value
            load = (dbdt + kappa * value)[stack_of]  # db/dt + kappa b of each agent's clique
        sq = self._block_dot(grad, grad)
        norms = np.sqrt(sq)
        den = np.add.accumulate(norms[self._members], axis=1)[self._clique_of, self._last]
        if min(den.tolist()) > _ZERO_TOL:
            np.divide(norms, den, out=shares)
        else:
            fallback = den <= _ZERO_TOL
            den[fallback] = 1.0
            np.divide(norms, den, out=shares)
            shares[fallback] = 1.0
        if expired is not None:  # an expired clique's members get share and load 0
            values[expired[0]] = math.nan
            shares[expired[1]] = 0.0
            load[expired[1]] = 0.0
        np.multiply(norms, self._n_hat, out=rhs)
        rhs *= self.coupling_bounds
        rhs -= shares * load
        if self._drifts:
            rhs -= self._block_dot(grad, drift)
        if self._known_rows is not None:
            rhs -= np.where(self._known_rows, self._block_dot(grad, self.input_effect(f_u)), 0.0)
        if not self._maps:
            return grad, norms, grad, sq
        a = np.empty(self.input_dim)
        for s, si, g in self._maps:
            a[si] = grad[s] if g is None else g.T @ grad[s]
        return grad, norms, a, self._input_dot(a, a)


def solve_agent_qp(a: np.ndarray, rhs: float) -> np.ndarray:
    """Minimum-norm point of the half-space a'u >= rhs (closed form).

    Infeasible when the input it needs, of norm rhs / ||a||, exceeds
    1 / _ZERO_TOL: rhs scales with the gradient block a is formed from, so a
    tiny block alone still gives a bounded input.  When ||a||^2 falls below
    the smallest normal double, a and rhs are first divided by max |a_i|,
    which leaves the input unchanged; every other case keeps its bits.
    """
    a = np.asarray(a, dtype=float)
    if rhs <= 0.0:
        return np.zeros_like(a)
    nn = float(np.dot(a, a))
    scaled = rhs
    if nn < sys.float_info.min:
        m = float(np.max(np.abs(a)))
        if m > 0.0:
            a, scaled = a / m, rhs / m
            nn = float(np.dot(a, a))
    limit = _ZERO_TOL * scaled  # a product, unlike ** 2, overflows to inf without raising
    if nn <= limit * limit:
        raise QpInfeasibleError(f"constraint direction vanished with rhs = {rhs:g} > 0")
    return (scaled / nn) * a


@dataclass(slots=True)
class TeamControl:
    """The stacked inputs and what the rest of the step reads of the pass;
    the caller's rows hold the rest (see team_control).  Agent-indexed
    arrays follow Team.ids."""

    inputs: np.ndarray  # (team.input_dim,) QP input u of every agent, the caller's row
    grad: np.ndarray  # (team.dim,) each agent's block of its clique's barrier gradient
    grad_norms: np.ndarray  # (n_agents,) norms of those blocks
    drift: np.ndarray  # (team.dim,) f_i(x_i, t)


def team_control(team: Team, x: np.ndarray, t: float, f_u: np.ndarray, funnels: tuple, out: tuple) -> TeamControl:
    """Evaluate every agent's QP at time t from the stacked team state x and
    the stacked secondary input f_u (read only for the members in team.known).
    funnels goes on to Team.half_spaces: the entry of team.funnels for t.
    out is a tuple of arrays, for example rows of a run's tables, that the
    shares (n_agents,), the barrier values (n_cliques, in Team.cliques'
    order, nan once the clique expired), the right-hand sides (n_agents,),
    the directions a and the inputs (team.input_dim,) are written into.

    The closed form runs on the whole team at once: u_i = (rhs_i / ||a_i||^2)
    a_i where rhs_i > 0, else +0, which is solve_agent_qp's own arithmetic.  A
    row whose ||a_i||^2 may lie below the normal range or at most
    (_ZERO_TOL rhs_i)^2 goes through solve_agent_qp itself, so the rescaled
    input and the infeasibility error keep one definition.  A clique past its
    final deadline has no remaining obligations; its members get zero input,
    share, direction and right-hand side from it.
    """
    _, values, rhs, a_out, u = out
    drift = team.drift(x, t)
    grad, norms, a, nn = team.half_spaces(x, drift, f_u, funnels, out[:3])
    rows = team._input_row
    norms_a = norms if a is grad else np.sqrt(nn)
    a_out[...] = a
    rhs_list = rhs.tolist()
    # Row r goes through solve_agent_qp when rhs_r > 0 and nn_r <= (_ZERO_TOL
    # rhs_r)^2 or below the normal range; then sqrt(nn_r) <= 2 _ZERO_TOL rhs_r
    # + 1.5e-154 after rounding.  When every rhs is > 0 and the smallest norm
    # clears that bound at the largest rhs, every row takes the plain closed
    # form.  A nan rhs gives a nan input on either path, as in solve_agent_qp,
    # and a nan that min() or max() returns takes the row-wise path.
    if min(rhs_list) > 0.0 and min(norms_a.tolist()) > 2.0 * _ZERO_TOL * max(rhs_list) + 1.5e-154:
        np.multiply((rhs / nn)[rows], a, out=u)
        odd_rows = ()
    else:
        active = ~(rhs <= 0.0)
        odd = active & (norms_a <= 2.0 * _ZERO_TOL * rhs + 1.5e-154)
        active &= ~odd
        odd_rows = sorted(odd.nonzero()[0].tolist(), key=team._order.index)  # the per-agent law's order
        coef = np.divide(rhs, nn, out=np.zeros(len(rhs)), where=active)
        u[...] = 0.0
        np.multiply(coef[rows], a, out=u, where=active[rows])
    for r in odd_rows:
        si = team.input_blocks[team.ids[r]]
        try:
            u[si] = solve_agent_qp(a[si], float(rhs[r]))
        except QpInfeasibleError as err:
            raise QpInfeasibleError(
                f"agent {team.ids[r]} infeasible at t = {t:g}: {err} "
                f"(barrier value {values[team._clique_of[r]]:g})"
            ) from None
    return TeamControl(u, grad, norms, drift)
