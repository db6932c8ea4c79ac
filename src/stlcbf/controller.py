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
(see Team): one barrier kernel call per live clique, then one pass of
team-wide vector operations for every agent's block norm, share, half-space
and closed-form input (Team.half_spaces).  The kernel call takes the
clique's funnel rows at the step's time, which a run tabulates ahead over
its time grid (Team.funnels), and the clique's stacked state as a view
where its members' blocks are adjacent in the team vector, so the step
makes no interval lookup, no funnel evaluation and no input check.  Every
float operation is the one the per-agent law takes, in the same order, and
each row-wise dot product runs np.dot's kernel on the agent's own block (see
_Blocks), so the stacked step reproduces the per-agent law bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .barrier import CompositeBarrier, _funnel_rows, _state
from .barrier import barrier_state  # noqa: F401 -- perfbench/tracing.py wraps controller.barrier_state
from .predicates import StateLayout, is_finite_number

__all__ = [
    "AgentModel",
    "Clique",
    "Team",
    "QpInfeasibleError",
    "solve_agent_qp",
    "team_control",
    "TeamControl",
]

_ZERO_TOL = 1e-12


class QpInfeasibleError(RuntimeError):
    """The half-space constraint has no solution (a ~ 0, rhs > 0)."""


@dataclass(frozen=True, eq=False)
class AgentModel:
    """Control-affine agent: xdot = f(x,t) + g u + coupling + noise."""

    agent_id: int
    state_dim: int
    input_dim: int | None = None
    drift: object = None  # callable (x, t) -> (n,); None means zero drift
    input_map: np.ndarray | None = None  # constant g, shape (n, m); None = identity

    def __post_init__(self):
        m = self.input_dim if self.input_dim is not None else self.state_dim
        object.__setattr__(self, "input_dim", m)
        if self.input_map is not None:
            g = np.asarray(self.input_map, dtype=float)
            if g.shape != (self.state_dim, m):
                raise ValueError(f"input map must have shape ({self.state_dim}, {m})")
            if m < self.state_dim:
                raise ValueError("input map cannot have full row rank with m < n")
            smin = float(np.linalg.svd(g, compute_uv=False)[-1])
            if smin <= 1e-9:
                raise ValueError("input map must have full row rank")
            object.__setattr__(self, "input_map", g)


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
            shape = u.shape[:-1] + self._shape
            return np.vecdot(u.reshape(shape), v.reshape(shape))
        out = np.empty(u.shape[:-1] + (self._n,))
        for rows, idx in self._groups:
            out[..., rows] = np.vecdot(u[..., idx], v[..., idx])
        return out

    def norms(self, v: np.ndarray) -> np.ndarray:
        return np.sqrt(self.dot(v, v))


@dataclass(frozen=True, eq=False)
class Clique:
    """Agent subset jointly responsible for one formula: its barrier and the
    constants the barrier document gives it.  Team derives the members'
    layout and n_hat from the agents."""

    name: str
    members: tuple
    barrier: CompositeBarrier
    coupling_bound: float
    kappa: float

    def __post_init__(self):
        if not (is_finite_number(self.coupling_bound) and self.coupling_bound >= 0.0):
            raise ValueError(f"coupling bound must be a finite number >= 0, got {self.coupling_bound!r}")
        if not (is_finite_number(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be a finite number > 0, got {self.kappa!r}")


class Team:
    """Run-constant layout of a team under the decentralized law.

    The team state is one (dim,) vector holding the agents' blocks in
    ascending id order; the inputs are stacked the same way in input_layout.
    Per clique the team keeps the index of its stacked state in the team
    vector (a slice when the members' blocks are adjacent, else an index
    array) and its members' rows, and per agent the constant input map,
    drift, clique, n_hat and coupling bound, so that a step builds no
    per-agent dicts and no identity matrices.  The cliques must partition the
    agents, and each clique's member dimensions must add up to its barrier's;
    n_hat = sqrt(n_bar_k * largest agent dimension of the team).  known holds
    the ids of the agents whose constraint models their secondary input f_u.
    """

    def __init__(self, cliques, agents: dict, known=()):
        self.cliques = tuple(cliques)
        self.known = frozenset(known)
        self.ids = tuple(sorted(agents))
        members = sorted(i for cl in self.cliques for i in cl.members)
        if members != list(self.ids):
            raise ValueError(f"cliques must partition the agents {list(self.ids)}, "
                             f"but their members are {members}")
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
        # (state block, input block, g or None for identity) of every agent,
        # kept only when some agent has an input map
        self._maps = ()
        if any(m.input_map is not None for m in models):
            self._maps = tuple(
                (self.blocks[m.agent_id], self.input_blocks[m.agent_id], m.input_map) for m in models
            )
        # (clique, index array of its stacked state, its members' team rows);
        # the index becomes a slice below once the dimensions are checked
        self._parts = tuple(
            (cl, np.concatenate([np.arange(self.blocks[i].start, self.blocks[i].stop) for i in cl.members]),
             [self.rows[i] for i in cl.members])
            for cl in self.cliques
        )
        self._order = [r for _, _, rows in self._parts for r in rows]  # clique by clique
        # per agent: its clique's index, n_hat and coupling bound
        n = len(self.ids)
        max_dim = max(self.layout.dims, default=0)
        self._clique_of = np.empty(n, dtype=int)
        self._n_hat = np.empty(n)
        self.coupling_bounds = np.empty(n)
        for c, (cl, idx, rows) in enumerate(self._parts):
            if len(idx) != cl.barrier.dim:
                raise ValueError(f"clique {cl.name!r}: member dimensions add up to {len(idx)}, "
                                 f"but its barrier has dim {cl.barrier.dim}")
            self._clique_of[rows] = c
            self._n_hat[rows] = math.sqrt(cl.barrier.dim * max_dim)
            self.coupling_bounds[rows] = cl.coupling_bound
        # a clique whose stacked state is one run of the team vector reads
        # and writes it through a basic slice, a view
        self._parts = tuple(
            (cl, slice(int(idx[0]), int(idx[-1]) + 1) if np.all(np.diff(idx) == 1) else idx, rows)
            for cl, idx, rows in self._parts
        )
        # where each agent's share denominator and load sit in the per-clique
        # list that half_spaces builds each step; the agent row of each input entry
        self._pick = np.stack([self._clique_of, self._clique_of + len(self.cliques)])
        self._input_row = np.repeat(np.arange(n), self.input_layout.dims)
        self._known_rows = np.array([i in self.known for i in self.ids]) if self.known else None

    def stack(self, states: dict) -> np.ndarray:
        """Team vector of per-agent states."""
        return np.concatenate([np.asarray(states[i], dtype=float) for i in self.ids])

    def split(self, x: np.ndarray) -> dict:
        """Per-agent views of a team vector."""
        return {i: x[s] for i, s in self.blocks.items()}

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """f_i(x_i, t) of every agent, stacked."""
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

    def funnels(self, times: np.ndarray):
        """The barrier kernel's funnel rows of every clique at each of the
        ascending times: per time, one (interval, gamma row, rate row) entry
        per clique, or None once the clique is past its final deadline.
        Each clique's rows are tabulated over the times at once."""
        if np.isnan(times).any():
            raise ValueError("times must not be nan")
        per_clique = []
        for cl, _, _ in self._parts:
            n_live = int(np.searchsorted(times, cl.barrier.horizon - 1e-12))
            per_clique.append(chain(_funnel_rows(cl.barrier, times[:n_live]), repeat(None, len(times) - n_live)))
        return zip(*per_clique)

    def half_spaces(self, x: np.ndarray, t: float, drift: np.ndarray, f_u: np.ndarray, funnels=None) -> tuple:
        """Every agent's half-space a_i'u_i >= rhs_i at time t, from one
        barrier kernel call per live clique and then team-wide vector
        operations.  The kernel takes each clique's rows from funnels, the
        entry of self.funnels for t: a run tabulates them ahead, and without
        them they are tabulated for t alone.

        Returns (grad, barrier values, block norms, shares, a, ||a_i||^2,
        rhs): grad (dim,) holds each agent's block of its clique's barrier
        gradient, a (input_dim,) the directions g_i' grad_i (grad_i itself
        for an identity map, see input_effect), and per agent
            rhs_i = ||grad_i|| n_hat C - N_i (db/dt + kappa b) - grad_i' f_i
                    [- grad_i' g_i f_u_i if known].
        The float operations are those of the per-agent law, left to right.
        N_i is ||grad_i|| over the sum of its clique's block norms, added in
        member order, or 1 for every member of a clique whose sum is at most
        _ZERO_TOL (a vanishing gradient: each member takes the whole load).
        A clique past its final deadline (value nan) gives its members zero
        gradient, share and rhs.
        """
        if funnels is None:
            funnels = next(self.funnels(np.array([t])))
        n_c = len(self._parts)
        grad = np.zeros(self.dim)
        values = np.full(n_c, math.nan)
        # per clique: share denominator (inf, for an expired clique, gives
        # share 0), then db/dt + kappa b
        per_clique = [math.inf] * n_c + [0.0] * n_c
        live = []
        for c, ((cl, idx, rows), funnel) in enumerate(zip(self._parts, funnels)):
            if funnel is None:
                continue
            state = _state(cl.barrier, x[idx], *funnel)
            grad[idx] = state.grad_x
            values[c] = state.value
            per_clique[n_c + c] = state.dbdt + cl.kappa * state.value
            live.append((c, rows))
        sq = self._block_dot(grad, grad)
        norms = np.sqrt(sq)
        listed = norms.tolist()
        fallback = []
        for c, rows in live:
            per_clique[c] = sum([listed[r] for r in rows])
            if per_clique[c] <= _ZERO_TOL:
                fallback += rows
                per_clique[c] = 1.0
        den, load = np.array(per_clique)[self._pick]
        shares = norms / den
        if fallback:
            shares[fallback] = 1.0
        rhs = norms * self._n_hat * self.coupling_bounds - shares * load
        if self._drifts:
            rhs = rhs - self._block_dot(grad, drift)
        if self._known_rows is not None:
            rhs = rhs - np.where(self._known_rows, self._block_dot(grad, self.input_effect(f_u)), 0.0)
        if not self._maps:
            return grad, values, norms, shares, grad, sq, rhs
        a = np.empty(self.input_dim)
        for s, si, g in self._maps:
            a[si] = grad[s] if g is None else g.T @ grad[s]
        return grad, values, norms, shares, a, self._input_dot(a, a), rhs


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
    """Stacked inputs plus the per-step diagnostics the trajectory log records.

    Agent-indexed arrays follow Team.ids, clique-indexed ones Team.cliques.
    """

    inputs: np.ndarray  # (team.input_dim,) QP input u of every agent
    residuals: np.ndarray  # (n_agents,) a'u - rhs
    shares: np.ndarray  # (n_agents,) N_i
    grad: np.ndarray  # (team.dim,) each agent's block of its clique's barrier gradient
    grad_norms: np.ndarray  # (n_agents,) norms of those blocks
    drift: np.ndarray  # (team.dim,) f_i(x_i, t)
    barrier_values: np.ndarray  # (n_cliques,) b, nan once the clique expired


def team_control(team: Team, x: np.ndarray, t: float, f_u: np.ndarray, funnels=None) -> TeamControl:
    """Evaluate every agent's QP at time t from the stacked team state x and
    the stacked secondary input f_u (read only for the members in team.known).
    funnels goes on to Team.half_spaces: the entry of team.funnels for t, or
    None to tabulate the barrier rows for t alone.

    The closed form runs on the whole team at once: u_i = (rhs_i / ||a_i||^2)
    a_i where rhs_i > 0, else +0, which is solve_agent_qp's own arithmetic.  A
    row whose ||a_i||^2 may lie below the normal range or at most
    (_ZERO_TOL rhs_i)^2 goes through solve_agent_qp itself, so the rescaled
    input and the infeasibility error keep one definition.  A clique past its
    final deadline has no remaining obligations; its members get zero input,
    share and residual from it.
    """
    drift = team.drift(x, t)
    grad, values, norms, shares, a, nn, rhs = team.half_spaces(x, t, drift, f_u, funnels)
    active = ~(rhs <= 0.0)  # a nan rhs gives a nan input, as in solve_agent_qp
    # a superset of those rows: nn <= limit * limit gives sqrt(nn) <= 2 limit
    # after rounding, and nn below the smallest normal sqrt(nn) < 1.5e-154
    odd = active & ((norms if a is grad else np.sqrt(nn)) <= 2.0 * _ZERO_TOL * rhs + 1.5e-154)
    odd_rows = odd.nonzero()[0]
    if odd_rows.size:
        active &= ~odd
    coef = np.divide(rhs, nn, out=np.zeros(len(rhs)), where=active)
    u = np.multiply(coef[team._input_row], a, out=np.zeros(team.input_dim), where=active[team._input_row])
    for r in sorted(odd_rows.tolist(), key=team._order.index):  # the per-agent law's order
        si = team.input_blocks[team.ids[r]]
        try:
            u[si] = solve_agent_qp(a[si], float(rhs[r]))
        except QpInfeasibleError as err:
            raise QpInfeasibleError(
                f"agent {team.ids[r]} infeasible at t = {t:g}: {err} "
                f"(barrier value {values[team._clique_of[r]]:g})"
            ) from None
    return TeamControl(
        inputs=u, residuals=team._input_dot(a, u) - rhs, shares=shares, grad=grad,
        grad_norms=norms, drift=drift, barrier_values=values,
    )
