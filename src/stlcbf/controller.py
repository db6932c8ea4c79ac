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
(see Team): one barrier evaluation per live clique, the members' block
norms, shares and right-hand sides as vectors, then the closed form per
agent.  Every float operation is the one the per-agent law takes, in the
same order, so the stacked step reproduces it bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .barrier import CompositeBarrier, BarrierState, barrier_state
from .predicates import StateLayout

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


class _BlockNorms:
    """Euclidean norm of every agent block of vectors in one state layout.

    Each norm equals np.linalg.norm of its block bit for bit: np.vecdot runs
    the same dot kernel on each row of the reshaped vector, while einsum,
    (v * v).sum() and hypot round differently in a fifth to a third of cases.
    Layouts with blocks of mixed size take the norms block by block.
    """

    __slots__ = ("_shape", "_slices")

    def __init__(self, layout: StateLayout):
        dims = layout.dims
        self._shape = (len(dims), dims[0]) if len(set(dims)) == 1 else None
        self._slices = tuple(layout.slices().values())

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if self._shape is not None:
            rows = v.reshape(self._shape)
            return np.sqrt(np.vecdot(rows, rows))
        return np.array([math.sqrt(float(v[s] @ v[s])) for s in self._slices])


@dataclass(frozen=True, eq=False)
class Clique:
    """Agent subset jointly responsible for one formula, with its barrier."""

    name: str
    members: tuple
    barrier: CompositeBarrier
    layout: StateLayout
    coupling_bound: float
    kappa: float
    max_agent_dim: int

    def __post_init__(self):
        if tuple(self.layout.ids) != tuple(self.members):
            raise ValueError("layout ids must match the member order")
        if self.layout.dim != self.barrier.dim:
            raise ValueError("layout dimension does not match the barrier")
        if self.coupling_bound < 0.0:
            raise ValueError("coupling bound must be >= 0")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "_norms", _BlockNorms(self.layout))

    @property
    def n_hat(self) -> float:
        return math.sqrt(self.barrier.dim * self.max_agent_dim)

    def block(self, i: int) -> slice:
        return self.layout.block(i)

    def block_norms(self, v: np.ndarray) -> np.ndarray:
        """Norm of each member's block of a clique vector, in member order."""
        return self._norms(v)

    def shares(self, norms: np.ndarray) -> np.ndarray:
        """Load shares N_i of the members from their gradient-block norms:
        each norm over their sum, or 1 for every member when the gradient
        vanishes (the conservative fallback)."""
        den = sum(norms.tolist())
        if den <= _ZERO_TOL:
            return np.ones(len(self.members))
        return norms / den


class Team:
    """Run-constant layout of a team under the decentralized law.

    The team state is one (dim,) vector holding the agents' blocks in
    ascending id order; the inputs are stacked the same way in input_layout.
    Per clique the team keeps the index array of its stacked state in the
    team vector and its members' rows, and per agent the constant input map,
    drift and coupling bound, so that a step builds no per-agent dicts and
    no identity matrices.  An agent may belong to at most one clique.  known
    holds the ids of the agents whose constraint models their secondary
    input f_u.
    """

    def __init__(self, cliques, agents: dict, known=()):
        self.cliques = tuple(cliques)
        self.known = frozenset(known)
        seen = set()
        for cl in self.cliques:
            for i in cl.members:
                if i in seen:
                    raise ValueError(f"agent {i} appears in two cliques")
                seen.add(i)
        self.ids = tuple(sorted(agents))
        models = [agents[i] for i in self.ids]
        self.layout = StateLayout(self.ids, tuple(m.state_dim for m in models))
        self.input_layout = StateLayout(self.ids, tuple(m.input_dim for m in models))
        self.dim = self.layout.dim
        self.input_dim = self.input_layout.dim
        self.rows = {i: r for r, i in enumerate(self.ids)}
        self.blocks = self.layout.slices()
        self.input_blocks = self.input_layout.slices()
        self.block_norms = _BlockNorms(self.layout)
        self._drifts = tuple((self.blocks[m.agent_id], m.drift) for m in models if m.drift is not None)
        # (state block, input block, g or None for identity) of every agent,
        # kept only when some agent has an input map
        self._maps = ()
        if any(m.input_map is not None for m in models):
            self._maps = tuple(
                (self.blocks[m.agent_id], self.input_blocks[m.agent_id], m.input_map) for m in models
            )
        self.parts = tuple(_CliquePart(cl, self, agents) for cl in self.cliques)
        self.coupling_bounds = np.full(len(self.ids), math.inf)  # no clique, no bound
        for part in self.parts:
            self.coupling_bounds[part.rows] = part.clique.coupling_bound

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


class _CliquePart:
    """One clique's index arrays into the team layout and its members' constants."""

    __slots__ = ("clique", "idx", "rows", "n_hat", "members", "drifted", "known")

    def __init__(self, cl: Clique, team: Team, agents: dict):
        self.clique = cl
        blocks = [team.blocks[i] for i in cl.members]
        self.idx = np.concatenate([np.arange(b.start, b.stop) for b in blocks])
        self.rows = np.array([team.rows[i] for i in cl.members], dtype=np.intp)
        self.n_hat = cl.n_hat
        # (agent id, team row, clique block, input block, g transposed or None)
        self.members = tuple(
            (i, team.rows[i], cl.block(i), team.input_blocks[i],
             None if agents[i].input_map is None else agents[i].input_map.T)
            for i in cl.members
        )
        self.drifted = tuple(
            (j, cl.block(i), team.blocks[i])
            for j, i in enumerate(cl.members) if agents[i].drift is not None
        )
        self.known = tuple(
            (j, cl.block(i), team.input_blocks[i], agents[i].input_map)
            for j, i in enumerate(cl.members) if i in team.known
        )

    def constraints(self, state: BarrierState, drift: np.ndarray, f_u: np.ndarray) -> tuple:
        """Block norms, shares, and the half-spaces a_i'u >= rhs_i of every member,
        from the stacked drift and secondary input of the team.

        The float operations are those of the per-agent law, member by member:
        rhs = ||db/dx_i|| n_hat C - N_i (db/dt + kappa b) - (db/dx_i) f_i
        [- (db/dx_i) g_i f_u if known], evaluated left to right; with an
        identity map a_i is the gradient block itself (see Team.input_effect).
        """
        cl = self.clique
        grad = state.grad_x
        norms = cl.block_norms(grad)
        shares = cl.shares(norms)
        rhs = norms * self.n_hat * cl.coupling_bound - shares * (state.dbdt + cl.kappa * state.value)
        if self.drifted:
            gf = np.zeros(len(norms))
            for j, blk, s in self.drifted:
                gf[j] = float(np.dot(grad[blk], drift[s]))
            rhs = rhs - gf
        for j, blk, si, g in self.known:
            rhs[j] -= float(np.dot(grad[blk], f_u[si] if g is None else g @ f_u[si]))
        a = [grad[blk] if gt is None else gt @ grad[blk] for _, _, blk, _, gt in self.members]
        return norms, shares, a, rhs


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


def team_control(team: Team, x: np.ndarray, t: float, f_u: np.ndarray) -> TeamControl:
    """Evaluate every agent's QP at time t from the stacked team state x and
    the stacked secondary input f_u (read only for the members in team.known).

    A clique past its final deadline has no remaining obligations; its members
    get zero input, share and residual from it, as do agents outside every
    clique.
    """
    n = len(team.ids)
    drift = team.drift(x, t)
    inputs = np.zeros(team.input_dim)
    residuals = np.zeros(n)
    shares = np.zeros(n)
    grad = np.zeros(team.dim)
    grad_norms = np.zeros(n)
    values = np.full(len(team.parts), math.nan)
    for c, part in enumerate(team.parts):
        cl = part.clique
        if t >= cl.barrier.horizon - 1e-12:
            continue
        state = barrier_state(cl.barrier, x[part.idx], t)
        values[c] = state.value
        norms, sh, a, rhs = part.constraints(state, drift, f_u)
        grad[part.idx] = state.grad_x
        grad_norms[part.rows] = norms
        shares[part.rows] = sh
        for (i, row, _, si, _), a_i, rhs_i in zip(part.members, a, rhs.tolist()):
            try:
                u = solve_agent_qp(a_i, rhs_i)
            except QpInfeasibleError as err:
                raise QpInfeasibleError(
                    f"agent {i} infeasible at t = {t:g}: {err} "
                    f"(barrier value {state.value:g})"
                ) from None
            inputs[si] = u
            residuals[row] = float(np.dot(a_i, u)) - rhs_i
    return TeamControl(
        inputs=inputs, residuals=residuals, shares=shares, grad=grad,
        grad_norms=grad_norms, drift=drift, barrier_values=values,
    )
