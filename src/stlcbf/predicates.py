"""Concave predicate functions h(x) >= 0 over stacked multi-agent states.

Two concrete forms are supported:

* affine:    h(x) = c . x + d
* quad_ball: h(x) = e - ||A x + b||^2

Both are concave in x, which the barrier composition relies on.  Predicates
are expressed over a stacked state vector whose block structure is described
by a StateLayout (which agent owns which slice).

A predicate's bulk ``values`` over sampled states reads only its support,
the nonzero columns of c (or of each row of A), found once, on the first
call, and sums the products elementwise in ascending (agent id, component)
order of the layout it was parsed against (in column order when it has
none).  So a value costs one product per support entry, a sample's value has
the same bits in any slice of the states that holds it, and a literal has
the same bits whatever order its layout lists the agents in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "StateLayout",
    "AffinePredicate",
    "BallPredicate",
    "Predicate",
    "predicate_to_dict",
    "predicate_from_dict",
]


# Coefficients above this magnitude are refused.  One enters the team step at
# most to the fourth power (a ball's gradient row -2 A (A x + b), squared in the
# law's block norms; other products hold fewer): 1e50 keeps that at 1e200, a
# factor 1e108 below the largest double for the state, dimensions, eta and inputs.
_COEF_LIMIT = 1e50


def _bounded(**coefficients):
    """Refuse a coefficient list holding a value above _COEF_LIMIT in magnitude
    (checked on Python floats, cheaper than numpy's ufuncs on arrays this small)."""
    for name, values in coefficients.items():
        if any(abs(v) > _COEF_LIMIT for v in values):
            raise ValueError(f"{name} must be at most {_COEF_LIMIT:g} in magnitude")


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _nonzero(row: np.ndarray, layout) -> tuple:
    """(column, coefficient) pairs of a coefficient row's nonzero entries, as
    Python ints and floats, in layout's id order (column order for None)."""
    vals = row.tolist()
    order = range(len(vals)) if layout is None else layout.id_order
    return tuple((j, vals[j]) for j in order if vals[j])


def _check_layout(layout, dim: int) -> None:
    if layout is not None and layout.dim != dim:
        raise ValueError(f"a predicate of dimension {dim} given a layout of dimension {layout.dim}")


def _checked(X: np.ndarray, dim: int) -> np.ndarray:
    """X if it is a (samples, dim) array, else a one-line ValueError naming
    its shape and dim: a support read would take the first columns of a
    wider X."""
    if X.shape[1:] != (dim,):
        raise ValueError(f"states of shape {X.shape} given to a predicate of dimension {dim}")
    return X


def _row_values(support: tuple, offset: float, X: np.ndarray) -> np.ndarray:
    """sum over the support of coefficient * X[:, column], in its order, plus
    offset: a fresh array, computed row by row with no reduction across
    columns, so each row's bits do not depend on the other rows of X."""
    if not support:
        return np.full(X.shape[0], offset)
    (j, coef), *rest = support
    out = coef * X[:, j]
    for j, coef in rest:
        out += coef * X[:, j]
    out += offset
    return out


@dataclass(frozen=True)
class StateLayout:
    """Block layout of a stacked state: agent ids and their block dimensions."""

    ids: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.dims):
            raise ValueError("ids and dims must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate agent ids in layout")
        if any(d < 1 for d in self.dims):
            raise ValueError("agent dimensions must be >= 1")

    @property
    def dim(self) -> int:
        return int(sum(self.dims))

    def block(self, agent_id: int) -> slice:
        """Slice of the stacked vector owned by agent_id."""
        off = 0
        for aid, d in zip(self.ids, self.dims):
            if aid == agent_id:
                return slice(off, off + d)
            off += d
        raise KeyError(f"agent {agent_id} not in layout")

    def slices(self) -> dict:
        """Agent id -> its slice of the stacked vector, for every agent."""
        out, off = {}, 0
        for aid, d in zip(self.ids, self.dims):
            out[aid] = slice(off, off + d)
            off += d
        return out

    @cached_property
    def id_order(self) -> tuple:
        """The columns in ascending (agent id, component) order: the same
        sequence of (agent, component) whatever order ids lists the agents in.
        Found on first use: only a predicate's values reads it."""
        slices = self.slices()
        return tuple(j for aid in sorted(self.ids) for j in range(slices[aid].start, slices[aid].stop))


@dataclass(frozen=True, eq=False)
class AffinePredicate:
    """h(x) = c . x + d, over the stacked state of layout when parse built
    it (None: no agent blocks known)."""

    c: np.ndarray
    d: float
    layout: StateLayout | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", _readonly(self.c))
        object.__setattr__(self, "d", float(self.d))
        if self.c.ndim != 1:
            raise ValueError("coefficient vector must be 1-D")
        if self.c.size == 0:  # the barrier kernel divides by a predicate's state dimension
            raise ValueError("c must hold at least one coefficient")
        _bounded(c=self.c.tolist(), d=[self.d])
        _check_layout(self.layout, self.dim)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(self.c @ x + self.d)

    @cached_property
    def _support(self) -> tuple:
        """c's nonzero (column, coefficient) pairs in the layout's id order,
        found on the first values call: the barrier, search and controller
        never read them."""
        return _nonzero(self.c, self.layout)

    def values(self, X: np.ndarray) -> np.ndarray:
        """h over the rows of X, shape (m, dim) -> (m,): the support's
        products summed elementwise in its order, then d."""
        return _row_values(self._support, self.d, _checked(X, self.dim))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.c

    @property
    def h_opt(self) -> float:
        """sup_x h(x): unbounded unless the predicate is constant."""
        if np.any(self.c != 0.0):
            return float("inf")
        return self.d

    def flipped(self) -> "AffinePredicate":
        """Predicate of the negated literal: -h."""
        return AffinePredicate(-self.c, -self.d, self.layout)


@dataclass(frozen=True, eq=False)
class BallPredicate:
    """h(x) = e - ||A x + b||^2, over layout's stacked state as for
    AffinePredicate."""

    A: np.ndarray
    b: np.ndarray
    e: float
    layout: StateLayout | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(np.atleast_2d(self.A)))
        object.__setattr__(self, "b", _readonly(self.b))
        object.__setattr__(self, "e", float(self.e))
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts differ")
        if self.A.shape[1] == 0:  # as for an affine c
            raise ValueError("A must have at least one column")
        _bounded(A=self.A.ravel().tolist(), b=self.b.ravel().tolist(), e=[self.e])
        _check_layout(self.layout, self.dim)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def value(self, x: np.ndarray) -> float:
        res = self.A @ x + self.b
        return float(self.e - res @ res)

    @cached_property
    def _rows(self) -> tuple:
        """(support, offset) of each row of A x + b, found on the first values
        call, as AffinePredicate._support."""
        return tuple((_nonzero(row, self.layout), b) for row, b in zip(self.A, self.b.tolist()))

    def values(self, X: np.ndarray) -> np.ndarray:
        """h over the rows of X, shape (m, dim) -> (m,): each row of A x + b
        as in AffinePredicate.values, squared and added in row order, and e
        minus that sum."""
        sq = np.zeros(_checked(X, self.dim).shape[0])
        for support, b in self._rows:
            res = _row_values(support, b, X)
            res *= res
            sq += res
        return self.e - sq

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * (self.A.T @ (self.A @ x + self.b))

    @property
    def h_opt(self) -> float:
        """sup_x h(x) = e, attained where A x + b = 0."""
        return self.e

    def flipped(self):
        raise ValueError("negated ball predicate is convex and not supported")


Predicate = Union[AffinePredicate, BallPredicate]


def predicate_to_dict(p: Predicate) -> dict:
    if isinstance(p, AffinePredicate):
        return {
            "kind": "affine",
            "c": p.c.tolist(),
            "d": p.d,
        }
    if isinstance(p, BallPredicate):
        return {
            "kind": "quad_ball",
            "A": p.A.tolist(),
            "b": p.b.tolist(),
            "e": p.e,
        }
    raise TypeError(f"not a predicate: {p!r}")


def is_finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def doc_object(v, what: str) -> dict:
    """v if it is a JSON object, else a one-line ValueError naming the
    barrier-document field what."""
    if not isinstance(v, dict):
        raise ValueError(f"barrier document: {what} must be a JSON object")
    return v


def finite_number(d: dict, key: str, where: str) -> float:
    """A finite JSON number from a barrier document, or a one-line ValueError."""
    v = d.get(key)
    if not is_finite_number(v):
        raise ValueError(f"barrier document: {where}{key} must be a finite number, got {v!r}")
    return float(v)


def finite_array(v, ndim: int) -> np.ndarray | None:
    """v as a float array if it nests lists ndim deep around finite numbers
    only (no bool, str or None), else None."""
    try:
        a = np.array(v, dtype=object)  # most ragged lists give an array of lists
    except ValueError:  # ragged arrays
        return None
    if a.ndim != ndim or not all(map(is_finite_number, a.flat)):
        return None
    return a.astype(float)


def _finite_array(d: dict, key: str, where: str, ndim: int) -> np.ndarray:
    a = finite_array(d.get(key), ndim)
    if a is None:
        raise ValueError(f"barrier document: {where}{key} must be a {ndim}-D array of finite numbers")
    return a


def predicate_from_dict(d: dict, where: str = "") -> Predicate:
    """Rebuild a predicate from predicate_to_dict's output; a missing,
    misshapen or non-finite coefficient, or one above _COEF_LIMIT in
    magnitude, is a one-line ValueError that names the field after the where
    prefix.  Keys other than the predicate's own (such as the "support"
    older documents carry) are ignored."""
    kind = doc_object(d, where.rstrip() or "predicate").get("kind")
    if kind == "affine":
        make, args = AffinePredicate, (_finite_array(d, "c", where, 1), finite_number(d, "d", where))
    elif kind == "quad_ball":
        make, args = BallPredicate, (_finite_array(d, "A", where, 2), _finite_array(d, "b", where, 1),
                                     finite_number(d, "e", where))
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    try:
        return make(*args)
    except ValueError as err:  # a coefficient too large, or A and b rows that differ
        raise ValueError(f"barrier document: {where}{err}") from None
