"""Task formula AST and its flattening into temporal operator units.

The accepted fragment is

    psi ::= atom | !atom | psi & psi
    phi ::= G[a,b](psi) | F[a,b](psi) | psi U[a,b] psi | phi & phi

with 0 <= a <= b < inf and no nesting of temporal operators.  Negation is
pushed into predicate leaves when formulas are built (there is no Not node).

``normalize`` flattens a phi-class formula into a list of operator units,
one unit per (temporal operator, predicate literal) pair:

* G[a,b](m1 & ... & mk)    -> k always-units on [a, b]
* F[a,b](m1 & ... & mk)    -> k eventually-units on [a, b]
* psi' U[a,b] psi''        -> the units of G[0,b](psi') & F[b,b](psi''):
                              the until witness time is fixed to the right
                              endpoint b, and psi' must hold from t = 0 up
                              to it, as the monitor's until semantics need
* top-level conjunctions concatenate their children's unit lists
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Union

from .predicates import Predicate

__all__ = [
    "Atom",
    "Conj",
    "Always",
    "Eventually",
    "Until",
    "Formula",
    "FormulaError",
    "OperatorUnit",
    "normalize",
    "state_literals",
    "is_state_formula",
]


class FormulaError(ValueError):
    """Raised for formulas outside the supported fragment."""


@dataclass(frozen=True)
class Atom:
    """Predicate leaf.  Negated literals carry the flipped predicate."""

    pred: Predicate


@dataclass(frozen=True)
class Conj:
    children: tuple


def _check_interval(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if a < 0.0:
        raise FormulaError(f"interval start {a} is negative")
    if a > b:
        raise FormulaError(f"interval a > b: [{a}, {b}]")
    if not (isfinite(a) and isfinite(b)):
        raise FormulaError("interval endpoints must be finite")
    return a, b


def is_state_formula(f) -> bool:
    """True for psi-class formulas: atoms and conjunctions of atoms."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Conj):
        return all(is_state_formula(c) for c in f.children)
    return False


def state_literals(f) -> tuple[Atom, ...]:
    """Predicate literals of a psi-class formula, in syntactic order."""
    if isinstance(f, Atom):
        return (f,)
    if isinstance(f, Conj):
        out: list[Atom] = []
        for c in f.children:
            out.extend(state_literals(c))
        return tuple(out)
    raise FormulaError(f"not a state formula: {type(f).__name__}")


def _require_state(f, where: str):
    if not is_state_formula(f):
        raise FormulaError(f"nested temporal operator inside {where} is not in the fragment")


@dataclass(frozen=True)
class Always:
    a: float
    b: float
    body: Union[Atom, Conj]

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _require_state(self.body, "G[.]")


@dataclass(frozen=True)
class Eventually:
    a: float
    b: float
    body: Union[Atom, Conj]

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _require_state(self.body, "F[.]")


@dataclass(frozen=True)
class Until:
    a: float
    b: float
    lhs: Union[Atom, Conj]
    rhs: Union[Atom, Conj]

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _require_state(self.lhs, "until operand")
        _require_state(self.rhs, "until operand")


Formula = Union[Atom, Conj, Always, Eventually, Until]


@dataclass(frozen=True)
class OperatorUnit:
    """A single temporal operator applied to a single predicate literal;
    kind is "always" or "eventually"."""

    kind: str
    predicate: Predicate
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("always", "eventually"):
            raise FormulaError(f"unknown unit kind {self.kind!r}")
        a, b = _check_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def deadline(self) -> float:
        return self.b

    @property
    def t_star(self) -> float:
        """Critical time: deadline for eventually, window start for always."""
        return self.b if self.kind == "eventually" else self.a


def normalize(f: Formula) -> tuple[OperatorUnit, ...]:
    """Flatten a phi-class formula into operator units (see module docstring)."""
    if isinstance(f, Always):
        return tuple(
            OperatorUnit("always", lit.pred, f.a, f.b) for lit in state_literals(f.body)
        )
    if isinstance(f, Eventually):
        return tuple(
            OperatorUnit("eventually", lit.pred, f.a, f.b) for lit in state_literals(f.body)
        )
    if isinstance(f, Until):
        return normalize(Always(0.0, f.b, f.lhs)) + normalize(Eventually(f.b, f.b, f.rhs))
    if isinstance(f, Conj):
        if is_state_formula(f):
            raise FormulaError("top-level state formula has no temporal scope to normalize")
        out: list[OperatorUnit] = []
        for c in f.children:
            out.extend(normalize(c))
        return tuple(out)
    if isinstance(f, Atom):
        raise FormulaError("top-level state formula has no temporal scope to normalize")
    raise FormulaError(f"cannot normalize {type(f).__name__}")
