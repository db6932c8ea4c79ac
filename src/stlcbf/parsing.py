"""Text grammar for task formulas.

    phi      := phi_term ( '&' phi_term )*
    phi_term := 'G' interval '(' psi ')'
              | 'F' interval '(' psi ')'
              | operand 'U' interval operand
              | operand                          (bare state formula)
    operand  := '(' phi ')' | literal            (until operands must be
                                                  state formulas)
    psi      := literal ( '&' literal )*
    literal  := '!' atom | '!' '(' atom ')' | atom
    atom     := 'dot' '(' vector ',' expr ')' [('+'|'-') number] '>=' '0'
              | 'norm_inf' '(' expr ')' '<=' number
              | 'ball2' '(' expr ',' number ')'
    expr     := item ( ('+'|'-') item )*
    item     := ident | vector | '(' expr ')'
    vector   := '[' number ( ',' number )* ']'   (entries may be signed)
    interval := '[' number ',' number ']'
    ident    := 'x' digits                        (agent state block)

Identifiers refer to agent state blocks of the supplied StateLayout, so the
same formula text can be parsed against a clique layout or the full team
layout; both list the agents by ascending id, so a predicate's values sum
its products in the same order against either.  Sugar is expanded at parse
time:

* norm_inf(expr) <= r   becomes the 2*dim affine literals r -/+ expr_j >= 0
* ball2(expr, r)        becomes the quadratic predicate r^2 - ||expr||^2
* !atom                 flips the sign of an affine atom; negating norm_inf
                        or ball2 atoms would leave the conjunctive fragment
                        and is rejected
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .formula import Atom, Conj, Always, Eventually, Until, Formula, FormulaError
from .predicates import AffinePredicate, BallPredicate, StateLayout

__all__ = ["parse", "ParseError"]


class ParseError(FormulaError):
    """Syntax or semantic error in formula text, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>x\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<ge>>=)
      | (?P<le><=)
      | (?P<sym>[\[\](),&!+\-])
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            toks.append(_Tok(kind, m.group(), pos))
        pos = m.end()
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _Expr:
    """Affine vector expression E x + v over the stacked layout state."""

    def __init__(self, E: np.ndarray, v: np.ndarray):
        self.E = E
        self.v = v

    @property
    def k(self) -> int:
        return self.v.shape[0]


class _Parser:
    def __init__(self, text: str, layout: StateLayout):
        self.text = text
        self.layout = layout
        self.toks = _tokenize(text)
        self.i = 0

    # token helpers ------------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> _Tok | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.accept(kind, text)
        if t is None:
            got = self.peek()
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {got.text or 'end of input'!r}", got.pos)
        return t

    # grammar ------------------------------------------------------------

    def parse(self) -> Formula:
        f = self.phi()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.pos)
        return f

    def phi(self) -> Formula:
        terms = [self.phi_term()]
        while self.accept("sym", "&"):
            terms.append(self.phi_term())
        return terms[0] if len(terms) == 1 else Conj(tuple(terms))

    def phi_term(self) -> Formula:
        t = self.peek()
        if t.kind == "name" and t.text in ("G", "F"):
            self.next()
            a, b = self.interval()
            self.expect("sym", "(")
            body = self.psi()
            self.expect("sym", ")")
            cls = Always if t.text == "G" else Eventually
            return self._guard(cls, t.pos, a=a, b=b, body=body)
        lhs = self.operand()
        u = self.peek()
        if u.kind == "name" and u.text == "U":
            self.next()
            a, b = self.interval()
            rhs = self.operand()
            return self._guard(Until, u.pos, a=a, b=b, lhs=lhs, rhs=rhs)
        return lhs

    def _guard(self, cls, pos, **kw):
        try:
            return cls(**kw)
        except FormulaError as exc:
            raise ParseError(str(exc), pos) from exc

    def operand(self):
        if self.accept("sym", "("):
            body = self.phi()
            self.expect("sym", ")")
            return body
        lits = self.literal()
        return lits[0] if len(lits) == 1 else Conj(tuple(lits))

    def psi(self):
        lits = list(self.literal())
        while self.accept("sym", "&"):
            lits.extend(self.literal())
        return lits[0] if len(lits) == 1 else Conj(tuple(lits))

    def literal(self) -> list[Atom]:
        bang = self.accept("sym", "!")
        if bang:
            parened = self.accept("sym", "(") is not None
            atoms = self.atom()
            if parened:
                self.expect("sym", ")")
            if len(atoms) != 1 or not isinstance(atoms[0].pred, AffinePredicate):
                raise ParseError(
                    "negation is only supported on affine dot(...) atoms", bang.pos
                )
            return [Atom(atoms[0].pred.flipped())]
        return self.atom()

    def atom(self) -> list[Atom]:
        t = self.peek()
        if t.kind != "name" or t.text not in ("dot", "norm_inf", "ball2"):
            raise ParseError(
                f"expected an atom (dot/norm_inf/ball2), found {t.text or 'end of input'!r}",
                t.pos,
            )
        self.next()
        if t.text == "dot":
            return self._dot_atom(t.pos)
        if t.text == "norm_inf":
            return self._norm_inf_atom(t.pos)
        return self._ball2_atom(t.pos)

    def _dot_atom(self, pos: int) -> list[Atom]:
        self.expect("sym", "(")
        c = self.vector()
        self.expect("sym", ",")
        ex = self.expr()
        self.expect("sym", ")")
        if c.shape[0] != ex.k:
            raise ParseError(
                f"dot weight length {c.shape[0]} does not match expression dimension {ex.k}",
                pos,
            )
        d = 0.0
        sign = self.accept("sym", "+") or self.accept("sym", "-")
        if sign:
            d = self.number()
            if sign.text == "-":
                d = -d
        self.expect("ge")
        zt = self.peek()
        z = self.number()
        if z != 0.0:
            raise ParseError("affine atoms compare against 0; fold constants into d", zt.pos)
        coeff = ex.E.T @ c
        off = float(c @ ex.v + d)
        return [Atom(AffinePredicate(coeff, off))]

    def _norm_inf_atom(self, pos: int) -> list[Atom]:
        self.expect("sym", "(")
        ex = self.expr()
        self.expect("sym", ")")
        self.expect("le")
        r = self.number()
        atoms = []
        for j in range(ex.k):
            row = ex.E[j]
            # r - (row . x + v_j) >= 0  and  r + (row . x + v_j) >= 0
            atoms.append(Atom(AffinePredicate(-row, r - ex.v[j])))
            atoms.append(Atom(AffinePredicate(row, r + ex.v[j])))
        return atoms

    def _ball2_atom(self, pos: int) -> list[Atom]:
        self.expect("sym", "(")
        ex = self.expr()
        self.expect("sym", ",")
        r = self.number()
        self.expect("sym", ")")
        return [Atom(BallPredicate(ex.E, ex.v, r * r))]

    def expr(self) -> _Expr:
        out = self.item()
        while True:
            sign = self.accept("sym", "+") or self.accept("sym", "-")
            if sign is None:
                return out
            rhs = self.item()
            if rhs.k != out.k:
                raise ParseError(
                    f"dimension mismatch in expression: {out.k} vs {rhs.k}", sign.pos
                )
            if sign.text == "+":
                out = _Expr(out.E + rhs.E, out.v + rhs.v)
            else:
                out = _Expr(out.E - rhs.E, out.v - rhs.v)

    def item(self) -> _Expr:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            aid = int(t.text[1:])
            try:
                blk = self.layout.block(aid)
            except KeyError:
                raise ParseError(f"agent {t.text} is not in the state layout", t.pos) from None
            k = blk.stop - blk.start
            E = np.zeros((k, self.layout.dim))
            E[:, blk] = np.eye(k)
            return _Expr(E, np.zeros(k))
        if t.kind == "sym" and t.text == "[":
            v = self.vector()
            return _Expr(np.zeros((v.shape[0], self.layout.dim)), v)
        if self.accept("sym", "("):
            ex = self.expr()
            self.expect("sym", ")")
            return ex
        raise ParseError(
            f"expected an agent identifier, vector, or '(', found {t.text or 'end of input'!r}",
            t.pos,
        )

    def vector(self) -> np.ndarray:
        self.expect("sym", "[")
        vals = [self.number(signed=True)]
        while self.accept("sym", ","):
            vals.append(self.number(signed=True))
        self.expect("sym", "]")
        return np.asarray(vals, dtype=float)

    def interval(self) -> tuple[float, float]:
        self.expect("sym", "[")
        a = self.number(signed=True)
        self.expect("sym", ",")
        b = self.number(signed=True)
        self.expect("sym", "]")
        return a, b

    def number(self, signed: bool = False) -> float:
        sign = 1.0
        if signed:
            s = self.accept("sym", "-") or self.accept("sym", "+")
            if s and s.text == "-":
                sign = -1.0
        t = self.expect("num")
        return sign * float(t.text)


def parse(text: str, layout: StateLayout) -> Formula:
    """Parse formula text over the given state layout into an AST."""
    return _Parser(text, layout).parse()
