import numpy as np
import pytest

from stlcbf import (
    Always,
    Atom,
    Conj,
    Eventually,
    FormulaError,
    OperatorUnit,
    ParseError,
    StateLayout,
    Until,
    normalize,
    parse,
)
from stlcbf.predicates import AffinePredicate, BallPredicate

LAY2 = StateLayout(ids=(1, 2), dims=(2, 2))
LAY1 = StateLayout(ids=(1,), dims=(1,))


def test_parse_always_box():
    f = parse("G[5,10](norm_inf(x1 - [2.5,7]) <= 0.5)", StateLayout(ids=(1,), dims=(2,)))
    assert isinstance(f, Always) and (f.a, f.b) == (5.0, 10.0)
    lits = f.body.children
    assert len(lits) == 4
    # rows alternate -e_j / +e_j with offsets r -/+ v_j
    expect = [
        (np.array([-1.0, 0.0]), 0.5 + 2.5),
        (np.array([1.0, 0.0]), 0.5 - 2.5),
        (np.array([0.0, -1.0]), 0.5 + 7.0),
        (np.array([0.0, 1.0]), 0.5 - 7.0),
    ]
    for atom, (c, d) in zip(lits, expect):
        assert np.array_equal(atom.pred.c, c)
        assert atom.pred.d == d


def test_parse_dot_atom_constant_folding():
    f = parse("F[0,1](dot([2,-1], x1 - [1,1]) + 3 >= 0)", StateLayout(ids=(1,), dims=(2,)))
    atom = f.body
    assert np.array_equal(atom.pred.c, np.array([2.0, -1.0]))
    assert atom.pred.d == 2.0 * (-1.0) + (-1.0) * (-1.0) + 3.0


def test_parse_ball2():
    f = parse("G[0,2](ball2(x1 - [3,0], 1.5))", StateLayout(ids=(1,), dims=(2,)))
    pred = f.body.pred
    assert isinstance(pred, BallPredicate)
    assert pred.e == 1.5**2
    assert np.array_equal(pred.b, np.array([-3.0, 0.0]))


def test_parse_negation_rules():
    f = parse("G[0,1](!(dot([1], x1) - 2 >= 0))", LAY1)
    assert f.body.pred.value(np.array([5.0])) == -(5.0 - 2.0)
    with pytest.raises(ParseError, match="negation is only supported"):
        parse("G[0,1](!(norm_inf(x1) <= 1))", LAY1)
    with pytest.raises(ParseError, match="negation is only supported"):
        parse("G[0,1](!(ball2(x1, 1)))", LAY1)


def test_parse_until_and_cross_agent_expr():
    f = parse("(dot([1,0], x2 - x1) >= 0) U[2,8] (norm_inf(x2) <= 1)", LAY2)
    assert isinstance(f, Until) and (f.a, f.b) == (2.0, 8.0)
    lhs = f.lhs
    assert np.array_equal(lhs.pred.c, np.array([-1.0, 0.0, 1.0, 0.0]))


def test_parse_top_level_parenthesized_conjunction():
    f = parse("(G[0,1](dot([1], x1) >= 0)) & (F[0,1](dot([-1], x1) + 2 >= 0))", LAY1)
    assert isinstance(f, Conj)
    kinds = {type(c) for c in f.children}
    assert kinds == {Always, Eventually}


def test_parse_errors():
    with pytest.raises(ParseError, match="interval a > b"):
        parse("G[3,2](dot([1], x1) >= 0)", LAY1)
    with pytest.raises(ParseError, match="negative"):
        parse("G[-1,2](dot([1], x1) >= 0)", LAY1)
    with pytest.raises(ParseError, match="not in the state layout"):
        parse("G[0,1](dot([1], x9) >= 0)", LAY1)
    with pytest.raises(ParseError, match="compare against 0"):
        parse("G[0,1](dot([1], x1) >= 3)", LAY1)
    with pytest.raises(ParseError, match="trailing input"):
        parse("G[0,1](dot([1], x1) >= 0) G[0,1](dot([1], x1) >= 0)", LAY1)
    with pytest.raises(ParseError, match="dimension mismatch"):
        parse("G[0,1](norm_inf(x1 - x2) <= 1)", StateLayout(ids=(1, 2), dims=(1, 2)))
    with pytest.raises(ParseError, match="nested temporal"):
        parse("(G[0,1](dot([1], x1) >= 0)) U[0,2] (dot([1], x1) >= 0)", LAY1)
    with pytest.raises(ParseError):
        parse("", LAY1)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("G[0,1](dot([1], x1) >= 0) | G[0,2](dot([1], x1) >= 0)", LAY1)


def test_formula_fragment_validation():
    atom = Atom(AffinePredicate(np.array([1.0]), 0.0))
    inner = Always(0.0, 1.0, atom)
    with pytest.raises(FormulaError, match="nested temporal"):
        Always(0.0, 1.0, inner)
    with pytest.raises(FormulaError, match="nested temporal"):
        Until(0.0, 1.0, atom, inner)
    with pytest.raises(FormulaError, match="interval"):
        Eventually(2.0, 1.0, atom)
    with pytest.raises(FormulaError, match="finite"):
        Always(0.0, np.inf, atom)


def test_normalize_always_eventually():
    f = parse("G[1,4](dot([1], x1) >= 0 & dot([-1], x1) + 9 >= 0)", LAY1)
    units = normalize(f)
    assert len(units) == 2
    assert all(u.kind == "always" and (u.a, u.b) == (1.0, 4.0) for u in units)
    assert all(u.t_star == 1.0 and u.deadline == 4.0 for u in units)
    g = parse("F[1,4](dot([1], x1) >= 0)", LAY1)
    (u,) = normalize(g)
    assert u.kind == "eventually" and u.t_star == 4.0 and u.deadline == 4.0


def test_normalize_until():
    f = parse("(dot([1], x1) >= 0 & dot([-1], x1) + 9 >= 0) U[2,8] (dot([1], x1) - 1 >= 0)", LAY1)
    units = normalize(f)
    assert [u.kind for u in units] == ["always", "always", "eventually"]
    # psi' is held from t = 0 to the witness time b, as in G[0,8](psi') & F[8,8](psi'')
    assert [(u.a, u.b, u.t_star) for u in units] == [(0.0, 8.0, 0.0), (0.0, 8.0, 0.0), (8.0, 8.0, 8.0)]
    spelled = parse("G[0,8](dot([1], x1) >= 0 & dot([-1], x1) + 9 >= 0) & F[8,8](dot([1], x1) - 1 >= 0)", LAY1)
    assert repr(units) == repr(normalize(spelled))
    assert not hasattr(units[0], "until_lhs")


def test_normalize_demo_formula_unit_count():
    lay = StateLayout(ids=(1, 2, 3), dims=(2, 2, 2))
    f = parse(
        "G[5,10](norm_inf(x1 - [2.5,7]) <= 0.5)"
        " & (norm_inf(x2 - x1 + [1,-1]) <= 0.5 & norm_inf(x3 - x1 + [1,1]) <= 0.5)"
        " U[10,20] (norm_inf(x1 - [8,6]) <= 0.5)",
        lay,
    )
    units = normalize(f)
    assert len(units) == 16
    assert sum(u.kind == "always" and (u.a, u.b) == (0.0, 20.0) for u in units) == 8
    assert sum(u.kind == "eventually" for u in units) == 4


def test_normalize_rejects_bare_state_formula():
    f = parse("dot([1], x1) >= 0", LAY1)
    with pytest.raises(FormulaError, match="no temporal scope"):
        normalize(f)
    with pytest.raises(FormulaError, match="no temporal scope"):
        normalize(parse("dot([1], x1) >= 0 & dot([-1], x1) >= 0", LAY1))


def test_operator_unit_validation():
    pred = AffinePredicate(np.array([1.0]), 0.0)
    with pytest.raises(FormulaError, match="unknown unit kind"):
        OperatorUnit("sometimes", pred, 0.0, 1.0)
    u = OperatorUnit("always", pred, 1.0, 3.0)
    assert u.t_star == 1.0
    v = OperatorUnit("eventually", pred, 1.0, 3.0)
    assert v.t_star == 3.0
