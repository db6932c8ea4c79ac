import numpy as np
import pytest

from stlcbf import SampledSignal, StateLayout, parse, robustness
from stlcbf.formula import Always, Atom, Conj, Eventually, Until
from stlcbf.predicates import AffinePredicate

from oracles import naive_robustness, random_formula

LAY1 = StateLayout(ids=(1,), dims=(1,))
IDENT = Atom(AffinePredicate(np.array([1.0]), 0.0))  # h(x) = x


def sig(times, vals):
    return SampledSignal(np.asarray(times, dtype=float), np.asarray(vals, dtype=float))


def test_signal_validation():
    with pytest.raises(ValueError, match="start at time 0"):
        sig([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        sig([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="lengths differ"):
        SampledSignal(np.array([0.0, 1.0]), np.zeros((3, 1)))
    # a nan time after the first passes the increase test, and a nan state
    # would make the robustness nan
    with pytest.raises(ValueError, match="^times must be finite$"):
        sig([0.0, float("nan"), 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^times must be finite$"):
        sig([0.0, float("inf")], [0.0, 0.0])
    with pytest.raises(ValueError, match="^states must be finite$"):
        sig([0.0, 1.0], [0.0, float("nan")])
    with pytest.raises(ValueError, match="^states must be finite$"):
        sig([0.0, 1.0], [-float("inf"), 0.0])
    assert sig([0.0], [2.0]).span == 0.0


@pytest.mark.parametrize("width", [2, 4], ids=["narrower", "wider"])
@pytest.mark.parametrize("text", ["G[0,1](dot([1,0,0], x1) >= 0)", "F[0,1](ball2(x1 - [0,0,1], 2))"])
def test_signal_width_must_match_the_formula(text, width):
    """Each literal reads only its support's columns, so a signal wider than
    the formula's layout would be read silently: both widths are refused."""
    f = parse(text, StateLayout(ids=(1,), dims=(3,)))
    with pytest.raises(ValueError, match=rf"^states of shape \(2, {width}\) given to a predicate of dimension 3$"):
        robustness(f, SampledSignal(np.array([0.0, 1.0]), np.ones((2, width))))


def test_constant_signal_always():
    s = sig([0.0, 0.5, 1.0], [0.3, 0.3, 0.3])
    assert robustness(Always(0.0, 1.0, IDENT), s) == 0.3


def test_negated_literal():
    s = sig([0.0, 1.0], [0.3, 0.3])
    neg = Atom(AffinePredicate(np.array([1.0]), 0.0).flipped())
    assert robustness(Always(0.0, 1.0, neg), s) == -0.3


def test_two_step_eventually_always():
    s = sig([0.0, 1.0], [1.0, -2.0])
    assert robustness(Eventually(0.0, 1.0, IDENT), s) == 1.0
    assert robustness(Always(0.0, 1.0, IDENT), s) == -2.0


def test_window_beyond_span_raises():
    s = sig([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="beyond the signal span"):
        robustness(Always(0.0, 2.0, IDENT), s)
    with pytest.raises(ValueError, match="outside the signal span"):
        robustness(Always(0.0, 0.5, IDENT), s, t=1.5)


def test_empty_window_snaps_to_bracketing_pair():
    s = sig([0.0, 1.0], [5.0, -1.0])
    # window [0.4, 0.6] contains no sample: G rounds outward to samples 0 and
    # 1, and F takes the smaller of that bracketing pair, which the polygon
    # is at least anywhere between them
    assert robustness(Always(0.4, 0.6, IDENT), s) == -1.0
    assert robustness(Eventually(0.4, 0.6, IDENT), s) == -1.0


def test_always_rounds_off_grid_ends_outward():
    # [0.5, 1.5] holds only sample 1; the polygon dips toward -3 before it,
    # so the outward samples 0 and 2 join the minimum
    s = sig([0.0, 1.0, 2.0, 3.0], [-3.0, 2.0, 4.0, -6.0])
    assert robustness(Always(0.5, 1.5, IDENT), s) == -3.0
    assert robustness(Always(1.0, 2.0, IDENT), s) == 2.0  # on-grid ends read no more


def test_eventually_narrower_than_a_step_takes_min_of_pair():
    s = sig([0.0, 1.0, 2.0], [3.0, 1.0, 2.0])
    assert robustness(Eventually(1.2, 1.7, IDENT), s) == 1.0
    assert robustness(Eventually(0.1, 0.2, IDENT), s) == 1.0
    assert robustness(Eventually(0.9, 1.7, IDENT), s) == 1.0  # holds sample 1
    assert robustness(Eventually(0.5, 2.0, IDENT), s) == 2.0  # the max over samples 1, 2


def test_state_formula_off_grid_takes_min_of_pair():
    s = sig([0.0, 1.0, 2.0], [3.0, 1.0, 2.0])
    f = Conj((IDENT,))
    assert robustness(f, s, t=0.4) == 1.0  # nearer sample 0, but the polygon dips toward 1
    assert robustness(f, s, t=0.5) == 1.0
    assert robustness(f, s, t=1.5) == 1.0
    assert robustness(f, s, t=2.0) == 2.0
    assert robustness(f, s, t=1.0 + 1e-10) == 1.0  # within the tolerance of sample 1


def test_until_hand_example():
    # h rises; q satisfied late, p holds until then
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    p = Atom(AffinePredicate(np.array([-1.0]), 3.5))  # 3.5 - x
    q = Atom(AffinePredicate(np.array([1.0]), -2.0))  # x - 2
    s = sig(times, [0.0, 1.0, 2.0, 3.0, 4.0])
    f = Until(0.0, 4.0, p, q)
    # best witness at x=3 (t=3): min(q=1, min p over [0,3] = 0.5) = 0.5
    assert robustness(f, s) == 0.5


def test_until_respects_inner_prefix():
    times = [0.0, 1.0, 2.0]
    p = Atom(AffinePredicate(np.array([1.0]), 0.0))
    q = Atom(AffinePredicate(np.array([1.0]), 0.0))
    s = sig(times, [5.0, -10.0, 50.0])
    # taking the witness at t=2 exposes the lhs dip at t=1
    assert robustness(Until(0.0, 2.0, p, q), s) == 5.0


def test_until_window_starts_at_t_not_t_plus_a():
    times = [0.0, 1.0, 2.0, 3.0]
    p = Atom(AffinePredicate(np.array([1.0]), 0.0))
    q = Atom(AffinePredicate(np.array([0.0]), 10.0))
    s = sig(times, [-1.0, 5.0, 5.0, 5.0])
    # for-all runs from t=0, so the dip at t=0 caps the value even though a=2
    f = Until(2.0, 3.0, p, q)
    assert robustness(f, s) == -1.0


def test_until_bracketing_pair_before_t():
    # at t = 0.5 the window [0.5, 0.7] holds no sample, so the witnesses are
    # the bracketing samples 0 and 1 and the result is the smaller of their
    # values; the for-all part from t rounds outward to sample 0, so each
    # witness is held to the lhs from sample 0 on
    times = [0.0, 1.0, 2.0, 3.0]
    p = IDENT  # x
    q = Atom(AffinePredicate(np.array([-1.0]), 10.0))  # 10 - x
    f = Until(0.0, 0.2, p, q)
    for xs, want in (
        # witness 0: min(q=6, p=4) = 4; witness 1: min(q=12, p over 0..1 = -2) = -2
        ([4.0, -2.0, 7.0, 1.0], -2.0),
        # witness 0: min(q=15, p=-5) = -5; witness 1: min(q=7, p over 0..1 = -5) = -5
        ([-5.0, 3.0, 7.0, 1.0], -5.0),
        # witness 0: min(q=8, p=2) = 2; witness 1: min(q=7, p over 0..1 = 2) = 2
        ([2.0, 3.0, 7.0, 1.0], 2.0),
    ):
        assert robustness(f, sig(times, xs), t=0.5) == want
        assert naive_robustness(f, times, xs, t=0.5) == want


def test_samples_closer_than_the_tolerance_count_as_one_point():
    # the outward ends of [t, t] cross when several samples lie within the
    # 1e-9 tolerance of t; every one of them is read, as the oracle reads them
    times = [0.0, 1e-10, 5e-10, 1.0, 1.0 + 1e-10, 2.0]
    xs = [3.0, -1.0, 2.0, 5.0, -4.0, 1.0]
    s = sig(times, xs)
    assert robustness(Conj((IDENT,)), s) == -1.0
    assert robustness(Eventually(0.0, 0.0, IDENT), s) == 3.0
    q = Atom(AffinePredicate(np.array([-1.0]), 4.0))  # 4 - x
    for f in (Conj((IDENT,)), Always(1.0, 1.0, IDENT), Eventually(0.5, 0.6, IDENT),
              Until(0.0, 0.0, IDENT, q), Until(1.0, 1.0, q, IDENT)):
        for t in (0.0, 1e-10, 0.3, 1.0):
            assert robustness(f, s, t) == naive_robustness(f, times, xs, t)


def test_sampled_rho_bounds_the_polygon_from_below():
    """On random signals, each formula's sampled rho is at most its
    robustness over the linear interpolation, sampled 50 times finer."""
    rng = np.random.default_rng(3)
    lay = StateLayout(ids=(1, 2), dims=(2, 1))
    for _ in range(100):
        m = int(rng.integers(2, 12))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=m - 1))])
        states = rng.normal(size=(m, lay.dim)) * 2.0
        fine_t = np.unique(np.concatenate([times, np.linspace(0.0, times[-1], 50 * m)]))
        fine = np.column_stack([np.interp(fine_t, times, col) for col in states.T])
        f = random_formula(rng, lay, float(times[-1]))
        t = float(rng.uniform(0.0, 0.2 * times[-1]))
        try:
            got = robustness(f, SampledSignal(times, states), t)
        except ValueError:
            continue
        assert got <= robustness(f, SampledSignal(fine_t, fine), t) + 1e-12


def test_parse_and_monitor_roundtrip():
    lay = StateLayout(ids=(1,), dims=(2,))
    f = parse("F[0,2](norm_inf(x1 - [1,1]) <= 0.5)", lay)
    times = np.array([0.0, 1.0, 2.0])
    states = np.array([[0.0, 0.0], [1.0, 1.2], [3.0, 3.0]])
    s = SampledSignal(times, states)
    # best at t=1: 0.5 - max(|0|, |0.2|) = 0.3
    assert abs(robustness(f, s) - 0.3) < 1e-12


@pytest.mark.parametrize("dims, samples, draws", [
    ((2, 1), (2, 30), 100),
    # a long signal that each window reads only part of, literals over four agents
    ((2, 2, 2, 2), (2000, 2500), 40),
], ids=["3-columns", "8-columns-long"])
def test_matches_oracle_on_random_formulas(dims, samples, draws):
    rng = np.random.default_rng(7)
    lay = StateLayout(ids=tuple(range(1, len(dims) + 1)), dims=dims)
    for _ in range(draws):
        m = int(rng.integers(*samples))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, size=m - 1))])
        states = rng.normal(size=(m, lay.dim)) * rng.uniform(0.5, 3.0)
        span = float(times[-1])
        f = random_formula(rng, lay, span)
        s = SampledSignal(times, states)
        t = float(rng.choice([0.0, 0.0, rng.uniform(0, 0.2 * span)]))
        try:
            got = robustness(f, s, t)
        except ValueError:
            with pytest.raises(ValueError):
                naive_robustness(f, times, states, t)
            continue
        want = naive_robustness(f, times, states, t)
        assert got == want


def test_rho_bits_do_not_depend_on_the_layout_order():
    """A literal's value sums its support in ascending (agent id, component)
    order, so a formula parsed against a layout that lists the agents in
    another order gives bitwise the same robustness on the correspondingly
    permuted signal.  Seeded dot, negated dot, norm_inf and ball2 literals
    with 3-8 nonzero coefficients per row, over eight planar agents."""
    ids = tuple(range(1, 9))
    team = StateLayout(ids, (2,) * 8)
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 1.0, 51)
    for draw in range(200):
        n, kind = int(rng.integers(3, 9)), int(rng.integers(4))
        m = n // 2 if kind < 2 and n % 2 == 0 else n  # agents in the expression
        agents = rng.choice(ids, size=m, replace=False)
        expr = f"x{agents[0]}" + "".join(f" {'+-'[int(s)]} x{a}" for s, a in zip(rng.integers(2, size=m), agents[1:]))
        w1, w2 = (float(w) for w in rng.normal(size=2))
        w2 = w2 if m < n else 0.0
        literal = [f"dot([{w1!r},{w2!r}], {expr}) - 0.3 >= 0", f"!dot([{w1!r},{w2!r}], {expr}) + 0.3 >= 0",
                   f"norm_inf({expr}) <= 2", f"ball2({expr}, 3)"][kind]
        text = f"{'GF'[draw % 2]}[0,1]({literal})"
        states = rng.normal(size=(times.size, 16))
        order = tuple(int(i) for i in rng.permutation(ids))
        blocks = team.slices()
        cols = [j for i in order for j in range(blocks[i].start, blocks[i].stop)]
        want = robustness(parse(text, team), sig(times, states), 0.0)
        got = robustness(parse(text, StateLayout(order, (2,) * 8)), sig(times, states[:, cols]), 0.0)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (text, order)
    with pytest.raises(ValueError, match="layout of dimension 16"):
        AffinePredicate(np.ones(3), 0.0, team)
