import bisect
import json
import math
import re

import numpy as np
import pytest

from stlcbf import (
    AffinePredicate,
    BarrierTerm,
    CompositeBarrier,
    GammaParams,
    OperatorUnit,
    barrier_from_dict,
    barrier_state,
    barrier_to_dict,
    barrier_value,
    build_barrier,
    gamma_eval,
    left_limit_state,
    left_limit_value,
)

from stlcbf import barrier
from oracles import central_fd, gamma_rate, naive_barrier_state, random_barrier


# --- gamma curves ---------------------------------------------------------


def test_gamma_validation():
    with pytest.raises(ValueError, match="gamma0"):
        GammaParams(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="decay"):
        GammaParams(0.0, 1.0, -0.1, 0.0)
    with pytest.raises(ValueError, match="t_star"):
        GammaParams(0.0, 1.0, 0.1, -1.0)


def test_gamma_from_target_reaches_r_exactly():
    g = GammaParams.from_target(-1.0, 2.0, 0.5, 3.0)
    assert abs(gamma_eval(g, 3.0) - 0.5) < 1e-9
    assert g.decay > 0.0


def test_gamma_from_target_flat_when_already_above():
    g = GammaParams.from_target(0.7, 2.0, 0.5, 3.0)
    assert g.decay == 0.0
    assert gamma_eval(g, 100.0) == 0.7


def test_gamma_from_target_errors():
    with pytest.raises(ValueError, match="t_star > 0"):
        GammaParams.from_target(-1.0, 2.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="must exceed r"):
        GammaParams.from_target(-1.0, 0.4, 0.5, 3.0)


def test_gamma_nondecreasing_and_rate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g0 = float(rng.uniform(-5, 1))
        gi = g0 + float(rng.uniform(0.1, 4))
        r = float(rng.uniform(g0, gi)) if rng.uniform() < 0.5 else g0 - 0.5
        ts = float(rng.uniform(0.5, 5))
        g = GammaParams.from_target(g0, gi, r, ts)
        grid = np.linspace(0.0, 2 * ts, 400)
        vals = [gamma_eval(g, t) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for t in (0.3, 1.7):
            fd = (gamma_eval(g, t + 1e-6) - gamma_eval(g, t - 1e-6)) / 2e-6
            assert abs(fd - gamma_rate(g, t)) < 1e-5 * (1 + abs(fd))


# --- composite barrier ----------------------------------------------------


def test_term_and_build_validation():
    pred = AffinePredicate(np.array([1.0]), 0.0)
    u = OperatorUnit("always", pred, 1.0, 3.0)
    with pytest.raises(ValueError, match="critical time"):
        BarrierTerm(u, GammaParams(0.0, 1.0, 0.1, 2.0))
    with pytest.raises(ValueError, match="empty unit list"):
        build_barrier([], [], eta=5.0, bound_radius=1.0)
    with pytest.raises(ValueError, match="one GammaParams"):
        build_barrier([u], [], eta=5.0, bound_radius=1.0)
    u2 = OperatorUnit("always", AffinePredicate(np.array([1.0, 2.0]), 0.0), 1.0, 3.0)
    with pytest.raises(ValueError, match="disagree on the state dimension"):
        build_barrier(
            [u, u2],
            [GammaParams(0.0, 1.0, 0.1, 1.0)] * 2,
            eta=5.0,
            bound_radius=1.0,
        )
    with pytest.raises(ValueError, match="deadline must be positive"):
        build_barrier(
            [OperatorUnit("always", pred, 0.0, 0.0)],
            [GammaParams(0.0, 1.0, 0.1, 0.0)],
            eta=5.0,
            bound_radius=1.0,
        )
    with pytest.raises(ValueError, match="eta"):
        CompositeBarrier(
            terms=(BarrierTerm(u, GammaParams(0.0, 1.0, 0.1, 1.0)),),
            eta=0.0, bound_radius=1.0, dim=1,
        )


def test_barrier_refuses_non_finite_constants():
    """A NaN or infinite eta, bound radius or smoothing is a one-line error
    where the barrier is built: the sign tests alone pass a NaN."""
    terms = (BarrierTerm(OperatorUnit("always", AffinePredicate(np.array([1.0]), 0.0), 1.0, 3.0),
                         GammaParams(0.0, 1.0, 0.1, 1.0)),)
    good = {"eta": 5.0, "bound_radius": 1.0, "smooth_eps": 1e-9}
    for key in good:
        for bad in (math.nan, math.inf, -math.inf):
            msg = f"{key} must be a finite number, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                CompositeBarrier(terms=terms, dim=1, **{**good, key: bad})
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                build_barrier([tm.unit for tm in terms], [tm.gamma for tm in terms], **{**good, key: bad})


def test_softmin_under_approximates_min():
    rng = np.random.default_rng(11)
    cb = random_barrier(rng)
    for _ in range(200):
        x = rng.normal(size=cb.dim) * 3
        t = float(rng.uniform(0, 0.9 * min(cb.schedule)))
        st = barrier_state(cb, x, t)
        m = float(np.min(st.term_values))
        assert st.value <= m
        p = len(st.term_values)
        assert m - st.value <= math.log(p) / cb.eta + 1e-12


def test_schedule_activity_and_horizon():
    pred = AffinePredicate(np.array([1.0]), 0.0)
    units = [
        OperatorUnit("always", pred, 0.0, 2.0),
        OperatorUnit("eventually", pred, 1.0, 5.0),
        OperatorUnit("always", pred, 0.5, 2.0),
    ]
    params = [GammaParams(-1.0, 0.5, 0.2, u.t_star) for u in units]
    cb = build_barrier(units, params, eta=10.0, bound_radius=4.0)
    assert cb.schedule == (2.0, 5.0)
    assert cb.horizon == 5.0
    assert list(cb.active_mask(1.0)) == [True, True, True]
    assert list(cb.active_mask(2.0)) == [False, True, False]
    x = np.array([0.3])
    assert left_limit_state(cb, x, 2.0).active.tolist() == [0, 1, 2]
    st = barrier_state(cb, x, 3.0)
    assert st.active.tolist() == [1]
    with pytest.raises(ValueError, match="every task term has expired"):
        barrier_value(cb, x, 5.0)
    # left limit at the final deadline is still defined
    assert np.isfinite(left_limit_value(cb, x, 5.0))


def test_switch_monotonicity_spot():
    rng = np.random.default_rng(5)
    cb = random_barrier(rng)
    for s in cb.schedule[:-1]:
        for _ in range(50):
            x = rng.normal(size=cb.dim) * 2
            assert barrier_value(cb, x, s) >= left_limit_value(cb, x, s)


def test_gradients_match_finite_differences_spot():
    rng = np.random.default_rng(9)
    cb = random_barrier(rng)
    for _ in range(20):
        x = rng.normal(size=cb.dim) * 2
        t = float(rng.uniform(0, 0.9 * min(cb.schedule)))
        st = barrier_state(cb, x, t)
        gx, gt = st.grad_x, st.dbdt
        fd_x = central_fd(lambda xx: barrier_value(cb, xx, t), x)
        fd_t = (barrier_value(cb, x, t + 1e-6) - barrier_value(cb, x, t - 1e-6)) / 2e-6
        assert np.all(np.abs(gx - fd_x) < 1e-5 * (1 + np.abs(gx)))
        assert abs(gt - fd_t) < 1e-5 * (1 + abs(gt))


def test_concavity_spot():
    rng = np.random.default_rng(13)
    cb = random_barrier(rng)
    for _ in range(200):
        x1 = rng.normal(size=cb.dim) * 3
        x2 = rng.normal(size=cb.dim) * 3
        t = float(rng.uniform(0, 0.9 * min(cb.schedule)))
        mid = barrier_value(cb, 0.5 * (x1 + x2), t)
        assert mid >= 0.5 * (barrier_value(cb, x1, t) + barrier_value(cb, x2, t)) - 1e-9


def test_bound_term_keeps_superlevel_sets_compact():
    pred = AffinePredicate(np.zeros(2), 5.0)  # constant predicate
    u = OperatorUnit("always", pred, 0.0, 1.0)
    cb = build_barrier([u], [GammaParams(0.0, 1.0, 0.0, 0.0)], eta=10.0, bound_radius=2.0)
    far = np.array([100.0, 0.0])
    assert barrier_value(cb, far, 0.0) < 0.0
    near = np.zeros(2)
    assert barrier_value(cb, near, 0.0) > 0.0


def test_serialization_roundtrip_bitexact():
    rng = np.random.default_rng(21)
    cb = random_barrier(rng)
    doc = json.loads(json.dumps(barrier_to_dict(cb)))
    cb2 = barrier_from_dict(doc)
    for _ in range(50):
        x = rng.normal(size=cb.dim) * 2
        t = float(rng.uniform(0, 0.9 * min(cb.schedule)))
        s1 = barrier_state(cb, x, t)
        s2 = barrier_state(cb2, x, t)
        assert s1.value == s2.value
        assert np.array_equal(s1.grad_x, s2.grad_x)
        assert s1.dbdt == s2.dbdt


def test_weights_sum_to_one():
    rng = np.random.default_rng(17)
    cb = random_barrier(rng)
    x = rng.normal(size=cb.dim)
    st = barrier_state(cb, x, 0.1)
    assert abs(float(np.sum(st.weights)) - 1.0) < 1e-12
    ll = left_limit_state(cb, x, cb.schedule[0])
    assert len(ll.weights) >= len(barrier_state(cb, x, cb.schedule[0]).weights)


def _assert_close(got, ref, what):
    """Agreement to 1e-12 relative to the reference's largest magnitude."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    assert got.shape == ref.shape, what
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale, what


def test_kernel_matches_reference_evaluator():
    """The compiled kernel against plain per-term loops.  Calls on different
    barriers, times and activity intervals are interleaved, so anything kept
    from one call for the next (per-t values, per-interval indices) that goes
    stale makes a later call disagree with the reference."""
    rng = np.random.default_rng(31)
    single = build_barrier(
        [OperatorUnit("eventually", AffinePredicate(np.array([0.5, -1.0]), 0.3), 0.5, 2.0)],
        [GammaParams(-1.0, 0.2, 0.4, 2.0)], eta=9.0, bound_radius=5.0,
    )
    barriers = [
        random_barrier(rng, n_ball=0),
        random_barrier(rng, dim=4, n_aff=3, n_ball=2, eta=30.0),
        random_barrier(rng, dim=2, n_aff=1, n_ball=1),
        single,
    ]
    queries = []
    for cb in barriers:
        bounds = (0.0, *cb.schedule)
        for lo, hi in zip(bounds, bounds[1:]):
            queries.append((cb, float(rng.uniform(lo, hi)), False))
            queries.append((cb, lo, False))  # at a switch the deadline-lo terms are out
            queries.append((cb, hi, True))  # left limit at every switch
    queries = [queries[i] for i in rng.permutation(2 * len(queries)) % len(queries)]
    single_term = 0
    for cb, t, left in queries:
        for _ in range(2):  # two states back to back at one (t, interval)
            x = rng.normal(scale=2.0, size=cb.dim)
            st = (left_limit_state if left else barrier_state)(cb, x, t)
            ref = naive_barrier_state(cb, x, t, left_limit=left)
            assert st.active.tolist() == ref["active"].tolist()
            for name in ("value", "grad_x", "dbdt", "weights", "term_values"):
                _assert_close(getattr(st, name), ref[name], (name, t, left))
            _assert_close(cb.term_values(x, t), ref["all_terms"], ("all terms", t))
            single_term += len(st.active) == 1
    assert single_term > 0

    cb = barriers[1]
    x = np.zeros(cb.dim)
    h = cb.horizon
    for t, fn in ((h, barrier_state), (h + 1.0, left_limit_state), (math.nan, left_limit_state)):
        msg = f"barrier undefined at t={t:g}: every task term has expired (final deadline {h:g})"
        with pytest.raises(ValueError, match=re.escape(msg)):
            fn(cb, x, t)
    for fn in (barrier_state, left_limit_state):
        with pytest.raises(ValueError, match=re.escape(f"state must have shape ({cb.dim},)")):
            fn(cb, np.zeros(cb.dim + 1), 0.5)


def test_value_functions_equal_state_value_bitwise():
    """barrier_value and left_limit_value run only the kernel's value half.
    Each must equal .value of the matching full state bit for bit, in every
    interval.  Calls on different barriers and times are interleaved, and the
    value and the state are taken in either order, so a t-cache entry left
    by one call is read by the next."""
    rng = np.random.default_rng(47)
    barriers = [
        random_barrier(rng, n_ball=0),
        random_barrier(rng, dim=4, n_aff=3, n_ball=2, eta=30.0),
        random_barrier(rng, dim=2, n_aff=1, n_ball=1),
    ]
    queries = []
    for cb in barriers:
        bounds = (0.0, *cb.schedule)
        for lo, hi in zip(bounds, bounds[1:]):
            for t in (float(rng.uniform(lo, hi)), lo):
                queries.append((cb, t, barrier_value, barrier_state))
            for t in (float(rng.uniform(lo, hi)), hi):
                queries.append((cb, t, left_limit_value, left_limit_state))
    for i in rng.permutation(3 * len(queries)) % len(queries):
        cb, t, value_fn, state_fn = queries[i]
        x = rng.normal(scale=2.0, size=cb.dim)
        if rng.uniform() < 0.5:
            value, state = value_fn(cb, x, t), state_fn(cb, x, t)
        else:
            state, value = state_fn(cb, x, t), value_fn(cb, x, t)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(state.value).tobytes(), (t, value_fn)

    cb = barriers[1]
    x = np.zeros(cb.dim)
    h = cb.horizon
    for t, fn in ((h, barrier_value), (h + 1.0, left_limit_value), (math.nan, left_limit_value)):
        msg = f"barrier undefined at t={t:g}: every task term has expired (final deadline {h:g})"
        with pytest.raises(ValueError, match=re.escape(msg)):
            fn(cb, x, t)
    for fn in (barrier_value, left_limit_value):
        with pytest.raises(ValueError, match=re.escape(f"state must have shape ({cb.dim},)")):
            fn(cb, np.zeros(cb.dim + 1), 0.5)


def test_tabulated_funnel_rows_match_the_t_cache_bitwise():
    """The rows a run tabulates over its time grid (one _gamma per activity
    interval over many times) are, bit for bit, the rows the t-cache gives
    at each time (one _gamma at one time), C-contiguous, and the kernel on
    them gives barrier_state's state bit for bit.  The grids cross every
    switch and start at and between switches."""
    rng = np.random.default_rng(53)
    barriers = [
        random_barrier(rng, n_aff=6, n_ball=0),
        random_barrier(rng, dim=4, n_aff=3, n_ball=2, eta=30.0),
        random_barrier(rng, dim=2, n_aff=1, n_ball=3),
    ]
    checked = 0
    for cb in barriers:
        assert len(cb.schedule) > 1
        for start in (0.0, cb.schedule[0], float(rng.uniform(0.0, cb.schedule[0]))):
            times = start + 0.01 * np.arange(int((cb.horizon - start) / 0.01))
            times = times[times < cb.horizon]
            rows = list(barrier._funnel_rows(cb, times))
            assert len(rows) == len(times)
            for t, (iv, gam, rate) in zip(times.tolist(), rows):
                x = rng.normal(scale=2.0, size=cb.dim)
                want = barrier._args(cb, x, t, bisect.bisect_right(cb.schedule, t))
                assert iv is want[1]
                assert gam.flags.c_contiguous and rate.flags.c_contiguous
                assert gam.tobytes() == want[2].tobytes() and rate.tobytes() == want[3].tobytes()
                got, ref = barrier._state(cb, x, iv, gam, rate), barrier_state(cb, x, t)
                for name in ("value", "grad_x", "dbdt", "weights", "active", "term_values"):
                    assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()
                checked += 1
    assert checked > 1000
