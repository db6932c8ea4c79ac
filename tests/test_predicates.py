import numpy as np
import pytest

from stlcbf import AffinePredicate, BallPredicate, StateLayout
from stlcbf.predicates import predicate_from_dict, predicate_to_dict


def test_layout_blocks():
    lay = StateLayout(ids=(1, 3, 7), dims=(1, 2, 3))
    assert lay.dim == 6
    assert lay.block(1) == slice(0, 1)
    assert lay.block(3) == slice(1, 3)
    assert lay.block(7) == slice(3, 6)
    assert lay.dims[lay.ids.index(7)] == 3
    with pytest.raises(KeyError):
        lay.block(2)


def test_layout_validation():
    with pytest.raises(ValueError):
        StateLayout(ids=(1, 1), dims=(2, 2))
    with pytest.raises(ValueError):
        StateLayout(ids=(1, 2), dims=(2,))
    with pytest.raises(ValueError):
        StateLayout(ids=(1,), dims=(0,))
    # every stacked state lists its agents by ascending id; ids must be
    # integers and dims integers >= 1 (bool excluded), checked before the order
    for ids, dims, msg in (((2, 1), (2, 2), r"agent ids must strictly ascend, got \[2, 1\]$"),
                           ((1, 1), (2, 2), r"agent ids must strictly ascend, got \[1, 1\]$"),
                           ((1,), (2.0,), r"agent dimensions must be integers >= 1, got 2\.0$"),
                           ((1,), (True,), r"agent dimensions must be integers >= 1, got True$"),
                           ((1,), (1.5,), r"agent dimensions must be integers >= 1, got 1\.5$"),
                           ((True,), (2,), r"agent ids must be integers, got True$"),
                           (("a", 1), (2, 2), r"agent ids must be integers, got 'a'$"),
                           ((1.5,), (2,), r"agent ids must be integers, got 1\.5$")):
        with pytest.raises(ValueError, match=msg):
            StateLayout(ids, dims)
    assert StateLayout((np.int64(1), 4), (np.int64(2), 1)).dim == 3


def test_affine_value_and_gradient():
    p = AffinePredicate(np.array([2.0, -1.0]), 0.5)
    x = np.array([1.0, 3.0])
    assert p.value(x) == 2.0 * 1.0 - 1.0 * 3.0 + 0.5
    assert np.array_equal(p.gradient(x), np.array([2.0, -1.0]))
    X = np.array([[1.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(p.values(X), np.array([p.value(X[0]), p.value(X[1])]))
    assert p.h_opt == np.inf
    assert AffinePredicate(np.zeros(2), 1.5).h_opt == 1.5


def test_affine_flipped():
    p = AffinePredicate(np.array([1.0, 0.0]), -2.0)
    q = p.flipped()
    x = np.array([0.7, 9.0])
    assert q.value(x) == -p.value(x)


def test_ball_value_gradient_hopt():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([-1.0, 0.0])
    p = BallPredicate(A, b, 2.25)
    x = np.array([2.0, 0.5])
    res = A @ x + b
    assert p.value(x) == 2.25 - float(res @ res)
    assert np.allclose(p.gradient(x), -2.0 * A.T @ res)
    assert p.h_opt == 2.25
    with pytest.raises(ValueError, match="convex"):
        p.flipped()


def test_ball_vectorized_matches_scalar_closely():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        p = BallPredicate(rng.normal(size=(k, n)), rng.normal(size=k), float(rng.uniform(0, 3)))
        X = rng.normal(size=(20, n))
        vec = p.values(X)
        sca = np.array([p.value(x) for x in X])
        assert np.allclose(vec, sca, rtol=0, atol=1e-12)


def test_affine_vectorized_matches_scalar_closely():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        p = AffinePredicate(rng.normal(size=n), float(rng.normal()))
        X = rng.normal(size=(20, n))
        assert np.allclose(p.values(X), [p.value(x) for x in X], rtol=0, atol=1e-12)


def test_values_do_not_depend_on_the_slice_they_are_read_in():
    """A sample's value has the same bits in every slice of the states that
    holds it, so the monitor can evaluate a literal on a window's samples
    only.  Random affine and ball predicates over up to 10 columns, with
    some coefficients zero, plus an all-zero c and a ball with a zero row."""
    rng = np.random.default_rng(5)
    preds = [AffinePredicate(np.zeros(4), 0.5),
             BallPredicate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -2.0]]), np.array([0.3, -0.1]), 2.0)]
    for _ in range(20):
        n = int(rng.integers(1, 11))
        preds.append(AffinePredicate(rng.normal(size=n) * (rng.uniform(size=n) < 0.8), float(rng.normal())))
        k = int(rng.integers(1, 4))
        A = rng.normal(size=(k, n)) * (rng.uniform(size=(k, n)) < 0.8)
        preds.append(BallPredicate(A, rng.normal(size=k), float(rng.uniform(0.1, 4.0))))
    for p in preds:
        X = rng.normal(size=(4000, p.dim)) * 5.0
        full = p.values(X)
        for _ in range(15):
            i = int(rng.integers(0, 3999))
            j = int(rng.integers(i + 1, 4001))
            assert np.array_equal(p.values(X[i:j]), full[i:j])


def test_predicate_serialization_roundtrip():
    p = AffinePredicate(np.array([1.5, -0.25]), 3.0)
    q = predicate_from_dict(predicate_to_dict(p))
    assert np.array_equal(q.c, p.c) and q.d == p.d
    p2 = BallPredicate(np.array([[1.0, 2.0]]), np.array([0.5]), 4.0)
    q2 = predicate_from_dict(predicate_to_dict(p2))
    assert np.array_equal(q2.A, p2.A) and np.array_equal(q2.b, p2.b) and q2.e == p2.e
    with pytest.raises(ValueError):
        predicate_from_dict({"kind": "mystery"})


def test_predicate_document_ignores_support_key():
    """Older barrier documents carry a "support" key; it loads, whatever its
    value, and is ignored."""
    for doc in (predicate_to_dict(AffinePredicate(np.array([1.0, 0.0]), 2.0)),
                predicate_to_dict(BallPredicate(np.eye(2), np.zeros(2), 1.0))):
        assert "support" not in doc
        for support in ([1, 2], 5, None):
            q = predicate_from_dict({**doc, "support": support})
            assert predicate_to_dict(q) == doc


def test_coefficients_above_the_bound_are_refused():
    """A coefficient above 1e50 in magnitude is refused when a predicate is
    built; one at the bound loads, and a run with it stays finite
    (test_sim.test_run_at_the_coefficient_bound_stays_finite)."""
    AffinePredicate(np.array([1e50, -1e50]), -1e50)
    BallPredicate(np.array([[-1e50]]), np.array([1e50]), 1e50)
    for make, name in (
        (lambda: AffinePredicate(np.array([0.0, 1e300]), 0.0), "c"),
        (lambda: AffinePredicate(np.array([1.0]), 1e308), "d"),
        (lambda: BallPredicate(np.array([[-1e51]]), np.zeros(1), 1.0), "A"),
        (lambda: BallPredicate(np.eye(1), np.array([1e51]), 1.0), "b"),
        (lambda: BallPredicate(np.eye(1), np.zeros(1), -1e300), "e"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} must be at most 1e\+50 in magnitude$"):
            make()
