"""Tests for the interpolation engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import InterpolationError, Interpolator


def test_constant_single_sample():
    interp = Interpolator([[1.0]], [5.0])
    assert interp.kind == "constant"
    assert interp([99.0]) == 5.0


def test_1d_linear_between_samples():
    interp = Interpolator([[0.0], [10.0]], [0.0, 100.0])
    assert interp.kind == "linear-1d"
    assert interp([5.0]) == pytest.approx(50.0)


def test_1d_extrapolation_linear():
    interp = Interpolator([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0])
    # Low end: slope 1 -> f(-1) = -1.  High end: slope 3 -> f(3) = 7.
    assert interp([-1.0]) == pytest.approx(-1.0)
    assert interp([3.0]) == pytest.approx(7.0)


def test_1d_exact_at_samples():
    xs = [[0.0], [1.0], [2.5], [7.0]]
    ys = [3.0, -1.0, 4.0, 0.5]
    interp = Interpolator(xs, ys)
    for x, y in zip(xs, ys):
        assert interp(x) == pytest.approx(y)


def test_2d_grid_multilinear():
    # f(x, y) = 2x + 3y sampled on a 3x3 grid is recovered exactly.
    X, y = [], []
    for a in (0.0, 1.0, 2.0):
        for b in (0.0, 5.0, 10.0):
            X.append([a, b])
            y.append(2 * a + 3 * b)
    interp = Interpolator(X, y)
    assert interp.kind == "multilinear-grid"
    assert interp([0.5, 2.5]) == pytest.approx(2 * 0.5 + 3 * 2.5)
    assert interp([1.5, 7.5]) == pytest.approx(2 * 1.5 + 3 * 7.5)


def test_2d_grid_query_outside_clips_to_box():
    X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    y = [0.0, 1.0, 2.0, 3.0]
    interp = Interpolator(X, y)
    assert interp([5.0, 5.0]) == pytest.approx(3.0)
    assert interp([-5.0, -5.0]) == pytest.approx(0.0)


def test_2d_scattered_linear_inside_hull():
    X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.3]]
    y = [x[0] + x[1] for x in X]
    interp = Interpolator(X, y)
    assert interp.kind == "scattered"
    assert interp([0.4, 0.4]) == pytest.approx(0.8, abs=1e-9)


def test_2d_scattered_nearest_outside_hull():
    X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.4]]
    y = [1.0, 2.0, 3.0, 4.0]
    interp = Interpolator(X, y)
    # Far outside the hull: nearest neighbour is (1, 0).
    assert interp([3.0, 0.0]) == pytest.approx(2.0)


def test_duplicate_sample_locations_averaged():
    interp = Interpolator([[0.0], [0.0], [1.0]], [2.0, 4.0, 10.0])
    assert interp([0.0]) == pytest.approx(3.0)


def test_bad_shapes_rejected():
    with pytest.raises(InterpolationError):
        Interpolator([], [])
    with pytest.raises(InterpolationError):
        Interpolator([[1.0], [2.0]], [1.0])
    interp = Interpolator([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(InterpolationError):
        interp([0.0, 1.0])  # wrong query dimensionality


def test_collinear_scattered_points_fall_back_to_nearest():
    # All points on the line x=y: LinearND cannot triangulate.
    X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    y = [0.0, 1.0, 2.0]
    interp = Interpolator(X, y)
    assert interp([1.9, 2.1]) == pytest.approx(2.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=100, deadline=None)
def test_1d_interpolation_exact_at_samples_property(samples):
    X = [[x] for x, _ in samples]
    y = [v for _, v in samples]
    interp = Interpolator(X, y)
    for (x, v) in samples:
        assert interp([x]) == pytest.approx(v, abs=1e-6 * (1 + abs(v)))


# Each interpolator kind pinned bit-for-bit on fixed samples and queries.
# The N-D kinds go through scipy; these values guard where it is imported.
_KIND_PINS = [
    (
        [[1.0, 2.0]],
        [3.5],
        "constant",
        [([0.0, 0.0], 3.5), ([1.0, 2.0], 3.5), ([7.5, -1.0], 3.5)],
    ),
    (
        [[0.0], [1.0], [3.0], [4.0]],
        [1.0, 3.0, 2.0, 5.5],
        "linear-1d",
        [
            ([-1.0], -1.0),
            ([0.0], 1.0),
            ([0.5], 2.0),
            ([2.2], 2.4),
            ([3.0], 2.0),
            ([4.0], 5.5),
            ([6.25], 13.375),
        ],
    ),
    (
        [[x, y] for x in (0.0, 1.0, 3.0) for y in (10.0, 20.0)],
        [0.1 * x + 0.37 * y + 0.05 * x * y for x in (0.0, 1.0, 3.0) for y in (10.0, 20.0)],
        "multilinear-grid",
        [
            ([0.5, 12.5], 4.987500000000001),
            ([2.0, 17.0], 8.190000000000001),
            ([-1.0, 15.0], 5.550000000000001),
            ([4.0, 25.0], 10.700000000000001),
            ([3.0, 20.0], 10.700000000000001),
        ],
    ),
    (
        [[0.0, 0.0], [1.0, 0.1], [0.2, 1.0], [1.3, 1.2], [0.6, 0.5], [2.0, 0.7]],
        [1.0, 2.0, 1.5, 3.1, 0.7, 2.9],
        "scattered",
        [
            ([0.5, 0.4], 0.7840909090909091),
            ([1.0, 0.8], 2.0625),
            ([0.3, 0.3], 0.8859999999999999),
            ([3.0, 3.0], 3.1),  # outside the hull: nearest neighbour
            ([-1.0, 0.2], 1.0),
        ],
    ),
]


@pytest.mark.parametrize("X, y, kind, queries", _KIND_PINS, ids=[p[2] for p in _KIND_PINS])
def test_kind_and_predictions_pinned(X, y, kind, queries):
    interp = Interpolator(X, y)
    assert interp.kind == kind
    assert [interp(q) for q, _ in queries] == [v for _, v in queries]


# Flat samples: some axis holds one value (a vary-one-axis sweep).  Half
# steps put exact midpoint ties and duplicate locations within reach.
_half_steps = st.integers(min_value=-6, max_value=6).map(lambda k: k * 0.5)


@st.composite
def _flat_samples(draw):
    ndim = draw(st.integers(min_value=2, max_value=3))
    n_const = draw(st.integers(min_value=1, max_value=ndim - 1))
    const_axes = set(draw(st.permutations(range(ndim)))[:n_const])
    const = {j: draw(_half_steps) for j in const_axes}
    coord = st.one_of(_half_steps, st.floats(-4.0, 4.0, allow_nan=False))
    rows = draw(st.lists(
        st.tuples(*[st.just(const[j]) if j in const else coord for j in range(ndim)]),
        min_size=1, max_size=24,
    ))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicates
    y = draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=len(rows), max_size=len(rows),
    ))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        mid = [(u + v) / 2 for u, v in zip(a, b)]  # a tie when a != b
        off = draw(st.sampled_from([0.0, 0.75, -2.5]))  # off the constant value
        queries.append([m + off if j in const else m for j, m in enumerate(mid)])
        queries.append(list(draw(st.tuples(*[coord] * ndim))))
    return [list(r) for r in rows], y, queries


@given(_flat_samples())
@settings(max_examples=150, deadline=None)
def test_flat_samples_answer_as_scipy_nearest(sample):
    # Flat samples skip the Qhull build, so they must answer exactly as the
    # scipy nearest-neighbour lookup the scattered path would fall back to.
    from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator
    from scipy.spatial import QhullError

    X, y, queries = sample
    interp = Interpolator(X, y)
    with pytest.raises(QhullError):
        LinearNDInterpolator(interp.X, interp.y)
    nearest = NearestNDInterpolator(interp.X, interp.y)
    for q in queries:
        q = np.asarray(q)
        assert interp(q) == float(nearest(q[None])[0])
