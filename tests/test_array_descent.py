"""The array descent against the one-point-at-a-time reference.

``descend``, ``locate`` and ``eval_r`` walk a whole array of points level by
level; ``oracle_reference`` keeps the scalar bodies they replaced.  Every
element takes the same IEEE operations in the same order, so the results
must be equal bit for bit, NaN, signed zeros, interval endpoints and tails
included, for array calls and for scalar calls alike.  Points are drawn at
random and on every prefix interval's endpoints and their float neighbours.
A stacked descent of R strings equals R descents of one string each.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nshard.hard1d import eval_r
from nshard.intervals import descend, interval, locate
from nshard.schedule import DEFAULT_SCHEDULE, AngleSchedule
from nshard.verify import progress_process
from oracle_reference import reference_descend, reference_eval_r

EXTENDED = AngleSchedule("extended", dps=40)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPECIAL = [0.0, 1.0, -0.0, 0.5, np.nan]


def _intervals(bits, sched=DEFAULT_SCHEDULE):
    """Every prefix's open interval, in the schedule's own numbers."""
    return [interval(bits[:k], sched) for k in range(1, len(bits) + 1)]


def _ends(bits, sched=DEFAULT_SCHEDULE, mid=False):
    """Every prefix interval's endpoints (and midpoints)."""
    return [e for iv in _intervals(bits, sched) for e in ((iv.lo, iv.hi, iv.mid) if mid else (iv.lo, iv.hi))]


def _points(bits, rng, sched=None):
    """Uniform points, each prefix's lo/hi and their neighbours, x_mid and the specials.

    With a schedule, the extended endpoints and midpoints are added as well."""
    ends = np.array(_ends(bits))
    xs = np.concatenate([rng.uniform(-0.5, 1.5, size=40), ends, np.nextafter(ends, np.inf),
                         np.nextafter(ends, -np.inf), [interval(bits).mid], SPECIAL])
    return xs if sched is None else np.array(xs.tolist() + _ends(bits, sched, mid=True), dtype=object)


def _same(a, b) -> bool:
    """Equal, or both NaN, and of the same type (float or mpf)."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _membership(x, intervals) -> int:
    """Depth by testing the absolute open intervals one after another."""
    depth = 0
    for k, iv in enumerate(intervals, start=1):
        if not iv.lo < x < iv.hi:
            break
        depth = k
    return depth


@SETTINGS
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=24), seed=st.integers(0, 2**32 - 1))
def test_array_descent_matches_scalar_reference(bits, seed):
    xs = _points(bits, np.random.default_rng(seed))
    ref_v = np.array([reference_eval_r(bits, float(x)) for x in xs], dtype=float)
    ref_d = [reference_descend(float(x), bits) for x in xs]
    ref_depth = np.array([d for d, _ in ref_d])
    ref_u = np.array([u for _, u in ref_d], dtype=float)

    assert eval_r(bits, xs).tobytes() == ref_v.tobytes()
    depth, u = descend(xs, bits)
    assert np.array_equal(depth, ref_depth) and u.tobytes() == ref_u.tobytes()
    assert np.array_equal(locate(xs, bits), ref_depth)
    assert eval_r(bits, xs.reshape(1, -1)).shape == (1, xs.size)
    for x, v, d, w in zip(xs, ref_v, ref_depth, ref_u):
        got = eval_r(bits, float(x))
        assert type(got) is float and np.float64(got).tobytes() == v.tobytes()
        gd, gu = descend(float(x), bits)
        assert type(gd) is int and gd == d and np.float64(gu).tobytes() == w.tobytes()


@settings(SETTINGS, max_examples=40)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_extended_array_descent_matches_scalar_reference(bits, seed):
    xs = _points(bits, np.random.default_rng(seed), EXTENDED)
    vals = eval_r(bits, xs, EXTENDED)
    depth, u = descend(xs, bits, EXTENDED)
    for i, (x, v, d, w) in enumerate(zip(xs, vals, depth, u)):
        ref = reference_eval_r(bits, x, EXTENDED)
        rd, ru = reference_descend(x, bits, EXTENDED)
        assert _same(v, ref) and d == rd and _same(w, ru)
        if i % 3 == 0:  # scalar calls on every third point keep the test short
            sd, su = descend(x, bits, EXTENDED)
            assert _same(eval_r(bits, x, EXTENDED), ref) and sd == rd and _same(su, ru)


@SETTINGS
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=24), seed=st.integers(0, 2**32 - 1),
       extended=st.booleans())
def test_locate_agrees_with_interval_membership(bits, seed, extended):
    """Off the computed endpoints themselves, the local descent and the absolute
    open intervals put every point at the same depth.  At a computed endpoint
    the open test only says which way that endpoint was rounded, so there the
    two may differ; its float neighbours must still agree."""
    sched = EXTENDED if extended else DEFAULT_SCHEDULE
    if extended:
        bits = bits[:8]
    xs = _points(bits, np.random.default_rng(seed), EXTENDED if extended else None)
    ivs = _intervals(bits, sched)
    ends = {e for iv in ivs for e in (iv.lo, iv.hi)}
    depths = locate(xs, bits, sched)
    checked = 0
    for x, depth in zip(xs, depths):
        if x in ends:
            continue
        assert depth == _membership(x, ivs), x
        checked += 1
    assert checked >= 40  # at least the uniform points


@SETTINGS
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=24), seed=st.integers(0, 2**32 - 1))
def test_progress_process_is_running_max_of_reference_locate(bits, seed):
    rng = np.random.default_rng(seed)
    xs = _points(bits, rng)
    xs = rng.permutation(xs[np.isfinite(xs)])
    want = np.maximum.accumulate([0] + [reference_descend(float(x), bits)[0] for x in xs])
    assert np.array_equal(progress_process(xs, bits), want)


@st.composite
def bit_stacks(draw, max_depth):
    """R <= 50 bit strings of one depth, and a seed for their points."""
    bits = draw(arrays(np.int64, (draw(st.integers(1, 50)), draw(st.integers(1, max_depth))),
                       elements=st.integers(0, 1)))
    return bits, draw(st.integers(0, 2**32 - 1))


def _stacked_points(bits, seed, sched):
    """6 points per row: uniform, the endpoints and the midpoint of one of the
    row's prefixes, NaN and +-inf, in a random order."""
    rng = np.random.default_rng(seed)
    rows = []
    for row in bits:
        iv = interval(row[:rng.integers(1, len(row) + 1)], sched)
        pts = [rng.uniform(-0.5, 1.5), iv.lo, iv.hi, iv.mid, np.nan, rng.choice([np.inf, -np.inf])]
        rows.append([pts[i] for i in rng.permutation(6)])
    return np.array(rows, dtype=float if sched is DEFAULT_SCHEDULE else object)


@SETTINGS
@given(case=bit_stacks(max_depth=24))
def test_stacked_descent_equals_row_descents(case):
    bits, seed = case
    X = _stacked_points(bits, seed, DEFAULT_SCHEDULE)
    depth, u = descend(X, bits)
    assert np.array_equal(locate(X, bits), depth)
    for r, row in enumerate(bits):
        want_depth, want_u = descend(X[r], row)
        assert np.array_equal(depth[r], want_depth) and np.array_equal(u[r], want_u, equal_nan=True), r
        assert u[r].tobytes() == want_u.tobytes(), r


@settings(SETTINGS, max_examples=25)
@given(case=bit_stacks(max_depth=24))
def test_extended_stacked_descent_equals_row_descents(case):
    bits, seed = case
    X = _stacked_points(bits, seed, EXTENDED)
    depth, u = descend(X, bits, EXTENDED)
    assert np.array_equal(locate(X, bits, EXTENDED), depth)
    for r, row in enumerate(bits):
        want_depth, want_u = descend(X[r], row, EXTENDED)
        assert np.array_equal(depth[r], want_depth), r
        assert all(_same(a, b) for a, b in zip(u[r], want_u)), r


def test_stacked_descent_needs_one_row_of_points_per_string():
    with pytest.raises(ValueError, match="2 bit strings"):
        locate(np.zeros((3, 4)), np.array([[0, 1], [1, 0]]))
