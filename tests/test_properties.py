"""Properties of every instance, on instances and points drawn by hypothesis.

f is 1-Lipschitz and nonnegative on any pair of points, near or far, and the
record ``save_instance`` writes holds every field of the instance, each float
as a repr that reads back exactly.  A stacked build and a stacked oracle equal, row for row
and bit for bit, the build and the oracle of each bit string on its own; so
do the stacked instance's batch entry points, over blocks of 1 to 16 rows, and
so does a capped stack, row r with the cap of its own seed.
Away from every kink the suite's forward difference along v matches the
support function of the subdifferential in v, the directional derivative.
At every point with f >= 1 the certificate's fallback points lie in the ball
B(x, delta), with no slack, and one of them is below f(x) - delta c.
"""

import dataclasses
import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle_reference import check_instance_record, reference_build_r, reference_h

from nshard.embed import STATIONARITY_C, HardInstance, build_h, build_instance, cap_value, save_instance
from nshard.hard1d import build_1d_instance, build_hbar, build_r
from nshard.verify import _fd_gap, _witnesses

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    d = draw(st.integers(2, 30))
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    if draw(st.booleans()):
        return build_h(d, bits)
    return build_instance(d, bits, rho=draw(st.floats(1e-6, 0.9)), seed=draw(st.integers(0, 2**32 - 1)))


def _pairs(inst, rng, n=50):
    """Pairs at distances from 1e-8 to 10, around x_star, the cap anchor and the box."""
    centers = [inst.x_star, np.zeros(inst.d)] + ([inst.x_star - inst.w] if inst.has_cap else [])
    X = centers[rng.integers(len(centers))] + rng.uniform(-3.0, 3.0, size=(n, inst.d)) * rng.choice(
        [1e-6, 1e-2, 1.0], size=(n, 1))
    steps = rng.standard_normal((n, inst.d))
    steps *= 10.0 ** rng.uniform(-8.0, 1.0, size=(n, 1)) / np.linalg.norm(steps, axis=1, keepdims=True)
    return X, X + steps


@SETTINGS
@given(inst=instances(), seed=st.integers(0, 2**32 - 1))
def test_f_is_1_lipschitz_and_nonnegative(inst, seed):
    X, Y = _pairs(inst, np.random.default_rng(seed))
    fx, fy = inst.eval_f_batch(X), inst.eval_f_batch(Y)
    assert np.all(fx >= 0.0) and np.all(fy >= 0.0)
    assert np.all(np.abs(fx - fy) <= np.linalg.norm(X - Y, axis=1) * (1 + 1e-12))
    for x, y in zip(X[:5], Y[:5]):  # the scalar oracle as well
        assert abs(inst.eval_f(x) - inst.eval_f(y)) <= np.linalg.norm(x - y) * (1 + 1e-12)


@SETTINGS
@given(inst=instances())
def test_save_load_roundtrip_is_equal(inst, tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "instance.txt"
    save_instance(inst, path)
    check_instance_record(path, inst)
    assert dataclasses.replace(inst) == inst  # equality compares the array fields by value
    other_w = np.ones(inst.d) if inst.w is None else inst.w + 1.0
    assert dataclasses.replace(inst, w=other_w) != inst


def _bytes(seq):
    return np.asarray(seq, dtype=float).tobytes()


@st.composite
def bit_stacks(draw, max_rows=50, max_depth=24):
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_depth)))
    return draw(arrays(np.int64, shape, elements=st.integers(0, 1)))


@SETTINGS
@given(bits=bit_stacks())
def test_stacked_build_equals_row_builds(bits):
    r_stack = build_r(bits)
    stack, x_star = build_hbar(bits)
    assert stack.breakpoints.shape == (len(bits), 2 * bits.shape[1] + 3)
    for r, row in enumerate(bits):
        ref, (table, x) = reference_build_r(row), build_hbar(row)
        assert r_stack.breakpoints[r].tobytes() == _bytes(ref.breakpoints)
        assert r_stack.slopes[r].tobytes() == _bytes(ref.slopes)
        assert _bytes(r_stack.values) == _bytes(ref.values)
        assert stack.breakpoints[r].tobytes() == _bytes(table.breakpoints)
        assert stack.slopes[r].tobytes() == _bytes(table.slopes)
        assert _bytes(stack.values) == _bytes(table.values)
        assert x_star[r:r + 1].tobytes() == _bytes([x])
    assert build_hbar(bits)[0] == stack


def _stacked_and_rows(bits, d):
    """A stacked instance of the rows of bits at dimension d (1D for d = 1), and each row's own instance."""
    build = build_1d_instance if d == 1 else lambda b: build_h(d, b)
    return build(bits), [build(row) for row in bits]


def _queries(inst, rng):
    """One point per row: uniform, on a breakpoint of the row's table, at x_star,
    with a zero leading part, or with a leading part whose squared norm underflows."""
    table = inst.pwa if hasattr(inst, "pwa") else inst.hbar
    R = len(table.breakpoints)
    x_star = inst.x_star.reshape(R, -1)
    d = x_star.shape[1]
    X = rng.uniform(-1.0, 2.0, size=(R, d)) * rng.choice([1e-6, 1.0, 1e3], size=(R, 1))
    kind = rng.integers(0, 5, size=R)
    on_bp = table.breakpoints[np.arange(R), rng.integers(table.breakpoints.shape[1], size=R)]
    X[kind == 1, -1] = on_bp[kind == 1]
    X[kind == 2] = x_star[kind == 2]
    X[kind == 3, :-1] = 0.0
    X[kind == 4, :-1] = 1e-170 * rng.standard_normal((np.count_nonzero(kind == 4), d - 1))
    return X


@SETTINGS
@given(bits=bit_stacks(max_depth=12), d=st.integers(1, 60), block=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_oracle_rows_equal_row_oracles(bits, d, block, seed):
    stack, rows = _stacked_and_rows(bits, d)
    X = _queries(stack, np.random.default_rng(seed))
    with patch.object(HardInstance, "BLOCK_BYTES", 8 * d * block):  # blocks of 1 to 16 rows
        values, G = stack.value_and_subgrad(X)
        f, norms = stack.min_subgrad_norm_batch(X) if d > 1 else (values, None)
        f2 = stack.eval_f_batch(X) if d > 1 else values
    assert values.shape == (len(bits),) and G.shape == (len(bits), d)
    for r, inst in enumerate(rows):
        v, g = inst.value_and_subgrad(X[r].copy())
        assert values[r:r + 1].tobytes() == f[r:r + 1].tobytes() == f2[r:r + 1].tobytes() == _bytes([v]), r
        assert G[r].tobytes() == g.tobytes(), r
        assert norms is None or norms[r:r + 1].tobytes() == _bytes([np.linalg.norm(g)]), r


@SETTINGS
@given(bits=bit_stacks(max_depth=12), d=st.integers(2, 30), rho=st.sampled_from([1e-6, 1e-3, 0.25, 0.9]),
       block=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_stacked_capped_instance_rows_equal_row_instances(bits, d, rho, block, seed):
    """Row r of a capped stack is build_instance(d, bits[r], rho, seeds[r]): its cap fields, and its oracle
    and batch entry points at points on the cap's anchor and axis, at x_d = x_mid, with signed zero leading
    entries and at x_d = +-1e300, where the far-out answer is quiet."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(2**32, size=len(bits))]
    stack = build_instance(d, bits, rho, seed=seeds)
    rows = [build_instance(d, b, rho, seed=s) for b, s in zip(bits, seeds)]
    for r, inst in enumerate(rows):
        for name in ("w", "w_unit", "shift", "x_star"):
            assert getattr(stack, name)[r].tobytes() == getattr(inst, name).tobytes(), (r, name)
        for name in ("w_norm", "x_mid", "cone_pad"):
            assert getattr(stack, name)[r:r + 1].tobytes() == _bytes([getattr(inst, name)]), (r, name)
    R = len(bits)
    X = _queries(stack, rng)
    kind = rng.integers(0, 6, size=R)
    anchor = stack.x_star - stack.w
    out = rng.choice([0.0, 1e-12, 1e-3, 0.5, 1.0, 20.0], size=(R, 1)) * stack.w_norm[:, None]
    X[kind == 1] = anchor[kind == 1]
    X[kind == 2] = (anchor + out * stack.w_unit)[kind == 2]
    X[kind == 3, -1] = stack.x_mid[kind == 3]
    X[kind == 4, :-1] = rng.choice([0.0, -0.0], size=(np.count_nonzero(kind == 4), d - 1))
    X[kind == 5, -1] = rng.choice([1e300, -1e300], size=np.count_nonzero(kind == 5))
    with warnings.catch_warnings(), patch.object(HardInstance, "BLOCK_BYTES", 8 * d * block):
        warnings.simplefilter("error")
        values, G = stack.value_and_subgrad(X)
        f, norms = stack.min_subgrad_norm_batch(X)
        f2 = stack.eval_f_batch(X)
        for r, inst in enumerate(rows):
            v, g = inst.value_and_subgrad(X[r].copy())
            assert values[r:r + 1].tobytes() == f[r:r + 1].tobytes() == f2[r:r + 1].tobytes() == _bytes([v]), r
            assert G[r].tobytes() == g.tobytes(), r
            assert norms[r:r + 1].tobytes() == _bytes([np.linalg.norm(g)]), r


@SETTINGS
@given(bits=bit_stacks(max_depth=12), d=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_stacked_oracle_names_the_first_non_finite_row(bits, d, seed):
    stack, rows = _stacked_and_rows(bits, d)
    rng = np.random.default_rng(seed)
    X = _queries(stack, rng)
    bad = rng.choice(len(bits), size=min(3, len(bits)), replace=False)
    for r in bad:
        if d > 1 and rng.uniform() < 0.25:
            X[r, :-1] = 1e200  # a finite point whose leading norm overflows
        else:
            X[r, rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    first = int(bad.min())
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as one:
            rows[first].value_and_subgrad(X[first])
        with pytest.raises(ValueError) as stacked:
            stack.value_and_subgrad(X)
    assert str(stacked.value) == f"row {first}: {one.value}"


@SETTINGS
@given(d=st.integers(2, 12), bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
       rho=st.sampled_from([0.25, 1e-3]), tilt=st.floats(0.0, 4.0), log_t=st.floats(-3.0, 1.3),
       seed=st.integers(0, 2**32 - 1))
def test_forward_difference_matches_the_support_function_away_from_kinks(d, bits, rho, tilt, log_t, seed):
    """x on a ray from the cap anchor x_star - w, tilted toward w, from 1e-3 to 20 out: inside
    and outside the cap cone.  Kept where the step of 1e-6 stays clear of every kink: a valley
    breakpoint, ||x_(1:d-1)|| = 0, the cap boundary (with the quadratic band of width mu inside
    it) and the max boundary.  Margins of 1e-4 to 1e-3 bound the second-order error below 1e-4."""
    rng = np.random.default_rng(seed)
    inst = build_instance(d, bits, rho=rho, seed=seed)
    u = tilt * inst.w_unit + rng.standard_normal(d)
    x = inst.x_star - inst.w + 10.0**log_t * u / np.linalg.norm(u)
    z = x - inst.x_star + inst.w
    q = inst.w_unit @ z - np.linalg.norm(z) / 2  # the cap's argument, 0 on the cone's boundary
    assume(np.min(np.abs(np.asarray(inst.hbar.breakpoints) - x[-1])) >= 1e-4)
    assume(np.linalg.norm(x[:-1]) >= 1e-3)
    assume(abs(q) >= 1e-3 + inst.mu)
    assume(abs(reference_h(inst, x) - cap_value(q, inst.mu)) >= 1e-4)
    assert _fd_gap(inst, x, rng.standard_normal((1, d))) <= 1e-4


@SETTINGS
@given(d=st.integers(2, 60), bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
       rho=st.sampled_from([1e-3, 1e-2, 0.25]), log_delta=st.floats(-3.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_a_fallback_point_of_the_ball_is_below_the_target(d, bits, rho, log_delta, seed):
    """Points at distances from 1e-8 to 30 around x_star, the cap anchor x_star - w and the origin,
    one of each 8 at 30; those with f >= 1 are kept, each checked at the drawn delta and at 1e-3.
    The far ones have every move shortened onto the sphere, and where |x_i| / delta is large the
    rounding of x + move can leave it."""
    rng = np.random.default_rng(seed)
    inst = build_instance(d, bits, rho=rho, seed=seed)
    scales = 10.0 ** rng.uniform(-8.0, math.log10(30.0), size=(24, 1))
    scales[::8] = 30.0
    V = rng.standard_normal((24, d))
    V *= scales / np.linalg.norm(V, axis=1, keepdims=True)
    X = np.repeat([inst.x_star, inst.x_star - inst.w, np.zeros(d)], 8, axis=0) + V
    kept = 0
    for x in X:
        f0 = inst.value_and_subgrad(x)[0]
        if f0 < 1.0:
            continue
        for delta in (10.0**log_delta, 1e-3):
            P = _witnesses(inst, x, delta)
            assert np.all(np.linalg.norm(P - x, axis=1) <= delta)
            assert np.min(inst.eval_f_batch(P)) < f0 - delta * STATIONARITY_C
        kept += 1
    assume(kept)
