"""Properties of every instance, on instances and points drawn by hypothesis.

f is 1-Lipschitz and nonnegative on any pair of points, near or far, and an
instance written by ``save_instance`` reads back equal through
``load_instance``.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nshard.embed import build_h, build_instance, load_instance, save_instance

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
    got = load_instance(path)
    assert (got.w is None) == (inst.w is None)
    assert got.w is None or np.array_equal(got.w, inst.w)
    assert np.array_equal(got.x_star, inst.x_star)
    # the array fields, just compared, are shared so that == compares the rest
    assert dataclasses.replace(got, w=inst.w, x_star=inst.x_star) == inst
