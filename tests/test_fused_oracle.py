"""The one-pass oracle against the oracle composed from its separate parts.

``HardInstance.value_and_subgrad`` and ``HardInstance.support`` are views of
one scalar pass that computes the leading norm, the table lookup and the cap
gap once each; the reference in ``oracle_reference`` recomputes them on its
own, through ``np.linalg.norm``, the table's ``__call__`` and ``subdiff``,
``cap_value`` and ``cap_slope``, and takes the support of its set one
direction at a time.  The arithmetic is the same, so the outputs
must be equal exactly, not within a tolerance.  Points are drawn at random and also on every kink: the last
axis, valley breakpoints, x_star, the cap anchor x_star - w, the cap band
where the ramp is quadratic, the zero region, and (for the batch entry
points) the max boundary psi = 0, where h equals the cap.  The batch entry points,
which run the row kernel over blocks of rows, equal the scalar oracle row by
row on the same points, in both precisions: both read the binary64 table.
"""

import dataclasses
import itertools
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nshard import embed
from nshard.embed import HardInstance, build_h, build_instance
from nshard.hard1d import build_1d_instance
from nshard.schedule import DEFAULT_SCHEDULE, AngleSchedule
from oracle_reference import (
    assert_same_support,
    composed_1d,
    composed_subgrad,
    composed_value,
    gap,
    max_boundary_ties,
    reference_h,
    reference_subgrad,
    support_directions,
)

EXTENDED = AngleSchedule("extended")
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

bits_st = st.lists(st.integers(0, 1), min_size=1, max_size=8)
sched_st = st.sampled_from([DEFAULT_SCHEDULE, EXTENDED])
KINDS = ("uniform", "axis", "breakpoint", "x_star", "anchor", "cap_band", "zero_region", "near_star", "strided")


@st.composite
def instances(draw):
    d = draw(st.integers(2, 60))
    bits = draw(bits_st)
    sched = draw(sched_st)
    if draw(st.booleans()):
        return build_h(d, bits, sched)
    rho = draw(st.floats(1e-6, 0.9))
    return build_instance(d, bits, rho=rho, seed=draw(st.integers(0, 2**32 - 1)), sched=sched)


def _point(inst, kind, rng):
    d = inst.d
    x = rng.uniform(-3.0, 3.0, size=d) * rng.choice([1e-6, 1e-2, 1.0, 10.0])
    if kind == "axis":
        x[:-1] = 0.0
    elif kind == "breakpoint":
        x[-1] = float(inst.hbar.breakpoints[rng.integers(len(inst.hbar.breakpoints))])
        if rng.uniform() < 0.5:
            x[:-1] = 0.0
    elif kind == "x_star":
        x = inst.x_star.copy()
    elif kind == "near_star":
        x = inst.x_star + rng.normal(scale=1e-3, size=d)
        x[-1] = inst.x_star[-1]
    elif kind == "strided":
        return np.repeat(x, 2)[::2]
    elif inst.has_cap and kind == "anchor":
        x = inst.x_star - inst.w
    elif inst.has_cap and kind == "cap_band":
        # gap q = r (cos t - 1/2) in (0, mu]: the quadratic piece of the ramp
        v = rng.normal(size=d)
        if d > 2 and rng.uniform() < 0.5:
            v[-1] = 0.0  # stay on the slice through x_star
        v -= (v @ inst.w_unit) * inst.w_unit
        v /= np.linalg.norm(v)
        r = inst.mu * rng.uniform(2.0, 2000.0)
        cos = 0.5 + rng.uniform(0.0, 1.0) * inst.mu / r
        x = inst.x_star - inst.w + r * (cos * inst.w_unit + np.sqrt(1.0 - cos * cos) * v)
    elif inst.has_cap and kind == "zero_region":
        # far along w the cap exceeds h: f = 0 beyond t = 32/3
        x = inst.x_star - inst.w + rng.uniform(11.0, 40.0) * inst.w_unit
    return x


def _assert_same(inst, x, U):
    v, g = inst.value_and_subgrad(x)
    assert v == composed_value(inst, x)
    assert np.array_equal(g, composed_subgrad(inst, x))
    assert inst.eval_f(x) == v
    assert np.array_equal(inst.min_subgrad(x), g)
    assert_same_support(inst, x, U)


@SETTINGS
@given(inst=instances(), seed=st.integers(0, 2**32 - 1))
def test_fused_oracle_matches_composition(inst, seed):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for _ in range(3):
            _assert_same(inst, _point(inst, kind, rng), support_directions(inst.d, rng))


def _assert_batch_rows_equal_scalar(inst, X):
    f = inst.eval_f_batch(X)
    f2, norms = inst.min_subgrad_norm_batch(X)
    G = inst._kernel(X, grad=True)[1]  # the kernel's rows, also of a one-row X, which the oracle gives the scalar pass
    for r, x in enumerate(X):
        v, g = inst.value_and_subgrad(x.copy())  # a fresh row, aligned apart from X
        assert f[r:r + 1].tobytes() == f2[r:r + 1].tobytes() == np.array([v]).tobytes(), r
        assert norms[r:r + 1].tobytes() == np.array([np.linalg.norm(g)]).tobytes(), r
        assert G[r].tobytes() == g.tobytes(), r


@SETTINGS
@given(inst=instances(), n=st.integers(1, 6), block=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_scalar_oracle(inst, n, block, seed):
    rng = np.random.default_rng(seed)
    ties = max_boundary_ties(inst, span=64) if inst.has_cap else []  # psi == 0, which no drawn point hits
    X = np.array([_point(inst, kind, rng) for kind in KINDS for _ in range(n)] + ties)
    X = X[rng.permutation(len(X))]
    with patch.object(HardInstance, "BLOCK_BYTES", 8 * inst.d * block):  # blocks of 1 to 16 rows
        _assert_batch_rows_equal_scalar(inst, X)


def test_batch_rows_equal_scalar_oracle_over_full_blocks():
    inst = build_instance(50, "01101", rho=1e-3, seed=5)
    rng = np.random.default_rng(9)
    X = np.array([_point(inst, KINDS[i % len(KINDS)], rng) for i in range(2000)])
    assert len(X) > 3 * inst.BLOCK_BYTES // (8 * inst.d)
    _assert_batch_rows_equal_scalar(inst, X)
    _assert_batch_rows_equal_scalar(inst, np.asfortranarray(X))  # strided rows


def test_batch_rows_keep_the_signed_zeros_where_the_ramp_vanishes():
    # ||z|| underflows to 0 at a point whose leading part holds a -0.0: the scalar
    # pass skips the ramp there, so the -0.0 of the gradient must stay
    inst = build_instance(3, "01", rho=1e-3, seed=1)
    inst = dataclasses.replace(inst, w=np.array([1e-3, -1e-170, 0.0]))
    x = np.array([-1e-3, -0.0, inst.x_star[-1]])
    g = inst.min_subgrad(x)
    assert np.signbit(g[1])
    _assert_batch_rows_equal_scalar(inst, x[None, :])


def test_leading_gradient_leaves_x_d_out_of_its_division():
    # pn ~ 1.4e-161, so x_d / (32 pn) would overflow; both paths zero the last entry instead
    inst = build_instance(4, "01", rho=1e-3, seed=1)
    x = np.array([1e-161, 1e-161, 0.0, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_batch_rows_equal_scalar(inst, x[None, :])


def test_flat_ramp_adds_no_cap_term_in_either_path():
    # the cap adds no term where its slope is 0: a -0.0 leading coordinate keeps its sign outside
    # the cap cone and at the anchor, in the scalar pass and the row kernel alike
    inst = build_instance(6, "0110", rho=0.25, seed=3)
    inst = dataclasses.replace(inst, w=np.where(np.arange(6) == 2, 0.0, inst.w))  # w_2 = 0
    wu, anchor = inst.w_unit, inst.x_star - inst.w
    across = np.ones(inst.d)
    across[-1] = 0.0
    across -= (across @ wu) * wu
    across /= np.linalg.norm(across)
    flat, flips = [], 0
    for i in range(inst.d - 1):
        for x in (inst.x_star - 3.0 * wu, inst.x_star + across):  # behind the anchor, across the cone
            x = x.copy()
            x[i] = -0.0
            z = x - inst.x_star + inst.w
            v = wu - z / (2.0 * np.linalg.norm(z))
            flips += not np.signbit(x[i] - 0.0 * v[i])  # the term would turn this -0.0 into +0.0
            flat.append(x)
    at_anchor = anchor.copy()
    at_anchor[2] = -0.0
    assert np.linalg.norm(at_anchor - inst.x_star + inst.w) == 0.0
    flat.append(at_anchor)
    assert flips > 0
    for x in flat:
        assert gap(inst, x - inst.x_star) <= 0.0
        g = inst.min_subgrad(x)
        assert all(np.signbit(g[i]) for i in range(inst.d - 1) if np.signbit(x[i]))
    # inside the cone, on the quadratic piece (q <= mu) and the affine one (q > mu)
    v = np.zeros(inst.d)
    v[2] = 1.0
    band = [anchor + r * (c * wu + np.sqrt(1.0 - c * c) * v)
            for r, c in ((inst.mu * 10.0, 0.5 + 0.05), (inst.mu * 1000.0, 0.5 + 0.0005), (2.0, 0.9))]
    gaps = [gap(inst, x - inst.x_star) for x in band]
    assert 0.0 < gaps[0] <= inst.mu and 0.0 < gaps[1] <= inst.mu < gaps[2]
    _assert_batch_rows_equal_scalar(inst, np.array(flat + band))


@pytest.mark.parametrize("d, seed", [(3, 0), (4, 3), (5, 1)])
def test_kernel_keeps_the_signed_zeros_of_flat_rows_beside_a_cone_row(d, seed):
    # a cone row (slope 1/4) sends its block's near rows through Gb[near] -= Z; on a near row where q <= 0
    # the slope is 0 and 0 * (w_unit - z / (2 ||z||)) is -0.0 at a -0.0 leading entry with w_i < 0, where
    # z_i = w_i and ||z|| > ||w|| / 2: the kernel must subtract +0.0 there, or -0.0 - -0.0 turns it +0.0
    inst = build_instance(d, "0110", rho=0.25, seed=seed)
    wu, wn = inst.w_unit, inst.w_norm
    flat = []
    for j, s in itertools.product(np.flatnonzero(inst.w > 0), (1.0, 1.5, 2.0)):  # toward the anchor, off w
        x = inst.x_star - s * wn * np.eye(d)[j]
        x[inst.w < 0] = -0.0
        reach = x @ wu + wn - 0.5 * max(0.0, np.linalg.norm(x[:-1]) - wn)  # the kernel's bound on the gap
        if gap(inst, x - inst.x_star) <= 0.0 < reach:
            flat.append(x)
    cone = inst.x_star + 0.5 * wu
    assert gap(inst, cone - inst.x_star) > inst.mu and len(flat) > 0
    _assert_batch_rows_equal_scalar(inst, np.array([cone, *flat]))


@pytest.mark.parametrize("d", [2, 3, 10, 60])
def test_cap_offset_is_one_addition(d):
    # x + shift is (x - x_star) + w bit for bit, as x_star is 0 off the last axis, w is 0 on it and
    # x_d - x_star_d is never -0.0; the rows hold signed zeros, x_d = x_star_d, points on the cone
    # axis, subnormal and 1e300-sized entries, and the row kernel equals the scalar oracle on them
    inst = build_instance(d, "0110", rho=0.25, seed=d)
    rng = np.random.default_rng(d)
    mid = inst.x_star[-1]
    signed = rng.choice([0.0, -0.0], size=(8, d))
    signed[:, -1] = [mid, mid, 0.0, -0.0, 1.0, -2.0, 5e-324, -1e300]
    axis = inst.x_star - inst.w + np.array([0.0, 1e-3 * inst.mu, inst.mu, 0.5, 20.0])[:, None] * inst.w_unit
    tiny = rng.choice([5e-324, -5e-324, 2.5e-310, -0.0], size=(6, d))
    tiny[::2, -1] = mid
    huge = rng.uniform(-3.0, 3.0, size=(4, d))
    huge[:, -1] = [1e300, -1e300, mid, mid]
    huge[2:, 0] = [1e300, -1e300]  # the leading norm overflows: no oracle point, the offset still holds
    X = np.vstack([rng.uniform(-3.0, 3.0, size=(8, d)), signed, axis, tiny, huge])
    assert np.signbit(X[8:16, :-1]).any() and not np.signbit(X[8:16, :-1]).all()
    assert (X + inst.shift).tobytes() == ((X - inst.x_star) + inst.w).tobytes()
    with warnings.catch_warnings():  # ||z|| would overflow at x_d = +-1e300, where the ramp is off
        warnings.simplefilter("error")
        _assert_batch_rows_equal_scalar(inst, X[:-2])


@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("rho", [1e-3, 0.25])
def test_far_out_capped_answers_are_cap_free_and_quiet(d, rho):
    # the cone misses |x_d - x_mid| >= 4 pn + 4 ||w||: there the capped instance answers as the
    # cap-free one on the same bits, and neither path warns of the overflow of ||z|| or the ramp
    capped, free = build_instance(d, "0110", rho=rho, seed=d), build_h(d, "0110")
    X = np.random.default_rng(d).uniform(-3.0, 3.0, size=(6, d))
    X[:, -1] = [1e155, -1e155, 1e200, -1e200, 1e300, -1e300]
    U = support_directions(d, np.random.default_rng(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in X:
            (vc, gc), (vf, gf) = capped.value_and_subgrad(x), free.value_and_subgrad(x)
            assert (vc, reference_h(capped, x), gc.tobytes()) == (vf, reference_h(free, x), gf.tobytes())
            assert capped.support(x, U).tobytes() == free.support(x, U).tobytes()
        assert capped.eval_f_batch(X).tobytes() == free.eval_f_batch(X).tobytes()
        for a, b in zip(capped.min_subgrad_norm_batch(X), free.min_subgrad_norm_batch(X)):
            assert a.tobytes() == b.tobytes()


def test_scalar_oracle_is_quiet_where_only_the_cap_norm_overflows():
    # pn is finite but ||x + shift|| overflows, so the scalar pass gets past its far-out return; q is -inf there
    inst = build_instance(4, "01", rho=1e-3, seed=1)
    X = np.array([[1e154, 0.0, 0.0, 2e154], [1e154, 0.0, 0.0, -2e154], [-1e154, 5e153, 0.0, 3e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_batch_rows_equal_scalar(inst, X)


def _cone_edge_rows(inst, rng):
    """Rows where the cone filter decides: reach within +-1e-9 of 0, the cone's surface, the anchor and the
    cone axis on both sides of it, one and two ulps of each w_i from the anchor toward w (where q may round
    above 0 and reach below it, so that only the filter's rounding margin keeps the cap), +-0.0 entries and
    x_d = +-1e300."""
    d, wu, anchor, wn = inst.d, inst.w_unit, inst.x_star - inst.w, inst.w_norm
    rows = [anchor, inst.x_star]
    ulps = np.zeros(d)
    ulps[:-1] = np.spacing(np.abs(inst.w[:-1])) * np.sign(inst.w[:-1])
    rows += [anchor + k * ulps for k in (1, 2)]
    rows += [anchor + t * wu for t in (-1.0, -1e-3, -1e-9, -1e-12, 1e-12, 1e-9, inst.mu, 0.5, 20.0)]
    for t in (-1e-9, -3e-10, -1e-11, 0.0, 1e-11, 3e-10, 1e-9):  # reach = t, through x_d
        x = rng.uniform(-3.0, 3.0, size=d)
        x[-1] = 0.0
        x -= (x @ wu - rng.uniform(1.0, 2.0) * np.linalg.norm(x)) * wu  # lean toward w, so |x_d - x_mid| decides
        x[-1] = inst.x_mid + rng.choice([-2.0, 2.0]) * (x @ wu + wn - t)
        rows.append(x)
    for _ in range(6):  # the cone's surface, q = 0: 60 degrees off the axis at the anchor
        v = rng.normal(size=d)
        if d > 2 and rng.uniform() < 0.5:
            v[-1] = 0.0
        v -= (v @ wu) * wu
        v /= np.linalg.norm(v)
        r = inst.mu * 10.0 ** rng.uniform(-3.0, 6.0)
        rows.append(anchor + r * (0.5 * wu + np.sqrt(0.75) * v))
    X = np.array(rows)
    signed = X[rng.permutation(len(X))[:6]].copy()
    signed[rng.uniform(size=signed.shape) < 0.5] = -0.0
    far = rng.uniform(-3.0, 3.0, size=(4, d))
    far[:, -1] = [1e300, -1e300, 1e300, -1e300]
    far[2:, :-1] = 0.0
    return np.vstack([X, signed, far])


@pytest.mark.parametrize("d", [2, 3, 10, 60])
@pytest.mark.parametrize("rho", [1e-3, 0.25])
def test_cone_filter_keeps_every_row_bit_for_bit(d, rho):
    """The row kernel skips the cap where its cone provably misses; row by row it still equals the scalar oracle,
    quietly, at the filter's edge and on every block size from 1 to 16 rows."""
    inst = build_instance(d, "0110", rho=rho, seed=d)
    rng = np.random.default_rng(d)
    X = _cone_edge_rows(inst, rng)
    pn, off = np.linalg.norm(X[:, :-1], axis=1), np.abs(X[:, -1] - inst.x_mid)
    reach = X @ inst.w_unit + inst.w_norm - 0.5 * np.maximum(off, pn - inst.w_norm)  # the kernel's bound on the gap
    assert np.sum(np.abs(reach) <= 1e-9) >= 7 and np.any(reach < -1e-6) and np.any(reach > 1e-6)
    X = np.vstack([X, rng.uniform(-3.0, 3.0, size=(20, d))])[rng.permutation(len(X) + 20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (1, 2, 5, 16):
            with patch.object(HardInstance, "BLOCK_BYTES", 8 * d * block):
                _assert_batch_rows_equal_scalar(inst, X)
        bad = X.copy()
        bad[3] = np.nan
        f = inst.eval_f_batch(bad)
    assert np.isnan(f[3]) and f[np.arange(len(X)) != 3].tobytes() == np.delete(inst.eval_f_batch(X), 3).tobytes()


def test_cone_filter_skips_the_cap_off_the_cone():
    # at d = 50 the cone holds a tiny share of directions: no uniform point of [-3, 3]^d reaches the cap code
    inst = build_instance(50, "01101", rho=1e-3, seed=1)
    X = np.random.default_rng(1).uniform(-3.0, 3.0, size=(20000, 50))
    axis = inst.x_star - inst.w + np.array([0.5, 2.0])[:, None] * inst.w_unit
    with patch("nshard.embed.cap_value", side_effect=embed.cap_value) as cap:
        f, _ = inst.min_subgrad_norm_batch(X)
        assert inst.eval_f_batch(X).tobytes() == f.tobytes()
        assert cap.call_count == 0
        inst.eval_f_batch(axis)  # the patch does see the cone
        assert cap.call_count == 1


def test_engineered_points_hit_every_branch():
    """The point kinds above reach the zero region, the cap band and both kinks;
    ``max_boundary_ties`` reaches the max boundary."""
    inst = build_instance(7, "0110", rho=0.25, seed=4)
    rng = np.random.default_rng(0)
    cases = {reference_subgrad(inst, _point(inst, kind, rng)).case for kind in KINDS for _ in range(20)}
    assert {"zero_region", "at_minimizer", "at_cap_anchor", "off_slice"} <= cases
    assert "max_boundary" not in cases
    ties = max_boundary_ties(inst, span=64)
    assert ties and {reference_subgrad(inst, x).case for x in ties} == {"max_boundary"}
    for x in ties:  # the scaling to the origin: no direction descends
        assert np.all(inst.support(x, support_directions(inst.d, rng)) >= 0.0)
    assert cases & {"slice_cap_band_near", "slice_cap_band_far"}
    band = [_point(inst, "cap_band", rng) for _ in range(20)]
    gaps = [gap(inst, x - inst.x_star) for x in band]
    assert all(0.0 < q <= inst.mu * (1 + 1e-9) for q in gaps)


@pytest.mark.parametrize("sched", [DEFAULT_SCHEDULE, EXTENDED], ids=["binary64", "extended"])
@pytest.mark.parametrize("d", [2, 3, 10])
def test_support_equals_the_reference_sets_support_at_every_case(d, sched):
    """At every case label that the engineered points and ``max_boundary_ties`` reach, capped and cap-free,
    ``support`` equals the reference set's support row by row, by bytes, on +-e_d, rows with u_d = +-0.0, leading-only
    rows and Gaussian rows with -0.0 entries."""
    rng = np.random.default_rng(d)
    cases = set()
    for inst in (build_instance(d, "0110", rho=0.25, seed=2, sched=sched), build_h(d, "0110", sched)):
        points = [_point(inst, kind, rng) for kind in KINDS for _ in range(20)]
        points += max_boundary_ties(inst, span=64) if inst.has_cap else []
        for x in points:
            ref = reference_subgrad(inst, x)
            cases.add(ref.case)
            assert_same_support(inst, x, support_directions(d, rng), ref)
    assert {"no_cap", "zero_region", "max_boundary", "at_minimizer", "at_cap_anchor", "off_slice"} <= cases
    assert d == 2 or cases & {"slice_cap_band_near", "slice_cap_band_far"}  # at d = 2 the slice has no band


@SETTINGS
@given(bits=bits_st, sched=sched_st, seed=st.integers(0, 2**32 - 1))
def test_fused_1d_oracle_matches_composition(bits, sched, seed):
    inst = build_1d_instance(bits, sched)
    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(-1.0, 2.0, size=10)) + [float(b) for b in inst.pwa.breakpoints]
    for x in xs:
        v, g = inst.value_and_subgrad(np.array([x]))
        rv, rg = composed_1d(inst, x)
        assert v == rv
        assert np.array_equal(g, rg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, -1])
def test_oracle_rejects_non_finite_points(bad, where):
    for inst in (build_instance(4, "011", rho=1e-3, seed=2), build_h(4, "011")):
        x = np.array([0.1, -0.2, 0.3, 0.4])
        x[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            inst.value_and_subgrad(x)
        with pytest.raises(ValueError, match="non-finite"):
            inst.eval_f(x)
        with pytest.raises(ValueError, match="non-finite"):
            inst.support(x, np.eye(4))
    with pytest.raises(ValueError, match="non-finite"):
        build_1d_instance("01").value_and_subgrad(np.array([bad]))


def test_oracle_rejects_overflowing_norm():
    inst = build_instance(4, "011", rho=1e-3, seed=2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        inst.value_and_subgrad(np.array([1e200, -1e200, 1e200, 0.5]))
    # a huge but representable point is still answered
    v, g = inst.value_and_subgrad(np.array([1e150, 0.0, 0.0, 0.5]))
    assert np.isfinite(v) and np.all(np.isfinite(g))


@pytest.mark.parametrize("d", [2, 3, 10, 60])
@pytest.mark.parametrize("rho", [1e-3, 0.25])
def test_stacked_cone_filter_keeps_every_row_bit_for_bit(d, rho):
    """A capped stack's block reads its rows' cap fields: row r of each query, at the filter's edge of instance r,
    equals instance r's scalar oracle, quietly, on blocks of 1 to 5 rows."""
    bits = np.array([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])
    seeds = [d, 7, 2 * d, 11, 3]
    stack = build_instance(d, bits, rho=rho, seed=seeds)
    rows = [build_instance(d, b, rho=rho, seed=s) for b, s in zip(bits, seeds)]
    rng = np.random.default_rng(d)
    edges = np.stack([_cone_edge_rows(inst, rng) for inst in rows], axis=1)  # (points, rows, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (1, 2, 5):
            with patch.object(HardInstance, "BLOCK_BYTES", 8 * d * block):
                for X in edges:
                    values, G = stack.value_and_subgrad(X)
                    f, norms = stack.min_subgrad_norm_batch(X)
                    for r, inst in enumerate(rows):
                        v, g = inst.value_and_subgrad(X[r].copy())
                        assert values[r:r + 1].tobytes() == f[r:r + 1].tobytes() == np.array([v]).tobytes(), r
                        assert norms[r:r + 1].tobytes() == np.array([np.linalg.norm(g)]).tobytes(), r
                        assert G[r].tobytes() == g.tobytes(), r
    assert np.all(stack.eval_f_batch(edges[1]) < 1.0)  # x_star of every row: the cap is on


@pytest.mark.parametrize("rho", [1e-3, 0.25])
def test_kernel_gates_take_both_ways_in_one_query(rho):
    """The row kernel skips the norm-kink and zero-region writes in a block without such rows: in a capped stacked
    query of two blocks, one block has neither, the other a row at pn = 0, a row whose leading part squares to an
    underflow and a row in the zero region, x_star - w + 20 w_unit.  Each row equals the scalar pass, quietly."""
    d = 10
    bits = np.array([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0]])
    seeds = [4, 7, 20, 11, 3, 9]
    stack = build_instance(d, bits, rho=rho, seed=seeds)
    rows = [build_instance(d, b, rho=rho, seed=s) for b, s in zip(bits, seeds)]
    X = np.random.default_rng(3).uniform(-1.0, 2.0, size=(6, d))
    X[3] = stack.x_star[3]  # pn = 0
    X[4, :-1] = 0.0
    X[4, 0] = 1e-170  # its square underflows, so pn = 0 too
    X[5] = stack.x_star[5] - stack.w[5] + 20.0 * stack.w_unit[5]  # q = 10: the cap exceeds h
    with warnings.catch_warnings(), patch.object(HardInstance, "BLOCK_BYTES", 8 * d * 3):  # blocks of 3 rows
        warnings.simplefilter("error")
        values, G = stack.value_and_subgrad(X)
        f, norms = stack.min_subgrad_norm_batch(X)
    pn = np.linalg.norm(X[:, :-1], axis=1)
    assert np.all(pn[:3] > 0.0) and np.all(values[:3] > 0.0)  # the first block has neither gate's rows
    assert pn[3] == pn[4] == 0.0 and X[4, 0] > 0.0 and values[3] > 0.0 and values[4] > 0.0 and values[5] == 0.0
    for r, inst in enumerate(rows):
        v, g = inst.value_and_subgrad(X[r].copy())
        assert values[r:r + 1].tobytes() == f[r:r + 1].tobytes() == np.array([v]).tobytes(), r
        assert norms[r:r + 1].tobytes() == np.array([np.linalg.norm(g)]).tobytes(), r
        assert G[r].tobytes() == g.tobytes(), r
