import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nshard
from nshard.embed import (
    HardInstance,
    build_h,
    build_instance,
    cap_slope,
    cap_value,
    choose_w_mu,
    save_instance,
)
from oracle_reference import (
    LabelledSet,
    assert_same_support,
    check_instance_record,
    gap,
    generators,
    min_norm,
    min_norm_point,
    reference_h,
    reference_subgrad,
    support_directions,
)

RHO = 1e-3
BITS = "010"
D = 5


@pytest.fixture(scope="module")
def inst():
    return build_instance(D, BITS, rho=RHO, seed=11)


@pytest.fixture(scope="module")
def inst_fd():
    # forward differences at step 1e-6 need the cap scale ||w|| = 1000 mu to
    # dominate the step, so the kink checks use a larger rho
    return build_instance(D, BITS, rho=0.25, seed=11)


def perp_unit(inst):
    """Unit vector orthogonal to both the cap direction and the last axis."""
    wu = inst.w_unit
    j = int(np.argmin(np.abs(wu[:-1])))
    u = np.zeros(inst.d)
    u[j] = 1.0
    u -= (u @ wu) * wu
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# cap ramp
# ---------------------------------------------------------------------------


def test_cap_values():
    mu = 0.25
    assert cap_value(-1.0, mu) == 0.0
    assert cap_value(0.0, mu) == 0.0
    assert cap_value(mu, mu) == pytest.approx(mu / 8, rel=1e-15)
    assert cap_value(2 * mu, mu) == pytest.approx(3 * mu / 8, rel=1e-15)


def test_cap_slopes():
    mu = 0.25
    assert cap_slope(0.0, mu) == 0.0
    assert cap_slope(-2.0, mu) == 0.0
    assert cap_slope(mu, mu) == 0.25
    assert cap_slope(np.nextafter(mu, 1.0), mu) == 0.25
    assert cap_slope(5.0, mu) == 0.25


def test_cap_continuity_and_lipschitz():
    mu = 1e-3
    z = np.linspace(-2 * mu, 4 * mu, 20001)
    v = cap_value(z, mu)
    dv = np.diff(v) / np.diff(z)
    assert np.all(np.abs(dv) <= 0.25 + 1e-9)
    assert np.all(np.diff(v) >= -1e-18)  # nondecreasing
    # scalar and batch agree
    for zi in (-mu, 0.0, mu / 3, mu, 2 * mu):
        assert cap_value(zi, mu) == cap_value(np.array([zi]), mu)[0]
        assert cap_slope(zi, mu) == cap_slope(np.array([zi]), mu)[0]


# ---------------------------------------------------------------------------
# cap geometry
# ---------------------------------------------------------------------------


def test_gap_anchor_values(inst):
    w = inst.w
    assert gap(inst, -w) == 0.0
    assert gap(inst, np.zeros(D)) == pytest.approx(0.5 * np.linalg.norm(w), rel=1e-12)


def test_gap_upper_bound_and_sign(inst):
    rng = np.random.default_rng(0)
    for _ in range(500):
        y = rng.normal(size=D)
        z = y + inst.w
        nz = np.linalg.norm(z)
        q = gap(inst, y)
        assert q <= 0.5 * nz + 1e-12
        if (inst.w_unit @ z) / nz < 0.5:
            assert q < 0


def test_gap_lipschitz(inst):
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(2000, D))
    Z = Y + rng.normal(scale=0.3, size=(2000, D))
    for y, z in zip(Y[:200], Z[:200]):
        num = abs(gap(inst, y) - gap(inst, z))
        assert num <= 1.5 * np.linalg.norm(y - z) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# cap vector draw
# ---------------------------------------------------------------------------


def test_choose_w_mu_contract():
    for d in (2, 3, 10):
        w, mu = choose_w_mu(d, RHO, seed=5)
        assert w.shape == (d,)
        assert w[-1] == 0.0
        assert np.linalg.norm(w) == pytest.approx(RHO / 99.0, rel=1e-15)
        assert mu == RHO / 99000.0


def test_choose_w_mu_d2_is_sign():
    w, _ = choose_w_mu(2, RHO, seed=1)
    assert abs(abs(w[0]) - RHO / 99.0) <= 1e-18


def test_choose_w_mu_deterministic():
    a, _ = choose_w_mu(6, RHO, seed=42)
    b, _ = choose_w_mu(6, RHO, seed=42)
    assert np.array_equal(a, b)


def test_choose_w_mu_rejections():
    with pytest.raises(ValueError):
        choose_w_mu(1, RHO)
    with pytest.raises(ValueError):
        choose_w_mu(5, 0.0)
    with pytest.raises(ValueError):
        choose_w_mu(5, 1e-10)  # mu below the binary64 floor


def test_choose_w_mu_direction_spread():
    # crude isotropy check: coordinate means shrink with many draws
    draws = np.stack([choose_w_mu(4, RHO, seed=s)[0] for s in range(400)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.2 * RHO / 99.0)


# ---------------------------------------------------------------------------
# embedded objective
# ---------------------------------------------------------------------------


def test_build_h_contract():
    h = build_h(3, BITS)
    assert not h.has_cap
    assert reference_h(h, np.zeros(3)) <= 1.5
    assert reference_h(h, h.x_star) == 1.0
    with pytest.raises(ValueError):
        build_h(1, BITS)


def test_scaled_valley_slopes_in_sixteenth_to_half():
    h = build_h(3, BITS)
    interior = np.abs(np.asarray(h.hbar.slopes[1:-1], dtype=float))
    assert interior.min() >= 1.0 / 16.0
    assert interior.max() <= 0.5
    assert h.hbar(float(h.x_star[-1])) == 1.0


def test_h_gradient_norm_bound():
    h = build_h(4, BITS)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-2, 2, size=4)
        g = h.min_subgrad(x)
        assert np.linalg.norm(g) <= 17.0 / 32.0 + 1e-12


def test_f_at_special_points(inst):
    mu = inst.mu
    assert inst.eval_f(inst.x_star) == pytest.approx(1 - 125 * mu + mu / 8, rel=1e-12)
    assert inst.eval_f(np.zeros(D)) <= 1.5


def test_f_nonnegative_and_matches_batch(inst):
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, size=(5000, D))
    vals = inst.eval_f_batch(X)
    assert np.all(vals >= 0.0)
    for i in range(0, 5000, 500):
        assert vals[i] == inst.eval_f(X[i])


def test_f_lipschitz(inst):
    rng = np.random.default_rng(4)
    X = rng.uniform(-3, 3, size=(20000, D))
    Y = X + rng.normal(scale=0.5, size=X.shape)
    fx, fy = inst.eval_f_batch(X), inst.eval_f_batch(Y)
    dist = np.linalg.norm(X - Y, axis=1)
    ok = dist > 0
    assert np.max(np.abs(fx - fy)[ok] / dist[ok]) <= 1.0 + 1e-9


def test_f_equals_h_where_cap_inactive(inst):
    # any x whose offset cone angle exceeds 60 degrees leaves f = h exactly
    rng = np.random.default_rng(5)
    count = 0
    for _ in range(500):
        y = rng.uniform(-2, 2, size=D)
        z = y + inst.w
        if (inst.w_unit @ z) / np.linalg.norm(z) < 0.5 - 1e-6:
            x = inst.x_star + y
            assert inst.eval_f(x) == reference_h(inst, x)
            count += 1
    assert count > 100


def test_oracle_subgrad_norm_at_most_one(inst):
    rng = np.random.default_rng(6)
    X = rng.uniform(-3, 3, size=(2000, D))
    _, norms = inst.min_subgrad_norm_batch(X)
    assert np.all(norms <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# subdifferential case analysis
# ---------------------------------------------------------------------------


def case_point(inst, name):
    w, mu, xs = inst.w, inst.mu, inst.x_star
    u = perp_unit(inst)
    if name == "at_minimizer":
        return xs.copy()
    if name == "at_cap_anchor":
        return xs - w
    if name == "off_slice":
        return xs + 0.3 * np.eye(inst.d)[-1]
    if name == "slice_cap_off":
        return xs - 0.5 * inst.w_unit
    if name == "slice_cap_linear":
        return xs + 0.5 * inst.w_unit
    if name == "slice_cap_band_near":
        v = 0.55 * inst.w_unit + np.sqrt(1 - 0.55**2) * u
        return xs + 5 * mu * v - w
    if name == "slice_cap_band_far":
        align = 0.5 + 0.5 * mu / (5000 * mu)
        v = align * inst.w_unit + np.sqrt(1 - align**2) * u
        return xs + 5000 * mu * v - w
    if name == "zero_region":
        return xs + 40.0 * inst.w_unit - w
    raise KeyError(name)


CASE_MIN_NORMS = {
    "at_minimizer": 3.0 / 32.0,
    "at_cap_anchor": 1.0 / 32.0,
    "off_slice": 1.0 / 16.0,
    "slice_cap_off": 1.0 / 32.0,
    "slice_cap_linear": 3.0 / 32.0,
    "slice_cap_band_near": 1.0 / 33.0,
    "slice_cap_band_far": 1.0 / 50.0,
}


def test_case_classification_and_bounds(inst):
    rng = np.random.default_rng(13)
    for name in list(CASE_MIN_NORMS) + ["zero_region"]:
        x = case_point(inst, name)
        ref = reference_subgrad(inst, x)
        assert ref.case == name, f"{name}: got {ref.case}"
        assert_same_support(inst, x, support_directions(D, rng), ref)
        if name == "zero_region":
            assert inst.eval_f(x) == 0.0
            assert np.linalg.norm(min_norm(ref)) == 0.0
        else:
            assert inst.eval_f(x) > 0
            assert np.linalg.norm(min_norm(ref)) >= CASE_MIN_NORMS[name] - 1e-12


def test_minimizer_set_structure(inst):
    s = reference_subgrad(inst, inst.x_star)
    assert s.ball_radius == 1.0 / 32.0
    assert s.ed_lo < 0 < s.ed_hi
    # projection of any element away from the last axis has norm >= 3/32
    perp = s.base[:-1]
    assert np.linalg.norm(perp) - s.ball_radius >= 3.0 / 32.0 - 1e-12


def test_cap_anchor_reduces_to_h(inst):
    # the ramp gradient vanishes at the anchor, leaving the h subdifferential
    x = inst.x_star - inst.w
    s = reference_subgrad(inst, x)
    h_only = build_h(D, BITS)
    sh = reference_subgrad(h_only, x)
    assert np.allclose(s.base, sh.base, atol=1e-15)
    assert (s.ed_lo, s.ed_hi) == (sh.ed_lo, sh.ed_hi)
    U = support_directions(D, np.random.default_rng(14))
    assert np.allclose(inst.support(x, U), h_only.support(x, U), rtol=0.0, atol=1e-15)


def test_stationarity_floor_random(inst):
    rng = np.random.default_rng(7)
    X = rng.uniform(-3, 3, size=(20000, D))
    vals, norms = inst.min_subgrad_norm_batch(X)
    assert vals.tobytes() == inst.eval_f_batch(X).tobytes()
    active = vals > 1e-6
    assert np.min(norms[active]) >= 0.02 - 1e-9


def test_batch_min_norm_matches_pointwise(inst):
    # the batch kernel handles the norm kink, the cap anchor and the zero
    # region itself, without a per-row scalar fallback
    rng = np.random.default_rng(8)
    for instance in (inst, build_h(D, BITS)):
        X = rng.uniform(-2, 2, size=(300, D))
        X[:20, :-1] = 0.0  # norm kink x_{1:d-1} = 0
        X[20] = 0.0  # the origin
        X[25] = instance.x_star
        if instance.has_cap:
            X[26] = instance.x_star - instance.w  # cap anchor
            X[27:40] = instance.x_star - instance.w + rng.uniform(11.0, 40.0, size=(13, 1)) * instance.w_unit
            assert np.all(instance.eval_f_batch(X[27:40]) == 0.0)  # zero region
        vals, batch = instance.min_subgrad_norm_batch(X)
        assert vals.tobytes() == instance.eval_f_batch(X).tobytes()
        for i in range(300):
            assert batch[i] == np.linalg.norm(instance.min_subgrad(X[i]))


def test_zero_region_boundary_bracket(inst):
    # bracket the boundary of the f = 0 region along the cap axis ray
    xs = inst.x_star
    lo, hi = 1.0, 60.0
    ray = lambda s: xs + s * inst.w_unit - inst.w
    assert inst.eval_f(ray(lo)) > 0 and inst.eval_f(ray(hi)) == 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inst.eval_f(ray(mid)) > 0:
            lo = mid
        else:
            hi = mid
    inside = reference_subgrad(inst, ray(lo))
    outside = reference_subgrad(inst, ray(hi))
    assert inside.case != "zero_region"
    assert outside.case in ("zero_region", "max_boundary")
    assert inst.eval_f(ray(lo)) < 1e-10


def test_max_boundary_tie_branch():
    s = LabelledSet(3, np.array([0.2, 0.0, -0.1]), -0.5, 0.5, 0.0, includes_zero=True)
    assert np.all(min_norm(s) == 0.0)
    v = np.array([1.0, 0.0, 0.0])
    assert s.support(v) == pytest.approx(max(0.0, 0.2 + 0.0))
    assert s.support(-v) == 0.0  # negative side clips at the zero scaling


# ---------------------------------------------------------------------------
# forward differences vs support function
# ---------------------------------------------------------------------------


def fd_gap(inst, x, v, h=1e-6):
    fd = (inst.eval_f(x + h * v) - inst.eval_f(x)) / h
    return abs(fd - inst.support(x, v[None])[0])


def test_central_differences_match_gradient(inst):
    # at differentiable points the subdifferential is a singleton equal to
    # the coordinate-wise central difference
    rng = np.random.default_rng(20)
    h = 1e-7
    checked = 0
    while checked < 100:
        x = rng.uniform(-3, 3, size=D)
        s = reference_subgrad(inst, x)
        lo_hi_gap = s.ed_hi - s.ed_lo
        if s.ball_radius > 0 or lo_hi_gap != 0.0 or s.includes_zero:
            continue
        z = x - inst.x_star + inst.w
        if np.linalg.norm(z) < 1e-2:  # keep the step small against the cap scale
            continue
        g = min_norm(s)
        for j in range(D):
            e = np.zeros(D)
            e[j] = h
            cd = (inst.eval_f(x + e) - inst.eval_f(x - e)) / (2 * h)
            assert abs(cd - g[j]) <= 1e-6
        checked += 1


def test_fd_matches_support_random(inst):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=D)
        for _ in range(5):
            v = rng.standard_normal(D)
            v /= np.linalg.norm(v)
            worst = max(worst, fd_gap(inst, x, v))
    assert worst <= 1e-4


def test_fd_matches_support_at_kinks(inst_fd):
    rng = np.random.default_rng(10)
    pts = [inst_fd.x_star.copy()]
    for off in (0.05, -0.12, 0.4):
        p = inst_fd.x_star.copy()
        p[-1] += off
        pts.append(p)  # on-axis, off the valley kink
    table = inst_fd.hbar
    for bp in (table.breakpoints[1], table.breakpoints[2], table.breakpoints[-2]):
        p = rng.uniform(-1, 1, size=D)
        p[-1] = float(bp)
        pts.append(p)  # valley breakpoints with generic leading coordinates
    for x in pts:
        for _ in range(20):
            v = rng.standard_normal(D)
            v /= np.linalg.norm(v)
            assert fd_gap(inst_fd, x, v) <= 1e-4


# ---------------------------------------------------------------------------
# minimal-norm point machinery
# ---------------------------------------------------------------------------


def test_min_norm_point_singleton():
    p = np.array([[1.5, -2.0]])
    assert np.array_equal(min_norm_point(p), p[0])


def test_min_norm_point_segment_interval():
    assert min_norm_point(np.array([[-2.0], [3.0]])) == pytest.approx(0.0)
    assert min_norm_point(np.array([[1.0], [3.0]])) == pytest.approx(1.0)
    assert min_norm_point(np.array([[-3.0], [-1.0]])) == pytest.approx(-1.0)


def test_min_norm_point_right_angle():
    got = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert got == pytest.approx([0.5, 0.5], abs=1e-12)
    got = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert got == pytest.approx([0.5, 0.5], abs=1e-8)


def test_min_norm_point_duplicates():
    v = np.array([0.3, -0.4, 1.0])
    got = min_norm_point(np.stack([v, v, v]))
    assert got == pytest.approx(v)


def test_min_norm_point_contains_origin():
    pts = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]])
    assert np.linalg.norm(min_norm_point(pts)) <= 1e-6


def _simplex_qp_reference(P, iters=4000, step=None):
    # projected gradient on the simplex, reliable reference for small sets
    m = P.shape[0]
    lam = np.full(m, 1.0 / m)
    G = P @ P.T
    if step is None:
        step = 1.0 / (2 * np.linalg.eigvalsh(G).max() + 1e-12)
    for _ in range(iters):
        lam = lam - step * 2 * (G @ lam)
        # project to simplex
        u = np.sort(lam)[::-1]
        css = np.cumsum(u) - 1.0
        ks = np.arange(1, m + 1)
        cond = u - css / ks > 0
        tau = css[cond][-1] / ks[cond][-1]
        lam = np.maximum(lam - tau, 0.0)
    return lam @ P


def test_min_norm_point_random_vs_reference():
    rng = np.random.default_rng(11)
    for _ in range(25):
        P = rng.normal(size=(int(rng.integers(3, 8)), int(rng.integers(2, 6)))) + rng.normal(scale=0.5)
        wolfe = np.linalg.norm(min_norm_point(P, tol=1e-12))
        ref = np.linalg.norm(_simplex_qp_reference(P))
        assert wolfe <= ref + 1e-6
        assert wolfe >= ref - 1e-3


def test_min_norm_subgrad_matches_generator_hull(inst):
    rng = np.random.default_rng(12)
    for _ in range(40):
        x = rng.uniform(-1.5, 1.5, size=D)
        s = reference_subgrad(inst, x)
        analytic = min_norm(s)
        hull = min_norm_point(np.stack(generators(s, ball_points=64, seed=3)), tol=1e-12)
        if s.ball_radius == 0.0:
            assert np.linalg.norm(analytic - hull) <= 1e-7
        else:
            # sampled ball is inside the true ball: hull norm upper-bounds
            assert np.linalg.norm(analytic) <= np.linalg.norm(hull) + 1e-9
            assert np.linalg.norm(hull) - np.linalg.norm(analytic) <= 2e-2


def test_min_subgrad_matches_min_norm(inst):
    x = inst.x_star + 0.3 * np.eye(D)[0]
    assert np.array_equal(inst.min_subgrad(x), min_norm(reference_subgrad(inst, x)))


def test_subgradient_set_clipping():
    base = np.array([0.01, 0.0, -0.3])
    s = LabelledSet(3, base, -0.5, 0.5, 0.0)
    g = min_norm(s)
    assert g[-1] == 0.0  # interval absorbs the last component
    assert g[:2] == pytest.approx(base[:2])
    s2 = LabelledSet(3, base, 0.4, 0.5, 0.0)
    assert min_norm(s2)[-1] == pytest.approx(-0.3 + 0.4)
    s3 = LabelledSet(3, np.array([0.01, 0.0, 0.0]), 0.0, 0.0, 1.0 / 32.0)
    assert np.linalg.norm(min_norm(s3)) == 0.0  # ball absorbs the small base


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, inst):
    # the record is write-only; its floats read back exactly from their reprs
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    rec = check_instance_record(path, inst)
    assert (rec["d"], rec["bits"], rec["seed"]) == (repr(D), BITS, "11")


def test_save_format_flat_key_value(tmp_path, inst):
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    lines = path.read_text().strip().splitlines()
    keys = [ln.split("=")[0].strip() for ln in lines]
    assert keys == ["format", "d", "bits", "precision", "seed", "c", "mu", "w"]


def test_save_load_cap_free(tmp_path):
    h = build_h(3, "01")
    path = tmp_path / "h.txt"
    save_instance(h, path)
    rec = check_instance_record(path, h)
    assert (rec["seed"], rec["mu"], rec["w"]) == ("none", "none", "none")


def test_w_norm_is_1000_mu(inst):
    assert np.linalg.norm(inst.w) == pytest.approx(1000.0 * inst.mu, rel=5e-16)


def test_instance_shared_across_threads(inst):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(30)
    xs = [rng.uniform(-2, 2, size=D) for _ in range(40)]
    expected = [inst.value_and_subgrad(x) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(inst.value_and_subgrad, xs * 5))
    for i, (v, g) in enumerate(got):
        ev, eg = expected[i % 40]
        assert v == ev
        assert np.array_equal(g, eg)


def test_extended_precision_instance_roundtrip(tmp_path):
    from nshard.schedule import AngleSchedule

    ext = AngleSchedule("extended", dps=40)
    inst = build_instance(3, "01", rho=1e-3, seed=1, sched=ext)
    assert inst.precision == "extended"
    p = tmp_path / "e.txt"
    save_instance(inst, p)
    assert check_instance_record(p, inst)["precision"] == "extended"
    # the record holds no table, and the same seed draws the same cap in both precisions
    ref = build_instance(3, "01", rho=1e-3, seed=1)
    save_instance(ref, tmp_path / "r.txt")
    assert p.read_text() == (tmp_path / "r.txt").read_text().replace("binary64", "extended")


# ---------------------------------------------------------------------------
# row dot products on every OpenBLAS kernel
# ---------------------------------------------------------------------------

ROW_DOTS_CHILD = """
import json, sys
import numpy as np
from nshard.embed import row_dots

rng, bad = np.random.default_rng(5), []
for R, k in json.loads(sys.argv[1]):
    wide = rng.standard_normal((R, k + 3))
    for A in (rng.standard_normal((R, k)), wide[:, 1:k + 1]):  # contiguous, and an offset view of strided rows
        for B in (rng.standard_normal((R, k)), wide[:, 2:k + 2], rng.standard_normal(k)):
            got = row_dots(A, B).tobytes()
            per_row = np.array([a.dot(b) for a, b in zip(A, np.broadcast_to(B, A.shape))]).tobytes()
            matmul = np.matmul(A[:, None, :], B[..., None])[:, 0, 0].tobytes()
            if not got == per_row == matmul:
                bad.append([R, k, B.ndim, got == per_row, got == matmul])
print(json.dumps(bad))
"""
ROW_DOTS_SHAPES = [(100, 2), (100, 3), (655, 49), (3276, 9), (20000, 1), (5, 200), (1, 9)]


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_row_dots_take_each_rows_blas_ddot(coretype):
    """``row_dots`` equals the per-row ``ndarray.dot`` and the stacked (1, k) by (k, 1) matmul it replaced, byte for
    byte, on contiguous and offset operands and a one-vector B, under OpenBLAS's default kernel and with
    ``OPENBLAS_CORETYPE`` forcing an AVX2 (Haswell) and a generic (Prescott) one, in a child process each; the
    variable is set for the child only.  Where numpy's BLAS is not an OpenBLAS ``DYNAMIC_ARCH`` build, the variable
    selects nothing, and the three cases check the one kernel there is."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(nshard.__file__).resolve().parent.parent)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", ROW_DOTS_CHILD, json.dumps(ROW_DOTS_SHAPES)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
