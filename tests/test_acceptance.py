"""Acceptance gate: every certified property at its stated tolerance.

Each test prints one PASS line with its elapsed time; run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from oracle_reference import max_boundary_ties

from nshard.cli import main
from nshard.embed import build_instance
from nshard.hard1d import build_hbar, build_r, eval_r
from nshard.intervals import interval, random_bits, separation_margins
from nshard.oracles import PerturbedGD, RandomSearch, SubgradientDescent, run
from nshard.schedule import DEFAULT_SCHEDULE
from nshard.verify import concentration_check, local_decrease_certificate, mc_hitting

ATAN8 = math.atan(8.0)
PI4 = math.pi / 4.0


def _finish(num, name, t0, budget, detail=""):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def ball_points(rng, n, d, radius=3.0):
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.uniform(size=n) ** (1.0 / d)
    return r[:, None] * u


def test_c01_schedule_constants():
    t0 = time.time()
    s = DEFAULT_SCHEDULE
    for i in range(1, 61):
        assert PI4 <= s.theta_base(i) <= ATAN8
        assert 0.0 < s.delta(i) <= 7.0 / 32.0
        assert 0.5 <= s.epsilon(i) < 1.0
    _finish(1, "schedule-constants", t0, 1.0)


def test_c02_hard1d_structure():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        N = int(rng.integers(1, 11))
        bits = random_bits(N, rng)
        r = build_r(bits)
        assert max(r.continuity_residuals()) <= 1e-9
        slopes = np.asarray(r.slopes, dtype=float)
        # the raw table may repeat a slope across a collinear junction; the
        # sequence is nondecreasing and strictly increasing once merged, so
        # each nonzero step exceeds the tolerance
        steps = np.diff(slopes)
        assert np.min(steps) >= -1e-12
        assert np.min(steps[steps != 0]) > 1e-12
        assert np.min(np.abs(slopes)) >= 1.0 / 8.0
        assert np.max(np.abs(slopes)) <= 1.0
        assert r(0.0) == 1.0
        hbar, x_star = build_hbar(bits)
        assert hbar(x_star) == 2.0
        assert hbar(0.0) <= 3.0
        xs = rng.uniform(-1.0, 2.0, size=2000)
        vals = hbar.eval_batch(xs)
        assert np.all(vals >= 2.0 - 1e-12)
        assert np.all(vals - (2.0 + np.abs(xs - x_star) / 8.0) >= -1e-9)
    # one dense-grid minimum check at 1e-6 resolution
    hbar, x_star = build_hbar(random_bits(8, rng))
    grid = np.arange(-1.0, 2.0, 1e-6)
    vals = hbar.eval_batch(grid)
    j = int(np.argmin(vals))
    assert abs(grid[j] - x_star) <= 1e-6
    assert np.min(vals) >= 2.0 - 1e-12
    _finish(2, "hard1d-structure", t0, 10.0)


def test_c03_interval_combinatorics():
    t0 = time.time()
    prefixes = {k: [] for k in range(1, 9)}
    for k in range(1, 9):
        for code in range(2**k):
            prefixes[k].append(tuple((code >> (k - 1 - j)) & 1 for j in range(k)))
    # nesting: absolute endpoints are weakly nested; in the parent's local
    # frame the child sits strictly inside (0,1) with margin >> 1e-12
    for k in range(1, 9):
        for bits in prefixes[k]:
            local = interval(bits[-1:], base_level=k)
            assert local.lo > 1e-12 and local.hi < 1.0 - 1e-12
            if k > 1:
                child, parent = interval(bits), interval(bits[:-1])
                assert parent.lo <= child.lo <= child.hi <= parent.hi
    # pairwise disjointness of equal-length prefixes, compared in the frame
    # of the deepest common ancestor
    for k in range(1, 9):
        group = prefixes[k]
        for a_i in range(len(group)):
            for b_i in range(a_i + 1, len(group)):
                a, b = group[a_i], group[b_i]
                i = next(j for j in range(k) if a[j] != b[j])
                left, right = (a, b) if a[i] < b[i] else (b, a)
                gap = interval(right[i:], base_level=i + 1).lo - interval(left[i:], base_level=i + 1).hi
                assert gap > 1e-12
    # separation margins at (k=4, N=5, log2(1/rho)=256)
    rho = 2.0**-256
    rng = np.random.default_rng(3)
    for _ in range(100):
        bits = random_bits(5, rng)
        gi, gs = separation_margins(bits, 4)
        assert gi > rho and gs > rho
    _finish(3, "interval-combinatorics", t0, 30.0)


def test_c04_dual_representation():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        table = build_r(bits)
        xs = rng.uniform(-0.5, 1.5, size=10000)
        ref = table.eval_batch(xs)
        got = eval_r(bits, xs)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    assert worst <= 1e-9
    _finish(4, "dual-representation", t0, 10.0, f"max gap {worst:.2e}")


def test_c05_lipschitz_and_nonnegativity():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in (2, 5, 10):
        inst = build_instance(d, random_bits(5, rng), rho=1e-3, seed=int(rng.integers(2**32)))
        X = ball_points(rng, 100000, d)
        Y = ball_points(rng, 100000, d)
        fx, fy = inst.eval_f_batch(X), inst.eval_f_batch(Y)
        assert np.all(fx >= 0.0) and np.all(fy >= 0.0)
        dist = np.linalg.norm(X - Y, axis=1)
        ok = dist > 0
        worst = max(worst, float(np.max(np.abs(fx - fy)[ok] / dist[ok])))
    assert worst <= 1.0 + 1e-9
    _finish(5, "lipschitz-nonnegativity", t0, 60.0, f"max ratio {worst:.12f}")


def test_c06_stationarity_sweep():
    t0 = time.time()
    rng = np.random.default_rng(6)
    overall = np.inf
    for d in (2, 5, 10):
        inst = build_instance(d, random_bits(5, rng), rho=1e-3, seed=int(rng.integers(2**32)))
        X = ball_points(rng, 100000, d)
        vals, norms = inst.min_subgrad_norm_batch(X)
        active = vals > 1e-6
        assert int(active.sum()) > 90000
        m = float(np.min(norms[active]))
        overall = min(overall, m)
        assert m >= 1.0 / 100.0  # zero violations at the stationarity constant
    assert overall >= 1.0 / 50.0 - 1e-9  # expected per-case margin
    _finish(6, "stationarity-sweep", t0, 60.0, f"min norm {overall:.6f}")


def test_c07_fd_regularity():
    t0 = time.time()
    d = 10
    rng = np.random.default_rng(7)
    # forward steps of 1e-6 must resolve the cap curvature scale 1000*mu,
    # so this criterion runs on a coarser desk instance
    inst = build_instance(d, "010", rho=0.25, seed=7)
    h = 1e-6

    pts = [x for x in ball_points(rng, 100, d)]
    engineered = [inst.x_star.copy()]
    for off in (0.05, -0.05, 0.12, -0.12, 0.2, -0.2, 0.3, -0.3):
        p = inst.x_star.copy()
        p[-1] += off
        engineered.append(p)
    bps = [float(b) for b in inst.hbar.breakpoints]
    for j, bp in enumerate(bps):
        p = np.zeros(d) if j % 3 == 0 else rng.uniform(-1.0, 1.0, size=d)
        p[-1] = bp
        engineered.append(p)
    for j, bp in enumerate(bps[1:-1]):
        p = rng.uniform(-0.5, 0.5, size=d)
        p[-1] = bp
        engineered.append(p)
    wn = float(np.linalg.norm(inst.w))
    for tmul in (3.0, 10.0, 30.0):
        engineered.append(inst.x_star + tmul * wn * inst.w_unit)  # valley kink, cap active
    engineered.append(inst.x_star - 0.5 * inst.w_unit)  # cap strictly off, valley kink
    engineered.append(inst.x_star + 0.5 * inst.w_unit)  # cap linear branch, valley kink
    engineered.extend(max_boundary_ties(inst, want=2))
    assert len(engineered) >= 30

    worst = 0.0
    for x in pts + engineered:
        f0 = inst.eval_f(x)
        V = np.array([v / np.linalg.norm(v) for v in (rng.standard_normal(d) for _ in range(20))])
        for v, support in zip(V, inst.support(x, V)):
            fd = (inst.eval_f(x + h * v) - f0) / h
            worst = max(worst, abs(fd - support))
    assert worst <= 1e-4
    _finish(7, "fd-regularity", t0, 30.0, f"max gap {worst:.2e} over {len(pts) + len(engineered)} points")


def test_c08_progress_process_bounds():
    t0 = time.time()
    for algo in (RandomSearch(radius=1.0), PerturbedGD()):
        row = {r["check"]: r for r in mc_hitting(algo, T=50, k=6, N=7, n_runs=2000, seed=8, log2_inv_rho=576.0)}
        for m in range(1, 7):  # wilson_lo = max(0, freq - 3 se): freq <= bound + 3 se
            jump = row[f"jump_ge_{m}"]
            assert jump["wilson_lo"] <= jump["bound"], (algo.name, jump)
        # 4T/k = 33.3 is vacuous; the sharp check is the Wilson upper bound
        # on the depth-6 frequency staying under 1%
        deep = row["depth_ge_6"]
        assert deep["vacuous"]
        assert deep["estimate"] <= min(1.0, 4.0 * 50 / 6)
        assert deep["wilson_hi"] < 0.01, (algo.name, deep)
    _finish(8, "progress-process-bounds", t0, 300.0)


def test_c09_concentration():
    t0 = time.time()
    row, max_alignment = concentration_check(d=500, T=50, n_runs=200, seed=9)
    assert row["bound"] < 1e-4  # 50 exp(-500/36) ~ 5e-5
    assert row["estimate"] == 0.0
    assert max_alignment < 1.0 / 3.0
    _finish(9, "concentration", t0, 120.0, f"max alignment {max_alignment:.4f}")


def test_c10_local_decrease_certificates():
    t0 = time.time()
    d, T = 10, 30
    inst = build_instance(d, "01011", rho=1e-3, seed=10)
    checked = 0
    for algo in (PerturbedGD(), SubgradientDescent()):
        traj = run(algo, inst, np.zeros(d), T, seed=10)
        for delta in (0.1, 0.5, 1.0):
            for t in range(traj.T):
                if traj.values[t] < 1.0:
                    continue
                cert = local_decrease_certificate(inst, traj.points[t], delta)
                assert cert.ok, (algo.name, delta, t, cert.witness_value, cert.target)
                assert np.linalg.norm(cert.witness - traj.points[t]) <= delta * (1 + 1e-9)
                checked += 1
    assert checked >= 2 * 3 * T * 0.9  # nearly every iterate has f >= 1
    _finish(10, "local-decrease-certificates", t0, 120.0, f"{checked} certificates")


def test_c11_cli_determinism(tmp_path):
    t0 = time.time()
    import hashlib, os

    def hashes(directory):
        return {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(directory))
        }

    commands = {
        "build": ["build", "--mode", "desk", "--d", "6", "--k", "4", "--rho", "1e-3",
                   "--seed", "21"],
        "check": ["check", "--seed", "21"],
        "run": ["run", "--mode", "desk", "--d", "5", "--k", "3", "--rho", "1e-3",
                 "--algo", "pgd", "--T", "5", "--seed", "21", "--delta", "0.5"],
        "mc": ["mc", "--mode", "desk", "--k", "3", "--rho", "1e-3", "--T", "5",
                "--d", "10", "--algo", "random", "--runs", "100", "--seed", "21"],
    }
    for name, args in commands.items():
        out = tmp_path / name
        out.mkdir()
        assert main(args + ["--out", str(out)]) in (0,)
        first = hashes(out)
        assert main(args + ["--out", str(out)]) in (0,)
        assert hashes(out) == first, f"{name} not replay-identical"
    _finish(11, "cli-determinism", t0, 60.0)
