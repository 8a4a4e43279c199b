"""Reference implementations that the package's fast paths are checked against.

* ``min_norm_point``: Wolfe's minimum-norm-point algorithm, a generic
  projection of the origin onto the convex hull of finitely many points.
* ``generators``: a finite generating set of a structured subdifferential,
  for feeding ``min_norm_point``.
* ``LabelledSet``: a Clarke subdifferential as base + valley interval +
  norm-kink ball + max-kink scaling, with its support function one direction
  at a time and the branch of the analysis that produced it.
* ``reference_h``, ``gap``, ``reference_subgrad`` and ``min_norm``: h, the
  cap gap, the structured subdifferential with its case label and its
  minimal-norm element, each computed on its own through ``np.linalg.norm``,
  the table's ``__call__`` and the slope interval of ``value_and_subdiff``,
  and the vectorized ``cap_value`` / ``cap_slope``.  ``assert_same_support``
  compares ``HardInstance.support`` with the support of ``reference_subgrad``
  row by row, on the directions of ``support_directions``.
* ``composed_value`` / ``composed_subgrad`` / ``composed_1d``: the oracle
  assembled from those parts, which the one-pass ``value_and_subgrad`` (and
  ``support``, which shares its pass) must reproduce bit for bit.
* ``wedge_slopes`` / ``reference_build_r``: the slopes of a level's wedge,
  and the piece table of r_b from one ``interval`` call per prefix, which
  the prefix sweep of ``build_r`` (one bit string or a stack of them) must
  reproduce bit for bit.
* ``merged``: a piece table with adjacent collinear pieces collapsed, whose
  slope differences the suite's ``r-convexity-strict-merged`` row reads as
  the nonzero steps of the raw slopes.
* ``reference_descend`` / ``reference_eval_r``: the interval descent and the
  recursive evaluator of r_b one point at a time, which the array descent
  and ``eval_r`` must reproduce bit for bit on every point.
* ``RowOf`` / ``row_run``: run r of R driven on its own, a one-row
  ``lockstep`` that keeps row r of each (R, ·) draw from the Generator the R
  runs share.
* ``reference_mc_hitting`` / ``reference_concentration_check``: the
  Monte-Carlo experiments one run after another, run r a ``row_run`` on
  row r of each role's draws, each ``nshard mc`` row written out here as a
  dict of its own, which the lockstep experiments must reproduce (the
  largest alignment to rounding: a row dot differs from a matrix-vector
  product in the last bit).  ``reference_concentration_check`` runs in d
  dimensions, as grid search does.
* ``reference_chain_concentration_check``: the concentration check of sgd,
  pgd and random search one run after another on the (a, b, x_d) chain,
  each step and its chi-square fold written out on one point, which the
  check's lockstep chain must reproduce the same way.
* ``max_boundary_ties``: float points where h equals the cap exactly, the
  max boundary that no drawn point reaches.
* ``full_arc_flows`` / ``reference_local_decrease_certificates``: the
  subgradient flow over its whole arc from many points at once, one row
  kernel call per Euler step, which must give ``subgradient_flow``'s result
  row for row; and the certificates that keep each arc's best point, then
  try the fallback points of ``reference_witnesses``, with which the
  certificate whose flow stops at its first witness must agree on ``ok``
  everywhere.
* ``reference_embedded_checks``: the invariant suite's embedded and kink
  sections with each sample array drawn in one call and checked whole, and
  each direction of a forward difference drawn on its own, which the suite's
  row blocks, drawn by its caller and a worker thread, must reproduce row for
  row.
* ``check_instance_record``: the fields that ``save_instance``'s record must
  hold, each number as its repr.
"""

import math
from dataclasses import dataclass

import numpy as np

from nshard.embed import NORM_WEIGHT, STATIONARITY_C, build_h, build_instance, cap_slope, cap_value, row_dots
from nshard.hard1d import PiecewiseAffine1D, build_1d_instance
from nshard.intervals import as_bits, interval, random_bits
from nshard.oracles import PerturbedGD, RandomSearch, Trajectory, lockstep
from nshard.schedule import DEFAULT_SCHEDULE
from nshard.verify import (
    FLOW_HALT_NORM,
    CertificateReport,
    CertResult,
    FlowResult,
    progress_process,
    wilson_interval,
)


def min_norm_point(points, tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """Project the origin onto the convex hull of finitely many points.

    Exact for one or two points; otherwise runs Wolfe's minimum-norm-point
    algorithm to the given tolerance.  Deterministic for a fixed input.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    m = P.shape[0]
    if m == 1:
        return P[0].copy()
    if m == 2:
        a, b = P
        v = b - a
        vv = float(v @ v)
        if vv == 0.0:
            return a.copy()
        t = min(1.0, max(0.0, float(-(a @ v)) / vv))
        return a + t * v

    norms2 = np.einsum("ij,ij->i", P, P)
    idx = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = P[idx[0]].copy()
    for _ in range(max_iter):
        dots = P @ x
        j = int(np.argmin(dots))
        xx = float(x @ x)
        if dots[j] >= xx - tol * max(1.0, xx) or j in idx:
            break
        idx.append(j)
        lam = np.append(lam, 0.0)
        while True:
            Q = P[idx]
            k = len(idx)
            M = np.zeros((k + 1, k + 1))
            M[:k, :k] = Q @ Q.T
            M[:k, k] = 1.0
            M[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][:k]
            if np.all(alpha > 1e-12):
                lam = alpha
                x = alpha @ Q
                break
            neg = alpha <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(lam - alpha > 0, lam / (lam - alpha), np.inf)
            theta = float(np.min(ratios[neg])) if np.any(neg) else 1.0
            theta = min(1.0, max(0.0, theta))
            lam = lam + theta * (alpha - lam)
            keep = lam > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            idx = [i for i, k_ in zip(idx, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = lam @ P[idx]
    return x


def generators(s, ball_points: int = 0, seed: int = 0):
    """Finite generating set of a LabelledSet (the ball is sampled, so approximate)."""
    ed = np.zeros(s.dim)
    ed[-1] = 1.0
    corners = [s.base + s.ed_lo * ed]
    if s.ed_hi != s.ed_lo:
        corners.append(s.base + s.ed_hi * ed)
    out = list(corners)
    if s.ball_radius > 0.0 and ball_points > 0:
        rng = np.random.default_rng(seed)
        for _ in range(ball_points):
            u = rng.standard_normal(s.dim - 1)
            n = np.linalg.norm(u)
            if n == 0.0:
                continue
            shell = np.zeros(s.dim)
            shell[:-1] = s.ball_radius * u / n
            out.extend(c + shell for c in corners)
    if s.includes_zero:
        out.append(np.zeros(s.dim))
    return out


def reference_h(inst, x) -> float:
    """h(x) = (1/32) ||x_{1:d-1}|| + hbar(x_d)."""
    x = np.asarray(x, dtype=float)
    return NORM_WEIGHT * float(np.linalg.norm(x[:-1])) + float(inst.hbar(float(x[-1])))


def gap(inst, y) -> float:
    """<w_unit, y + w> - ||y + w|| / 2 for y = x - x_star."""
    z = np.asarray(y, dtype=float) + inst.w
    return float(inst.w_unit @ z) - 0.5 * float(np.linalg.norm(z))


@dataclass
class LabelledSet:
    """Clarke subdifferential at a point, as base + interval + ball structure, with the branch of the
    pointwise analysis that produced it.

    The set is { t * (base + lam e_d + u) } with lam in [ed_lo, ed_hi], u a
    vector of norm <= ball_radius supported on the first d-1 coordinates, and
    t in [0,1] when includes_zero else t = 1.
    """

    dim: int
    base: np.ndarray
    ed_lo: float
    ed_hi: float
    ball_radius: float = 0.0
    includes_zero: bool = False
    case: str = ""

    def support(self, v) -> float:
        """max over the set of <g, v>; equals the directional derivative."""
        v = np.asarray(v, dtype=float)
        s = float(self.base @ v)
        s += max(self.ed_lo * v[-1], self.ed_hi * v[-1])
        if self.ball_radius > 0.0:
            s += self.ball_radius * float(np.linalg.norm(v[:-1]))
        if self.includes_zero:
            return max(0.0, s)
        return s


def support_directions(d, rng, n=6) -> np.ndarray:
    """Rows to compare support functions on: +-e_d, +-e_1 (leading only), the zero row, two rows with u_d = 0.0
    and -0.0, and n Gaussian rows, a third of whose entries are -0.0."""
    E = np.eye(d)
    flat = rng.standard_normal((2, d))
    flat[:, -1] = [0.0, -0.0]
    gauss = rng.standard_normal((n, d))
    gauss[rng.uniform(size=gauss.shape) < 1.0 / 3.0] = -0.0
    return np.vstack([E[-1], -E[-1], E[0], -E[0], np.zeros(d), flat, gauss])


def assert_same_support(inst, x, U, ref=None):
    """``inst.support(x, U)`` equals the support of the reference set (by default ``reference_subgrad(inst, x)``)
    row by row, signs of zeros included."""
    ref = reference_subgrad(inst, x) if ref is None else ref
    got = inst.support(x, U)
    assert got.shape == (len(U),)
    for r, u in enumerate(U):
        assert got[r:r + 1].tobytes() == np.array([ref.support(u)]).tobytes(), (r, u)


def reference_subgrad(inst, x) -> LabelledSet:
    """Clarke subdifferential with its case label, computed from scratch."""
    x = np.asarray(x, dtype=float)
    d = inst.d
    p = x[:-1]
    pn = float(np.linalg.norm(p))
    _, lo, hi = inst.hbar.value_and_subdiff(float(x[-1]))
    lo, hi = float(lo), float(hi)

    base = np.zeros(d)
    ball = 0.0
    if pn > 0.0:
        base[:-1] = p / (32.0 * pn)
    else:
        ball = NORM_WEIGHT

    if not inst.has_cap:
        return LabelledSet(d, base, lo, hi, ball, case="no_cap")

    y = x - inst.x_star
    z = y + inst.w
    nz = float(np.linalg.norm(z))
    if nz > 0.0:
        q = float(inst.w_unit @ z) - 0.5 * nz
        s = cap_slope(q, inst.mu)
        if s > 0.0:  # the cap adds no term where its slope is 0
            base -= s * (inst.w_unit - z / (2.0 * nz))
    else:
        q = 0.0  # ramp gradient vanishes at the anchor

    h = NORM_WEIGHT * pn + float(inst.hbar(float(x[-1])))
    psi = h - cap_value(q, inst.mu)
    if psi < 0.0:
        return LabelledSet(d, np.zeros(d), 0.0, 0.0, case="zero_region")
    if psi == 0.0:
        return LabelledSet(d, base, lo, hi, ball, includes_zero=True, case="max_boundary")

    if not np.any(y):
        case = "at_minimizer"
    elif nz == 0.0:
        case = "at_cap_anchor"
    elif y[-1] != 0.0:
        case = "off_slice"
    else:
        align = float(inst.w_unit @ z) / nz
        if align < 0.5:
            case = "slice_cap_off"
        elif align > 0.5 + inst.mu / nz:
            case = "slice_cap_linear"
        elif nz <= 10.0 * inst.mu:
            case = "slice_cap_band_near"
        else:
            case = "slice_cap_band_far"
    return LabelledSet(d, base, lo, hi, ball, case=case)


def min_norm(s) -> np.ndarray:
    """The unique minimal-norm element of a LabelledSet (exact for its structure)."""
    if s.includes_zero:
        return np.zeros(s.dim)
    g = np.array(s.base, dtype=float, copy=True)
    p = g[:-1]
    pn = float(np.linalg.norm(p))
    if s.ball_radius > 0.0:
        if pn <= s.ball_radius:
            g[:-1] = 0.0
        else:
            g[:-1] = p * (1.0 - s.ball_radius / pn)
    lam = min(max(-g[-1], s.ed_lo), s.ed_hi)
    g[-1] = g[-1] + lam
    return g


def composed_value(inst, x) -> float:
    """f(x) = max(h(x) - cap(gap(x - x_star)), 0), or h(x) without a cap."""
    x = np.asarray(x, dtype=float)
    h = reference_h(inst, x)
    if not inst.has_cap:
        return h
    return max(h - cap_value(gap(inst, x - inst.x_star), inst.mu), 0.0)


def composed_subgrad(inst, x) -> np.ndarray:
    """Minimal-norm element of the reference subdifferential."""
    return min_norm(reference_subgrad(inst, x))


def composed_1d(inst, x):
    """Value and minimal-norm slope of a 1D instance from separate table queries."""
    x0 = float(np.asarray(x, dtype=float).reshape(-1)[0])
    _, lo, hi = inst.pwa.value_and_subdiff(x0)
    slope = lo if lo > 0 else hi if hi < 0 else 0.0
    return float(inst.pwa(x0)), np.array([float(slope)])


def wedge_slopes(i, bit, sched=DEFAULT_SCHEDULE):
    """(left branch, right branch) slopes of the level-i wedge."""
    if bit:
        return -sched.cot_base(i + 1), sched.cot_base(i)
    return -sched.cot_base(i), sched.cot_base(i + 1)


def reference_build_r(bits, sched=DEFAULT_SCHEDULE) -> PiecewiseAffine1D:
    """Piece table of r_b with each prefix's interval composed on its own."""
    bits = as_bits(bits)
    N = len(bits)
    one = sched.one
    with sched.context():
        a, c = one, one * 0
        level_values = [one]
        for i in range(1, N + 1):
            d, e = sched.delta(i), sched.epsilon(i)
            c = a * (e - d) + c
            a = a * d
            level_values.append(a + c)
        spans = [interval(bits[:i], sched) for i in range(1, N + 1)]
        infs = [s.lo for s in spans]
        sups = [s.hi for s in spans]
        x_mid = (infs[-1] + sups[-1]) / 2
        cot = sched.cot_base(N + 1)
        r_min = level_values[N] - cot * a / 2
        breakpoints = [one * 0] + infs + [x_mid] + sups[::-1] + [one]
        values = [one] + level_values[1:] + [r_min] + level_values[1:][::-1] + [one]
        slopes = ([-one] + [wedge_slopes(i + 1, bits[i], sched)[0] for i in range(N)] + [-cot, cot]
                  + [wedge_slopes(i + 1, bits[i], sched)[1] for i in range(N - 1, -1, -1)] + [one])
    return PiecewiseAffine1D(breakpoints, values, slopes)


def merged(table) -> PiecewiseAffine1D:
    """Collapse adjacent collinear pieces (equal slopes).

    The construction legitimately produces equal-slope neighbors (e.g. a
    tail continuing into the first wedge branch), so strict slope growth
    only holds on the merged table.
    """
    bp, vals, slopes = [], [], [table.slopes[0]]
    for k in range(len(table.breakpoints)):
        nxt = table.slopes[k + 1]
        if nxt == slopes[-1]:
            continue
        bp.append(table.breakpoints[k])
        vals.append(table.values[k])
        slopes.append(nxt)
    if not bp:
        bp, vals = [table.breakpoints[0]], [table.values[0]]
        slopes = [table.slopes[0], table.slopes[-1]]
    return PiecewiseAffine1D(bp, vals, slopes)


def reference_descend(x, bits, sched=DEFAULT_SCHEDULE):
    """(depth, local coordinate) of one point: the scalar interval descent."""
    bits = as_bits(bits)
    with sched.context():
        u = x
        depth = 0
        for j, b in enumerate(bits):
            d = sched.delta(j + 1)
            lo = 0.5 + d if b else 0.5 - 2 * d
            if not (lo < u < lo + d):
                break
            u = (u - lo) / d
            depth = j + 1
    return depth, u


def reference_wedge_value(i, bit, u, sched=DEFAULT_SCHEDULE):
    """Level-i wedge profile at one local coordinate u."""
    d = sched.delta(i)
    e = sched.epsilon(i)
    if bit == 0:
        u = 1 - u
    if u <= 0.5 + d:
        return -(1 - e) / (0.5 + d) * u + 1
    return (1 - e) / (0.5 - 2 * d) * u + (-0.5 - 2 * d + e) / (0.5 - 2 * d)


def reference_eval_r(bits, x, sched=DEFAULT_SCHEDULE):
    """r_b at one point: tails, descent, the wedge or final V, then the lifts."""
    bits = as_bits(bits)
    N = len(bits)
    if x < 0:
        return 1 - x
    if x > 1:
        return x * 1
    depth, u = reference_descend(x, bits, sched)
    with sched.context():
        if depth < N:
            v = reference_wedge_value(depth + 1, bits[depth], u, sched)
        else:
            cot = sched.cot_base(N + 1)
            v = 1 - cot * u if u <= 0.5 else 1 - cot * (1 - u)
        for j in range(depth, 0, -1):
            v = sched.delta(j) * (v - 1) + sched.epsilon(j)
    return v


class RowOf:
    """Row r of the Generator rng that R lockstep runs share.  A draw for one row
    (shape (1, d) or size 1) draws for all R rows and keeps row r, so a one-row run
    reads what row r of the R-row loop reads.  A random-search redraw matches only
    where every row redraws, as after an all-zero draw."""

    def __init__(self, rng, R, r):
        self.rng, self.R, self.r = rng, R, r

    def standard_normal(self, size):
        return self.rng.standard_normal((self.R,) + tuple(size[1:]))[self.r:self.r + 1]

    def uniform(self, size):
        return self.rng.uniform(size=self.R)[self.r:self.r + 1]

    def chisquare(self, df, size):
        return self.rng.chisquare(df, self.R)[self.r:self.r + 1]


def row_run(algorithm, inst, x0, T, rng) -> Trajectory:
    """``run`` from x0, drawing from rng (a ``RowOf``) instead of a seed."""
    x0 = np.atleast_1d(x0)
    traj = Trajectory(np.empty((T, len(x0))), np.empty(T), np.empty((T, len(x0))))
    for t, X, values, G in lockstep(algorithm, inst, x0[None], T, rng):
        traj.points[t], traj.values[t], traj.subgrads[t] = X[0], values[0], G[0]
    return traj


def reference_mc_hitting(algorithm, T, k, N, n_runs, log2_inv_rho, seed=0, sched=DEFAULT_SCHEDULE):
    """``mc_hitting``'s rows with each run's trajectory driven on its own."""
    rho = 2.0 ** (-log2_inv_rho) if log2_inv_rho < 1060 else 0.0
    hits = 0
    deep = 0
    jump_counts = {m: 0 for m in range(1, 7)}
    jump_trials = 0
    bits_ss, algo_ss = np.random.SeedSequence(seed).spawn(2)
    all_bits = np.random.default_rng(bits_ss).integers(0, 2, (n_runs, N))
    for r in range(n_runs):
        bits = as_bits(all_bits[r])
        inst = build_1d_instance(bits, sched)
        traj = row_run(algorithm, inst, 0.0, T, RowOf(np.random.default_rng(algo_ss), n_runs, r))
        dists = np.abs(traj.points[:, -1] - inst.x_star)
        if np.any(dists <= rho):
            hits += 1
        Z = progress_process(traj.points[:, -1], bits, sched)
        if Z[-1] >= k:
            deep += 1
        jumps = np.diff(Z)
        jump_trials += len(jumps)
        for m in range(1, 7):
            jump_counts[m] += int(np.count_nonzero(jumps >= m))

    hit_bound = 16.0 * T / math.sqrt(log2_inv_rho)
    deep_bound = 4.0 * T / k
    hit_lo, hit_hi = wilson_interval(hits, n_runs)
    deep_lo, deep_hi = wilson_interval(deep, n_runs)
    rows = [
        {"check": "hit_within_rho", "estimate": hits / n_runs, "wilson_lo": hit_lo, "wilson_hi": hit_hi,
         "bound": hit_bound, "vacuous": hit_bound >= 1.0},
        {"check": f"depth_ge_{k}", "estimate": deep / n_runs, "wilson_lo": deep_lo, "wilson_hi": deep_hi,
         "bound": min(1.0, deep_bound), "vacuous": deep_bound >= 1.0},
    ]
    for m in range(1, 7):
        freq = jump_counts[m] / jump_trials
        se = math.sqrt(max(freq * (1 - freq), 1.0 / jump_trials) / jump_trials)
        bound = 2.0 ** (-(m - 1))
        rows.append({"check": f"jump_ge_{m}", "estimate": freq, "wilson_lo": max(0.0, freq - 3 * se),
                     "wilson_hi": min(1.0, freq + 3 * se), "bound": bound, "vacuous": bound >= 1.0})
    return rows


def reference_concentration_check(d, T, n_runs, seed=0, algorithm=None, N=5,
                                  sched=DEFAULT_SCHEDULE):
    """``concentration_check``'s row and largest alignment with each run's trajectory driven on its own."""
    if algorithm is None:
        algorithm = PerturbedGD()
    exceed = 0
    max_align = -np.inf
    bits_ss, algo_ss, dir_ss = np.random.SeedSequence(seed).spawn(3)
    all_bits = np.random.default_rng(bits_ss).integers(0, 2, (n_runs, N))
    U = np.random.default_rng(dir_ss).standard_normal((n_runs, d - 1))
    for r in range(n_runs):
        inst = build_h(d, as_bits(all_bits[r]), sched)
        traj = row_run(algorithm, inst, np.zeros(d), T, RowOf(np.random.default_rng(algo_ss), n_runs, r))
        u = U[r] / np.linalg.norm(U[r])
        w_unit = np.zeros(d)
        w_unit[:-1] = u
        diffs = traj.points - inst.x_star
        norms = np.linalg.norm(diffs, axis=1)
        ok = norms > 0
        if not np.any(ok):
            continue
        align = float(np.max((diffs[ok] @ w_unit) / norms[ok]))
        max_align = max(max_align, align)
        if align >= 1.0 / 3.0:
            exceed += 1
    bound = T * math.exp(-d / 36.0)
    lo, hi = wilson_interval(exceed, n_runs)
    row = {"check": f"alignment_ge_third_d{d}", "estimate": exceed / n_runs, "wilson_lo": lo, "wilson_hi": hi,
           "bound": bound, "vacuous": bound >= 1.0}
    return row, float(max_align)


def reference_chain_concentration_check(d, T, n_runs, seed=0, algorithm=None, N=5, sched=DEFAULT_SCHEDULE):
    """``concentration_check``'s row and largest alignment for sgd, pgd and random search, run r driven on its own
    as the chain (a, b, x_d) of its iterates from the origin, with a = <e_1, x_(1:d-1)> and b the norm of the rest:
    each step written out on the min(d, 3) numbers of one point of a min(d, 3)-dimensional instance, past d = 3 the
    part of the noise orthogonal to those axes folded into b from row r of the chi-square draws."""
    if algorithm is None:
        algorithm = PerturbedGD()
    m = min(d, 3)
    exceed, max_align = 0, -np.inf
    bits_ss, algo_ss, chi_ss = np.random.SeedSequence(seed).spawn(3)
    all_bits = np.random.default_rng(bits_ss).integers(0, 2, (n_runs, N))
    for r in range(n_runs):
        inst = build_h(m, as_bits(all_bits[r]), sched)
        rng, chi = (RowOf(np.random.default_rng(ss), n_runs, r) for ss in (algo_ss, chi_ss))
        x, align = np.zeros(m), []
        for t in range(T):
            if t > 0:
                fold = math.sqrt(chi.chisquare(d - 3, 1)[0]) if d > 3 else 0.0
                if isinstance(algorithm, RandomSearch):
                    u = rng.standard_normal((1, m))[0]
                    if d > 3:
                        u[1] = math.hypot(u[1], fold)
                    while not np.any(u):  # a zero direction is redrawn; past d = 3 the fold leaves none
                        u = rng.standard_normal((1, m))[0]
                    radius = algorithm.radius * np.float_power(rng.uniform(1)[0], 1.0 / d)
                    x = 0.0 + radius * u / math.sqrt(u.dot(u))
                else:
                    x = x - (algorithm.eta0 / np.sqrt(t)) * g
                    sigma = getattr(algorithm, "noise_scale", 0.0)
                    if sigma > 0.0:
                        x += sigma * rng.standard_normal((1, m))[0]
                        if d > 3:
                            x[1] = math.hypot(x[1], sigma * fold)
            _, g = inst.value_and_subgrad(x)
            diff = x - inst.x_star
            norm = np.linalg.norm(diff)
            if norm > 0:
                align.append(diff[0] / norm)
        if align:
            max_align = max(max_align, max(align))
            exceed += int(max(align) >= 1.0 / 3.0)
    bound = T * math.exp(-d / 36.0)
    lo, hi = wilson_interval(exceed, n_runs)
    row = {"check": f"alignment_ge_third_d{d}", "estimate": exceed / n_runs, "wilson_lo": lo, "wilson_hi": hi,
           "bound": bound, "vacuous": bound >= 1.0}
    return row, float(max_align)


def max_boundary_ties(inst, want=2, span=4000):
    """Float points where the change-of-sign tie is hit exactly: the sign change of f
    on the ray x_star - w + s w_unit by bisection, then s one float at a time."""
    ray = lambda s: inst.x_star + s * inst.w_unit - inst.w
    lo, hi = 1.0, 60.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if inst.eval_f(ray(mid)) > 0:
            lo = mid
        else:
            hi = mid
    ties = []
    for direction in (np.inf, -np.inf):
        s = lo
        for _ in range(span):
            s = np.nextafter(s, direction)
            x = ray(s)
            if reference_subgrad(inst, x).case == "max_boundary":
                ties.append(x)
                if len(ties) >= want:
                    return ties
    return ties


def full_arc_flows(inst, X0, deltas) -> list:
    """``subgradient_flow(inst, X0[r], deltas[r])`` over its whole arc for every row r, all rows in
    one ``_kernel(X, grad=True)`` call per Euler step; a row stops moving once it stalls.  Norms are
    ``row_dots`` and the step is the flow's own expression, so each row is the scalar flow's
    FlowResult bit for bit."""
    X = np.array(X0, dtype=float)
    eta = np.asarray(deltas, dtype=float)[:, None] / 1000.0
    f, G = inst._kernel(X, grad=True)
    start, best_value, best_point = f.copy(), f.copy(), X.copy()
    steps = np.zeros(len(X), dtype=int)
    live = np.ones(len(X), dtype=bool)
    for _ in range(1000):
        gn = np.sqrt(row_dots(G, G))
        live &= gn >= FLOW_HALT_NORM
        if not live.any():
            break
        X[live] = X[live] - eta[live] * (G[live] / gn[live, None])
        steps += live
        f, G = inst._kernel(X, grad=True)
        better = live & (f < best_value)
        best_value[better], best_point[better] = f[better], X[better]
    return [FlowResult(endpoint=X[r], start_value=float(start[r]), end_value=float(f[r]),
                       decrease=float(start[r] - f[r]), status="ok" if live[r] else "stalled",
                       best_point=best_point[r], best_value=float(best_value[r]), steps=int(steps[r]))
            for r in range(len(X))]


def reference_witnesses(inst, x, delta) -> np.ndarray:
    """The certificate's fallback points, each formed as x moved toward a point of its own by at most
    r = (1 - 2^-40) delta - 2^-50 d max|x_i| (at least 0): toward x with its leading part at 0, toward x
    with x_d at x_mid, both of those moves by r / sqrt(2) each, and on a capped instance toward the
    cone-axis point x_star - w + w_unit."""
    d = x.shape[0]
    r = max(0.0, (1 - 2.0**-40) * delta - 2.0**-50 * d * float(np.abs(x).max()))

    def toward(p, length):
        move = p - x
        n = np.linalg.norm(move)
        return move if n <= length else move * (length / n)

    axis_lead, at_mid = x.copy(), x.copy()
    axis_lead[:-1] = 0.0
    at_mid[-1] = inst.x_star[-1]
    both = x + toward(axis_lead, r / math.sqrt(2)) + toward(at_mid, r / math.sqrt(2))
    ends = [axis_lead, at_mid, both] + ([inst.x_star - inst.w + inst.w_unit] if inst.has_cap else [])
    return np.array([x + toward(p, r) for p in ends])


def reference_local_decrease_certificates(inst, X, deltas, c) -> list:
    """``local_decrease_certificate`` at each row of X with its delta, the flow run over its whole arc
    (``full_arc_flows``) before the points of ``reference_witnesses``."""
    out = []
    for x, delta, flow in zip(X, deltas, full_arc_flows(inst, X, deltas)):
        target = flow.start_value - delta * c
        best_point, best_value = flow.best_point, flow.best_value
        if best_value >= target:
            pts = reference_witnesses(inst, x, delta)
            vals = inst.eval_f_batch(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_value:
                best_point, best_value = pts[j], float(vals[j])
        out.append(CertResult(ok=bool(best_value < target), witness=best_point, witness_value=float(best_value),
                              start_value=flow.start_value, target=target, flow_status=flow.status))
    return out


def _reference_fd_gap(inst, x, n_dirs, rng, h=1e-6) -> float:
    """The suite's forward-difference gap, drawing each direction from rng on its own, against the support of
    the reference set."""
    s = reference_subgrad(inst, x)
    f0 = inst.eval_f(x)
    to_kink = float(np.min(np.abs(np.asarray(inst.hbar.breakpoints) - x[-1])))
    knee = 0.0  # the least distance to a cap knee, q = 0 or q = mu, along any unit direction
    if inst.has_cap:
        q = gap(inst, x - inst.x_star)
        knee = min(abs(q), abs(q - inst.mu)) / 1.5
    worst = 0.0
    for _ in range(n_dirs):
        v = rng.standard_normal(x.shape[0])
        v /= np.linalg.norm(v)
        dist = to_kink / abs(v[-1])
        step = min(h, dist / 2) if dist > 1e-9 else h
        if knee > 1e-9:
            step = min(step, knee / 2)
        fd = (inst.eval_f(x + step * v) - f0) / step
        worst = max(worst, abs(fd - s.support(v)))
    return float(worst)


def reference_embedded_checks(rng, p, sched=DEFAULT_SCHEDULE) -> CertificateReport:
    """The rows of ``invariant_suite``'s embedded and kink sections, from rng where the suite
    reaches them (the suite's own Generator when p has no separation draws and no tables)."""
    rep = CertificateReport()
    worst_lip = 0.0
    min_f = np.inf
    min_stat = np.inf
    worst_fd = 0.0
    cap_inactive_ok = True
    for d in p.dims:
        bits = random_bits(5, rng)
        inst = build_instance(d, bits, rho=p.rho, seed=int(rng.integers(2**32)), sched=sched)
        X = rng.uniform(-3.0, 3.0, size=(p.lipschitz_pairs, d))
        X /= np.maximum(1.0, np.sqrt(row_dots(X, X))[:, None] / 3.0)
        Y = X + rng.normal(scale=0.5, size=X.shape)
        fx, fy = inst.eval_f_batch(X), inst.eval_f_batch(Y)
        D = X - Y
        dist = np.sqrt(row_dots(D, D))
        ok = dist > 0
        worst_lip = max(worst_lip, float(np.max(np.abs(fx - fy)[ok] / dist[ok], initial=0.0)))
        min_f = min(min_f, float(np.min(fx, initial=np.inf)))  # no pairs: fx is empty
        S = rng.uniform(-3.0, 3.0, size=(p.stationarity_points, d))
        vals, norms = inst.min_subgrad_norm_batch(S)
        active = vals > 1e-6
        if np.any(active):
            min_stat = min(min_stat, float(np.min(norms[active])))
        for _ in range(p.fd_points):
            x = rng.uniform(-1.0, 2.0, size=d)
            worst_fd = max(worst_fd, _reference_fd_gap(inst, x, p.fd_dirs, rng))
        far = inst.x_star + np.concatenate([np.zeros(d - 1), [0.4]])
        cap_inactive_ok &= inst.eval_f(far) == reference_h(inst, far)
    rep.add("f-lipschitz", worst_lip <= 1.0 + 1e-9, worst_lip, 1.0, 1e-9, f"dims {tuple(p.dims)}")
    rep.add("f-nonnegative", min_f >= 0.0, min_f, 0.0, 0.0)
    rep.add("f-stationarity", min_stat >= 0.02 - 1e-9, min_stat, 0.02, 1e-9, "min-norm subgradient where f > 1e-6")
    rep.add("f-directional-derivative", worst_fd <= 1e-4, worst_fd, 1e-4, 0.0, "forward difference vs support function")
    kink_inst = build_instance(6, random_bits(3, rng), rho=0.25, seed=int(rng.integers(2**32)), sched=sched)
    kink_pts = [kink_inst.x_star.copy()]
    for off in (0.07, -0.07):
        q = kink_inst.x_star.copy()
        q[-1] += off
        kink_pts.append(q)
    for bp in kink_inst.hbar.breakpoints[1:-1]:
        q = rng.uniform(-0.5, 0.5, size=6)
        q[-1] = bp
        kink_pts.append(q)
    worst_kink = max(_reference_fd_gap(kink_inst, x, p.fd_dirs, rng) for x in kink_pts)
    rep.add("f-directional-derivative-kinks", worst_kink <= 1e-4, worst_kink, 1e-4, 0.0,
            "axis and valley-breakpoint points")
    rep.add("f-cap-inactive", cap_inactive_ok, float(cap_inactive_ok), 1.0, 0.0, "f == h off the cap cone")
    return rep


def check_instance_record(path, inst) -> dict:
    """Assert that the record ``save_instance`` wrote at path holds each field of inst, every
    number as its repr (so each float reads back exactly) and "none" for a missing one."""
    with open(path) as fh:
        rec = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    assert rec == {
        "format": "nshard-instance-v1",
        "d": repr(inst.d),
        "bits": "".join(repr(b) for b in inst.bits),
        "precision": inst.precision,
        "seed": "none" if inst.seed is None else repr(inst.seed),
        "c": "0.01",
        "mu": "none" if inst.mu is None else repr(inst.mu),
        "w": "none" if inst.w is None else " ".join(repr(float(v)) for v in inst.w),
    }
    assert float(rec["c"]) == STATIONARITY_C
    if inst.w is not None:
        assert float(rec["mu"]) == inst.mu
        assert np.array_equal([float(tok) for tok in rec["w"].split()], inst.w)
    return rec
