"""Experiments and numerical certification of the construction.

Three kinds of artifact live here:

* Monte-Carlo experiments with their probability bounds: the progress process
  of nested-interval depths, hitting-probability estimates, and the
  concentration of a random cap direction against trajectory directions.
* The local-decrease certificate: forward-Euler integration of the normalized
  minimal-norm-subgradient flow, then up to four analytic points of the ball,
  any of which below the target certifies a function decrease over the ball.
* The invariant suite: one callable that re-checks every structural property
  of the schedule, intervals, 1D tables, and embedded instances, and reports
  per-check pass/fail rows.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import hard1d
from .embed import STATIONARITY_C, build_h, build_instance, row_dots
from .hard1d import build_1d_instance, build_r, eval_r
from .intervals import interval, locate, random_bits, separation_margins
from .oracles import PerturbedGD, RandomSearch, SubgradientDescent, ahead, lockstep
from .schedule import DEFAULT_SCHEDULE, AngleSchedule

SAMPLE_BLOCK_BYTES = 1 << 20  # the invariant suite draws and checks its samples in row blocks of about this size
FLOW_HALT_NORM = 1e-3  # the subgradient flow stalls at a subgradient norm below this


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# progress process
# ---------------------------------------------------------------------------


def progress_process(x_last, bits, sched: AngleSchedule = DEFAULT_SCHEDULE) -> np.ndarray:
    """Z_t, the deepest nested-interval prefix entered by time t, with Z[0] = 0: from the (T,)
    last coordinates of one run's iterates on its bits, or row by row from the (R, T) ones
    of R runs on (R, N) stacked bits."""
    depths = locate(x_last, bits, sched)
    Z = np.zeros(depths.shape[:-1] + (depths.shape[-1] + 1,), dtype=int)
    Z[..., 1:] = np.maximum.accumulate(depths, axis=-1)
    return Z


# ---------------------------------------------------------------------------
# Monte-Carlo experiments
# ---------------------------------------------------------------------------


def _row(check: str, estimate: float, lo: float, hi: float, bound: float) -> dict:
    """One record of ``nshard mc``; a bound of at least 1 holds for any frequency and is flagged vacuous."""
    return {"check": check, "estimate": estimate, "wilson_lo": lo, "wilson_hi": hi, "bound": bound,
            "vacuous": bound >= 1.0}


def _wilson_row(check: str, successes: int, n: int, bound: float) -> dict:
    """The record of a frequency of successes in n runs, with its Wilson interval."""
    return _row(check, successes / n, *wilson_interval(successes, n), bound)


def mc_hitting(
    algorithm,
    T: int,
    k: int,
    N: int,
    n_runs: int,
    log2_inv_rho: float,
    seed: int = 0,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> List[dict]:
    """Estimate hitting and progress probabilities over fresh random bit draws.

    Each run draws a fresh bit string, builds the shifted 1D hard function (one stacked
    instance for all runs), takes T oracle steps from 0 (in lockstep, one stacked query
    per step), and records whether any iterate came within rho of the minimizer and how
    deep the progress process got (one stacked ``progress_process``).  rho is
    2^-log2_inv_rho, taken as 0 from log2_inv_rho = 1060 on.

    Returns the eight rows that ``nshard mc`` writes, keys check, estimate, wilson_lo,
    wilson_hi, bound and vacuous (bound >= 1, flagged rather than failed):
    ``hit_within_rho`` against 16 T / sqrt(log2(1/rho)) and ``depth_ge_{k}`` against
    min(1, 4T/k), each with its 95 % Wilson interval, then ``jump_ge_1`` to ``jump_ge_6``
    against 2^-(m-1) for a jump of m levels in one step, within freq -/+ 3 standard errors.

    The seed spawns one Generator per role, (bits, algorithm), and each role draws for
    all runs at once: the bits in one (n_runs, N) draw, the algorithm's noise or
    directions in one (n_runs, d) draw per step.  Run r reads row r of each draw and
    never another run's iterates, oracle answers or bits, so the information model
    holds; a single run replays from (seed, n_runs, r).
    """
    if n_runs < 100:
        raise ValueError("n_runs must be at least 100")
    rho = 2.0 ** (-log2_inv_rho) if log2_inv_rho < 1060 else 0.0

    bits_rng, algo_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    bits = bits_rng.integers(0, 2, (n_runs, N))
    inst = build_1d_instance(bits, sched)
    x_last = np.empty((n_runs, T))
    for t, X, _, _ in lockstep(algorithm, inst, np.zeros((n_runs, 1)), T, algo_rng):
        x_last[:, t] = X[:, -1]
    hits = int(np.count_nonzero(np.any(np.abs(x_last - inst.x_star[:, None]) <= rho, axis=1)))
    Z = progress_process(x_last, bits, sched)
    deep = int(np.count_nonzero(Z[:, -1] >= k))
    jumps = np.diff(Z, axis=1)

    rows = [_wilson_row("hit_within_rho", hits, n_runs, 16.0 * T / math.sqrt(log2_inv_rho)),
            _wilson_row(f"depth_ge_{k}", deep, n_runs, min(1.0, 4.0 * T / k))]
    for m in range(1, 7):
        freq = int(np.count_nonzero(jumps >= m)) / jumps.size
        se = math.sqrt(max(freq * (1 - freq), 1.0 / jumps.size) / jumps.size)
        rows.append(_row(f"jump_ge_{m}", freq, max(0.0, freq - 3 * se), min(1.0, freq + 3 * se), 2.0 ** (-(m - 1))))
    return rows


def concentration_check(
    d: int,
    T: int,
    n_runs: int,
    seed: int = 0,
    algorithm=None,
    N: int = 5,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> Tuple[dict, float]:
    """Frequency of a fresh random direction aligning with any iterate.

    Runs the algorithm on the cap-free objectives (one stacked instance, one query per
    lockstep step), and measures max_t <u, (x_t - x_star)/||x_t - x_star||> step by step for an
    independent unit vector u supported on the leading d-1 coordinates.  The seed spawns
    one Generator per role, (bits, algorithm, directions), each drawing for all runs at
    once, as in ``mc_hitting``.

    sgd, pgd and random search, equivariant under rotations of the leading coordinates, take
    u = e_1, so that the alignment's numerator is x_t's first entry, and step on min(d, 3)-dimensional
    instances (past d = 3 pgd and random search as ``_Chain``, its T - 1 chi-square folds drawn up front by
    the directions' Generator), at a cost that does not grow with d: their row agrees with d-dimensional
    runs' in law, not bit for bit.  Others (grid search) run in d dimensions against one (n_runs, d - 1)
    draw of u.  Under sgd, and pgd at noise_scale 0, the leading part stays exactly 0 from the origin (the
    minimal-norm subgradient has none at the norm kink), so the row reads 0 at every d; the check still
    makes its T queries, which the information model and the benchmark count.

    Returns the row that ``nshard mc`` writes, ``alignment_ge_third_d{d}``: the frequency
    of an alignment of at least 1/3, with its Wilson interval, against T exp(-d/36), which
    is flagged vacuous for small d where it is at least 1 (keys as in ``mc_hitting``); and
    the largest alignment over all runs and steps.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if T < 1:  # lockstep's message, before the folds' draw could refuse a negative count in numpy's words
        raise ValueError("T must be >= 1")
    if algorithm is None:
        algorithm = PerturbedGD()
    chain = isinstance(algorithm, (SubgradientDescent, RandomSearch))
    bits_rng, algo_rng, dir_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    inst = build_h(min(d, 3) if chain else d, bits_rng.integers(0, 2, (n_runs, N)), sched)
    if not chain:
        U = dir_rng.standard_normal((n_runs, d - 1))
        W = np.concatenate([U / np.sqrt(row_dots(U, U))[:, None], np.zeros((n_runs, 1))], axis=1)
    elif d > 3 and hasattr(algorithm, "draw"):
        algorithm = _Chain(algorithm, d, np.sqrt(dir_rng.chisquare(d - 3, (T - 1, n_runs))))
    # running max of each run's alignment; a run whose iterate sits on x_star
    # gives 0/0 = NaN there, which fmax skips; one far out may overflow its
    # norm, taken as np.linalg.norm(axis=1) takes it, before the oracle rejects its next point
    align = np.full(n_runs, -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        for _, X, _, _ in lockstep(algorithm, inst, np.zeros((n_runs, inst.d)), T, algo_rng):
            diffs = X - inst.x_star
            lead = diffs[:, 0] if chain else np.einsum("ij,ij->i", diffs, W)
            np.fmax(align, lead / np.sqrt(np.add.reduce(diffs * diffs, axis=1)), out=align)
    exceed = int(np.count_nonzero(align >= 1.0 / 3.0))
    return _wilson_row(f"alignment_ge_third_d{d}", exceed, n_runs, T * math.exp(-d / 36.0)), float(np.max(align))


class _Chain:
    """pgd or random search in d > 3 dimensions from the origin, stepped in the (a, b, x_d) coordinates of its
    iterates, the noise orthogonal to them folded into b by c, a draw's row of ``chi``, the folds sqrt(chi2_(d-3)):
    pgd's stepped b becomes hypot(b, noise_scale c); random search goes radius U^(1/d) along (g1, hypot(g2, c), g3)."""

    def __init__(self, algorithm, d: int, chi):
        self.algorithm, self.d, self.chi = algorithm, d, iter(chi)

    def draw(self, rng, R, m):
        alg, chi = self.algorithm, next(self.chi)
        if isinstance(alg, RandomSearch):
            u = rng.standard_normal((R, m))
            u[:, 1] = np.hypot(u[:, 1], chi)
            return (u, np.sqrt(row_dots(u, u)), alg.radius * np.float_power(rng.uniform(size=R), 1.0 / self.d)), 0.0
        return alg.draw(rng, R, m), alg.noise_scale * chi

    def propose(self, t, x, response, draw):
        X = self.algorithm.propose(t, x, response, draw[0])
        X[:, 1] = np.hypot(X[:, 1], draw[1])
        return X


# ---------------------------------------------------------------------------
# subgradient flow and local decrease certificates
# ---------------------------------------------------------------------------


@dataclass
class FlowResult:
    endpoint: np.ndarray
    start_value: float
    end_value: float
    decrease: float
    status: str  # "ok" or "stalled"
    best_point: np.ndarray
    best_value: float
    steps: int


def subgradient_flow(fn, x0, delta: float, drop: Optional[float] = None) -> FlowResult:
    """Forward-Euler integration of dx/dt = -g(x)/||g(x)|| for arc length delta.

    g is the minimal-norm subgradient returned by fn.value_and_subgrad.  The
    arc takes 1000 steps of delta/1000, each re-queried, which handles sliding
    along valleys without event detection.  Halts with status "stalled" if a
    subgradient norm below FLOW_HALT_NORM is encountered (on a hard instance
    with value at least 1 inside the ball this cannot happen).  With ``drop`` set, the
    flow stops early, with status "ok", at the first queried point whose
    value is below f(x0) - drop; the endpoint is then that point.  Every
    point is queried once: the start and end values are the first and last
    values returned.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    eta = delta / 1000.0
    query = fn.value_and_subgrad  # bound once; every call is still one query
    # x is rebound by every step and never written to, so points need no copies
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    f0, g = query(x)
    # the same expression as the certificate's target, so both are one float
    stop = -math.inf if drop is None else f0 - drop
    best_point, best_value, v = x, f0, f0
    status, taken = "ok", 0
    while taken < 1000:
        gn = math.sqrt(g.dot(g))
        if gn < FLOW_HALT_NORM:
            status = "stalled"
            break
        x = x - eta * (g / gn)
        taken += 1
        v, g = query(x)
        if v < best_value:
            best_point, best_value = x, v
        if v < stop:
            break
    return FlowResult(
        endpoint=x,
        start_value=float(f0),
        end_value=float(v),
        decrease=float(f0 - v),
        status=status,
        best_point=best_point,
        best_value=float(best_value),
        steps=taken,
    )


@dataclass
class CertResult:
    ok: bool
    witness: np.ndarray
    witness_value: float
    start_value: float
    target: float
    flow_status: str


def local_decrease_certificate(instance, x, delta: float) -> CertResult:
    """Witness that min over B(x, delta) of f drops below f(x) - delta * c, c = ``STATIONARITY_C``.

    One-sided: any point of the ball below the target certifies, and an
    upper bound on the minimum is all the certificate needs.  The flow stops
    at its first point below the target, which is then the witness.  Only
    if the flow (Euler step delta/1000) finds none (its best point over the
    whole arc, which stays inside the ball, is not below the target) are
    ``_witnesses``' up to four points evaluated, in one batch.
    As in ``lockstep``, overflow is not warned about: norms of points far
    from the origin may overflow.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    drop = delta * STATIONARITY_C
    with np.errstate(over="ignore"):
        flow = subgradient_flow(instance, x, delta, drop=drop)
        target = flow.start_value - drop
        best_point, best_value = flow.best_point, flow.best_value
        if best_value >= target:
            pts = _witnesses(instance, x, delta)
            vals = instance.eval_f_batch(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_value:
                best_point, best_value = pts[j], float(vals[j])
    return CertResult(ok=bool(best_value < target), witness=best_point, witness_value=float(best_value),
                      start_value=flow.start_value, target=target, flow_status=flow.status)


def _witnesses(instance, x, delta: float) -> np.ndarray:
    """x plus each move, shortened to r: the leading part toward 0 (h falls by its length / 32), x_d toward
    x_mid (hbar's slopes are at least 1/16), both at r / sqrt(2) each, and, if capped, to the cone-axis point
    x_star - w + w_unit.  r keeps the rounded points in B(x, delta); far out it is 0 and every point is x."""
    r = max(0.0, (1.0 - 2.0**-40) * delta - 2.0**-50 * x.shape[0] * float(np.max(np.abs(x))))
    lead, last = np.zeros_like(x), np.zeros_like(x)
    lead[:-1], last[-1] = -x[:-1], instance.x_star[-1] - x[-1]
    cone = [instance.x_star - instance.w + instance.w_unit - x] if instance.has_cap else []
    moves = [lead, last, _shorten(lead, r / math.sqrt(2.0)) + _shorten(last, r / math.sqrt(2.0)), *cone]
    return x + np.array([_shorten(m, r) for m in moves])


def _shorten(move, r: float) -> np.ndarray:
    n = float(np.linalg.norm(move))
    return move * (r / n) if n > r else move


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    bound: float
    tol: float
    detail: str = ""


@dataclass
class CertificateReport:
    checks: List[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, measured, bound, tol, detail="") -> None:
        self.checks.append(Check(name, bool(passed), float(measured), float(bound), float(tol), detail))

    def failed(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def write_csv(self, path) -> None:
        hard1d.write_table(path, ["check", "passed", "measured", "bound", "tol", "detail"],
                           [(c.name, c.passed, c.measured, c.bound, c.tol, c.detail) for c in self.checks])

    def write_jsonl(self, path) -> None:
        hard1d.write_records(path, [{"check": c.name, "passed": c.passed, "measured": c.measured, "bound": c.bound,
                                     "tol": c.tol, "detail": c.detail} for c in self.checks])

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: measured={c.measured:.6g} bound={c.bound:.6g} {c.detail}")
        n_fail = len(self.failed())
        lines.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return "\n".join(lines)


@dataclass
class SuiteParams:
    n_instances: int = 20
    max_depth: int = 10
    interval_depth: int = 6
    separation_draws: int = 100
    dual_points: int = 2000
    dims: Sequence[int] = (2, 5, 10)
    lipschitz_pairs: int = 5000
    stationarity_points: int = 5000
    fd_points: int = 12
    fd_dirs: int = 8
    rho: float = 1e-3


def invariant_suite(
    seed: int = 0,
    params: Optional[SuiteParams] = None,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> CertificateReport:
    """Re-check every structural invariant on fresh random instances.

    The embedded section takes ``_samples`` one item ahead through ``ahead`` and draws the Lipschitz points X itself,
    block by block from the copy of rng that ``_samples`` hands it, while the worker draws the matching block of
    noise: each X block is evaluated with its pairs Y = X + noise, in one pass, and dropped.  Its reductions are
    maxima and minima, so its rows equal whole-array draws' (in the tables and embedded sections NaN-keeping ones).
    """
    p = params or SuiteParams()
    rng = np.random.default_rng(seed)
    rep = CertificateReport()

    # schedule ranges, against atan 1 and atan 8 at the schedule's own
    # precision (a binary64 atan 8 lies below extended thetas from i = 54 on)
    with sched.context():
        atan1, atan8 = sched.math.atan(1.0), sched.math.atan(8.0)
    thetas = [sched.theta_base(i) for i in range(1, 61)]
    rep.add(
        "schedule-theta-range",
        all(atan1 <= t <= atan8 for t in thetas) and all(b >= a for a, b in zip(thetas, thetas[1:])),
        max(thetas),
        atan8,
        0.0,
        "monotone, within [atan 1, atan 8], indices 1..60",
    )
    deltas = [sched.delta(i) for i in range(1, 61)]
    rep.add("schedule-delta-range", all(0 < d <= 7 / 32 for d in deltas), max(deltas), 7 / 32, 0.0)
    epss = [sched.epsilon(i) for i in range(1, 61)]
    rep.add("schedule-epsilon-range", all(0.5 <= e < 1 for e in epss), min(epss), 0.5, 0.0)
    lower_ok = all(sched.delta(i) >= math.tan(sched.theta_shift(i)) / 12 for i in range(1, 61))
    rep.add("schedule-delta-lower", lower_ok, min(deltas), 0.0, 0.0, "delta >= tan(shift)/12")

    # interval combinatorics in the local frame of the common prefix: a child there depends on (k, bit) alone
    depth = p.interval_depth
    worst_nest = worst_gap = np.inf
    with sched.context():  # the gaps are differences of the schedule's numbers
        for k in range(1, depth + 1):
            left, right = interval((0,), sched, base_level=k), interval((1,), sched, base_level=k)
            worst_nest = min(worst_nest, left.lo - 0.0, 1.0 - left.hi, right.lo - 0.0, 1.0 - right.hi)
            # disjointness at the first differing level: bands around 1/2 separated by 2 delta
            worst_gap = min(worst_gap, right.lo - left.hi)
    rep.add("interval-nesting", worst_nest > 1e-12, worst_nest, 1e-12, 1e-12, f"depth <= {depth}, local frames")
    rep.add("interval-disjointness", worst_gap > 1e-12, worst_gap, 1e-12, 1e-12, "local band gap 2*delta")

    log2_inv_rho = 256.0
    k_sep, N_sep = 4, 5
    rho_sep = 2.0 ** (-log2_inv_rho)
    worst_sep = np.inf
    for _ in range(p.separation_draws):
        bits = random_bits(N_sep, rng)
        gi, gs = separation_margins(bits, k_sep, sched)
        worst_sep = min(worst_sep, gi, gs)
    rep.add("interval-separation", worst_sep > rho_sep, worst_sep, rho_sep, 0.0, "k=4, N=5, log2(1/rho)=256")

    # 1D tables
    worst_cont = 0.0
    worst_mono = np.inf
    worst_merge = np.inf
    slope_lo, slope_hi = np.inf, 0.0
    worst_dual = 0.0
    worst_growth = np.inf
    hbar_zero_max = 0.0
    pieces_ok = True
    r_at_zero_ok = True
    for _ in range(p.n_instances):
        N = int(rng.integers(1, p.max_depth + 1))
        bits = random_bits(N, rng)
        table = build_r(bits, sched)
        worst_cont = np.maximum(worst_cont, np.max(table.continuity_residuals()))
        sl = np.asarray(table.slopes, dtype=float)
        worst_mono = np.minimum(worst_mono, np.min(np.diff(sl)))
        steps = np.diff(np.asarray(table.slopes))  # raw slopes: an extended step is rounded once
        steps = steps[steps != 0]  # the merged table's slope steps
        worst_merge = np.minimum(worst_merge, float(np.min(steps)) if len(steps) else 0.0)
        slope_lo = np.minimum(slope_lo, np.min(np.abs(sl)))
        slope_hi = np.maximum(slope_hi, np.max(np.abs(sl)))
        pieces_ok &= table.piece_count == 2 * N + 4
        r_at_zero_ok &= table(0.0) == 1.0
        xs = rng.uniform(-0.5, 1.5, size=p.dual_points)
        ref = table.eval_batch(xs)
        dual = np.abs(ref - eval_r(bits, xs, sched))
        worst_dual = np.maximum(worst_dual, np.max(dual / np.maximum(1.0, np.abs(ref))))
        hbar, x_mid = hard1d.build_hbar(bits, sched, table)
        hbar_zero_max = np.maximum(hbar_zero_max, hbar(0.0))
        grid = rng.uniform(-1.0, 2.0, size=500)
        slack = hbar.eval_batch(grid) - (2.0 + np.abs(grid - x_mid) / 8.0)
        worst_growth = np.minimum(worst_growth, np.min(slack))
    rep.add("r-continuity", worst_cont <= 1e-9, worst_cont, 1e-9, 1e-9, f"{p.n_instances} tables, N <= {p.max_depth}")
    rep.add("r-convexity", worst_mono >= -1e-12, worst_mono, 0.0, 1e-12, "slope sequence nondecreasing")
    rep.add("r-convexity-strict-merged", worst_merge > 1e-12, worst_merge, 0.0, 1e-12, "after merging collinear pieces")
    rep.add("r-slope-range", (slope_lo >= 0.125) and (slope_hi <= 1.0), slope_lo, 0.125, 0.0, f"max |slope| {slope_hi}")
    rep.add("r-piece-count", pieces_ok, float(pieces_ok), 1.0, 0.0, "2N+4 pieces")
    rep.add("r-at-zero", r_at_zero_ok, float(r_at_zero_ok), 1.0, 0.0, "r(0) = 1")
    rep.add("r-dual-representation", worst_dual <= 1e-9, worst_dual, 1e-9, 1e-9, "descent vs table")
    rep.add("hbar-at-zero", hbar_zero_max <= 3.0, hbar_zero_max, 3.0, 0.0)
    rep.add("hbar-growth", worst_growth >= -1e-9, worst_growth, 0.0, 1e-9, "hbar >= 2 + |x - x_mid|/8")

    # embedded instances
    worst_lip = 0.0
    min_f = np.inf
    min_stat = np.inf
    worst_fd = 0.0
    cap_inactive_ok = True
    with contextlib.closing(ahead(_samples(rng, p))) as samples:  # closing joins the worker: rng is free again
        for d in p.dims:
            bits, cap_seed = next(samples)
            inst = build_instance(d, bits, rho=p.rho, seed=cap_seed, sched=sched)
            xs = next(samples)
            for n in _row_blocks(p.lipschitz_pairs, d):
                D = xs.uniform(-3.0, 3.0, size=(n, d))  # a block of X, scaled into the ball of radius 3
                np.divide(D, np.maximum(1.0, np.sqrt(row_dots(D, D))[:, None] / 3.0), out=D)
                fx = inst.eval_f_batch(D)
                min_f = np.minimum(min_f, np.min(fx))
                Yb = next(samples)
                Yb += D  # Y = X + noise, as IEEE addition commutes
                D -= Yb
                dist = np.sqrt(row_dots(D, D))
                ok = dist > 0
                worst_lip = np.maximum(worst_lip, np.max(np.abs(fx - inst.eval_f_batch(Yb))[ok] / dist[ok], initial=0))
            for _ in _row_blocks(p.stationarity_points, d):
                vals, norms = inst.min_subgrad_norm_batch(next(samples))
                active = vals > 1e-6
                if np.any(active):
                    min_stat = np.minimum(min_stat, np.min(norms[active]))
            for x, V in next(samples):
                worst_fd = np.maximum(worst_fd, _fd_gap(inst, x, V))
            far = inst.x_star + np.concatenate([np.zeros(d - 1), [0.4]])
            cap_inactive_ok &= inst.eval_f(far) == replace(inst, w=None).eval_f(far)  # its f is h, as h >= 1
    rep.add("f-lipschitz", worst_lip <= 1.0 + 1e-9, worst_lip, 1.0, 1e-9, f"dims {tuple(p.dims)}")
    rep.add("f-nonnegative", min_f >= 0.0, min_f, 0.0, 0.0)
    rep.add("f-stationarity", min_stat >= 0.02 - 1e-9, min_stat, 0.02, 1e-9, "min-norm subgradient where f > 1e-6")
    rep.add("f-directional-derivative", worst_fd <= 1e-4, worst_fd, 1e-4, 0.0, "forward difference vs support function")

    # engineered kink points: the forward step must stay small against the
    # cap scale 1000*mu, hence the coarser rho here
    kink_inst = build_instance(6, random_bits(3, rng), rho=0.25, seed=int(rng.integers(2**32)), sched=sched)
    kink_pts = [kink_inst.x_star + np.eye(6)[-1] * off for off in (0.0, 0.07, -0.07)]
    for bp in kink_inst.hbar.breakpoints[1:-1]:
        q = rng.uniform(-0.5, 0.5, size=6)
        q[-1] = bp
        kink_pts.append(q)
    worst_kink = np.max([_fd_gap(kink_inst, x, rng.standard_normal((p.fd_dirs, 6))) for x in kink_pts])
    rep.add("f-directional-derivative-kinks", worst_kink <= 1e-4, worst_kink, 1e-4, 0.0,
            "axis and valley-breakpoint points")
    rep.add("f-cap-inactive", cap_inactive_ok, float(cap_inactive_ok), 1.0, 0.0, "f == h off the cap cone")
    return rep


def _row_blocks(n: int, d: int) -> List[int]:
    """n rows of d numbers as the row counts of blocks of about SAMPLE_BLOCK_BYTES."""
    step = max(1, SAMPLE_BLOCK_BYTES // (8 * d))
    return [min(step, n - a) for a in range(0, n, step)]


def _samples(rng, p: SuiteParams):
    """The embedded section's draws, per dimension: the bits and the cap seed, ``_skip``'s copy of rng at the
    Lipschitz points X, whose blocks the caller draws (uniform in [-3, 3]^d), then past X the pairs' noise and S in
    ``_row_blocks`` (a Generator fills them as one call), and the fd points as one list.  Every number comes from
    the state where one Generator drawing X, the noise, S and the fd points in turn would draw it."""
    for d in p.dims:
        yield random_bits(5, rng), int(rng.integers(2**32))
        yield _skip(rng, p.lipschitz_pairs * d)
        yield from (rng.normal(scale=0.5, size=(n, d)) for n in _row_blocks(p.lipschitz_pairs, d))
        yield from (rng.uniform(-3.0, 3.0, size=(n, d)) for n in _row_blocks(p.stationarity_points, d))
        yield [(rng.uniform(-1.0, 2.0, size=d), rng.standard_normal((p.fd_dirs, d))) for _ in range(p.fd_points)]


def _skip(rng, k: int):
    """A copy of rng; rng itself moves past k uniform doubles (one 64-bit draw each), its buffered 32 bits kept."""
    bg, state = type(rng.bit_generator)(), rng.bit_generator.state
    bg.state = state
    rng.bit_generator.state = {**rng.bit_generator.advance(k).state, "has_uint32": state["has_uint32"],
                               "uinteger": state["uinteger"]}
    return np.random.Generator(bg)


def _fd_gap(inst, x, V, h: float = 1e-6) -> float:
    """Max gap between forward differences and ``inst.support`` at x, along each row of V, normalized.

    Along u the step is at most half the distance to the nearest valley breakpoint and to the nearest cap knee
    q = 0 or q = mu (q moves at most 3/2 per unit step), so that no kink is differenced across; a point within 1e-9
    of one (a kink point) keeps the step h.  Inside (0, mu) the ramp's curvature 1/(4 mu) still adds up to
    9 step / (32 mu).  x and the forward points are one ``eval_f_batch`` call; a NaN in either stays in the result.
    """
    to_kink = float(np.min(np.abs(np.asarray(inst.hbar.breakpoints) - x[-1])))
    U = V / np.sqrt(row_dots(V, V))[:, None]
    dist = to_kink / np.abs(U[:, -1])
    steps = np.where(dist > 1e-9, np.minimum(h, dist / 2), h)
    if inst.has_cap:  # q as the scalar pass forms it
        z = x + inst.shift
        q = float(inst.w_unit.dot(z)) - 0.5 * math.sqrt(z.dot(z))
        knee = min(abs(q), abs(q - inst.mu)) / 1.5
        steps = np.minimum(steps, knee / 2) if knee > 1e-9 else steps
    f = inst.eval_f_batch(np.vstack([x, x + steps[:, None] * U]))
    return float(np.max(np.abs((f[1:] - f[0]) / steps - inst.support(x, U)), initial=0.0))
