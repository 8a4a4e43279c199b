"""Experiments and numerical certification of the construction.

Three kinds of artifact live here:

* Monte-Carlo experiments with their probability bounds: the progress process
  of nested-interval depths, hitting-probability estimates, and the
  concentration of a random cap direction against trajectory directions.
* The subgradient-flow certifier: forward-Euler integration of the normalized
  minimal-norm-subgradient flow, which converts a pointwise lower bound on
  subgradient norms into a certified function decrease over a ball.
* The invariant suite: one callable that re-checks every structural property
  of the schedule, intervals, 1D tables, and embedded instances, and reports
  per-check pass/fail rows.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import hard1d
from .embed import STATIONARITY_C, build_h, build_instance, row_dots
from .hard1d import build_1d_instance, build_r, eval_r
from .intervals import interval, locate, phi, random_bits, separation_margins
from .oracles import ahead, lockstep
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


@dataclass
class HittingReport:
    T: int
    k: int
    N: int
    n_runs: int
    log2_inv_rho: float
    hit_freq: float
    hit_wilson: Tuple[float, float]
    hit_bound: float
    hit_vacuous: bool
    deep_freq: float
    deep_wilson: Tuple[float, float]
    deep_bound: float
    deep_vacuous: bool
    jump_stats: Dict[int, dict]  # m -> {freq, se, bound, n}

    def rows(self):
        def row(check, estimate, lo, hi, bound, vacuous):
            return {"check": check, "estimate": estimate, "wilson_lo": lo, "wilson_hi": hi, "bound": bound,
                    "vacuous": vacuous}

        out = [row("hit_within_rho", self.hit_freq, *self.hit_wilson, self.hit_bound, self.hit_vacuous),
               row(f"depth_ge_{self.k}", self.deep_freq, *self.deep_wilson, self.deep_bound, self.deep_vacuous)]
        for m, st in sorted(self.jump_stats.items()):
            out.append(row(f"jump_ge_{m}", st["freq"], max(0.0, st["freq"] - 3 * st["se"]),
                           min(1.0, st["freq"] + 3 * st["se"]), st["bound"], st["bound"] >= 1.0))
        return out


def mc_hitting(
    algorithm,
    T: int,
    k: int,
    N: int,
    n_runs: int,
    log2_inv_rho: float,
    seed: int = 0,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> HittingReport:
    """Estimate hitting and progress probabilities over fresh random bit draws.

    Each run draws a fresh bit string, builds the shifted 1D hard function (one stacked
    instance for all runs), takes T oracle steps from 0 (in lockstep, one stacked query
    per step), and records whether any iterate came within rho of the minimizer and how
    deep the progress process got (one stacked ``progress_process``).  Estimates come
    with Wilson intervals and are compared to the analytic bounds 16 T / sqrt(log2(1/rho)),
    min(1, 4T/k) and, for jumps of m = 1..6 levels in one step, 2^-(m-1); bounds that
    exceed 1 are flagged vacuous rather than failed.  rho is 2^-log2_inv_rho, taken as 0
    from log2_inv_rho = 1060 on.

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
    jump_trials = jumps.size

    hit_bound = 16.0 * T / math.sqrt(log2_inv_rho)
    deep_bound = 4.0 * T / k
    jump_stats = {}
    for m in range(1, 7):
        freq = int(np.count_nonzero(jumps >= m)) / jump_trials
        se = math.sqrt(max(freq * (1 - freq), 1.0 / jump_trials) / jump_trials)
        jump_stats[m] = {"freq": freq, "se": se, "bound": 2.0 ** (-(m - 1)), "n": jump_trials}
    return HittingReport(
        T=T,
        k=k,
        N=N,
        n_runs=n_runs,
        log2_inv_rho=log2_inv_rho,
        hit_freq=hits / n_runs,
        hit_wilson=wilson_interval(hits, n_runs),
        hit_bound=hit_bound,
        hit_vacuous=hit_bound >= 1.0,
        deep_freq=deep / n_runs,
        deep_wilson=wilson_interval(deep, n_runs),
        deep_bound=min(1.0, deep_bound),
        deep_vacuous=deep_bound >= 1.0,
        jump_stats=jump_stats,
    )


@dataclass
class ConcentrationReport:
    d: int
    T: int
    n_runs: int
    exceed_freq: float
    wilson: Tuple[float, float]
    bound: float
    vacuous: bool
    max_alignment: float

    def rows(self):
        return [
            {
                "check": f"alignment_ge_third_d{self.d}",
                "estimate": self.exceed_freq,
                "wilson_lo": self.wilson[0],
                "wilson_hi": self.wilson[1],
                "bound": self.bound,
                "vacuous": self.vacuous,
            }
        ]


def concentration_check(
    d: int,
    T: int,
    n_runs: int,
    seed: int = 0,
    algorithm=None,
    N: int = 5,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> ConcentrationReport:
    """Frequency of a fresh random direction aligning with any iterate.

    Runs the algorithm on the cap-free objectives (one stacked instance, one query per
    lockstep step), and measures max_t <u, (x_t - x_star)/||x_t - x_star||> step by step for an
    independent unit vector u supported on the leading d-1 coordinates.  The
    exceedance probability of 1/3 is compared against T exp(-d/36); for
    small d the bound exceeds 1 and is flagged vacuous.  The seed spawns one Generator
    per role, (bits, algorithm, directions), each drawing for all runs at once, as in
    ``mc_hitting``; the directions are one (n_runs, d - 1) draw.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    from .oracles import PerturbedGD

    if algorithm is None:
        algorithm = PerturbedGD()
    bits_rng, algo_rng, dir_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    inst = build_h(d, bits_rng.integers(0, 2, (n_runs, N)), sched)
    U = dir_rng.standard_normal((n_runs, d - 1))
    W = np.zeros((n_runs, d))
    W[:, :-1] = U / np.sqrt(row_dots(U, U))[:, None]
    # running max of each run's alignment; a run whose iterate sits on x_star
    # gives 0/0 = NaN there, which fmax skips; one far out may overflow its
    # norm before the oracle rejects its next point
    align = np.full(n_runs, -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        for _, X, _, _ in lockstep(algorithm, inst, np.zeros((n_runs, d)), T, algo_rng):
            diffs = X - inst.x_star
            align = np.fmax(align, np.einsum("ij,ij->i", diffs, W) / np.linalg.norm(diffs, axis=1))
    exceed = int(np.count_nonzero(align >= 1.0 / 3.0))
    max_align = np.max(align)
    bound = T * math.exp(-d / 36.0)
    return ConcentrationReport(
        d=d,
        T=T,
        n_runs=n_runs,
        exceed_freq=exceed / n_runs,
        wilson=wilson_interval(exceed, n_runs),
        bound=bound,
        vacuous=bound >= 1.0,
        max_alignment=float(max_align),
    )


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


def local_decrease_certificate(
    instance,
    x,
    delta: float,
    seed: int = 0,
) -> CertResult:
    """Witness that min over B(x, delta) of f drops below f(x) - delta * c, c = ``STATIONARITY_C``.

    One-sided: any point of the ball below the target certifies, and an
    upper bound on the minimum is all the certificate needs.  The flow stops
    at its first point below the target, which is then the witness.  Only
    if the flow (Euler step delta/1000) finds none (its best point over the
    whole arc, which stays inside the ball, is not below the target) are 1000
    uniform ball samples drawn.
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
            rng = np.random.default_rng(seed)
            d = x.shape[0]
            U = rng.standard_normal((1000, d))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            R = delta * rng.uniform(size=1000) ** (1.0 / d)
            pts = x[None, :] + R[:, None] * U
            vals = instance.eval_f_batch(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_value:
                best_point, best_value = pts[j], float(vals[j])
    return CertResult(
        ok=bool(best_value < target),
        witness=best_point,
        witness_value=float(best_value),
        start_value=flow.start_value,
        target=target,
        flow_status=flow.status,
    )


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


def _mutate_slope(pwa):
    """Bump the first slope of an equal-slope adjacent pair by 1e-3.

    Such a pair always exists (a tail continues collinearly into the first
    wedge branch on one side), and the bump inverts the slope order there.
    """
    slopes = list(pwa.slopes)
    for j in range(len(slopes) - 1):
        if slopes[j] == slopes[j + 1]:
            slopes[j] = slopes[j] + 1e-3
            break
    else:
        slopes[0] = slopes[0] + 1e-3
    return hard1d.PiecewiseAffine1D(list(pwa.breakpoints), list(pwa.values), slopes)


def invariant_suite(
    seed: int = 0,
    params: Optional[SuiteParams] = None,
    mutate: Optional[str] = None,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> CertificateReport:
    """Re-check every structural invariant on fresh random instances.

    ``mutate="slope"`` injects a slope fault into one 1D table to demonstrate
    that the suite detects broken convexity; the ``hbar`` rows stay on the clean table.  The
    embedded section checks and drops the row blocks of ``_samples`` (the pairs redraw X from a copy of the stream),
    drawn one block ahead through ``ahead``; its reductions are maxima and minima, so its rows equal whole-array draws'.
    """
    if mutate not in (None, "slope"):
        raise ValueError(f"unknown mutation {mutate!r}")
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
            for bit in (0, 1):
                child = interval((bit,), sched, base_level=k)
                worst_nest = min(worst_nest, child.lo - 0.0, 1.0 - child.hi)
            # disjointness at the first differing level: bands around 1/2 separated by 2 delta
            worst_gap = min(worst_gap, phi(k, 1, sched).image()[0] - phi(k, 0, sched).image()[1])
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
    for i in range(p.n_instances):
        N = int(rng.integers(1, p.max_depth + 1))
        bits = random_bits(N, rng)
        clean = build_r(bits, sched)
        table = _mutate_slope(clean) if mutate == "slope" and i == 0 else clean
        worst_cont = max(worst_cont, max(table.continuity_residuals()))
        sl = np.asarray(table.slopes, dtype=float)
        worst_mono = min(worst_mono, float(np.min(np.diff(sl))))
        merged = table.merged()
        if merged.piece_count > 1:
            worst_merge = min(worst_merge, float(np.min(np.diff(np.asarray(merged.slopes)))))
        slope_lo = min(slope_lo, float(np.min(np.abs(sl))))
        slope_hi = max(slope_hi, float(np.max(np.abs(sl))))
        pieces_ok &= table.piece_count == 2 * N + 4
        r_at_zero_ok &= table(0.0) == 1.0
        xs = rng.uniform(-0.5, 1.5, size=p.dual_points)
        ref = table.eval_batch(xs)
        dual = np.abs(ref - eval_r(bits, xs, sched))
        worst_dual = max(worst_dual, float(np.max(dual / np.maximum(1.0, np.abs(ref)))))
        hbar, x_mid = hard1d.build_hbar(bits, sched, clean)
        hbar_zero_max = max(hbar_zero_max, hbar(0.0))
        grid = rng.uniform(-1.0, 2.0, size=500)
        slack = hbar.eval_batch(grid) - (2.0 + np.abs(grid - x_mid) / 8.0)
        worst_growth = min(worst_growth, float(np.min(slack)))
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
            bits, cap_seed, x_rng = next(samples)
            inst = build_instance(d, bits, rho=p.rho, seed=cap_seed, sched=sched)
            fx = [inst.eval_f_batch(next(samples)) for _ in _row_blocks(p.lipschitz_pairs, d)]
            for fxb in fx:
                min_f = min(min_f, float(np.min(fxb)))
                D = _lipschitz_points(x_rng, len(fxb), d)  # X's block again, redrawn from the copy
                Yb = next(samples)
                Yb += D  # Y = X + noise, as IEEE addition commutes
                D -= Yb
                dist = np.sqrt(row_dots(D, D))
                ok = dist > 0
                worst_lip = max(worst_lip, float(np.max(np.abs(fxb - inst.eval_f_batch(Yb))[ok] / dist[ok], initial=0)))
            for _ in _row_blocks(p.stationarity_points, d):
                vals, norms = inst.min_subgrad_norm_batch(next(samples))
                active = vals > 1e-6
                if np.any(active):
                    min_stat = min(min_stat, float(np.min(norms[active])))
            for _ in range(p.fd_points):
                worst_fd = max(worst_fd, _fd_gap(inst, *next(samples)))
            far = inst.x_star + np.concatenate([np.zeros(d - 1), [0.4]])
            cap_inactive_ok &= inst.eval_f(far) == inst.eval_h(far)
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
    worst_kink = max(_fd_gap(kink_inst, x, rng.standard_normal((p.fd_dirs, 6))) for x in kink_pts)
    rep.add("f-directional-derivative-kinks", worst_kink <= 1e-4, worst_kink, 1e-4, 0.0,
            "axis and valley-breakpoint points")
    rep.add("f-cap-inactive", cap_inactive_ok, float(cap_inactive_ok), 1.0, 0.0, "f == h off the cap cone")
    return rep


def _row_blocks(n: int, d: int) -> List[int]:
    """n rows of d numbers as the row counts of blocks of about SAMPLE_BLOCK_BYTES."""
    step = max(1, SAMPLE_BLOCK_BYTES // (8 * d))
    return [min(step, n - a) for a in range(0, n, step)]


def _samples(rng, p: SuiteParams):
    """The embedded section's draws in stream order: per dimension the bits, the cap seed, a copy of rng to redraw X
    with, X, the pairs' noise and S in ``_row_blocks`` (which a Generator fills as one call), and the fd points."""
    for d in p.dims:
        yield random_bits(5, rng), int(rng.integers(2**32)), copy.deepcopy(rng)
        yield from (_lipschitz_points(rng, n, d) for n in _row_blocks(p.lipschitz_pairs, d))
        yield from (rng.normal(scale=0.5, size=(n, d)) for n in _row_blocks(p.lipschitz_pairs, d))
        yield from (rng.uniform(-3.0, 3.0, size=(n, d)) for n in _row_blocks(p.stationarity_points, d))
        for _ in range(p.fd_points):
            yield rng.uniform(-1.0, 2.0, size=d), rng.standard_normal((p.fd_dirs, d))


def _lipschitz_points(rng, n: int, d: int) -> np.ndarray:
    """n uniform points of [-3, 3]^d, each scaled into the ball of radius 3 if outside it."""
    X = rng.uniform(-3.0, 3.0, size=(n, d))
    return np.divide(X, np.maximum(1.0, np.sqrt(row_dots(X, X))[:, None] / 3.0), out=X)


def _fd_gap(inst, x, V, h: float = 1e-6) -> float:
    """Max gap between forward differences and the support function at x, along each row of V.

    Along v the step is at most half the distance to the nearest valley
    breakpoint, so that a point near a kink is not differenced across it; a
    point within 1e-9 of one (a kink point) keeps the step h.  x and the forward
    points are one ``eval_f_batch`` call.
    """
    s = inst.subgrad(x)
    to_kink = float(np.min(np.abs(np.asarray(inst.hbar.breakpoints) - x[-1])))
    U = V / np.sqrt(row_dots(V, V))[:, None]
    dist = to_kink / np.abs(U[:, -1])
    steps = np.where(dist > 1e-9, np.minimum(h, dist / 2), h)
    f = inst.eval_f_batch(np.vstack([x, x + steps[:, None] * U]))
    worst = 0.0
    for u, step, fu in zip(U, steps, f[1:]):
        worst = max(worst, abs((fu - f[0]) / step - s.support(u)))
    return worst
