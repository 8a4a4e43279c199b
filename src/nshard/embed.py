"""d-dimensional hard instances with a smooth directional cap.

The embedded objective is

    h(x)   = (1/32) ||x_{1:d-1}|| + hbar(x_d),        hbar = half the 1D table
    f(x)   = max(h(x) - cap(gap(x - x_star)), 0)

where gap(y) = <w_unit, y + w> - ||y + w|| / 2 is positive only inside a cone
around the w direction anchored at x_star - w, and cap is a C^1 ramp that is
zero for nonpositive arguments, quadratic on (0, mu], and affine with slope
1/4 beyond.  The cap carves the global minimum region out of the cone while
leaving f equal to h everywhere the cone misses; w is orthogonal to the last
axis with ||w|| = 1000 mu, so the subdifferential keeps a certified minimum
norm (at least 1/50) wherever f is positive.

Subdifferentials are represented structurally: a smooth base vector, a slope
interval along the last axis (the valley kink), an optional radius-1/32 ball
in the leading coordinates (the norm kink at x_{1:d-1} = 0), and an optional
scaling segment to the origin (the max kink).  Minimal-norm elements and
support functions are exact for this structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .hard1d import PiecewiseAffine1D, build_hbar
from .intervals import Bits, BitsLike, as_bits, bits_to_str
from .schedule import DEFAULT_SCHEDULE, AngleSchedule

NORM_WEIGHT = 1.0 / 32.0
STATIONARITY_C = 1.0 / 100.0
MU_FLOOR = 1e-14  # below this the cap geometry drowns in binary64 rounding


# ---------------------------------------------------------------------------
# cap ramp
# ---------------------------------------------------------------------------


def cap_value(z, mu: float):
    """Ramp value: 0 for z<=0, z^2/(8 mu) on (0, mu], z/4 - mu/8 beyond."""
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0.0, 0.0, np.where(z <= mu, z * z / (8.0 * mu), z / 4.0 - mu / 8.0))
    return float(out) if out.ndim == 0 else out

def cap_slope(z, mu: float):
    """Ramp derivative: 0, z/(4 mu), then 1/4; continuous at 0 and mu."""
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0.0, 0.0, np.where(z <= mu, z / (4.0 * mu), 0.25))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# structured subdifferential
# ---------------------------------------------------------------------------


@dataclass
class SubgradientSet:
    """Clarke subdifferential at a point, as base + interval + ball structure.

    The set is { t * (base + lam e_d + u) } with lam in [ed_lo, ed_hi], u a
    vector of norm <= ball_radius supported on the first d-1 coordinates, and
    t in [0,1] when includes_zero else t = 1.  ``case`` records which branch
    of the pointwise analysis produced it.
    """

    case: str
    dim: int
    base: np.ndarray
    ed_lo: float
    ed_hi: float
    ball_radius: float = 0.0
    includes_zero: bool = False

    def min_norm(self) -> np.ndarray:
        """The unique minimal-norm element (exact for this structure)."""
        if self.includes_zero:
            return np.zeros(self.dim)
        g = np.array(self.base, dtype=float, copy=True)
        p = g[:-1]
        pn = float(np.linalg.norm(p))
        if self.ball_radius > 0.0:
            if pn <= self.ball_radius:
                g[:-1] = 0.0
            else:
                g[:-1] = p * (1.0 - self.ball_radius / pn)
        lam = min(max(-g[-1], self.ed_lo), self.ed_hi)
        g[-1] = g[-1] + lam
        return g

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


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def choose_w_mu(d: int, rho: float, seed=0) -> Tuple[np.ndarray, float]:
    """Draw the cap vector: ||w|| = rho/99, w_d = 0, direction uniform.

    mu is tied to the draw by ||w|| = 1000 mu, i.e. mu = rho / 99000.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    mu = rho / 99000.0
    if mu < MU_FLOOR:
        raise ValueError(
            f"rho={rho!r} gives mu={mu:.3e} below the binary64 floor {MU_FLOOR:.0e}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal(d - 1)
    n = np.linalg.norm(g)
    while n == 0.0:
        g = rng.standard_normal(d - 1)
        n = np.linalg.norm(g)
    w = np.zeros(d)
    w[:-1] = (rho / 99.0) * (g / n)
    return w, mu


@dataclass
class HardInstance:
    """Immutable d-dimensional instance; evaluation and subgradients are pure."""

    d: int
    bits: Bits
    hbar: PiecewiseAffine1D  # half-scaled table, minimum value exactly 1
    x_star: np.ndarray
    w: Optional[np.ndarray] = None
    mu: Optional[float] = None
    c: float = STATIONARITY_C
    seed: Optional[int] = None
    precision: str = "binary64"
    _w_unit: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def has_cap(self) -> bool:
        return self.w is not None

    @property
    def w_unit(self) -> np.ndarray:
        if self._w_unit is None:
            self._w_unit = self.w / np.linalg.norm(self.w)
        return self._w_unit

    # -- values ---------------------------------------------------------------

    def eval_h(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return NORM_WEIGHT * float(np.linalg.norm(x[:-1])) + float(self.hbar(float(x[-1])))

    def gap(self, y) -> float:
        """<w_unit, y + w> - ||y + w|| / 2 for y = x - x_star."""
        z = np.asarray(y, dtype=float) + self.w
        return float(self.w_unit @ z) - 0.5 * float(np.linalg.norm(z))

    def eval_f(self, x) -> float:
        return self._oracle(x)[0]

    def eval_h_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return NORM_WEIGHT * np.linalg.norm(X[:, :-1], axis=1) + self.hbar.eval_batch(X[:, -1])

    def eval_f_batch(self, X: np.ndarray) -> np.ndarray:
        h = self.eval_h_batch(X)
        if not self.has_cap:
            return h
        Z = np.asarray(X, dtype=float) - self.x_star + self.w
        nz = np.linalg.norm(Z, axis=1)
        q = Z @ self.w_unit - 0.5 * nz
        return np.maximum(h - cap_value(q, self.mu), 0.0)

    # -- subdifferential --------------------------------------------------------

    def subgrad(self, x) -> SubgradientSet:
        """Clarke subdifferential with its pointwise case label.

        Every point is classified; the cap contribution is a plain gradient
        (the ramp composition is continuously differentiable, including at
        the anchor x_star - w where its gradient vanishes).
        """
        x = np.asarray(x, dtype=float)
        d = self.d
        p = x[:-1]
        pn = float(np.linalg.norm(p))
        lo, hi = self.hbar.subdiff(float(x[-1]))
        lo, hi = float(lo), float(hi)

        base = np.zeros(d)
        ball = 0.0
        if pn > 0.0:
            base[:-1] = p / (32.0 * pn)
        else:
            ball = NORM_WEIGHT

        if not self.has_cap:
            return SubgradientSet("no_cap", d, base, lo, hi, ball)

        y = x - self.x_star
        z = y + self.w
        nz = float(np.linalg.norm(z))
        if nz > 0.0:
            q = float(self.w_unit @ z) - 0.5 * nz
            s = cap_slope(q, self.mu)
            base -= s * (self.w_unit - z / (2.0 * nz))
        else:
            q = 0.0  # ramp gradient vanishes at the anchor

        h = NORM_WEIGHT * pn + float(self.hbar(float(x[-1])))
        psi = h - cap_value(q, self.mu)
        if psi < 0.0:
            return SubgradientSet("zero_region", d, np.zeros(d), 0.0, 0.0, 0.0)
        if psi == 0.0:
            return SubgradientSet("max_boundary", d, base, lo, hi, ball, includes_zero=True)

        if not np.any(y):
            case = "at_minimizer"
        elif nz == 0.0:
            case = "at_cap_anchor"
        elif y[-1] != 0.0:
            case = "off_slice"
        else:
            align = float(self.w_unit @ z) / nz
            if align < 0.5:
                case = "slice_cap_off"
            elif align > 0.5 + self.mu / nz:
                case = "slice_cap_linear"
            elif nz <= 10.0 * self.mu:
                case = "slice_cap_band_near"
            else:
                case = "slice_cap_band_far"
        return SubgradientSet(case, d, base, lo, hi, ball)

    def min_subgrad(self, x) -> np.ndarray:
        return self._oracle(x)[1]

    def value_and_subgrad(self, x):
        """f(x) and the minimal-norm Clarke subgradient at x, in one pass.

        The leading norm, the table lookup and the cap gap are computed once
        each; the ramp is evaluated on plain floats.  The arithmetic is that
        of ``eval_h``, ``gap``, ``cap_value`` and ``subgrad(x).min_norm()``,
        in the same order, so both outputs are bit-identical to that
        composition.  Raises ValueError at a point whose last coordinate or
        leading norm is not finite (an overflowing norm included).
        """
        return self._oracle(x)

    def _oracle(self, x):
        """Body of value_and_subgrad; eval_f and min_subgrad call it directly so
        that they are not counted as oracle queries where value_and_subgrad is."""
        # contiguous, so that p.dot(p) takes the same BLAS path as np.linalg.norm
        x = np.ascontiguousarray(x, dtype=float)
        p = x[:-1]
        pn = math.sqrt(p.dot(p))
        xd = float(x[-1])
        if not (math.isfinite(pn) and math.isfinite(xd)):
            raise ValueError(f"oracle query at a non-finite point: x_d={xd!r}, ||x_(1:d-1)||={pn!r}")
        hv, lo, hi = self.hbar.value_and_subdiff(xd)
        h = NORM_WEIGHT * pn + float(hv)
        g = np.zeros(self.d)
        if pn > 0.0:
            g[:-1] = p / (32.0 * pn)
        if self.has_cap:
            z = (x - self.x_star) + self.w
            nz = math.sqrt(z.dot(z))
            cap = 0.0
            if nz > 0.0:  # at the anchor the ramp and its gradient vanish
                wu = self.w_unit
                q = float(wu.dot(z)) - 0.5 * nz
                mu = self.mu
                if q <= 0.0:
                    s = 0.0
                elif q <= mu:
                    cap, s = q * q / (8.0 * mu), q / (4.0 * mu)
                else:
                    cap, s = q / 4.0 - mu / 8.0, 0.25
                g -= s * (wu - z / (2.0 * nz))
            h -= cap
            if h <= 0.0:  # zero region or max boundary: 0 is a subgradient
                return 0.0, np.zeros(self.d)
        if pn == 0.0:  # norm kink: project the leading part onto the 1/32 ball
            gp = g[:-1]
            gn = math.sqrt(gp.dot(gp))
            g[:-1] = 0.0 if gn <= NORM_WEIGHT else gp * (1.0 - NORM_WEIGHT / gn)
        gd = float(g[-1])
        g[-1] = gd + min(max(-gd, float(lo)), float(hi))
        return h, g

    def min_subgrad_norm_batch(self, X: np.ndarray) -> np.ndarray:
        """Norms of the minimal-norm subgradients, vectorized.

        Degenerate rows (on the last axis, at the cap anchor, or in the zero
        region) fall back to the exact per-point path.
        """
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        P = X[:, :-1]
        pn = np.linalg.norm(P, axis=1)
        lo, hi = self.hbar.subdiff_batch(X[:, -1])

        slow = pn == 0.0
        safe_pn = np.where(slow, 1.0, pn)
        base_perp = P / (32.0 * safe_pn[:, None])
        base_d = np.zeros(n)
        psi = NORM_WEIGHT * pn + self.hbar.eval_batch(X[:, -1])
        if self.has_cap:
            Z = X - self.x_star + self.w
            nz = np.linalg.norm(Z, axis=1)
            slow |= nz == 0.0
            safe_nz = np.where(nz == 0.0, 1.0, nz)
            q = Z @ self.w_unit - 0.5 * nz
            s = cap_slope(q, self.mu)
            capg = -s[:, None] * (self.w_unit[None, :] - Z / (2.0 * safe_nz[:, None]))
            base_perp = base_perp + capg[:, :-1]
            base_d = capg[:, -1]
            psi = psi - cap_value(q, self.mu)

        lam = np.clip(-base_d, lo, hi)
        ed = base_d + lam
        out = np.sqrt(np.einsum("ij,ij->i", base_perp, base_perp) + ed * ed)
        out[psi <= 0.0] = 0.0
        for i in np.flatnonzero(slow):
            out[i] = float(np.linalg.norm(self.min_subgrad(X[i])))
        return out


def build_h(d: int, bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE) -> HardInstance:
    """Cap-free instance: f = h = (1/32)||x_{1:d-1}|| + hbar(x_d)."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    bits = as_bits(bits)
    pwa, x_mid = build_hbar(bits, sched)
    x_star = np.zeros(d)
    x_star[-1] = float(x_mid)
    return HardInstance(
        d=d,
        bits=bits,
        hbar=pwa.scale(0.5),
        x_star=x_star,
        precision=sched.backend,
    )


def build_instance(
    d: int,
    bits: BitsLike,
    rho: float,
    seed: int = 0,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> HardInstance:
    """Full capped instance; the cap vector is drawn from ``seed``."""
    inst = build_h(d, bits, sched)
    w, mu = choose_w_mu(d, rho, seed)
    return HardInstance(
        d=d,
        bits=inst.bits,
        hbar=inst.hbar,
        x_star=inst.x_star,
        w=w,
        mu=mu,
        seed=seed,
        precision=sched.backend,
    )


# ---------------------------------------------------------------------------
# flat key-value serialization
# ---------------------------------------------------------------------------


def save_instance(inst: HardInstance, path) -> None:
    """Write a flat key=value file that reconstructs the instance exactly.

    Floats are written with repr, which round-trips binary64 exactly.
    """
    lines = [
        "format = nshard-instance-v1",
        f"d = {inst.d}",
        f"bits = {bits_to_str(inst.bits)}",
        f"precision = {inst.precision}",
        f"seed = {inst.seed if inst.seed is not None else 'none'}",
        f"c = {inst.c!r}",
        f"mu = {inst.mu!r}" if inst.mu is not None else "mu = none",
        "w = " + (" ".join(repr(float(v)) for v in inst.w) if inst.w is not None else "none"),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path, sched: Optional[AngleSchedule] = None) -> HardInstance:
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
    if kv.get("format") != "nshard-instance-v1":
        raise ValueError(f"unrecognized instance file format {kv.get('format')!r}")
    d = int(kv["d"])
    bits = as_bits(kv["bits"])
    precision = kv.get("precision", "binary64")
    if sched is None:
        sched = DEFAULT_SCHEDULE if precision == "binary64" else AngleSchedule("extended")
    inst = build_h(d, bits, sched)
    seed = None if kv.get("seed", "none") == "none" else int(kv["seed"])
    mu = None if kv.get("mu", "none") == "none" else float(kv["mu"])
    w = None
    if kv.get("w", "none") != "none":
        w = np.array([float(tok) for tok in kv["w"].split()])
        if w.shape != (d,):
            raise ValueError("w length does not match d")
    return HardInstance(
        d=d,
        bits=bits,
        hbar=inst.hbar,
        x_star=inst.x_star,
        w=w,
        mu=mu,
        c=float(kv.get("c", STATIONARITY_C)),
        seed=seed,
        precision=precision,
    )
