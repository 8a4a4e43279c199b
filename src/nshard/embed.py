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
norm (at least 1/50) wherever f is positive.  The axis w_unit and the offset
shift = w - x_star are derived once; x + shift is (x - x_star) + w bit for bit,
as x_star is 0 off the last axis, w is 0 on it and x_d - x_star_d is not -0.0.
As w is orthogonal to e_d, with pn = ||x_{1:d-1}|| and x_mid = x_star_d,
    gap(x - x_star) <= <w_unit, x> + ||w|| - max(|x_d - x_mid|, pn - ||w||) / 2 <= pn + ||w|| - |x_d - x_mid| / 2:
the row kernel skips the cap where the middle bound is negative, the scalar pass where |x_d - x_mid| >= 4 pn + 4 ||w||.

Each point is evaluated by one scalar pass up to the kinks; the oracle (value
and minimal-norm subgradient) and ``support``, the directional derivatives, are
views of it.  Stacks of rows go through one row kernel, in cache-sized blocks,
whose rows equal the scalar oracle's bit for bit; the value, subgradient-norm
and stacked oracle batches are views of it.  In both the cap adds no term where
its slope is 0.  ``support`` is the exact support function of the Clarke
subdifferential: a smooth gradient, a slope interval along the last axis (the
valley kink), an optional radius-1/32 ball in the leading coordinates (the norm
kink at x_{1:d-1} = 0), and an optional scaling segment to the origin (the max kink).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .hard1d import PiecewiseAffine1D, build_hbar, eq_fields, reject_rows
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
# instance construction
# ---------------------------------------------------------------------------


def choose_w_mu(d: int, rho: float, seed: int = 0) -> Tuple[np.ndarray, float]:
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
    rng = np.random.default_rng(seed)
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
    """Immutable d-dimensional instance; evaluation and subgradients are pure.

    Every query is a view of the scalar pass ``_pass`` (the oracle at a point and ``support``) or, for (R, d)
    queries but one row of one instance, the row kernel ``_kernel``.  A stack of R instances, with (R, N) ``bits``,
    answers row r as instance r from per-row fields: (R, d) ``x_star``, ``w``, ``w_unit`` and ``shift``; (R,)
    ``w_norm``, ``x_mid`` and ``cone_pad``.
    """

    d: int
    bits: Bits
    hbar: PiecewiseAffine1D  # half-scaled table, minimum value exactly 1
    x_star: np.ndarray
    w: Optional[np.ndarray] = None
    mu: Optional[float] = None
    seed: Optional[int] = None
    precision: str = "binary64"
    __eq__ = eq_fields

    def __post_init__(self):  # the cap's geometry, derived once; per row if stacked, by np.linalg.norm's ddot
        self.has_cap, one = self.w is not None, np.ndim(self.w) == 1
        self.w_norm = self.w_unit = self.shift = self.x_mid = self.cone_pad = None
        if self.has_cap:  # x + shift is (x - x_star) + w; off the cone, |x_d - x_mid| >= 4 pn + cone_pad
            self.w_norm = float(np.linalg.norm(self.w)) if one else np.sqrt(row_dots(self.w, self.w))
            self.w_unit = self.w / (self.w_norm if one else self.w_norm[:, None])
            self.shift, self.cone_pad = self.w - self.x_star, 4.0 * self.w_norm
            self.x_mid = float(self.x_star[-1]) if one else self.x_star[:, -1]

    # -- scalar pass and its views ----------------------------------------------

    def _pass(self, x):
        """One point up to the kinks: (pn, h, psi, g, lo, hi).

        pn = ||x_{1:d-1}||, psi = h - cap, g the gradient of the smooth parts and [lo, hi] the valley slopes.
        The leading gradient is x / (32 pn) with its last entry 0 (all 0 at pn = 0); the cap adds no term where
        its slope is 0, so outside the cap cone g is that alone, signed zeros included.  The cap's offset
        z = x + shift is (x - x_star) + w bit for bit, not formed where |x_d - x_mid| >= 4 pn + 4 ||w||, as there
        the gap is at most pn + ||w|| - |z_d| / 2 <= -||z|| / 5 < 0, even rounded.  Elsewhere ||z|| < 5 pn + 5 ||w||,
        so ||z||^2 < 2.5e307 cannot overflow where pn + ||w|| < 1e153.  Raises ValueError where x_d or pn is not finite.
        """
        # contiguous, so that p.dot(p) takes the same BLAS path as np.linalg.norm
        x = np.ascontiguousarray(x, dtype=float)
        p = x[:-1]
        pn = math.sqrt(p.dot(p))
        xd = float(x[-1])
        if not (math.isfinite(pn) and math.isfinite(xd)):
            raise ValueError(f"oracle query at a non-finite point: x_d={xd!r}, ||x_(1:d-1)||={pn!r}")
        hv, lo, hi = self.hbar.value_and_subdiff(xd)
        h = NORM_WEIGHT * pn + hv
        if pn > 0.0:  # the last entry is set before the division, which x_d then cannot overflow
            g = x.copy()
            g[-1] = 0.0
            g /= 32.0 * pn
        else:
            g = np.zeros(self.d)
        if not self.has_cap or abs(xd - self.x_mid) >= 4.0 * pn + self.cone_pad:
            return pn, h, h, g, lo, hi
        z = x + self.shift
        with np.errstate(over="ignore") if pn + self.w_norm >= 1e153 else contextlib.nullcontext():  # then q = -inf
            nz = math.sqrt(z.dot(z))
        q = float(self.w_unit.dot(z)) - 0.5 * nz if nz > 0.0 else 0.0  # the ramp vanishes at the anchor
        if q <= 0.0:
            return pn, h, h, g, lo, hi
        mu = self.mu
        cap, s = (q * q / (8.0 * mu), q / (4.0 * mu)) if q <= mu else (q / 4.0 - mu / 8.0, 0.25)
        if s > 0.0:  # q / (4 mu) may underflow
            g -= s * (self.w_unit - z / (2.0 * nz))
        return pn, h, h - cap, g, lo, hi

    def eval_f(self, x) -> float:
        return self._oracle(x)[0]

    def min_subgrad(self, x) -> np.ndarray:
        return self._oracle(x)[1]

    def value_and_subgrad(self, x):
        """f(x) and the minimal-norm Clarke subgradient at x.

        The minimal-norm element of the subdifferential (see ``support``), computed in place: zero
        where f = 0, else the leading part projected onto the 1/32 ball at
        the norm kink and the last component clipped by the valley interval.
        Raises ValueError at a non-finite point, as ``_pass`` does.
        """
        return self._oracle(x)

    def _oracle(self, x):
        """Body of value_and_subgrad; eval_f and min_subgrad call it directly so
        that they are not counted as oracle queries where value_and_subgrad is."""
        if np.ndim(x) == 2:
            X = np.ascontiguousarray(x, dtype=float)
            if len(X) == 1 and not self.hbar.stacked:  # one row of one instance is cheaper on the scalar pass
                try:
                    return tuple(np.asarray(a)[None] for a in self._oracle(X[0]))
                except ValueError as e:  # named as reject_rows names a row; pn is the same ddot
                    raise ValueError(f"row 0: {e}") from None
            pn, xd = np.sqrt(row_dots(X[:, :-1], X[:, :-1])), X[:, -1]
            reject_rows(np.isfinite(pn) & np.isfinite(xd), lambda r: "oracle query at a non-finite point: "
                        f"x_d={float(xd[r])!r}, ||x_(1:d-1)||={float(pn[r])!r}")
            return self._kernel(X, grad=True, pn=pn)
        pn, _, psi, g, lo, hi = self._pass(x)
        if psi <= 0.0:  # zero region or max boundary: 0 is a subgradient
            return 0.0, np.zeros(self.d)
        if pn == 0.0:  # norm kink: project the leading part onto the 1/32 ball
            gp = g[:-1]
            gn = math.sqrt(gp.dot(gp))
            g[:-1] = 0.0 if gn <= NORM_WEIGHT else gp * (1.0 - NORM_WEIGHT / gn)
        gd = float(g[-1])
        g[-1] = gd + min(max(-gd, lo), hi)
        return psi, g

    def support(self, x, U) -> np.ndarray:
        """f'(x; u) for each row u of the (n, d) array U, from one ``_pass``: the support function of the Clarke
        subdifferential, {0} where psi < 0, else g + [lo, hi] e_d, plus the leading 1/32 ball at the norm kink and,
        where psi = 0, the scaling to the origin (the cap's ramp is C^1: it adds a plain gradient).  Each row equals
        the scalar ``g @ u + max(lo u_d, hi u_d)``, ball and clip bit for bit: ``row_dots`` takes the same BLAS ddot
        as ``g @ u`` and ``np.linalg.norm``, and ``np.maximum`` keeps on a tie what ``max`` keeps."""
        pn, _, psi, g, lo, hi = self._pass(x)
        if psi < 0.0:
            return np.zeros(len(U))
        s = row_dots(U, g) + np.maximum(hi * U[:, -1], lo * U[:, -1])
        if pn == 0.0:
            s += NORM_WEIGHT * np.sqrt(row_dots(U[:, :-1], U[:, :-1]))
        return np.maximum(s, 0.0) if psi == 0.0 else s

    # -- row kernel and its views -------------------------------------------------

    BLOCK_BYTES = 256 * 1024  # rows go in blocks of about this many bytes, so temporaries stay in L2

    def _kernel(self, X, grad=False, pn=None):
        """``_oracle`` at each row of X (row r on instance r, from its rows of the cap fields, if stacked), bit for bit
        in both precisions, as both read the one binary64 table that ``build_hbar`` rounds.  As in ``_pass``, the cap
        adds no term where its slope is 0, and its offset is one addition, Z = X + shift.  The cap is computed only on
        the rows its cone may reach: as w is orthogonal to e_d, the gap q = <w_unit, z> - ||z|| / 2 is at most
        reach = <w_unit, x> + ||w|| - max(|x_d - x_mid|, pn - ||w||) / 2, one gemv per block (a stack's row_dots
        on its rows of w_unit).  Rounding moves reach and q by about (d + 4) u M
        each, u = 2^-53 and M = 1 + ||w|| + |x_d - x_mid| + pn, far below the margin (1e-9 + 1e-15 d) M; so where
        reach < -margin the rounded q is negative too, and the cap and its slope would be 0 bit for bit.  NaN and
        inf rows fail that test and take the full path.

        Returns (f, G): the values and, if ``grad``, the minimal-norm subgradients.  Norms and dot products are
        ``row_dots``; ``pn`` are the leading norms if the caller has them.  Non-finite rows are not rejected.
        """
        X = np.ascontiguousarray(X, dtype=float)
        R, d = X.shape
        hv, lo, hi = self.hbar.value_and_subdiff_batch(X[:, -1])
        f, G = np.empty(R), np.empty((R, d)) if grad else None
        step = max(1, self.BLOCK_BYTES // (8 * d))
        stacked, cap = self.hbar.stacked, (self.x_mid, self.w_norm, self.w_unit, self.shift)
        for a in range(0, R, step):
            rows = slice(a, a + step)
            Xb = X[rows]
            pnb = np.sqrt(row_dots(Xb[:, :-1], Xb[:, :-1])) if pn is None else pn[rows]
            psi = NORM_WEIGHT * pnb + hv[rows]
            if self.has_cap:
                x_mid, w_norm, w_unit, shift = [c[rows] for c in cap] if stacked else cap
                with np.errstate(over="ignore"):  # far out ||z|| and the ramp's unused branches overflow, as q < 0
                    off = np.abs(Xb[:, -1] - x_mid)
                    xw = row_dots(Xb, w_unit) if stacked else Xb @ w_unit  # one gemv per block on one instance
                    reach = xw + w_norm - 0.5 * np.maximum(off, pnb - w_norm)
                    near = np.flatnonzero(~(reach < -(1e-9 + 1e-15 * d) * (1.0 + w_norm + off + pnb)))
                    if len(near):  # the rows the cone may reach
                        w_unit, shift = (w_unit[near], shift[near]) if stacked else (w_unit, shift)
                        Z = Xb[near] + shift
                        nz = np.sqrt(row_dots(Z, Z))
                        ramp = nz > 0.0  # at the anchor the ramp and its gradient vanish
                        q = np.where(ramp, row_dots(Z, w_unit) - 0.5 * nz, 0.0)
                        psi[near] -= cap_value(q, self.mu)
                        slope = cap_slope(q, self.mu) if grad else None
            zero = psi <= 0.0
            nzero = np.count_nonzero(zero)
            f[rows] = np.where(zero, 0.0, psi) if nzero else psi
            if not grad:
                continue
            Gb = G[rows]
            flat = pnb == 0.0  # the norm kink (or a leading part whose squared norm underflows)
            kink = np.count_nonzero(flat)
            np.divide(Xb[:, :-1], (32.0 * (np.where(flat, 1.0, pnb) if kink else pnb))[:, None], out=Gb[:, :-1])
            if kink:
                Gb[flat, :-1] = 0.0
            if self.has_cap and len(near) and slope.any():  # Gb -= s * (w_unit - Z / (2 nz)) on the near rows
                np.divide(Z, (2.0 * np.where(ramp, nz, 1.0))[:, None], out=Z)
                np.subtract(w_unit, Z, out=Z)
                Z *= slope[:, None]
                Z[slope == 0.0] = 0.0
                Gb[:, -1] = 0.0  # set apart from the division, which x_d may overflow
                Gb[near] -= Z
                Gb[:, -1] += np.minimum(np.maximum(-Gb[:, -1], lo[rows]), hi[rows])
            else:  # the line above without a cap term, 0.0 + min(max(-0.0, lo), hi), as no slope is 0
                Gb[:, -1] = np.minimum(np.maximum(lo[rows], 0.0), hi[rows])
            if kink:  # project the leading part onto the 1/32 ball
                gp = Gb[flat, :-1]
                gn = np.sqrt(row_dots(gp, gp))
                Gb[flat, :-1] = np.where((gn <= NORM_WEIGHT)[:, None], 0.0,
                                         gp * (1.0 - NORM_WEIGHT / np.maximum(gn, NORM_WEIGHT))[:, None])
            if nzero:
                Gb[zero] = 0.0
        return f, G

    def eval_f_batch(self, X: np.ndarray) -> np.ndarray:
        """f at each row of X, equal to ``eval_f`` row by row."""
        return self._kernel(X)[0]

    def min_subgrad_norm_batch(self, X: np.ndarray):
        """(f, ||min_subgrad||) at each row of X, equal to ``eval_f`` and ``np.linalg.norm(min_subgrad)``
        row by row, also at the norm kink, the cap anchor and in the zero region."""
        f, G = self._kernel(X, grad=True)
        return f, np.sqrt(row_dots(G, G))


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with that row of B, or with B if it is one vector: ``np.vecdot``, whose
    float64 loop takes BLAS ddot per row as ``a.dot(b)`` and ``np.linalg.norm`` do for one row
    (``np.linalg.norm(axis=1)`` and ``einsum`` sum in another order)."""
    return np.vecdot(A, B)


def build_h(d: int, bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE) -> HardInstance:
    """Cap-free instance: f = h = (1/32)||x_{1:d-1}|| + hbar(x_d); (R, N) bits stack R of them."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    bits = as_bits(bits)
    pwa, x_mid = build_hbar(bits, sched)
    x_star = np.zeros(np.shape(x_mid) + (d,))
    x_star[..., -1] = x_mid
    return HardInstance(d=d, bits=bits, hbar=pwa.scale(0.5), x_star=x_star, precision=sched.backend)


def build_instance(
    d: int,
    bits: BitsLike,
    rho: float,
    seed: int = 0,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
) -> HardInstance:
    """Full capped instance; the cap vector is drawn from ``seed``.  (R, N) bits and a sequence of R seeds
    stack R of them: row r equals ``build_instance(d, bits[r], rho, seeds[r])``, its cap drawn from seeds[r]."""
    inst = build_h(d, bits, sched)
    if inst.hbar.stacked and np.shape(seed) != (len(inst.bits),):
        raise ValueError(f"{len(inst.bits)} rows of bits need a sequence of as many cap seeds, got {seed!r}")
    w, mu = zip(*(choose_w_mu(d, rho, s) for s in (seed if inst.hbar.stacked else [seed])))
    return replace(inst, w=np.array(w) if inst.hbar.stacked else w[0], mu=mu[0], seed=seed)


# ---------------------------------------------------------------------------
# flat key-value serialization
# ---------------------------------------------------------------------------


def save_instance(inst: HardInstance, path) -> None:
    """Write the instance as a flat key=value record, floats as round-tripping reprs.

    Nothing reads it back: ``config.json`` and the seed rebuild every instance.
    """
    lines = [
        "format = nshard-instance-v1",
        f"d = {inst.d}",
        f"bits = {bits_to_str(inst.bits)}",
        f"precision = {inst.precision}",
        f"seed = {inst.seed if inst.seed is not None else 'none'}",
        f"c = {STATIONARITY_C!r}",
        f"mu = {inst.mu!r}" if inst.mu is not None else "mu = none",
        "w = " + (" ".join(repr(float(v)) for v in inst.w) if inst.w is not None else "none"),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
