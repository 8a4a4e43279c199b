"""Random piecewise-affine hard functions on the line.

A bit string b of length N determines a convex, 1-Lipschitz, piecewise-affine
function r_b built from N nested levels.  Outside [0,1] it continues as the
tails 1-x (left) and x (right).  Inside, level i contributes a wedge: two
affine branches whose slopes are cotangents of the schedule angles, separated
by a gap over the child interval of bit b_i, where the next level is pasted in
after an affine rescale.  The deepest level ends in a symmetric V whose kink
x_mid is the unique minimizer.  Shifting by 2 - r_b(x_mid) gives the hard
function hbar with minimum value exactly 2.

Two redundant representations are kept deliberately: an explicit piece table
(breakpoints, values, slopes) for structural checks, and a recursive descent
evaluator that works in local coordinates and stays accurate at depth.  Tests
cross-validate them.  The module also writes every CSV and JSON-lines output.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .intervals import Bits, BitsLike, as_bits, descend, separation_depth
from .schedule import DEFAULT_SCHEDULE, AngleSchedule


# ---------------------------------------------------------------------------
# piece table
# ---------------------------------------------------------------------------


def eq_fields(self, other):
    """Dataclass equality that compares array fields with np.array_equal."""
    return type(other) is type(self) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare))


def reject_rows(ok, message):
    """Raise a ValueError naming the first row r where ``ok`` is False, with message(r)."""
    if not ok.all():
        raise ValueError(f"row {np.argmin(ok)}: {message(np.argmin(ok))}")


@dataclass
class PiecewiseAffine1D:
    """Continuous piecewise-affine function with affine tails.

    ``slopes`` has one more entry than ``breakpoints``: slopes[0] is the left
    tail, slopes[-1] the right tail, slopes[j] the piece between breakpoints
    j-1 and j.  ``values`` are the function values at the breakpoints.
    Breakpoints must be nondecreasing; at depths where nested widths fall
    under binary64 resolution, neighbors may collapse to equal floats and the
    table remains consistent (tied breakpoints carry near-identical values).
    A stacked table holds R tables, one per row of the (R, n) arrays
    ``breakpoints`` and ``slopes``, and one list of values shared by all.
    """

    breakpoints: list
    values: list
    slopes: list
    _np: Optional[tuple] = field(default=None, repr=False, compare=False)
    stacked: bool = field(init=False, repr=False, compare=False)
    __eq__ = eq_fields

    def __post_init__(self):
        self.stacked = isinstance(self.breakpoints, np.ndarray)
        bp = self.breakpoints
        nb, nv, ns = np.shape(bp)[-1], len(self.values), np.shape(self.slopes)[-1]
        if nb < 1 or nv != nb or ns != nb + 1:
            raise ValueError(f"inconsistent table sizes: {nb} breakpoints, {nv} values, {ns} slopes")
        if np.any(bp[:, 1:] < bp[:, :-1]) if self.stacked else any(b < a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be nondecreasing")

    # -- scalar evaluation ----------------------------------------------------

    def __call__(self, x):
        return self.value_and_subdiff(x)[0]

    def value_and_subdiff(self, x):
        """(value, lo, hi) at x from one table lookup: self(x) and the slope interval [lo, hi],
        a singleton inside a piece."""
        bp = self.breakpoints
        r = bisect.bisect_right(bp, x)
        a = r - 1 if r > 0 else 0
        return (self.values[a] + self.slopes[r] * (x - bp[a]),
                self.slopes[bisect.bisect_left(bp, x, 0, r)], self.slopes[r])

    # -- batch evaluation ------------------------------------------------------

    def _arrays(self):
        if self._np is None:
            self._np = (
                np.asarray(self.breakpoints, dtype=float),
                np.asarray(self.values, dtype=float),
                np.asarray(self.slopes, dtype=float),
            )
        return self._np

    def value_and_subdiff_batch(self, x: np.ndarray):
        """``value_and_subdiff`` at each entry of an array x, counting b <= x and b < x.  A stacked
        table looks up x[r] in table r.  On the binary64 tables of ``build_hbar`` it equals the
        scalar lookup in both precisions; an extended ``build_r`` table is read rounded.  b < x
        counts fewer than b <= x only where x sits on a breakpoint, so only there are ties counted."""
        if self.stacked:
            bp, s = self.breakpoints, self.slopes
            rows, r = np.arange(len(bp)), (bp <= x[:, None]).sum(axis=1)
            a = np.maximum(r - 1, 0)
            b, v = bp[rows, a], np.asarray(self.values)[a]
            on = b == x
            l = r.copy()
            l[on] -= (bp[on] == x[on, None]).sum(axis=1)
            return v + s[rows, r] * (x - b), s[rows, l], s[rows, r]
        b, v, s = self._arrays()
        r = np.searchsorted(b, x, side="right")
        a = np.maximum(r - 1, 0)
        on = b[a] == x
        l = r.copy()
        l[on] = np.searchsorted(b, x[on], side="left")
        return v[a] + s[r] * (x - b[a]), s[l], s[r]

    def eval_batch(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_subdiff_batch(np.asarray(x, dtype=float))[0]

    # -- structure -------------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self.slopes)

    def continuity_residuals(self):
        """Relative mismatch between stored values and slope-propagated ones."""
        out = []
        for k in range(1, len(self.breakpoints)):
            pred = self.values[k - 1] + self.slopes[k] * (self.breakpoints[k] - self.breakpoints[k - 1])
            denom = max(1.0, abs(float(self.values[k])))
            out.append(abs(float(pred - self.values[k])) / denom)
        return out

    def scale(self, c) -> "PiecewiseAffine1D":
        slopes = self.slopes * c if self.stacked else [s * c for s in self.slopes]
        return PiecewiseAffine1D(self.breakpoints.copy(), [v * c for v in self.values], slopes)


# ---------------------------------------------------------------------------
# wedge profiles and value lifts
# ---------------------------------------------------------------------------


def wedge_value(i: int, bit: int, u, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Level-i wedge profile at local coordinate u.

    Defined on [0,1] minus the open child gap; equals 1 at both ends of [0,1]
    and epsilon(i) at both edges of the gap.  The bit-0 wedge is the mirror
    image of the bit-1 wedge.  u may be an array.
    """
    d = sched.delta(i)
    e = sched.epsilon(i)
    if bit == 0:
        u = 1 - u
    return np.where(u <= 0.5 + d, -(1 - e) / (0.5 + d) * u + 1,
                    (1 - e) / (0.5 - 2 * d) * u + (-0.5 - 2 * d + e) / (0.5 - 2 * d))[()]


def lift_value(i: int, v, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Map a level-(i+1) value into the level-i scale: v -> delta(i)(v-1)+epsilon(i)."""
    return sched.delta(i) * (v - 1) + sched.epsilon(i)


# ---------------------------------------------------------------------------
# builders and evaluators
# ---------------------------------------------------------------------------


def build_r(bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE) -> PiecewiseAffine1D:
    """Explicit piece table of r_b for a bit string b of length N >= 1.

    The table has 2N+3 breakpoints and 2N+4 pieces including both tails.
    Piece slopes are the wedge branch slopes (so +-cot of schedule angles);
    breakpoint values are the lift-chain images of 1, shared by the two
    endpoints of each nested interval.

    An (R, N) bit array gives the stacked table of its R rows.  All prefix
    intervals are swept at once: for j = N-1 down to 0 the level-(j+1) map of
    bit j moves the prefixes longer than j, as ``interval`` composes them.
    """
    bits = as_bits(bits)
    B = np.atleast_2d(bits)
    R, N = B.shape
    if N < 1:
        raise ValueError("need at least one bit")
    sched.check_depth(N)
    one = sched.one
    edge = np.full((R, 1), one, dtype=sched.dtype)

    with sched.context():
        # lift chain A_i(x) = a_i x + c_i, accumulated level by level
        a, c = one, one * 0
        level_values = [one]  # A_i(1) for i = 0..N
        for i in range(1, N + 1):
            d, e = sched.delta(i), sched.epsilon(i)
            c = a * (e - d) + c
            a = a * d
            level_values.append(a + c)

        deltas = [sched.delta(j) for j in range(1, N + 1)]
        shift = np.where(B.T, [[0.5 + d] for d in deltas], [[0.5 - 2 * d] for d in deltas])
        ends = np.empty((N, 2, R), dtype=edge.dtype)  # ends[i-1] = (lo, hi) of the prefixes of length i
        ends[:, 0], ends[:, 1] = one * 0, one
        for j in range(N - 1, -1, -1):
            ends[j:] = deltas[j] * ends[j:] + shift[j]
        lo, hi = ends.transpose(1, 2, 0)
        cot = sched.cot_base(N + 1)
        r_min = level_values[N] - cot * a / 2  # a = prod of deltas
        cots = np.array([sched.cot_base(i) for i in range(1, N + 2)], dtype=edge.dtype)

        breakpoints = np.concatenate([edge * 0, lo, (lo[:, -1:] + hi[:, -1:]) / 2, hi[:, ::-1], edge], axis=1)
        values = [one] + level_values[1:] + [r_min] + level_values[1:][::-1] + [one]
        # the level-(i+1) wedge branches: (-cot(i+2), cot(i+1)) for bit 1, (-cot(i+1), cot(i+2)) for bit 0
        slopes = np.concatenate([-edge, -np.where(B, cots[1:], cots[:-1]), -cot * edge, cot * edge,
                                 np.where(B, cots[:-1], cots[1:])[:, ::-1], edge], axis=1)
    if isinstance(bits, tuple):
        return PiecewiseAffine1D(breakpoints[0].tolist(), values, slopes[0].tolist())
    return PiecewiseAffine1D(breakpoints, values, slopes)


def eval_r(bits: BitsLike, x, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Evaluate r_b by recursive prefix descent at a scalar or an array x.

    Maintains the local coordinate level by level and lifts the wedge value
    back out, so precision does not degrade with depth the way the absolute
    piece table does near the deepest breakpoints.  Rows stopped at depth k
    take the level-(k+1) wedge (or the final V), then the lifts k..1.
    """
    bits = as_bits(bits)
    N = len(bits)
    x = np.array(x, dtype=sched.dtype)
    with np.errstate(invalid="ignore"):  # NaN compares False in object arrays too
        left = x < 0
        inner = ~(left | (x > 1))
        depth, u = descend(x[inner], bits, sched)
        v = np.empty_like(u)
        top = int(depth.max(initial=0))
        with sched.context():
            for k in range(top + 1):
                at = depth == k
                if k < N:
                    v[at] = wedge_value(k + 1, bits[k], u[at], sched)
                else:
                    cot, w = sched.cot_base(N + 1), u[at]
                    v[at] = np.where(w <= 0.5, 1 - cot * w, 1 - cot * (1 - w))
            for j in range(top, 0, -1):
                deep = depth >= j
                v[deep] = lift_value(j, v[deep], sched)
    out = np.where(left, 1 - x, x * 1).astype(x.dtype)
    out[inner] = v
    return out if out.ndim else out.item()


def build_hbar(bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE, r: Optional[PiecewiseAffine1D] = None):
    """Shifted table hbar = r_b + 2 - r_b(x_mid) and its minimizer, rounded once to binary64.

    Returns (table, x_star).  The shift is taken in the schedule's precision, so the minimum is
    exactly 2 at x_mid.  Every oracle reads this table: float lists, or arrays for stacked bits.
    r is ``build_r(bits, sched)`` where the caller has built it already.
    """
    r = build_r(bits, sched) if r is None else r
    mid = len(r.values) // 2  # x_mid, breakpoint N+1 of 2N+3
    values = [float((v - r.values[mid]) + 2) for v in r.values]
    bp, slopes = (np.asarray(a, dtype=float) for a in (r.breakpoints, r.slopes))
    if not r.stacked:
        return PiecewiseAffine1D(bp.tolist(), values, slopes.tolist()), float(bp[mid])
    return PiecewiseAffine1D(bp, values, slopes), bp[:, mid]


# ---------------------------------------------------------------------------
# parameter schedules
# ---------------------------------------------------------------------------


class ScheduleParams(NamedTuple):
    log2_inv_rho: float
    k: int
    N: int


def schedule_params(
    T: Optional[int] = None,
    gamma: Optional[float] = None,
    mode: str = "theory",
    k: Optional[int] = None,
    rho: Optional[float] = None,
) -> ScheduleParams:
    """Resolve (log2(1/rho), k, N) for an experiment.

    theory mode: log2(1/rho) = 256 T^2 / gamma^2 held in log space (rho itself
    is astronomically small and never materialized), k = floor(sqrt(log2)/4)
    clamped to >= 1, N = k + 1.

    desk mode: caller supplies k and a representable rho directly; they are
    passed through with N = k + 1.
    """
    if mode == "theory":
        if T is None or not isinstance(T, int) or T < 1:
            raise ValueError(f"T must be an integer >= 1, got {T!r}")
        if gamma is None or not (0 < gamma <= 1):
            raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
        log2_inv_rho = 256.0 * T * T / (gamma * gamma)
        kk = separation_depth(log2_inv_rho)
        return ScheduleParams(log2_inv_rho, kk, kk + 1)
    if mode == "desk":
        if k is None or not isinstance(k, int) or k < 1:
            raise ValueError(f"desk mode needs an integer k >= 1, got {k!r}")
        if rho is None or not (0 < rho < 1):
            raise ValueError(f"desk mode needs rho in (0, 1), got {rho!r}")
        return ScheduleParams(-float(np.log2(rho)), k, k + 1)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# one-dimensional oracle instance
# ---------------------------------------------------------------------------


@dataclass
class OneDimInstance:
    """A built 1D table exposed through the local first-order oracle protocol (R tables if stacked)."""

    pwa: PiecewiseAffine1D
    bits: Bits
    x_star: float
    __eq__ = eq_fields

    @property
    def d(self) -> int:
        return 1

    def value_and_subgrad(self, x):
        """Value and minimal-norm slope from one table lookup; rejects a non-finite x.
        An (R, 1) x is looked up row by row in one batch, row r in table r if stacked."""
        if np.asarray(x).ndim == 2:
            x = np.asarray(x, dtype=float)[:, 0]
            reject_rows(np.isfinite(x), lambda r: f"oracle query at a non-finite point x={float(x[r])!r}")
            v, lo, hi = self.pwa.value_and_subdiff_batch(x)
            return v, np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))[:, None]
        x0 = float(np.asarray(x, dtype=float).reshape(-1)[0])
        if not math.isfinite(x0):
            raise ValueError(f"oracle query at a non-finite point x={x0!r}")
        v, lo, hi = self.pwa.value_and_subdiff(x0)
        return v, np.array([lo if lo > 0 else hi if hi < 0 else 0.0])


def build_1d_instance(bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE) -> OneDimInstance:
    pwa, x_star = build_hbar(bits, sched)
    return OneDimInstance(pwa, as_bits(bits), x_star)


# ---------------------------------------------------------------------------
# output tables
# ---------------------------------------------------------------------------


def _cell(c):
    """A float (np.float64 included) as its round-tripping repr, a flag as 0 or 1, anything else as str."""
    if isinstance(c, (bool, np.bool_)):
        return int(c)
    return repr(float(c)) if isinstance(c, float) else str(c)


def write_table(path, header, rows) -> None:
    """A CSV file of header and rows, every cell by one rule (see ``_cell``)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(c) for c in row] for row in rows)


def write_records(path, records) -> None:
    """A JSON-lines file, one ``json.dumps`` of each record, keys in the record's order."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def write_profile_csv(path, pwa: PiecewiseAffine1D):
    """Value and slope interval of a table at 3001 points of [-1, 2], one CSV row each."""
    xs = np.linspace(-1.0, 2.0, 3001)
    write_table(path, ["x", "value", "lo_slope", "hi_slope"], zip(xs, *pwa.value_and_subdiff_batch(xs)))
