"""Nested open intervals generated by per-level affine contractions.

Level i carries two increasing affine maps of [0,1] into (0,1):

    child_map(i, 0):  x -> delta(i) * x + 1/2 - 2 delta(i)
    child_map(i, 1):  x -> delta(i) * x + 1/2 + delta(i)

A bit string b_1 b_2 ... b_k selects one map per level; ``interval`` composes
them and applies them to (0,1), which yields the depth-k open interval of that
prefix.  Prefixes of equal length are pairwise disjoint and every prefix
contains all of its extensions, giving a binary tree of exponentially
shrinking intervals whose width at depth k is prod_{j<=k} delta(j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .schedule import DEFAULT_SCHEDULE, AngleSchedule

Bits = Tuple[int, ...]
BitsLike = Union[str, Sequence[int], Iterable[int]]


def as_bits(bits: BitsLike) -> Bits:
    """Normalize "0110", [0,1,1,0], etc. to a tuple of 0/1 ints; an (R, N)
    array of R bit strings becomes an int array."""
    if isinstance(bits, np.ndarray) and bits.ndim == 2:
        bits = bits.astype(int)
        as_bits(np.sort(bits[(bits < 0) | (bits > 1)])[:1])  # raises on the smallest bad value
        return bits
    seq = [int(b) for b in bits]
    for b in seq:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
    return tuple(seq)


def bits_to_str(bits: BitsLike) -> str:
    return "".join(str(b) for b in as_bits(bits))


def random_bits(n: int, rng) -> Bits:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); endpoints are outside."""

    lo: float
    hi: float

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return (self.lo + self.hi) / 2


def interval(
    bits: BitsLike,
    sched: AngleSchedule = DEFAULT_SCHEDULE,
    base_level: int = 1,
) -> Interval:
    """Open interval selected by a bit prefix.

    The empty prefix gives (0,1).  ``base_level`` shifts the level indexing so sub-trees can be
    evaluated in the local frame of an ancestor, which keeps endpoint comparisons exact at depth
    (composition is applied outermost last, so no catastrophic cancellation occurs); one bit at
    ``base_level=i`` gives the level-i child map's image of [0, 1].
    """
    bits = as_bits(bits)
    sched.check_depth(len(bits))
    with sched.context():
        lo, hi = sched.one * 0, sched.one
        for j in range(len(bits) - 1, -1, -1):
            d = sched.delta(base_level + j)
            c = 0.5 + d if bits[j] else 0.5 - 2 * d  # 0.5 is exact, so mixed float/mpf arithmetic stays faithful
            lo, hi = d * lo + c, d * hi + c
    return Interval(lo, hi)


def locate(x, bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Deepest prefix of ``bits`` whose open interval strictly contains x.

    Returns 0 when x is not inside the depth-1 interval.  Boundary hits count
    as outside (the intervals are open), and by nesting the set of containing
    prefixes is always an initial run, so a single descent suffices.  The
    descent rescales to local coordinates level by level, which stays exact
    far beyond the absolute-endpoint depth cap.  x may be an array; given an
    (R, N) array of R bit strings, x is (R, M) and row r is located on string r.
    """
    return descend(x, bits, sched)[0]


def descend(x, bits: BitsLike, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Like locate, but also return the local coordinate at the stop depth.

    Each level is one comparison over the points still inside; the extended
    backend runs the same code on object arrays.  For stacked bits, one
    ``np.where`` per level picks each point's offset from its own string.
    """
    bits = as_bits(bits)
    stacked = isinstance(bits, np.ndarray)
    u = np.array(x, dtype=sched.dtype)
    if stacked and u.shape[:1] != bits.shape[:1]:
        raise ValueError(f"{len(bits)} bit strings need points of shape ({len(bits)}, M), got {u.shape}")
    depth = np.zeros(u.shape, dtype=int)
    flat_u, flat_depth = u.reshape(-1), depth.reshape(-1)
    live = np.arange(u.size)
    rows = np.repeat(np.arange(len(bits)), u.size // len(bits)) if stacked else None  # each point's string
    with sched.context(), np.errstate(invalid="ignore"):  # NaN is never inside
        for j in range(np.shape(bits)[-1]):
            if not live.size:
                break
            d = sched.delta(j + 1)
            lo = np.where(bits[rows, j], 0.5 + d, 0.5 - 2 * d) if stacked else (0.5 - 2 * d, 0.5 + d)[bits[j]]
            w = flat_u[live]
            inside = (lo < w) & (w < lo + d)
            live = live[inside]
            if stacked:
                lo, rows = lo[inside], rows[inside]
            flat_u[live] = (w[inside] - lo) / d
            flat_depth[live] = j + 1
    return (depth, u) if u.ndim else (int(depth), u.item())


def separation_depth(log2_inv_rho: float) -> int:
    """Depth k = floor(sqrt(log2(1/rho)) / 4), clamped to at least 1.

    For log2(1/rho) >= 16 the returned k satisfies 2k^2 + k + 4 < log2(1/rho),
    which is the margin that makes a depth-k miss imply distance > rho from
    the depth-(k+1) interval.  Smaller inputs are clamped and carry no such
    guarantee.
    """
    if not log2_inv_rho > 0:
        raise ValueError(f"log2(1/rho) must be positive, got {log2_inv_rho!r}")
    k = int(math.floor(math.sqrt(log2_inv_rho) / 4))
    return max(k, 1)


def separation_margins(bits: BitsLike, k: int, sched: AngleSchedule = DEFAULT_SCHEDULE):
    """Gaps between the depth-k and depth-(k+1) interval endpoints.

    Returns (inf_gap, sup_gap) where inf_gap = inf I_{b_1..b_{k+1}} -
    inf I_{b_1..b_k} and sup_gap is the mirror quantity.  Both are computed as
    a product times a level-(k+1) offset, avoiding endpoint subtraction.
    """
    bits = as_bits(bits)
    if len(bits) < k + 1:
        raise ValueError("need at least k+1 bits")
    with sched.context():
        child = interval(bits[k:k + 1], sched, base_level=k + 1)
        prod = sched.delta_product(k)
        return prod * child.lo, prod * (1 - child.hi)
