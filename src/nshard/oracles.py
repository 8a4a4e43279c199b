"""Local first-order oracle and a small algorithm zoo.

The oracle returns (value, minimal-norm subgradient) and nothing else.  An
algorithm's ``propose(t, x, response, rngs)`` receives only the (R, d)
current iterates of R independent runs, the oracle's responses there and one
seeded random stream per run, and row r of its proposal depends only on row r
of these and on rngs[r].  This keeps every algorithm in the information model
under which the hard instances are constructed: no peeking at the bit string,
the cap vector, or the minimizer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np


class OracleResponse(NamedTuple):
    value: float  # (R,) values and (R, d) subgradients in the lockstep loop
    subgrad: np.ndarray


def query(instance, x) -> OracleResponse:
    """Deterministic local oracle: value and minimal-norm subgradient at x (at each row, if stacked)."""
    v, g = instance.value_and_subgrad(np.asarray(x, dtype=float))
    return OracleResponse(float(v) if np.ndim(v) == 0 else v, np.asarray(g, dtype=float))


class Streams(list):
    """The R Generators of a lockstep loop, streams[r] run r's, that also serve
    pgd's noise: ``normals(d)`` is the next (R, d) step of N(0, 1) draws, row r
    from streams[r].  A refill draws up to BLOCK_BYTES per run (5 steps at
    d = 200, independent of R) into one reused buffer, but at most ``steps``
    steps in all (then one at a time), so no stream draws ahead of its run."""

    BLOCK_BYTES = 8192

    def __init__(self, rngs, steps: int = 0):
        super().__init__(rngs)
        self.left, self.buf, self.next, self.filled = steps, None, 0, 0

    def normals(self, d: int) -> np.ndarray:
        """The next (R, d) step, a view of the buffer valid until the next call."""
        if self.buf is None:
            self.buf = np.empty((len(self), min(max(1, self.BLOCK_BYTES // (8 * d)), max(1, self.left)), d))
        if self.next == self.filled:
            self.next, self.filled = 0, min(self.buf.shape[1], max(1, self.left))
            self.left -= self.filled
            for rng, out in zip(self, self.buf):
                rng.standard_normal(out=out[: self.filled])
        self.next += 1
        return self.buf[:, self.next - 1]


def pgd_step(x, g, eta: float, noise_scale: float, rngs) -> np.ndarray:
    """One perturbed step per row of x: x - eta * g + xi, with xi the next
    step of ``Streams.normals`` (rngs may be a plain list of Generators)."""
    step = x - eta * g
    if noise_scale > 0.0:
        streams = rngs if isinstance(rngs, Streams) else Streams(rngs)
        step = step + noise_scale * streams.normals(step.shape[1])
    return step


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


class SubgradientDescent:
    """x_{t+1} = x_t - (eta0 / sqrt(t)) g_t."""

    name = "sgd"

    def __init__(self, eta0: float = 0.1):
        self.eta0 = eta0

    def propose(self, t, x, response, rngs):
        return x - (self.eta0 / np.sqrt(t)) * response.subgrad


class PerturbedGD:
    """Subgradient step plus mean-zero Gaussian perturbation."""

    name = "pgd"

    def __init__(self, eta0: float = 0.1, noise_scale: float = 0.01):
        if not 0.0 <= noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and non-negative, got {noise_scale!r}")
        self.eta0 = eta0
        self.noise_scale = noise_scale

    def propose(self, t, x, response, rngs):
        return pgd_step(x, response.subgrad, self.eta0 / np.sqrt(t), self.noise_scale, rngs)


class RandomSearch:
    """Iterates drawn uniformly from the ball B(center, radius)."""

    name = "random"

    def __init__(self, radius: float = 1.0, center=None):
        if not 0.0 <= radius < math.inf:
            raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
        self.radius = radius
        self.center = center

    def propose(self, t, x, response, rngs):
        R, d = x.shape
        center = np.zeros(d) if self.center is None else np.asarray(self.center, dtype=float)
        u, n, r = np.empty_like(x), np.zeros(R), np.empty(R)
        for row, rng in enumerate(rngs):
            while n[row] == 0.0:  # redraw a zero direction
                rng.standard_normal(out=u[row])
                n[row] = math.sqrt(u[row].dot(u[row]))  # np.linalg.norm's dot and sqrt
            r[row] = self.radius * rng.uniform() ** (1.0 / d)
        return center + r[:, None] * u / n[:, None]


class GridSearch:
    """Row-major sweep of a lattice over [lo, hi]^d with the given resolution."""

    name = "grid"

    def __init__(self, resolution: float = 0.25, lo: float = -1.0, hi: float = 2.0):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.lo = lo
        self.hi = hi

    def propose(self, t, x, response, rngs):
        d = x.shape[1]
        per_axis = int(np.floor((self.hi - self.lo) / self.resolution)) + 1
        idx = (t - 1) % per_axis**d
        coords = []
        for _ in range(d):
            coords.append(self.lo + (idx % per_axis) * self.resolution)
            idx //= per_axis
        return np.broadcast_to(np.array(coords[::-1]), x.shape)


ALGORITHMS = {
    "sgd": SubgradientDescent,
    "pgd": PerturbedGD,
    "random": RandomSearch,
    "grid": GridSearch,
}


def make_algorithm(name: str, **params):
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    return ALGORITHMS[name](**params)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    algorithm: str
    seed: int
    points: np.ndarray  # (T, d)
    responses: List[OracleResponse]
    instance: object

    @property
    def T(self) -> int:
        return len(self.responses)

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.responses])

    @property
    def subgrad_norms(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(r.subgrad)) for r in self.responses])

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for t, (x, r) in enumerate(zip(self.points, self.responses), start=1):
                rec = {
                    "t": t,
                    "x": [float(v) for v in np.atleast_1d(x)],
                    "f": r.value,
                    "subgrad_norm": float(np.linalg.norm(r.subgrad)),
                }
                fh.write(json.dumps(rec) + "\n")

    def write_summary_csv(self, path, extra_columns: Optional[dict] = None) -> None:
        extra = extra_columns or {}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "f", "subgrad_norm"] + list(extra))
            for t in range(self.T):
                row = [t + 1, repr(self.responses[t].value), repr(float(np.linalg.norm(self.responses[t].subgrad)))]
                row += [repr(col[t]) if isinstance(col[t], float) else col[t] for col in extra.values()]
                w.writerow(row)


def lockstep(algorithm, instances, X0, T: int, rngs):
    """Drive R = len(X0) independent runs together, one row per run.

    Yields (t, X, values, G) for t = 0..T-1: the (R, d) iterates, their
    oracle values (R,) and minimal-norm subgradients (R, d), the last two
    fresh at each step; no history is kept.  Row r starts at X0[r], queries
    instance r and draws from rngs[r] only (R distinct Generators, passed on
    as ``Streams`` over the T - 1 proposals): one stacked instance answers
    all rows with one ``query`` per step, a list of R instances row by row.
    A point the oracle rejects (a non-finite one) stops all runs with a
    ValueError naming its step t (t = 0 for X0) and its row.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ValueError("rows share a Generator; each run needs its own stream")
    rngs = Streams(rngs, T - 1)
    X = np.asarray(X0, dtype=float)
    R, d = X.shape
    stacked = not isinstance(instances, (list, tuple))
    for t in range(T):
        # an overflow ends in a non-finite point, which the oracle rejects below
        with np.errstate(over="ignore"):
            if t > 0:
                X = np.asarray(algorithm.propose(t, X, response, rngs), dtype=float)
            try:
                if stacked:  # the oracle's message names the row
                    response = query(instances, X)
                else:
                    response = OracleResponse(np.empty(R), np.empty((R, d)))
                    for r in range(R):
                        response.value[r], response.subgrad[r] = query(instances[r], X[r])
            except ValueError as exc:
                raise ValueError(f"run stopped at step t={t}: {'' if stacked else f'row {r}: '}{exc}") from exc
        yield t, X, response.value, response.subgrad


def run(algorithm, instance, x0=None, T: int = 1, seed: int = 0) -> Trajectory:
    """Drive an algorithm for T oracle queries; replayable from the seed.

    One row of ``lockstep``.  x0 defaults to the origin of the instance's
    space; a rejected point raises as in ``lockstep``.
    """
    if x0 is None:
        x0 = np.zeros(instance.d)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    points, responses = [], []
    for _, X, values, G in lockstep(algorithm, [instance], x0[None], T, [np.random.default_rng(seed)]):
        points.append(X[0])
        responses.append(OracleResponse(float(values[0]), G[0]))
    return Trajectory(
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        seed=seed,
        points=np.stack(points),
        responses=responses,
        instance=instance,
    )
