"""Local first-order oracle and a small algorithm zoo.

The oracle returns (value, minimal-norm subgradient) and nothing else, and
algorithms receive only their own past iterates, the past oracle responses,
and a seeded random stream.  This keeps every algorithm in the information
model under which the hard instances are constructed: no peeking at the bit
string, the cap vector, or the minimizer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np


class OracleResponse(NamedTuple):
    value: float
    subgrad: np.ndarray


def query(instance, x) -> OracleResponse:
    """Deterministic local oracle: value and minimal-norm subgradient at x."""
    v, g = instance.value_and_subgrad(np.asarray(x, dtype=float))
    return OracleResponse(float(v), np.asarray(g, dtype=float))


def pgd_step(x, g, eta: float, noise_scale: float, rng) -> np.ndarray:
    """One perturbed step: x - eta * g + xi with isotropic Gaussian xi."""
    x = np.asarray(x, dtype=float)
    step = x - eta * np.asarray(g, dtype=float)
    if noise_scale > 0.0:
        step = step + noise_scale * rng.standard_normal(x.shape)
    return step


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


class SubgradientDescent:
    """x_{t+1} = x_t - (eta0 / sqrt(t)) g_t."""

    name = "sgd"

    def __init__(self, eta0: float = 0.1):
        self.eta0 = eta0

    def propose(self, t, points, responses, rng):
        return points[-1] - (self.eta0 / np.sqrt(t)) * responses[-1].subgrad


class PerturbedGD:
    """Subgradient step plus mean-zero Gaussian perturbation."""

    name = "pgd"

    def __init__(self, eta0: float = 0.1, noise_scale: float = 0.01):
        self.eta0 = eta0
        self.noise_scale = noise_scale

    def propose(self, t, points, responses, rng):
        return pgd_step(points[-1], responses[-1].subgrad, self.eta0 / np.sqrt(t), self.noise_scale, rng)


class RandomSearch:
    """Iterates drawn uniformly from the ball B(center, radius)."""

    name = "random"

    def __init__(self, radius: float = 1.0, center=None):
        self.radius = radius
        self.center = center

    def propose(self, t, points, responses, rng):
        d = points[-1].shape[0]
        center = np.zeros(d) if self.center is None else np.asarray(self.center, dtype=float)
        u = rng.standard_normal(d)
        n = np.linalg.norm(u)
        while n == 0.0:
            u = rng.standard_normal(d)
            n = np.linalg.norm(u)
        r = self.radius * rng.uniform() ** (1.0 / d)
        return center + r * u / n

class GridSearch:
    """Row-major sweep of a lattice over [lo, hi]^d with the given resolution."""

    name = "grid"

    def __init__(self, resolution: float = 0.25, lo: float = -1.0, hi: float = 2.0):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.lo = lo
        self.hi = hi

    def propose(self, t, points, responses, rng):
        d = points[-1].shape[0]
        per_axis = int(np.floor((self.hi - self.lo) / self.resolution)) + 1
        idx = (t - 1) % per_axis**d
        coords = []
        for _ in range(d):
            coords.append(self.lo + (idx % per_axis) * self.resolution)
            idx //= per_axis
        return np.array(coords[::-1])


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


def run(algorithm, instance, x0=None, T: int = 1, seed: int = 0) -> Trajectory:
    """Drive an algorithm for T oracle queries; replayable from the seed.

    x0 defaults to the origin of the instance's space.  A point the oracle
    rejects (a non-finite one) stops the run with a ValueError naming the
    step t at which it was proposed (t = 0 for x0).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = np.zeros(instance.d)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    points, responses = [], []
    # an overflow ends in a non-finite point, which the oracle rejects below
    with np.errstate(over="ignore"):
        for t in range(T):
            if t > 0:
                x = np.atleast_1d(np.asarray(
                    algorithm.propose(t, points, responses, rng), dtype=float))
            points.append(x.copy())
            try:
                responses.append(query(instance, x))
            except ValueError as exc:
                raise ValueError(f"run stopped at step t={t}: {exc}") from exc
    return Trajectory(
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        seed=seed,
        points=np.stack(points),
        responses=responses,
        instance=instance,
    )
