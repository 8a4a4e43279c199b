"""Local first-order oracle and a small algorithm zoo.

The oracle returns (value, minimal-norm subgradient) and nothing else.  An
algorithm's ``propose(t, x, response, draw)`` receives only the (R, d)
iterates of R independent runs, the oracle's responses there and the step's
draw: what its ``draw(rng, R, d)``, blind to the iterates, took for all rows
from the one seeded Generator the runs share.  Row r of a proposal depends
only on row r of the iterates, the responses and the draw, which keeps every
algorithm in the information model of the hard instances: no peeking at the
bit string, the cap vector, the minimizer, or another run's iterates or instance.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embed import row_dots


class OracleResponse(NamedTuple):
    value: float  # (R,) values and (R, d) subgradients in the lockstep loop
    subgrad: np.ndarray


def query(instance, x) -> OracleResponse:
    """Deterministic local oracle: value and minimal-norm subgradient at x (at each row, if stacked)."""
    v, g = instance.value_and_subgrad(np.asarray(x, dtype=float))
    return OracleResponse(float(v) if np.ndim(v) == 0 else v, np.asarray(g, dtype=float))


def pgd_step(x, g, eta: float, noise_scale: float, xi) -> np.ndarray:
    """One perturbed step per row of x: x - eta * g + noise_scale * xi, with xi a
    standard normal draw of x's shape (unused at noise_scale 0)."""
    step = x - eta * g
    if noise_scale > 0.0:
        step += noise_scale * xi
    return step


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


class SubgradientDescent:
    """x_{t+1} = x_t - (eta0 / sqrt(t)) g_t."""

    name = "sgd"

    def __init__(self, eta0: float = 0.1):
        if not 0.0 < eta0 < math.inf:
            raise ValueError(f"eta0 must be finite and positive, got {eta0!r}")
        self.eta0 = eta0

    def propose(self, t, x, response, draw):
        return x - (self.eta0 / np.sqrt(t)) * response.subgrad


class PerturbedGD(SubgradientDescent):
    """Subgradient step plus mean-zero Gaussian perturbation."""

    name = "pgd"

    def __init__(self, eta0: float = 0.1, noise_scale: float = 0.01):
        super().__init__(eta0)
        if not 0.0 <= noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and non-negative, got {noise_scale!r}")
        self.noise_scale = noise_scale

    def draw(self, rng, R, d):
        """One (R, d) standard normal block; nothing at noise_scale 0."""
        return rng.standard_normal((R, d)) if self.noise_scale > 0.0 else None

    def propose(self, t, x, response, draw):
        return pgd_step(x, response.subgrad, self.eta0 / np.sqrt(t), self.noise_scale, draw)


class RandomSearch:
    """Iterates drawn uniformly from the ball B(0, radius)."""

    name = "random"

    def __init__(self, radius: float = 1.0):
        if not 0.0 <= radius < math.inf:
            raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
        self.radius = radius

    def draw(self, rng, R, d):
        """(R, d) directions with their row norms, the zero rows redrawn, then R radii."""
        u = rng.standard_normal((R, d))
        n = np.sqrt(row_dots(u, u))  # each row's dot and sqrt, as np.linalg.norm takes them
        while not n.all():  # redraw the zero directions
            zero = n == 0.0
            u[zero] = rng.standard_normal((np.count_nonzero(zero), d))
            n[zero] = np.sqrt(row_dots(u[zero], u[zero]))
        # float_power calls libm pow as a float's ** does; np.power's SIMD loop can differ in the last bit
        return u, n, self.radius * np.float_power(rng.uniform(size=R), 1.0 / d)

    def propose(self, t, x, response, draw):
        u, n, r = draw
        return 0.0 + r[:, None] * u / n[:, None]  # the ball's center, which also turns -0.0 into 0.0


class GridSearch:
    """Row-major sweep of a lattice over [-1, 2]^d with the given resolution."""

    name = "grid"

    def __init__(self, resolution: float = 0.25):
        if not 0 < resolution < math.inf:  # NaN is not positive
            raise ValueError("resolution must be positive" if not resolution > 0 else
                             f"resolution must be finite, got {resolution!r}")
        self.resolution = resolution

    def propose(self, t, x, response, draw):
        d = x.shape[1]
        per_axis = int(np.floor(3.0 / self.resolution)) + 1
        idx = (t - 1) % per_axis**d
        coords = []
        for _ in range(d):
            coords.append(-1.0 + (idx % per_axis) * self.resolution)
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
    points: np.ndarray  # (T, d) iterates
    values: np.ndarray  # (T,) oracle values there
    subgrads: np.ndarray  # (T, d) minimal-norm subgradients there

    @property
    def T(self) -> int:
        return len(self.values)

    @property
    def subgrad_norms(self) -> np.ndarray:
        return np.sqrt(row_dots(self.subgrads, self.subgrads))  # each row's norm as np.linalg.norm takes it


DRAW_AHEAD = 4096  # numbers in one step's draw from which lockstep makes it on a worker thread


def _other_cpus() -> set:
    """The CPUs this process may run on but the calling thread's current one; empty where Linux's
    /proc/thread-self does not tell which one that is."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return os.sched_getaffinity(0) - {int(fh.read().rsplit(")", 1)[1].split()[36])}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


def ahead(items):
    """items' values in order.  Where another CPU is usable, a worker thread kept off the caller's CPU
    (the kernel may wake it there) takes each while the caller uses the one before; items is the
    worker's until this iterator is exhausted or closed, which joins it.  An error in items reaches the caller."""
    if not (cpus := _other_cpus()):
        yield from items
        return
    ready, stop, end = queue.Queue(1), threading.Event(), object()

    def work():
        with contextlib.suppress(OSError):
            os.sched_setaffinity(threading.get_native_id(), cpus)
        try:
            for item in items:
                ready.put(item)
                if stop.is_set():
                    return
            ready.put(end)
        except BaseException as exc:  # raised again where the caller asks for this value
            ready.put(exc)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        while (item := ready.get()) is not end:
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:  # exhausted or closed: let the one put that may be in flight finish, then join
        stop.set()
        if ready.full():
            ready.get()
        worker.join()


def _draws(algorithm, rng, R: int, d: int, n: int):
    """The algorithm's n >= 1 draws from rng in stream order, None where it draws nothing: the first
    inline, the others through ``ahead`` when the first is an (R, d) draw of DRAW_AHEAD numbers or more."""
    draw = getattr(algorithm, "draw", lambda rng, R, d: None)
    first = draw(rng, R, d)
    yield first
    rest = (draw(rng, R, d) for _ in range(n - 1))
    yield from rest if first is None or R * d < DRAW_AHEAD else ahead(rest)


def lockstep(algorithm, instance, X0, T: int, rng):
    """Drive R = len(X0) independent runs together, one row per run.

    Yields (t, X, values, G) for t = 0..T-1: the (R, d) iterates, their
    oracle values (R,) and minimal-norm subgradients (R, d), the last two
    fresh at each step; no history is kept.  Row r starts at X0[r], and one
    ``query`` per step answers all rows: row r on instance r of a stacked
    instance, or every row on one instance.  lockstep owns the
    Generator rng that the runs share while it runs: each proposal gets the
    algorithm's ``draw(rng, R, d)`` for all rows, which never sees the
    iterates, so a worker thread may make step t+1's draw during step t (see
    ``_draws``); one stream drawn in the same call order gives the same bytes.
    Row r's proposal reads row r of the iterates, the responses and the draw,
    never another row's.  A point the oracle rejects (a non-finite one) stops
    all runs with a ValueError naming its step t (t = 0 for X0) and its row.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    X = np.asarray(X0, dtype=float)
    R, d = X.shape
    with contextlib.closing(_draws(algorithm, rng, R, d, T - 1)) as draws:  # closing joins the worker
        for t in range(T):
            # an overflow ends in a non-finite point, which the oracle rejects below
            with np.errstate(over="ignore"):
                if t > 0:
                    X = np.asarray(algorithm.propose(t, X, response, next(draws)), dtype=float)
                try:
                    response = query(instance, X)  # the oracle's message names the row
                except ValueError as exc:
                    raise ValueError(f"run stopped at step t={t}: {exc}") from exc
            yield t, X, response.value, response.subgrad


def run(algorithm, instance, x0=None, T: int = 1, seed: int = 0) -> Trajectory:
    """Drive an algorithm for T oracle queries; replayable from the seed.

    One row of ``lockstep``, which a HardInstance answers by its scalar pass.  x0 defaults to the origin
    of the instance's space; a rejected point raises as in ``lockstep``.
    """
    if x0 is None:
        x0 = np.zeros(instance.d)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    shape = (max(T, 0), len(x0))  # lockstep refuses a T below 1 with its own message
    traj = Trajectory(np.empty(shape), np.empty(shape[0]), np.empty(shape))
    for t, X, values, G in lockstep(algorithm, instance, x0[None], T, np.random.default_rng(seed)):
        traj.points[t], traj.values[t], traj.subgrads[t] = X[0], values[0], G[0]
    return traj
