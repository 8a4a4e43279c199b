"""The lockstep loop against one-row runs, and the lockstep Monte-Carlo
experiments against the serial per-run loops they replaced.  The R rows share
one Generator; the one-row runs replay row r of each (R, ·) draw from it.

Every configuration is fixed, so the tests are deterministic.
"""

import math

import numpy as np
import pytest
from oracle_reference import RowOf, reference_concentration_check, reference_mc_hitting, row_run

from nshard.embed import build_h, build_instance
from nshard.hard1d import build_1d_instance
from nshard.oracles import GridSearch, PerturbedGD, RandomSearch, SubgradientDescent, lockstep
from nshard.verify import concentration_check, mc_hitting

ALGOS = {
    "sgd": lambda: SubgradientDescent(eta0=0.3),
    "pgd": lambda: PerturbedGD(eta0=0.2, noise_scale=0.05),
    "pgd-noisy": lambda: PerturbedGD(eta0=0.1, noise_scale=0.5),
    "random": lambda: RandomSearch(radius=1.5),
    "grid": lambda: GridSearch(resolution=0.1),
}
SEED = 4242
default_rng = np.random.default_rng


class ZeroFirstDraw:
    """A Generator whose first ``standard_normal`` result is all zeros, so that
    RandomSearch must redraw every row; counts its ``standard_normal`` calls."""

    def __init__(self, seed):
        self.gen = default_rng(seed)
        self.normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        u = self.gen.standard_normal(*args, **kwargs)
        if self.normal_calls == 1:
            u[...] = 0.0
        return u

    def __getattr__(self, name):
        return getattr(self.gen, name)


def _rows(d):
    """Five runs, each on its own instance and from its own start."""
    if d == 1:
        insts = [build_1d_instance(b) for b in ("0110", "1", "10101", "001", "0110")]
    else:
        insts = [build_instance(d, "011", rho=1e-3, seed=2), build_h(d, "10"),
                 build_instance(d, "1101", rho=0.25, seed=5), build_h(d, "0"),
                 build_instance(d, "011", rho=1e-3, seed=2)]
    X0 = np.linspace(-0.5, 1.5, 5 * d).reshape(5, d)
    X0[0] = 0.0
    return insts, X0


@pytest.mark.parametrize("d", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_lockstep_rows_equal_one_row_runs(name, d):
    T = 12
    insts, X0 = _rows(d)
    rng = ZeroFirstDraw(SEED)
    steps = list(lockstep(ALGOS[name](), insts, X0, T, rng))
    assert [t for t, _, _, _ in steps] == list(range(T))
    for r in range(5):
        traj = row_run(ALGOS[name](), insts[r], X0[r], T, RowOf(ZeroFirstDraw(SEED), 5, r))
        for t, X, values, G in steps:
            assert X[r].tobytes() == traj.points[t].tobytes(), (r, t)
            assert values[r:r + 1].tobytes() == np.float64(traj.responses[t].value).tobytes(), (r, t)
            assert G[r].tobytes() == traj.responses[t].subgrad.tobytes(), (r, t)
    if name == "random":
        # the zero draw was redrawn: one extra call in the first proposal
        assert rng.normal_calls == T
    if name == "grid":
        assert all(np.all(X == X[0]) for t, X, _, _ in steps if t > 0)
    if name == "sgd":
        assert rng.normal_calls == 0


HITTING = [  # (T, k, N, log2(1/rho), seed)
    (10, 2, 5, -math.log2(0.05), 1),
    (30, 2, 4, -math.log2(1e-3), 3),
]


@pytest.mark.parametrize("cfg", HITTING)
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_mc_hitting_matches_serial_reference(name, cfg):
    T, k, N, log2_inv_rho, seed = cfg
    args = dict(T=T, k=k, N=N, n_runs=100, seed=seed, log2_inv_rho=log2_inv_rho)
    assert mc_hitting(ALGOS[name](), **args) == reference_mc_hitting(ALGOS[name](), **args)


def test_mc_hitting_reference_configs_count_hits_and_depth():
    # the equality above would be weak if every count were zero
    T, k, N, log2_inv_rho, seed = HITTING[0]
    rep = reference_mc_hitting(ALGOS["pgd-noisy"](), T=T, k=k, N=N, n_runs=100, seed=seed, log2_inv_rho=log2_inv_rho)
    assert rep.hit_freq > 0 and rep.deep_freq > 0 and rep.jump_stats[2]["freq"] > 0


@pytest.mark.parametrize("d", [2, 12, 60])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_concentration_check_matches_serial_reference(name, d):
    args = dict(d=d, T=8, n_runs=100, seed=d, algorithm=ALGOS[name](), N=4)
    got = concentration_check(**args)
    args["algorithm"] = ALGOS[name]()
    want = reference_concentration_check(**args)
    assert got.exceed_freq == want.exceed_freq
    assert got.wilson == want.wilson
    assert abs(got.max_alignment - want.max_alignment) <= 1e-12
    assert (got.d, got.T, got.n_runs, got.bound, got.vacuous) == (want.d, want.T, want.n_runs, want.bound,
                                                                 want.vacuous)
