"""The lockstep loop against one-row runs, and the lockstep Monte-Carlo
experiments against the serial per-run loops they replaced.  The R rows share
one Generator; the one-row runs replay row r of each (R, ·) draw from it.
Draws of DRAW_AHEAD numbers or more are made on a worker thread one step
ahead: they must equal the inline draws, and the worker must end with the
loop however it ends.

Every configuration is fixed, so the tests are deterministic.
"""

import hashlib
import math
import os
import sys
import threading

import numpy as np
import pytest
from oracle_reference import (RowOf, reference_chain_concentration_check, reference_concentration_check,
                              reference_mc_hitting, row_run)

from nshard import oracles
from nshard.cli import main
from nshard.embed import build_h, build_instance
from nshard.hard1d import PiecewiseAffine1D, build_1d_instance
from nshard.oracles import DRAW_AHEAD, GridSearch, PerturbedGD, RandomSearch, SubgradientDescent, lockstep
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


BITS = np.array([[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 0], [0, 1, 1, 0]])
CAP_SEEDS = [2, 9, 5, 11, 2]


def _rows(d):
    """Five starts, the first at the origin."""
    X0 = np.linspace(-0.5, 1.5, 5 * d).reshape(5, d)
    X0[0] = 0.0
    return X0


def _stacks(d, rho=1e-3):
    """(stack, its rows' own instances) of the five strings of BITS: the 1D stack for d = 1, else a capped
    stack, its caps drawn from CAP_SEEDS, and the cap-free stack."""
    if d == 1:
        return [(build_1d_instance(BITS), [build_1d_instance(b) for b in BITS])]
    return [(build_instance(d, BITS, rho, seed=CAP_SEEDS), [build_instance(d, b, rho, seed=s) for b, s in
                                                            zip(BITS, CAP_SEEDS)]),
            (build_h(d, BITS), [build_h(d, b) for b in BITS])]


def assert_lockstep_rows_equal_one_row_runs(algorithm, stack, insts, X0, T):
    """Row r of lockstep on the stack equals the one-row run of insts[r] from X0[r]; returns the steps
    and the stack's Generator."""
    R, rng = len(X0), ZeroFirstDraw(SEED)
    steps = list(lockstep(algorithm(), stack, X0, T, rng))
    assert [t for t, _, _, _ in steps] == list(range(T))
    for r in range(R):
        traj = row_run(algorithm(), insts[r], X0[r], T, RowOf(ZeroFirstDraw(SEED), R, r))
        for t, X, values, G in steps:
            assert X[r].tobytes() == traj.points[t].tobytes(), (r, t)
            assert values[r:r + 1].tobytes() == traj.values[t:t + 1].tobytes(), (r, t)
            assert G[r].tobytes() == traj.subgrads[t].tobytes(), (r, t)
    return steps, rng


@pytest.mark.parametrize("d", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_lockstep_rows_equal_one_row_runs(name, d):
    # each stack on its own: a capped stack with two rows from the caps' anchor and axis, and a cap-free one
    T = 12
    for stack, insts in _stacks(d):
        X0 = _rows(d)
        if stack.d > 1 and stack.has_cap:
            X0[3], X0[4] = stack.x_star[3] - stack.w[3], stack.x_star[4]  # the anchor; x_star is inside the cone
        steps, rng = assert_lockstep_rows_equal_one_row_runs(ALGOS[name], stack, insts, X0, T)
        if stack.d > 1 and stack.has_cap:
            assert steps[0][2][4] < 1.0  # f < 1 only where the cap is on
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
    # repr: every key in order, every float to the bit and every flag a bool
    assert repr(mc_hitting(ALGOS[name](), **args)) == repr(reference_mc_hitting(ALGOS[name](), **args))


def test_mc_hitting_reference_configs_count_hits_and_depth():
    # the equality above would be weak if every count were zero
    T, k, N, log2_inv_rho, seed = HITTING[0]
    row = {r["check"]: r for r in reference_mc_hitting(ALGOS["pgd-noisy"](), T=T, k=k, N=N, n_runs=100, seed=seed,
                                                       log2_inv_rho=log2_inv_rho)}
    assert row["hit_within_rho"]["estimate"] > 0 and row[f"depth_ge_{k}"]["estimate"] > 0
    assert row["jump_ge_2"]["estimate"] > 0


@pytest.mark.parametrize("d", [2, 3, 12, 60])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_concentration_check_matches_serial_reference(name, d):
    # grid search runs in d dimensions; the others, at d = 2 and 3 without a chi-square draw, on the chain
    reference = reference_concentration_check if name == "grid" else reference_chain_concentration_check
    args = dict(d=d, T=8, n_runs=100, seed=d, algorithm=ALGOS[name](), N=4)
    got, got_max = concentration_check(**args)
    args["algorithm"] = ALGOS[name]()
    want, want_max = reference(**args)
    assert repr(got) == repr(want)
    assert abs(got_max - want_max) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 12])
def test_concentration_check_after_a_zero_draw_matches_serial_reference(monkeypatch, d):
    """The algorithm role's first normal draw is all zeros.  Up to d = 3 random search redraws every row, as its
    reference does; past it the chi-square part keeps each direction off zero, and nothing is redrawn."""
    made = []

    def generator(seed):  # the algorithm role is the second spawned SeedSequence
        made.append(ZeroFirstDraw(seed) if getattr(seed, "spawn_key", ())[-1:] == (1,) else default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", generator)
    T, args = 8, dict(d=d, n_runs=100, seed=d, N=4)
    got, got_max = concentration_check(T=T, algorithm=ALGOS["random"](), **args)
    assert made[1].normal_calls == (T if d <= 3 else T - 1)
    want, want_max = reference_chain_concentration_check(T=T, algorithm=ALGOS["random"](), **args)
    assert repr(got) == repr(want)
    assert abs(got_max - want_max) <= 1e-12


def test_concentration_check_queries_do_not_grow_with_d(monkeypatch):
    """sgd, pgd and random search query (R, 3) rows at any d; grid search queries (R, d).  A spy that sees
    another shape stops the check before the oracle runs; R is 4 at d = 10^6, so a (R, d) array stays 32 MB."""
    seen, query = [], oracles.query

    def spy(instance, X):
        seen.append(X.shape)
        assert X.shape == want, X.shape
        return query(instance, X)

    monkeypatch.setattr(oracles, "query", spy)
    T = 6
    chains = [(name, d, R, (R, 3)) for name in ("sgd", "pgd", "random") for d, R in ((200, 100), (10**6, 4))]
    for name, d, R, want in chains + [("grid", 200, 100, (100, 200))]:
        seen.clear()
        concentration_check(d=d, T=T, n_runs=R, seed=1, algorithm=ALGOS[name]())
        assert seen == [want] * T, (name, d)


class FullPath:
    """An algorithm of a class that ``concentration_check`` does not know, which it runs in d dimensions."""

    def __init__(self, algorithm):
        self.algorithm = algorithm

    def draw(self, rng, R, d):
        return self.algorithm.draw(rng, R, d)

    def propose(self, t, x, response, draw):
        return self.algorithm.propose(t, x, response, draw)


@pytest.mark.parametrize("d", [4, 10, 24])
@pytest.mark.parametrize("name,T", [("pgd", 50), ("random", 5)])
def test_chain_agrees_with_the_full_path_in_law(name, T, d):
    """A statistical check at fixed seeds: the chain's estimate and the one of d-dimensional runs through the loop
    that grid search takes, each from 2 000 runs, have overlapping 95 % Wilson intervals.  The estimates lie
    between 0.1 and 0.8, where each interval is about +-0.02 wide, so a bias of about 0.04 separates them."""
    algorithm = {"pgd": PerturbedGD, "random": RandomSearch}[name]
    chain, _ = concentration_check(d=d, T=T, n_runs=2000, seed=31 + d, algorithm=algorithm())
    full, _ = concentration_check(d=d, T=T, n_runs=2000, seed=71 + d, algorithm=FullPath(algorithm()))
    assert 0.1 < chain["estimate"] < 0.8 and 0.1 < full["estimate"] < 0.8
    assert chain["wilson_lo"] <= full["wilson_hi"] and full["wilson_lo"] <= chain["wilson_hi"], (chain, full)


def _stack(R, d):
    return build_h(d, np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1]] * (R // 4)))


@pytest.fixture
def any_cpu(monkeypatch):
    """On a machine with one CPU, let the worker share it with the caller, so
    that it starts there too."""
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(oracles, "_other_cpus", lambda: os.sched_getaffinity(0))


# sha256 of mc_report.csv and mc_report.jsonl at the montecarlo benchmark's
# configuration, recorded with every draw made inline, before draws of
# DRAW_AHEAD numbers moved to a worker thread.  The alignment row now comes
# from the chain's stream, whose (100, 3) draws stay inline; its estimate is 0
# at d = 200 on both streams, so the bytes did not change
MC_BENCH_GOLDEN = {
    "pgd": ("f0313d05c374d6b48a88177269f2beedf617df4eb15ab7ad816e3a4d0735d343",
            "0c7701cbf20ed6207ad270371edd1dc43eba9ea37669fa279569d48ac9270e21"),
    "random": ("93a961e2d259b169ce3c59f287dd0842be19705fdd952739f80954316b37244a",
               "6806e7927d54d022c8ffd4a99a11404f8e997040bc28313e482c76631d08abcd"),
}


@pytest.mark.parametrize("algo", sorted(MC_BENCH_GOLDEN))
def test_mc_at_the_benchmark_size_matches_golden_digest(tmp_path, algo):
    assert main(["mc", "--mode", "desk", "--k", "5", "--rho", "1e-4", "--T", "50", "--d", "200", "--runs", "100",
                 "--algo", algo, "--seed", "0", "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("mc_report.csv", "mc_report.jsonl"))
    assert digests == MC_BENCH_GOLDEN[algo]


def test_mc_at_the_benchmark_size_makes_one_lookup_per_query(monkeypatch, tmp_path):
    """The benchmark's `nshard mc` makes 2T stacked queries, T for hitting and T for concentration, and each
    makes one table lookup."""
    counts = {"query": 0, "lookup": 0}

    def counted(name, f):
        def spy(*args):
            counts[name] += 1
            return f(*args)
        return spy

    monkeypatch.setattr(oracles, "query", counted("query", oracles.query))
    monkeypatch.setattr(PiecewiseAffine1D, "value_and_subdiff_batch",
                        counted("lookup", PiecewiseAffine1D.value_and_subdiff_batch))
    T = 50
    assert main(["mc", "--mode", "desk", "--k", "5", "--rho", "1e-4", "--T", str(T), "--d", "200", "--runs", "100",
                 "--algo", "pgd", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert counts == {"query": 2 * T, "lookup": 2 * T}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_worker_keeps_off_the_callers_cpu():
    """The worker keeps to the CPUs the process may use but the one the caller
    was on when it started; the caller's own CPUs are left as they were."""
    cpus = os.sched_getaffinity(0)
    assert len(oracles._other_cpus()) == len(cpus) - 1 and oracles._other_cpus() < cpus
    R, d = 8, 1000
    for t, _, _, _ in lockstep(ALGOS["pgd"](), _stack(R, d), np.zeros((R, d)), 5, default_rng(SEED)):
        if t == 2:
            workers = [th for th in threading.enumerate() if th is not threading.current_thread()]
            assert len(workers) == 1 and os.sched_getaffinity(0) == cpus
            assert len(os.sched_getaffinity(workers[0].native_id)) == len(cpus) - 1


@pytest.mark.parametrize("name", ["pgd", "random"])
def test_draws_made_ahead_equal_inline_draws(monkeypatch, any_cpu, name):
    """Every iterate and the Generator's final state are the same whether the
    (R, d) draws are made on the worker or inline; random search's first
    draw is all zeros, so the worker makes its redraws too."""
    R, d, T = 20, 300, 9
    assert R * d >= DRAW_AHEAD
    X0 = np.linspace(-0.5, 1.5, R * d).reshape(R, d)

    def steps():
        rng = ZeroFirstDraw(SEED)
        seen = [(X.copy(), values.copy(), G.copy()) for _, X, values, G in
                lockstep(ALGOS[name](), _stack(R, d), X0, T, rng)]
        return seen, rng.gen.bit_generator.state, rng.normal_calls

    ahead = steps()
    monkeypatch.setattr(oracles, "DRAW_AHEAD", R * d + 1)
    inline = steps()
    assert ahead[1:] == inline[1:]
    for t, (got, want) in enumerate(zip(ahead[0], inline[0])):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), t


@pytest.mark.parametrize("d,ahead", [(10, False), (DRAW_AHEAD // 4 - 1, False), (DRAW_AHEAD // 4, True)])
def test_only_draws_of_draw_ahead_numbers_start_a_worker(any_cpu, d, ahead):
    """One worker at most, after the first draw, made inline; sgd, grid and
    pgd without noise draw nothing and start none."""
    before = threading.active_count()
    algos = dict(ALGOS, quiet=lambda: PerturbedGD(noise_scale=0.0))
    for name in sorted(algos):
        counts = [threading.active_count() for _ in lockstep(algos[name](), _stack(4, d), np.zeros((4, d)), 6,
                                                            default_rng(SEED))]
        draws = name not in ("sgd", "grid", "quiet")
        assert counts[:2] == [before] * 2 and max(counts) == before + (ahead and draws), name
        assert threading.active_count() == before


def _finishes(fn, timeout=60.0):
    """fn() on a thread of its own: fails if it is still running after timeout
    seconds, else returns fn's result or raises its error."""
    out = []

    def target():
        try:
            out.append((fn(), None))
        except BaseException as exc:  # handed to the test below
            out.append((None, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the lockstep loop hangs"
    result, exc = out[0]
    if exc is not None:
        raise exc
    return result


class ProposesNaNWithNoise(PerturbedGD):
    """pgd that proposes a NaN in row 2 at step 3."""

    def propose(self, t, x, response, draw):
        x = super().propose(t, x, response, draw)
        if t == 3:
            x[2, 0] = np.nan
        return x


def test_worker_ends_with_a_loop_that_ends_early(any_cpu):
    R, d = 8, 1000
    stack, X0 = _stack(R, d), np.zeros((R, d))

    def leave_early():
        before, cpus = threading.active_count(), os.sched_getaffinity(0)
        for t, _, _, _ in lockstep(ALGOS["pgd"](), stack, X0, 20, default_rng(SEED)):
            if t == 2:
                assert threading.active_count() == before + 1
                break
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus
        steps = lockstep(ALGOS["random"](), stack, X0, 20, default_rng(SEED))
        for _ in range(3):
            next(steps)
        assert threading.active_count() == before + 1
        steps.close()
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus
        with pytest.raises(ValueError, match=r"^run stopped at step t=3: row 2: oracle query at a non-finite point"):
            for _ in lockstep(ProposesNaNWithNoise(), stack, X0, 20, default_rng(SEED)):
                pass
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus

    _finishes(leave_early)


class FailingDraw:
    """A Generator whose third ``standard_normal`` call raises."""

    def __init__(self):
        self.gen, self.calls = default_rng(SEED), 0

    def standard_normal(self, size):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("draw failed")
        return self.gen.standard_normal(size)


@pytest.mark.parametrize("d", [4, 1000])
def test_an_error_in_a_draw_reaches_the_caller(any_cpu, d):
    """The draw for step 3 raises, inline or on the worker: the caller gets
    the error after step 2, the loop does not hang and no worker is left."""
    R = 8
    stack = _stack(R, d)

    def consume():
        before, cpus, seen = threading.active_count(), os.sched_getaffinity(0), []
        with pytest.raises(RuntimeError, match="^draw failed$"):
            for t, _, _, _ in lockstep(ALGOS["pgd"](), stack, np.zeros((R, d)), 20, FailingDraw()):
                seen.append(t)
        assert seen == [0, 1, 2]
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus

    _finishes(consume)


def test_concurrent_loops_drawing_ahead_keep_their_bytes(any_cpu):
    """Three loops at once, each with its own worker (six threads on fewer
    cores) and a switch interval of 10 us: every loop's iterates and final
    Generator state equal the inline ones."""
    R, d, T = 8, 600, 30
    stack = _stack(R, d)

    def final(seed):
        rng = default_rng(seed)
        X = [X.copy() for _, X, _, _ in lockstep(ALGOS["random"](), stack, np.zeros((R, d)), T, rng)][-1]
        return X.tobytes(), rng.bit_generator.state

    want = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "DRAW_AHEAD", R * d + 1)
        for seed in range(3):
            want[seed] = final(seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = {}

        def run_all():
            loops = [threading.Thread(target=lambda s=seed: got.__setitem__(s, final(s))) for seed in range(3)]
            for loop in loops:
                loop.start()
            for loop in loops:
                loop.join()

        _finishes(run_all)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
