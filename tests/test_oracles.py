import inspect
import json

import numpy as np
import pytest
from test_lockstep import ALGOS, SEED, _rows, _stacks, assert_lockstep_rows_equal_one_row_runs, default_rng

from nshard.embed import build_h, build_instance
from nshard.hard1d import build_1d_instance, write_records, write_table
from nshard.oracles import (
    ALGORITHMS,
    GridSearch,
    PerturbedGD,
    RandomSearch,
    SubgradientDescent,
    lockstep,
    make_algorithm,
    pgd_step,
    query,
    run,
)


class AbsValue:
    """Oracle for |x| in 1D with the minimal-norm selection at the kink."""

    d = 1

    def value_and_subgrad(self, x):
        x0 = float(np.asarray(x).reshape(-1)[0])
        return abs(x0), np.array([np.sign(x0)])


@pytest.fixture(scope="module")
def inst():
    return build_instance(4, "011", rho=1e-3, seed=2)


def test_query_deterministic(inst):
    x = np.array([0.1, -0.2, 0.3, 0.4])
    a = query(inst, x)
    b = query(inst, x)
    assert a.value == b.value
    assert np.array_equal(a.subgrad, b.subgrad)


def test_query_norm_bound(inst):
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x = rng.uniform(-3, 3, size=4)
        r = query(inst, x)
        assert np.linalg.norm(r.subgrad) <= 1.0 + 1e-12


def test_query_locality_against_cap_free_twin(inst):
    # where the cap cone strictly misses, the capped and cap-free oracles
    # must answer bit-identically
    twin = build_h(4, "011")
    rng = np.random.default_rng(1)
    tested = 0
    for _ in range(300):
        y = rng.uniform(-2, 2, size=4)
        z = y + inst.w
        if (inst.w_unit @ z) / np.linalg.norm(z) < 0.5 - 1e-6:
            x = inst.x_star + y
            a, b = query(inst, x), query(twin, x)
            assert a.value == b.value
            assert np.array_equal(a.subgrad, b.subgrad)
            tested += 1
    assert tested > 50


def test_pgd_step_identity():
    x = np.array([1.0, 2.0])
    g = np.array([3.0, -1.0])
    assert np.array_equal(pgd_step(x, g, 0.0, 0.0, None), x)


def test_pgd_step_descends_abs_value():
    fn = AbsValue()
    x = np.array([1.0])
    seen = []
    for _ in range(30):
        _, g = fn.value_and_subgrad(x)
        x = pgd_step(x, g, 0.1, 0.0, None)
        seen.append(float(x[0]))
    for t in range(9):
        assert seen[t] == pytest.approx(1.0 - 0.1 * (t + 1), abs=1e-12)
    for v in seen[10:]:
        assert abs(v) <= 0.1 + 1e-9  # oscillation band around the kink


def test_pgd_step_noise_is_mean_zero():
    x = np.array([0.5, -0.5])
    g = np.array([1.0, 1.0])
    s = 0.3
    rng = np.random.default_rng(7)
    # 10 000 rows perturbed by one (R, d) block of the one stream
    draws = pgd_step(np.tile(x, (10000, 1)), np.tile(g, (10000, 1)), 0.2, s, rng.standard_normal((10000, 2)))
    target = x - 0.2 * g
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * s / 100.0)


def test_run_single_step(inst):
    algo = SubgradientDescent()
    traj = run(algo, inst, np.zeros(4), 1, seed=3)
    assert traj.T == 1
    assert np.array_equal(traj.points[0], np.zeros(4))
    assert traj.values[0] == inst.eval_f(np.zeros(4))


def test_run_seed_replay_bit_identical(inst):
    for name in ("sgd", "pgd", "random", "grid"):
        algo = make_algorithm(name)
        a = run(algo, inst, np.zeros(4), 12, seed=9)
        b = run(make_algorithm(name), inst, np.zeros(4), 12, seed=9)
        assert np.array_equal(a.points, b.points)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.subgrads.tobytes() == b.subgrads.tobytes()


def test_run_rejects_bad_T(inst):
    with pytest.raises(ValueError):
        run(SubgradientDescent(), inst, np.zeros(4), 0)


def test_random_search_stays_in_ball(inst):
    algo = RandomSearch(radius=1.0)
    traj = run(algo, inst, np.zeros(4), 50, seed=5)
    norms = np.linalg.norm(traj.points, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_grid_search_lattice_1d():
    inst1 = build_1d_instance("01")
    algo = GridSearch(resolution=1.0)
    traj = run(algo, inst1, np.array([0.0]), 5, seed=0)
    assert [float(p[0]) for p in traj.points[1:]] == [-1.0, 0.0, 1.0, 2.0]


def test_grid_search_rejects_bad_resolution():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="resolution must be positive"):
            GridSearch(resolution=bad)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("algo", ["sgd", "pgd"])
def test_step_size_must_be_finite_and_positive(algo, value):
    with pytest.raises(ValueError, match="eta0 must be finite and positive"):
        make_algorithm(algo, eta0=value)


def test_grid_search_rejects_an_infinite_resolution():
    with pytest.raises(ValueError, match="^resolution must be finite, got inf$"):
        GridSearch(resolution=np.inf)


def test_make_algorithm_unknown():
    with pytest.raises(ValueError):
        make_algorithm("annealing")


def test_algorithms_structurally_local(inst):
    # the propose interface admits only the current iterates, the responses
    # there, and the step's draw, which sees only the one random stream the
    # rows share and the shape; algorithm objects hold no instance reference
    for cls in ALGORITHMS.values():
        params = list(inspect.signature(cls.propose).parameters)
        assert params == ["self", "t", "x", "response", "draw"]
        if hasattr(cls, "draw"):
            assert list(inspect.signature(cls.draw).parameters) == ["self", "rng", "R", "d"]
    for name in ALGORITHMS:
        algo = make_algorithm(name)
        run(algo, inst, np.zeros(4), 5, seed=1)
        for v in vars(algo).values():
            assert not hasattr(v, "value_and_subgrad")


def test_trajectory_writers(tmp_path, inst):
    traj = run(PerturbedGD(), inst, np.zeros(4), 8, seed=4)
    steps = range(1, traj.T + 1)
    records = [{"t": t, "x": x, "f": f} for t, x, f in zip(steps, traj.points.tolist(), traj.values.tolist())]
    jp = tmp_path / "traj.jsonl"
    write_records(jp, records)
    recs = [json.loads(line) for line in jp.read_text().splitlines()]
    assert len(recs) == 8
    assert recs[0]["t"] == 1
    assert recs[0]["x"] == [0.0, 0.0, 0.0, 0.0]
    assert recs[3]["f"] == traj.values[3]
    assert list(recs[3]) == ["t", "x", "f"]  # the record's own key order
    cp = tmp_path / "summary.csv"
    write_table(cp, ["t", "f", "subgrad_norm", "flag"], zip(steps, traj.values, traj.subgrad_norms, traj.values >= 1))
    lines = cp.read_text().splitlines()
    assert lines[0] == "t,f,subgrad_norm,flag"
    assert len(lines) == 9
    assert lines[4] == f"4,{float(traj.values[3])!r},{float(traj.subgrad_norms[3])!r},{int(traj.values[3] >= 1)}"
    # deterministic bytes
    jp2 = tmp_path / "traj2.jsonl"
    write_records(jp2, records)
    assert jp.read_bytes() == jp2.read_bytes()


def test_trajectory_values_and_norms(inst):
    traj = run(SubgradientDescent(), inst, np.zeros(4), 6, seed=8)
    assert traj.values.shape == (6,)
    assert traj.subgrads.shape == (6, 4)
    assert traj.subgrad_norms.shape == (6,)
    assert traj.values[0] == inst.eval_f(np.zeros(4))
    # the arrays stay consistent with re-querying the instance
    for t in (0, 2, 5):
        again = query(inst, traj.points[t])
        assert again.value == traj.values[t]
        assert np.array_equal(again.subgrad, traj.subgrads[t])
        assert traj.subgrad_norms[t] == np.linalg.norm(traj.subgrads[t])


def test_run_default_start_is_origin(inst):
    traj = run(SubgradientDescent(), inst, T=3, seed=1)
    assert np.array_equal(traj.points[0], np.zeros(4))


def test_run_on_1d_instance():
    inst1 = build_1d_instance("0101")
    traj = run(SubgradientDescent(), inst1, np.array([0.0]), 40, seed=6)
    assert traj.points.shape == (40, 1)
    # descent from 0 decreases the objective from hbar(0)
    assert traj.values.min() < traj.values[0]


class ProposesNaN:
    """Walks along the first axis and proposes a NaN in one row at step 3."""

    name = "nan"

    def __init__(self, row: int = 0):
        self.row = row

    def propose(self, t, x, response, rng):
        x = x + np.eye(x.shape[1])[0]
        if t == 3:
            x[self.row, 0] = np.nan
        return x


def test_run_names_the_step_of_a_non_finite_proposal(inst):
    with pytest.raises(ValueError, match=r"step t=3: .*non-finite"):
        run(ProposesNaN(), inst, T=6, seed=0)
    with pytest.raises(ValueError, match=r"step t=0: .*non-finite"):
        run(ProposesNaN(), inst, np.full(4, np.inf), T=2, seed=0)


def test_lockstep_names_the_step_and_row_of_a_non_finite_proposal(inst):
    steps = lockstep(ProposesNaN(row=2), inst, np.zeros((5, 4)), 6, default_rng(0))  # five rows on one instance
    seen = []
    with pytest.raises(ValueError, match=r"step t=3: row 2: .*non-finite"):
        for t, X, values, G in steps:
            seen.append(t)
            assert X.shape == G.shape == (5, 4) and values.shape == (5,)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("d", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_lockstep_on_a_stacked_instance_equals_the_row_loop(name, d):
    # row r of each stack against row r driven on its own; the capped stack at rho 0.25 starts rows 0, 2 and 4 at
    # their cap's anchor, where the ramp and its gradient vanish, and rows 1 and 3 1/8 of ||w|| out along its axis
    T = 12
    for stack, insts in _stacks(d, rho=0.25):
        X0 = _rows(d)
        if stack.d > 1 and stack.has_cap:
            X0 = stack.x_star - stack.w + np.array([0.0, 0.125, 0.0, 0.125, 0.0])[:, None] * stack.w
        assert_lockstep_rows_equal_one_row_runs(ALGOS[name], stack, insts, X0, T)


def test_stacked_capped_instance_needs_one_cap_seed_per_row():
    bits = np.array([[0, 1], [1, 0]])
    for seed in (3, [3], [3, 4, 5], [[3, 4]]):
        with pytest.raises(ValueError, match=r"^2 rows of bits need a sequence of as many cap seeds"):
            build_instance(4, bits, rho=1e-3, seed=seed)
    stack = build_instance(4, bits, rho=1e-3, seed=[3, 4])
    assert stack.w.tobytes() == np.array([build_instance(4, b, rho=1e-3, seed=s).w for b, s in
                                          zip(bits, [3, 4])]).tobytes()


def test_lockstep_on_a_stacked_instance_names_the_step_and_row_of_a_non_finite_proposal():
    stack = build_h(4, np.array([[0, 1], [1, 0], [1, 1], [0, 0], [0, 1]]))
    steps = lockstep(ProposesNaN(row=2), stack, np.zeros((5, 4)), 6, default_rng(0))
    with pytest.raises(ValueError, match=r"^run stopped at step t=3: row 2: oracle query at a non-finite point"):
        for _ in steps:
            pass


STREAM_CASES = [  # (T, d, noise_scale): the draws of T - 1 steps, one (R, d) block per step
    (1, 3, 0.1),  # no proposal, no draw
    (2, 3, 0.1),  # one step
    (13, 200, 0.1),
    (6, 1500, 0.1),
    (40, 1, 0.1),
    (9, 4, 0.0),  # no noise, no draw
]


@pytest.mark.parametrize("T,d,noise", STREAM_CASES)
def test_pgd_lockstep_draws_as_per_step_draws(T, d, noise):
    """Every proposal is x - eta g + noise xi, with xi that step's (R, d) draw
    from the one Generator, which ends where T - 1 such draws leave it."""
    R, eta = 4, 0.1
    bits = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1]])
    stack = build_1d_instance(bits) if d == 1 else build_h(d, bits)
    rng, ref = default_rng(SEED), default_rng(SEED)
    prev = None
    for t, X, values, G in lockstep(PerturbedGD(eta0=eta, noise_scale=noise), stack, np.zeros((R, d)), T, rng):
        if t > 0:
            want = prev[0] - (eta / np.sqrt(t)) * prev[1]
            if noise > 0:
                want = want + noise * ref.standard_normal((R, d))
            assert X.tobytes() == want.tobytes(), t
        prev = X, G.copy()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", ["pgd", "random"])
def test_lockstep_rows_never_see_another_rows_iterates(name):
    """Moving one row's start changes no other row's iterates: the rows share
    a Generator's draws, not their iterates, responses or instances."""
    d, T = 6, 10
    stack = build_h(d, np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1], [1, 0, 1]]))
    X0 = _rows(d)
    base = [X.copy() for _, X, _, _ in lockstep(ALGOS[name](), stack, X0, T, default_rng(SEED))]
    for r in range(len(X0)):
        moved = X0.copy()
        moved[r] += 0.25
        steps = [X.copy() for _, X, _, _ in lockstep(ALGOS[name](), stack, moved, T, default_rng(SEED))]
        if name == "pgd":  # row r's own iterates do move
            assert steps[-1][r].tobytes() != base[-1][r].tobytes()
        others = np.arange(len(X0)) != r
        for t, (X, want) in enumerate(zip(steps, base)):
            assert X[others].tobytes() == want[others].tobytes(), (r, t)


@pytest.mark.parametrize("algo,key,value", [
    ("pgd", "noise_scale", -0.5), ("pgd", "noise_scale", np.nan), ("pgd", "noise_scale", np.inf),
    ("random", "radius", -2.0), ("random", "radius", np.nan), ("random", "radius", -np.inf),
])
def test_algorithms_reject_negative_or_non_finite_scales(algo, key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite and non-negative"):
        make_algorithm(algo, **{key: value})
