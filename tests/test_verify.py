import json
import math

import numpy as np
import pytest
from oracle_reference import _reference_fd_gap, full_arc_flows, merged, reference_local_decrease_certificates

from nshard import cli, hard1d, verify
from nshard.embed import STATIONARITY_C, HardInstance, build_instance
from nshard.hard1d import build_1d_instance, build_r
from nshard.oracles import PerturbedGD, RandomSearch, run
from nshard.schedule import AngleSchedule
from nshard.verify import (
    SuiteParams,
    concentration_check,
    invariant_suite,
    local_decrease_certificate,
    mc_hitting,
    progress_process,
    subgradient_flow,
    wilson_interval,
)


class NormOracle:
    """||x|| with its radial gradient; 0 at the origin."""

    def value_and_subgrad(self, x):
        x = np.asarray(x, dtype=float)
        n = float(np.linalg.norm(x))
        return n, (x / n if n > 0 else np.zeros_like(x))


class FlatOracle:
    def value_and_subgrad(self, x):
        return 5.0, np.zeros_like(np.asarray(x, dtype=float))


def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(3.8415 / 103.8415, rel=1e-3)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo == pytest.approx(1.0 - wilson_interval(50, 100)[1], abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_progress_process_zero_outside():
    inst = build_1d_instance("0101")
    Z = progress_process(np.array([-0.5, 2.0, 0.5]), inst.bits)
    assert list(Z) == [0, 0, 0, 0]


def test_progress_process_reaches_full_depth_at_minimizer():
    inst = build_1d_instance("0101")
    Z = progress_process(np.array([0.0, inst.x_star]), inst.bits)
    assert Z[-1] == 4
    assert np.all(np.diff(Z) >= 0)


def test_progress_process_monotone_random():
    inst = build_1d_instance("010101")
    traj = run(RandomSearch(radius=1.0), inst, np.array([0.0]), 60, seed=1)
    Z = progress_process(traj.points[:, -1], inst.bits)
    assert np.all(np.diff(Z) >= 0)
    assert Z[0] == 0
    assert Z[-1] <= 6


def test_progress_process_embedded_instance_uses_last_axis():
    inst = build_instance(3, "01", rho=1e-3, seed=0)
    points = np.stack([np.zeros(3), inst.x_star])
    assert list(progress_process(points[:, -1], inst.bits)) == [0, 0, 2]


@pytest.mark.parametrize("sched", [AngleSchedule("binary64"), AngleSchedule("extended")], ids=lambda s: s.backend)
def test_stacked_progress_process_equals_one_run_calls(monkeypatch, sched):
    """Z of R runs at once equals R one-run calls, and is the Z that ``mc_hitting`` reads."""
    calls = []

    def spy(*args):
        calls.append((args, progress_process(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "progress_process", spy)
    mc_hitting(PerturbedGD(noise_scale=0.5), T=12, k=3, N=4, n_runs=100, seed=2, log2_inv_rho=20.0, sched=sched)
    [((x_last, bits, _), Z)] = calls
    assert x_last.shape == (100, 12) and Z.shape == (100, 13) and Z.any()
    for r in range(100):
        assert np.array_equal(Z[r], progress_process(x_last[r], bits[r], sched))


def test_mc_hitting_small():
    rows = mc_hitting(RandomSearch(radius=1.0), T=20, k=4, N=5, n_runs=200, seed=0, log2_inv_rho=-math.log2(1e-4))
    assert [r["check"] for r in rows] == ["hit_within_rho", "depth_ge_4"] + [f"jump_ge_{m}" for m in range(1, 7)]
    row = {r["check"]: r for r in rows}
    assert row["hit_within_rho"]["estimate"] <= 0.05
    assert row["depth_ge_4"]["estimate"] <= row["depth_ge_4"]["bound"] + 3 * 0.05
    for m in range(1, 7):  # wilson_lo = max(0, freq - 3 se), so this is freq <= bound + 3 se
        assert row[f"jump_ge_{m}"]["wilson_lo"] <= row[f"jump_ge_{m}"]["bound"]
    assert row["jump_ge_1"]["bound"] == 1.0


def test_mc_hitting_vacuous_flag():
    # 16 T / sqrt(256) = T: already vacuous at T = 1; 4T/k is vacuous for k <= 4, and then clamped to 1
    for k, depth_bound in ((3, 1.0), (4, 1.0), (5, 0.8)):
        row = {r["check"]: r for r in mc_hitting(RandomSearch(), T=1, k=k, N=5, n_runs=100, seed=1,
                                                 log2_inv_rho=256.0)}
        assert row["hit_within_rho"]["bound"] >= 1.0
        assert row["hit_within_rho"]["vacuous"] is True
        assert (row[f"depth_ge_{k}"]["bound"], row[f"depth_ge_{k}"]["vacuous"]) == (depth_bound, depth_bound == 1.0)


def test_mc_hitting_rejects_small_n():
    with pytest.raises(ValueError):
        mc_hitting(RandomSearch(), T=5, k=4, N=5, n_runs=10, log2_inv_rho=-math.log2(1e-4))


def test_concentration_monotone_in_dimension():
    rng = np.random.default_rng(0)
    freqs = []
    for d in (10, 50, 200):
        hits = 0
        for _ in range(2000):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            if u[0] >= 1.0 / 3.0:
                hits += 1
        freqs.append(hits / 2000)
    assert freqs[0] >= freqs[1] >= freqs[2]


def test_concentration_check_small():
    row, max_alignment = concentration_check(d=120, T=15, n_runs=100, seed=3)
    assert row["estimate"] <= max(row["bound"], 0.02) + 0.05
    assert not row["vacuous"]
    assert max_alignment < 1.0 / 3.0
    assert row["check"] == "alignment_ge_third_d120"


def test_concentration_vacuous_for_small_d():
    row, _ = concentration_check(d=2, T=10, n_runs=100, seed=4)
    assert row["vacuous"]


def test_flow_radial_decrease():
    fn = NormOracle()
    x0 = np.array([0.8, 0.0])
    res = subgradient_flow(fn, x0, delta=0.5)
    assert res.status == "ok"
    assert res.decrease == pytest.approx(0.5, abs=1e-9)
    assert np.linalg.norm(res.endpoint - x0) <= 0.5 + 10 * 0.0005
    assert res.endpoint[0] == pytest.approx(0.3, abs=1e-9)


def test_flow_overshoot_caps_at_distance_to_min():
    fn = NormOracle()
    res = subgradient_flow(fn, np.array([0.8, 0.0]), delta=1.0)
    assert res.decrease >= 0.8 - 10 * 0.001
    assert res.decrease <= 0.8 + 10 * 0.001


def test_flow_queries_each_point_once():
    queried = []

    class CountingOracle(NormOracle):
        def value_and_subgrad(self, x):
            queried.append(np.array(x))
            return super().value_and_subgrad(x)

    x0 = np.array([0.8, 0.0])
    res = subgradient_flow(CountingOracle(), x0, delta=0.5)
    assert len(queried) == res.steps + 1
    assert np.array_equal(queried[0], x0) and np.array_equal(queried[-1], res.endpoint)
    assert res.start_value == NormOracle().value_and_subgrad(x0)[0]
    assert res.end_value == NormOracle().value_and_subgrad(res.endpoint)[0]
    assert res.decrease == res.start_value - res.end_value


def test_flow_stalls_on_flat():
    res = subgradient_flow(FlatOracle(), np.array([1.0]), delta=0.5)
    assert res.status == "stalled"
    assert res.steps == 0
    assert res.start_value == res.end_value == 5.0  # no step: the end is the start


def test_flow_rejects_coarse_step():
    with pytest.raises(ValueError):
        subgradient_flow(NormOracle(), np.array([1.0]), delta=1.5)


def test_flow_drop_stops_at_first_point_below():
    queried = []

    class CountingOracle(NormOracle):
        def value_and_subgrad(self, x):
            queried.append(np.array(x))
            return super().value_and_subgrad(x)

    x0, drop = np.array([0.8, 0.0]), 0.1
    full = subgradient_flow(CountingOracle(), x0, delta=0.5)
    arc, queried[:] = list(queried), []
    res = subgradient_flow(CountingOracle(), x0, delta=0.5, drop=drop)
    assert res.status == "ok" and 0 < res.steps < full.steps
    assert len(queried) == res.steps + 1
    assert all(np.array_equal(a, b) for a, b in zip(queried, arc))  # the full arc's prefix
    stop = res.start_value - drop
    values = [NormOracle().value_and_subgrad(q)[0] for q in queried]
    assert values[-1] < stop and values[-2] >= stop
    assert np.array_equal(res.endpoint, queried[-1]) and res.end_value == values[-1]
    assert np.array_equal(res.best_point, res.endpoint) and res.best_value == res.end_value
    assert res.decrease == res.start_value - res.end_value


def test_flow_drop_out_of_reach_runs_the_whole_arc():
    x0 = np.array([0.8, 0.0])
    full = subgradient_flow(NormOracle(), x0, delta=0.5)
    res = subgradient_flow(NormOracle(), x0, delta=0.5, drop=0.6)  # the arc falls by 0.5 at most
    for name in ("start_value", "end_value", "decrease", "status", "best_value", "steps"):
        assert getattr(res, name) == getattr(full, name), name
    assert np.array_equal(res.endpoint, full.endpoint) and np.array_equal(res.best_point, full.best_point)


def test_certificate_on_hard_instance():
    inst = build_instance(5, "0101", rho=1e-3, seed=5)
    traj = run(PerturbedGD(), inst, np.zeros(5), 5, seed=6)
    for delta in (0.1, 0.5, 1.0):
        for t in range(traj.T):
            if traj.values[t] >= 1.0:
                cert = local_decrease_certificate(inst, traj.points[t], delta)
                assert cert.ok
                assert cert.witness_value < cert.start_value - delta * STATIONARITY_C
                assert np.linalg.norm(cert.witness - traj.points[t]) <= delta * (1 + 1e-9)


def _cli_trajectory(tmp_path, rho, algo, seed, T):
    out = tmp_path / algo
    out.mkdir()
    assert cli.main(["run", "--mode", "desk", "--d", "10", "--k", "4", "--rho", repr(rho), "--algo", algo,
                     "--T", str(T), "--delta", "0", "--seed", str(seed), "--out", str(out)]) == 0
    return [np.array(json.loads(line)["x"]) for line in (out / "trajectory.jsonl").read_text().splitlines()]


# the grid's iterates that no certificate covers: none (at rho 1e-3, seed 4, sgd,
# delta 1, t = 17 the flow steps over the cap cone; the fallback points certify)
UNCERTIFIED = {}


def _grid_rows(tmp_path, rho, seed):
    """The grid's (iterate, delta) rows of one case: 3 algorithms, T = 20, 3 deltas."""
    X, deltas = [], []
    for algo in ("pgd", "sgd", "random"):
        for x in _cli_trajectory(tmp_path, rho, algo, seed, T=20):
            for delta in (0.1, 0.5, 1.0):
                X.append(x)
                deltas.append(delta)
    return np.array(X), deltas


@pytest.mark.parametrize("rho", [1e-3, 0.25])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_certificate_agrees_with_full_arc_reference(tmp_path, rho, seed):
    inst, _ = cli._instance(cli.RunConfig(mode="desk", d=10, k=4, rho=rho, seed=seed),
                           *np.random.SeedSequence(seed).spawn(2))
    X, deltas = _grid_rows(tmp_path, rho, seed)
    refs = reference_local_decrease_certificates(inst, X, deltas, STATIONARITY_C)
    uncertified = 0
    for x, delta, ref in zip(X, deltas, refs):
        cert = local_decrease_certificate(inst, x, delta)
        assert cert.ok == ref.ok
        assert cert.target == ref.target == cert.start_value - delta * STATIONARITY_C
        assert np.linalg.norm(cert.witness - x) <= delta * (1 + 1e-9)
        if cert.ok:
            assert cert.witness_value < cert.target
        uncertified += not cert.ok
    assert uncertified == UNCERTIFIED.get((rho, seed), 0)


@pytest.mark.parametrize("rho, seed", [(1e-3, 4), (0.25, 2)])
def test_full_arc_flows_equal_the_scalar_flow(tmp_path, rho, seed):
    # every 7th row of a grid case and the one whose flow steps over the cap cone; a zero-region start stalls at once
    inst, _ = cli._instance(cli.RunConfig(mode="desk", d=10, k=4, rho=rho, seed=seed),
                           *np.random.SeedSequence(seed).spawn(2))
    X, deltas = _grid_rows(tmp_path, rho, seed)
    rows = list(range(0, len(X), 7)) + [3 * 20 + 3 * 17 + 2]  # sgd, t = 17, delta 1
    X = np.vstack([X[rows], inst.x_star - inst.w + 20.0 * inst.w_unit])
    deltas = [deltas[r] for r in rows] + [1.0]
    flows = full_arc_flows(inst, X, deltas)
    assert {f.status for f in flows} == {"ok", "stalled"}
    for x, delta, flow in zip(X, deltas, flows):
        ref = subgradient_flow(inst, x, delta)
        assert (flow.best_value, flow.steps, flow.status) == (ref.best_value, ref.steps, ref.status)
        assert np.array_equal(flow.best_point, ref.best_point) and np.array_equal(flow.endpoint, ref.endpoint)
        assert (flow.start_value, flow.end_value) == (ref.start_value, ref.end_value)


def test_certificate_false_on_zero_plateau():
    inst = build_instance(5, "0101", rho=1e-3, seed=5)
    x = inst.x_star + 40.0 * inst.w_unit - inst.w
    assert inst.eval_f(x) == 0.0
    cert = local_decrease_certificate(inst, x, 1.0)
    assert not cert.ok


def test_certificate_rejects_bad_delta():
    inst = build_instance(3, "01", rho=1e-3, seed=0)
    with pytest.raises(ValueError):
        local_decrease_certificate(inst, np.zeros(3), 0.0)


@pytest.fixture(scope="module")
def suite_report():
    return invariant_suite(seed=0)


def test_invariant_suite_passes(suite_report):
    assert suite_report.all_passed, suite_report.summary()


def test_invariant_suite_check_names(suite_report):
    names = {c.name for c in suite_report.checks}
    expected = {
        "schedule-theta-range",
        "schedule-delta-range",
        "interval-nesting",
        "interval-disjointness",
        "interval-separation",
        "r-continuity",
        "r-convexity",
        "r-dual-representation",
        "f-lipschitz",
        "f-stationarity",
        "f-directional-derivative",
    }
    assert expected <= names


def test_invariant_suite_mutation_breaks_convexity():
    rep = invariant_suite(seed=0, mutate="slope", params=SuiteParams(n_instances=4))
    assert not rep.all_passed
    failed = {c.name for c in rep.failed()}
    assert "r-convexity" in failed


def test_invariant_suite_mutation_keeps_hbar_on_the_clean_table(monkeypatch):
    """Each hbar is shifted from the table the loop built, not rebuilt, and the mutated
    table stays out of it."""
    seen, build = [], hard1d.build_hbar

    def spy(bits, sched, r=None):
        seen.append(r is not None and r == build_r(bits, sched))
        return build(bits, sched, r)

    monkeypatch.setattr(hard1d, "build_hbar", spy)
    invariant_suite(seed=0, mutate="slope", params=SuiteParams(n_instances=4, dims=(2,), lipschitz_pairs=10,
                                                               stationarity_points=10, fd_points=1, fd_dirs=1))
    assert seen == [True] * 4


def test_invariant_suite_extended_theta_range_passes():
    # the extended thetas at i = 54..60 lie above the binary64 atan 8, which
    # is rounded down; the bound must be atan 8 at the schedule's precision
    sched = AngleSchedule("extended")
    assert sched.theta_base(60) > math.atan(8.0)
    rep = invariant_suite(seed=0, params=SuiteParams(n_instances=1, max_depth=3, interval_depth=2,
                                                     separation_draws=2, dual_points=10, dims=(2,),
                                                     lipschitz_pairs=10, stationarity_points=10,
                                                     fd_points=1, fd_dirs=1), sched=sched)
    row = next(c for c in rep.checks if c.name == "schedule-theta-range")
    assert row.passed, row


def test_invariant_suite_rejects_unknown_mutation():
    with pytest.raises(ValueError):
        invariant_suite(mutate="values")


def test_a_nan_row_of_the_kernel_fails_the_embedded_rows(monkeypatch):
    """A row kernel that answers one row of each call with NaN fails the Lipschitz, nonnegativity and both
    directional-derivative rows, each measuring NaN: the running reductions keep a NaN where builtin max and min
    drop it (max(0.0, nan) is 0.0)."""
    kernel = HardInstance._kernel

    def nan_row(self, X, grad=False, pn=None):
        f, G = kernel(self, X, grad, pn)
        f[0] = np.nan
        if G is not None:
            G[0] = np.nan
        return f, G

    monkeypatch.setattr(HardInstance, "_kernel", nan_row)
    rows = {c.name: c for c in invariant_suite(seed=0).checks}
    for name in ("f-lipschitz", "f-nonnegative", "f-directional-derivative", "f-directional-derivative-kinks"):
        assert not rows[name].passed and math.isnan(rows[name].measured), rows[name]


def test_a_nan_in_the_tables_section_fails_its_row(monkeypatch):
    """The recursive evaluator answering NaN at one point of each table fails ``r-dual-representation``, and a NaN
    slope in the middle of each table fails ``r-convexity-strict-merged``, each measuring NaN."""
    eval_r, build_r = verify.eval_r, verify.build_r

    def nan_point(bits, xs, sched):
        out = eval_r(bits, xs, sched)
        out[0] = np.nan
        return out

    def nan_slope(bits, sched):
        table = build_r(bits, sched)
        slopes = list(table.slopes)
        slopes[len(slopes) // 2] = math.nan
        return hard1d.PiecewiseAffine1D(list(table.breakpoints), list(table.values), slopes)

    for name, target, fake in (("r-dual-representation", "eval_r", nan_point),
                               ("r-convexity-strict-merged", "build_r", nan_slope)):
        with monkeypatch.context() as patched:
            patched.setattr(verify, target, fake)
            row = next(c for c in invariant_suite(seed=0).checks if c.name == name)
        assert not row.passed and math.isnan(row.measured), row


# the benchmark's invariants sizes at its workload seed 610; a point of the d = 50 draw lies
# 3.05e-7 from a valley breakpoint, where a forward step of 1e-6 measured 3.9e-4
NEAR_KINK = dict(seed=401775898, params=SuiteParams(lipschitz_pairs=20000, stationarity_points=20000,
                                                    dims=(2, 10, 50)))


@pytest.mark.parametrize("k", [0, 1, 7, 20000])
@pytest.mark.parametrize("buffered", [False, True], ids=["no-uint32", "uint32"])
def test_skip_sits_where_uniform_draws_leave_the_stream(k, buffered):
    # rng moves on to the pairs' noise while its copy draws X's k uniform doubles
    rng = np.random.default_rng(k)
    if buffered:
        rng.integers(2**32)  # the second half of a 64-bit draw stays buffered
    state = rng.bit_generator.state
    assert state["has_uint32"] == int(buffered)
    copy = verify._skip(rng, k)
    assert copy.bit_generator.state == state
    drawn = np.random.default_rng()
    drawn.bit_generator.state = state
    X = drawn.uniform(-3.0, 3.0, size=k)
    assert copy.uniform(-3.0, 3.0, size=k).tobytes() == X.tobytes()
    got, want = rng.bit_generator.state, drawn.bit_generator.state
    assert (got["has_uint32"], got["uinteger"]) == (want["has_uint32"], want["uinteger"]) == (
        state["has_uint32"], state["uinteger"])
    assert got == want
    assert rng.normal(scale=0.5, size=(3, 5)).tobytes() == drawn.normal(scale=0.5, size=(3, 5)).tobytes()
    assert rng.integers(2**32) == drawn.integers(2**32)


def test_directional_derivative_steps_short_of_a_near_breakpoint():
    rep = invariant_suite(**NEAR_KINK)
    assert rep.all_passed, rep.summary()
    assert next(c for c in rep.checks if c.name == "f-directional-derivative").measured < 1e-5


def test_directional_derivative_catches_a_last_axis_slope_fault(monkeypatch):
    support = HardInstance.support
    monkeypatch.setattr(HardInstance, "support", lambda self, x, U: support(self, x, U) + 1e-3 * U[:, -1])
    failed = {c.name for c in invariant_suite(**NEAR_KINK).failed()}
    assert "f-directional-derivative" in failed


# the benchmark's invariants sizes at its workload seed 2605; a kink point on the valley line lies just outside the
# cap cone, at cap argument q = -0.084 mu, and forward steps of 1e-6 carried q into the ramp's quadratic band
OUTSIDE_KNEE = dict(seed=2234166843, params=NEAR_KINK["params"])


def test_directional_derivative_steps_short_of_a_cap_knee():
    rep = invariant_suite(**OUTSIDE_KNEE)
    assert rep.all_passed, rep.summary()
    assert next(c for c in rep.checks if c.name == "f-directional-derivative-kinks").measured < 1e-4


def _off_axis_valley_point(t):
    """That suite's kink instance and a point on its valley line x_d = x_mid, off the axis of w by b, where the cap's
    argument q = ||w|| - sqrt(||w||^2 + b^2) / 2 is t mu."""
    inst = build_instance(6, (0, 1, 0), rho=0.25, seed=3744788413)
    perp = np.eye(6)[0] - inst.w_unit[0] * inst.w_unit
    b = math.sqrt(4.0 * (inst.w_norm - t * inst.mu) ** 2 - inst.w_norm**2)
    return inst, inst.x_star + b * perp / np.linalg.norm(perp)


def test_forward_difference_keeps_to_one_side_of_a_cap_knee():
    inst, x = _off_axis_valley_point(-0.084)
    z = x - inst.x_star + inst.w
    assert inst.w_unit @ z - np.linalg.norm(z) / 2 == pytest.approx(-0.084 * inst.mu, rel=1e-6)
    u = inst.w_unit + 0.01 * np.eye(6)[-1]  # q grows by about 3/4 per unit step along u
    u /= np.linalg.norm(u)
    f0, support = inst.eval_f(x), inst.support(x, u[None])[0]
    assert abs((inst.eval_f(x + 1e-6 * u) - f0) / 1e-6 - support) > 1e-3  # the step of 1e-6 crosses q = 0
    assert abs((inst.eval_f(x + 1e-8 * u) - f0) / 1e-8 - support) < 1e-5
    assert verify._fd_gap(inst, x, u[None]) < 1e-5
    # the reference draws each direction on its own, and steps as the suite does
    V = np.random.default_rng(5).standard_normal((8, 6))
    assert repr(_reference_fd_gap(inst, x, 8, np.random.default_rng(5))) == repr(verify._fd_gap(inst, x, V))


@pytest.mark.parametrize("precision", ["binary64", "extended"])
def test_strict_convexity_row_is_the_merged_tables_least_slope_step(precision, monkeypatch):
    """One table per suite, N = 1..12: the row reads the least nonzero step of the raw slopes, which must equal
    the least slope difference of the reference merged table, bit for bit."""
    sched, tables = AngleSchedule(precision), []
    monkeypatch.setattr(verify, "build_r", lambda bits, s: tables.append(build_r(bits, s)) or tables[-1])
    p = SuiteParams(n_instances=1, max_depth=12, separation_draws=0, dual_points=1, dims=(), fd_points=0, fd_dirs=1)
    seen = set()
    for seed in range(200):
        row = next(c for c in invariant_suite(seed, p, sched=sched).checks if c.name == "r-convexity-strict-merged")
        want = float(np.min(np.diff(np.asarray(merged(tables[-1]).slopes))))
        assert (row.measured, row.passed) == (want, True)
        seen.add((tables[-1].piece_count - 4) // 2)  # 2N + 4 pieces
        if seen == set(range(1, 13)):
            break
    assert seen == set(range(1, 13))


def test_report_writers(tmp_path, suite_report):
    cp = tmp_path / "report.csv"
    jp = tmp_path / "report.jsonl"
    suite_report.write_csv(cp)
    suite_report.write_jsonl(jp)
    lines = cp.read_text().splitlines()
    assert lines[0] == "check,passed,measured,bound,tol,detail"
    assert len(lines) == len(suite_report.checks) + 1
    import json

    recs = [json.loads(l) for l in jp.read_text().splitlines()]
    assert len(recs) == len(suite_report.checks)
    assert all(r["passed"] for r in recs)
    text = suite_report.summary()
    assert "checks passed" in text
