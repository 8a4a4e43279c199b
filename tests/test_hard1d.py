import csv
import math

import numpy as np
import pytest
from oracle_reference import reference_build_r, wedge_slopes

from nshard.embed import build_h
from nshard.hard1d import (
    OneDimInstance,
    PiecewiseAffine1D,
    build_1d_instance,
    build_hbar,
    build_r,
    eval_r,
    schedule_params,
    write_profile_csv,
    write_table,
)
from nshard.intervals import interval, random_bits
from nshard.schedule import AngleSchedule, DEFAULT_SCHEDULE

ALL_N2 = ["00", "01", "10", "11"]


def test_piece_count_is_2n_plus_4():
    for bits in ALL_N2:
        assert build_r(bits).piece_count == 8
    for n in (1, 3, 7, 10):
        bits = "01" * (n // 2) + "0" * (n % 2)
        assert build_r(bits).piece_count == 2 * n + 4
        assert len(build_r(bits).breakpoints) == 2 * n + 3


def test_value_anchors():
    for bits in ALL_N2 + ["0110101"]:
        r = build_r(bits)
        assert r(0.0) == 1.0
        assert r(1.0) == 1.0
        assert r(-2.0) == 3.0
        assert r(2.0) == 2.0


def test_tail_slopes():
    r = build_r("01")
    assert r.slopes[0] == -1.0
    assert r.slopes[-1] == 1.0


def test_slopes_follow_wedge_law():
    s = DEFAULT_SCHEDULE
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        bits = random_bits(n, rng)
        r = build_r(bits)
        for i, b in enumerate(bits):
            left, right = wedge_slopes(i + 1, b)
            assert r.slopes[1 + i] == left
            assert r.slopes[-2 - i] == right
        cot = s.cot_base(n + 1)
        assert r.slopes[n + 1] == -cot
        assert r.slopes[n + 2] == cot


def test_continuity_within_1e9_relative():
    rng = np.random.default_rng(1)
    for _ in range(60):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        assert max(build_r(bits).continuity_residuals()) <= 1e-9


def test_slope_magnitudes_in_eighth_to_one():
    rng = np.random.default_rng(2)
    for _ in range(40):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        sl = np.abs(np.asarray(build_r(bits).slopes, dtype=float))
        assert sl.min() >= 1.0 / 8.0
        assert sl.max() <= 1.0


def test_slopes_nondecreasing_and_merged_strict():
    rng = np.random.default_rng(3)
    for _ in range(40):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        r = build_r(bits)
        diffs = np.diff(np.asarray(r.slopes, dtype=float))
        assert diffs.min() >= -1e-12
        assert diffs[diffs != 0].min() > 1e-12  # the merged table's slope steps


def test_equal_slope_neighbors_exist_by_bit_pattern():
    # a 1 followed by a 0 makes consecutive left-side pieces collinear
    r = build_r("10")
    assert r.slopes[1] == r.slopes[2]
    # sigma_1 = 0 makes the left tail collinear with the first piece
    r = build_r("00")
    assert r.slopes[0] == r.slopes[1]


def test_descent_matches_table():
    rng = np.random.default_rng(4)
    for _ in range(50):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        table = build_r(bits)
        xs = rng.uniform(-0.5, 1.5, size=1000)
        got = eval_r(bits, xs)
        ref = table.eval_batch(xs)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-9


def test_descent_at_breakpoints_and_boundaries():
    bits = "0110"
    table = build_r(bits)
    for bp, v in zip(table.breakpoints, table.values):
        assert table(bp) == v
        assert eval_r(bits, bp) == pytest.approx(v, abs=1e-12)


def test_minimum_value_formula():
    s = DEFAULT_SCHEDULE
    for bits in ("0", "10", "0101"):
        n = len(bits)
        table = build_r(bits)
        x_mid = table.breakpoints[n + 1]
        iv = interval(bits)
        expect = table.values[n] - s.cot_base(n + 1) * iv.width / 2
        assert table(x_mid) == pytest.approx(expect, rel=1e-12)
        assert eval_r(bits, x_mid) == pytest.approx(expect, rel=1e-12)


def test_subdiff_interval_at_minimizer():
    s = DEFAULT_SCHEDULE
    for bits in ("0", "01", "110", "010101"):
        n = len(bits)
        table = build_r(bits)
        _, lo, hi = table.value_and_subdiff(table.breakpoints[n + 1])
        assert lo == -s.cot_base(n + 1)
        assert hi == s.cot_base(n + 1)
        assert lo < 0.0 < hi


def test_subdiff_at_zero():
    _, lo, hi = build_r("0110").value_and_subdiff(0.0)
    assert lo == -1.0
    assert -1.0 <= hi <= -1.0 / 8.0
    assert lo <= hi


def test_subdiff_singleton_off_breakpoints():
    rng = np.random.default_rng(5)
    bits = random_bits(6, rng)
    table = build_r(bits)
    for x in rng.uniform(-0.5, 1.5, size=200):
        _, lo, hi = table.value_and_subdiff(float(x))
        if float(x) not in [float(b) for b in table.breakpoints]:
            assert lo == hi
            assert 1 / 8 <= abs(lo) <= 1.0


def test_hbar_shift_and_minimum():
    rng = np.random.default_rng(6)
    for _ in range(30):
        bits = random_bits(int(rng.integers(1, 11)), rng)
        hbar, x_star = build_hbar(bits)
        assert hbar(x_star) == 2.0
        assert hbar(0.0) <= 3.0
        assert 0.0 < x_star < 1.0
        xs = rng.uniform(-1.0, 2.0, size=400)
        vals = hbar.eval_batch(xs)
        assert np.all(vals >= 2.0 - 1e-12)
        # slope magnitude at least 1/8 away from the kink forces growth
        assert np.all(vals - (2.0 + np.abs(xs - x_star) / 8.0) >= -1e-9)


def test_hbar_unique_minimizer_slope_signs():
    hbar, x_star = build_hbar("0101")
    n = 4
    assert hbar.slopes[n + 1] < 0 < hbar.slopes[n + 2]
    off = [s for j, s in enumerate(hbar.slopes) if j not in (0, len(hbar.slopes) - 1)]
    assert all(abs(s) >= 1 / 8 for s in off)


def test_grid_minimum_only_near_x_star():
    rng = np.random.default_rng(7)
    for _ in range(5):
        bits = random_bits(int(rng.integers(1, 9)), rng)
        hbar, x_star = build_hbar(bits)
        xs = np.arange(-1.0, 2.0, 1e-4)
        vals = hbar.eval_batch(xs)
        j = int(np.argmin(vals))
        assert abs(xs[j] - x_star) <= 1e-4
        far = np.abs(xs - x_star) > 1e-3
        assert np.min(vals[far]) > 2.0 + 1e-3 / 8 - 1e-12


def test_depth_cap_and_extended_build():
    with pytest.raises(ValueError):
        build_r("0" * 25)
    ext = AngleSchedule("extended", dps=160)
    table = build_r("0" * 25, ext)
    assert table.piece_count == 2 * 25 + 4
    assert float(table(0.0)) == 1.0


def test_build_r_depth_cap_boundary_and_message():
    message = r"^depth 25 exceeds the binary64 cap 24; build with an extended-precision schedule$"
    assert build_r("1" * 24).piece_count == 2 * 24 + 4
    assert build_r(np.ones((2, 24), dtype=int)).breakpoints.shape == (2, 2 * 24 + 3)
    for bits in ("1" * 25, np.ones((2, 25), dtype=int)):
        with pytest.raises(ValueError, match=message):
            build_r(bits)


def test_extended_and_binary64_agree():
    ext = AngleSchedule("extended", dps=40)
    rng = np.random.default_rng(8)
    for _ in range(5):
        bits = random_bits(6, rng)
        for x in rng.uniform(-0.5, 1.5, size=40):
            a = eval_r(bits, float(x))
            b = float(eval_r(bits, float(x), ext))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_schedule_params_theory():
    p = schedule_params(T=1, gamma=1.0, mode="theory")
    assert p == (256.0, 4, 5)
    p = schedule_params(T=10, gamma=0.5, mode="theory")
    assert p.log2_inv_rho == 102400.0
    assert p.k == 80
    assert p.N == 81


def test_schedule_params_desk_passthrough():
    p = schedule_params(mode="desk", k=6, rho=1e-8)
    assert p.k == 6
    assert p.N == 7
    assert p.log2_inv_rho == pytest.approx(-math.log2(1e-8), rel=1e-12)


def test_schedule_params_rejections():
    with pytest.raises(ValueError):
        schedule_params(T=0, gamma=1.0, mode="theory")
    with pytest.raises(ValueError):
        schedule_params(T=1, gamma=0.0, mode="theory")
    with pytest.raises(ValueError):
        schedule_params(T=1, gamma=-2.0, mode="theory")
    with pytest.raises(ValueError):
        schedule_params(T=1, gamma=1.5, mode="theory")
    with pytest.raises(ValueError):
        schedule_params(mode="desk", k=0, rho=1e-4)
    with pytest.raises(ValueError):
        schedule_params(mode="desk", k=3, rho=0.0)
    with pytest.raises(ValueError):
        schedule_params(mode="desk", k=3, rho=1.5)
    with pytest.raises(ValueError):
        schedule_params(mode="nope")


def test_one_dim_instance_oracle():
    inst = build_1d_instance("0101")
    v, g = inst.value_and_subgrad(np.array([0.0]))
    assert v == pytest.approx(inst.pwa(0.0))
    assert g.shape == (1,)
    v, g = inst.value_and_subgrad(np.array([inst.x_star]))
    assert v == 2.0
    assert g[0] == 0.0  # interval straddles zero at the kink


def test_table_validation():
    with pytest.raises(ValueError):
        PiecewiseAffine1D([0.0, 1.0], [1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        PiecewiseAffine1D([1.0, 0.0], [1.0, 1.0], [1.0, 1.0, 1.0])


def test_profile_csv_roundtrip(tmp_path):
    hbar, _ = build_hbar("011")
    path = tmp_path / "profile.csv"
    write_profile_csv(path, hbar)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "value", "lo_slope", "hi_slope"]
    assert len(rows) == 3002
    assert [float(rows[i][0]) for i in (1, 1501, 3001)] == [-1.0, 0.5, 2.0]
    x, v, lo, hi = (float(tok) for tok in rows[1])
    assert v == pytest.approx(hbar(x))
    assert lo <= hi
    # deterministic bytes
    path2 = tmp_path / "profile2.csv"
    write_profile_csv(path2, hbar)
    assert path.read_bytes() == path2.read_bytes()


def test_table_cell_rule(tmp_path):
    floats = [-0.0, math.nan, math.inf, 0.1 + 0.2, 1e-310]
    path = tmp_path / "cells.csv"
    write_table(path, ["a", "b"], [[x, np.float64(x)] for x in floats] +
                [[True, np.True_], [False, np.False_], [np.int64(3), "a,b c"]])
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["a", "b"]
    for x, (a, b) in zip(floats, rows[1:]):
        assert a == b == repr(x)  # a float round-trips through float(cell), -0.0 with its sign
        assert np.float64(float(a)).tobytes() == np.float64(x).tobytes()
    assert rows[6:] == [["1", "1"], ["0", "0"], ["3", "a,b c"]]


def test_profile_rows_match_eval(tmp_path):
    hbar, _ = build_hbar("10")
    write_profile_csv(tmp_path / "profile.csv", hbar)
    with open(tmp_path / "profile.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    for x, v, lo, hi in ([float(tok) for tok in row] for row in rows):
        assert (v, lo, hi) == hbar.value_and_subdiff(x)


def test_extended_stacked_build_and_oracles_equal_row_by_row():
    # the extended schedule runs the stacked build on object arrays of mpf; build_hbar rounds
    # the oracle tables to binary64 once, so the stacked lookups read float arrays
    sched = AngleSchedule("extended")
    rng = np.random.default_rng(3)
    for N in (1, 4, 9):
        bits = rng.integers(0, 2, size=(6, N))
        table = build_r(bits, sched)
        line, emb = build_1d_instance(bits, sched), build_h(5, bits, sched)
        X = rng.uniform(-1.0, 2.0, size=(6, 5))
        X[1, -1] = float(table.breakpoints[1, N])
        X[2] = emb.x_star[2]
        X[3, :-1] = 0.0
        values, slopes = line.value_and_subgrad(X[:, -1:])
        emb_values, G = emb.value_and_subgrad(X)
        assert line.pwa.breakpoints.dtype == line.x_star.dtype == emb.hbar.slopes.dtype == float
        for r, row in enumerate(bits):
            ref = reference_build_r(row, sched)
            assert list(table.breakpoints[r]) == ref.breakpoints
            assert list(table.slopes[r]) == ref.slopes
            assert table.values == ref.values
            v, g = build_1d_instance(row, sched).value_and_subgrad(X[r, -1:])
            assert (values[r], slopes[r].tobytes()) == (v, g.tobytes())
            v, g = build_h(5, row, sched).value_and_subgrad(X[r])
            assert (emb_values[r], G[r].tobytes()) == (v, g.tobytes())
            assert type(v) is float  # the one-string table holds Python floats


def test_batch_lookup_equals_scalar_lookup_on_tied_breakpoints():
    # at depth 24 about 30 neighbouring breakpoints round to the same float
    rng = np.random.default_rng(4)
    for N in (3, 24):
        table, _ = build_hbar(random_bits(N, rng))
        b = np.asarray(table.breakpoints)
        assert N < 24 or np.any(np.diff(b) == 0.0)
        xs = np.concatenate([b, (b[1:] + b[:-1]) / 2, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                             [-np.inf, -1e300, 1e300, np.inf]])
        values, los, his = table.value_and_subdiff_batch(xs)
        for x, v, lo, hi in zip(xs, values, los, his):
            assert (v, lo, hi) == table.value_and_subdiff(float(x)), x


def test_stacked_lookup_equals_one_table_lookup_at_breakpoints():
    # row r of a stacked lookup reads table r as the one-table branch does, on every breakpoint
    # of its row (tied ones included at N = 24), beside it, and on other rows' breakpoints
    rng = np.random.default_rng(5)
    for N in (3, 24):
        bits = rng.integers(0, 2, size=(20, N))
        stack, _ = build_hbar(bits)
        b = stack.breakpoints
        assert N < 24 or np.any(np.diff(b, axis=1) == 0.0)
        tables = [build_hbar(row)[0] for row in bits]
        columns = [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), np.roll(b, 1, axis=0)]
        for x in np.concatenate(columns, axis=1).T:
            got = stack.value_and_subdiff_batch(x)
            for r, table in enumerate(tables):
                want = table.value_and_subdiff_batch(x[r:r + 1])
                assert [g[r:r + 1].tobytes() for g in got] == [w.tobytes() for w in want], (N, r, x[r])
