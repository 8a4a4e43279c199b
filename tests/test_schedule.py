import math
import threading

import mpmath
import pytest

from nshard.schedule import AngleSchedule, DEFAULT_SCHEDULE

ATAN8 = math.atan(8.0)
PI4 = math.atan(1.0)

# Reference values computed with mpmath at 50 significant digits from the
# defining recursion; frozen here to 17 digits.
REF = {
    "theta_base_2": 1.1159197478227917,
    "tan_base_2": 2.0446393612212644,
    "delta_1": 0.10263137648706969,
    "epsilon_1": 0.70526275297413937,
    "delta_2": 0.074868784646427419,
    "epsilon_2": 0.82869231740802780,
    "cot_base_2": 0.48908380566570887,
}


def test_theta_anchor_exact():
    base, shift = DEFAULT_SCHEDULE.theta(1)
    assert base == PI4
    assert shift == (ATAN8 - PI4) / 2.0


def test_theta_reference_values():
    assert DEFAULT_SCHEDULE.theta_base(2) == pytest.approx(REF["theta_base_2"], rel=1e-15)
    assert DEFAULT_SCHEDULE.tan_base(2) == pytest.approx(REF["tan_base_2"], rel=1e-15)
    assert DEFAULT_SCHEDULE.cot_base(2) == pytest.approx(REF["cot_base_2"], rel=1e-15)


def test_theta_limit_never_exceeded():
    prev = 0.0
    for i in range(1, 200):
        t = DEFAULT_SCHEDULE.theta_base(i)
        assert PI4 <= t <= ATAN8
        assert t >= prev
        prev = t


def test_shift_halving_within_one_ulp():
    for i in range(1, 60):
        gap = DEFAULT_SCHEDULE.theta_base(i + 1) - DEFAULT_SCHEDULE.theta_base(i)
        shift = DEFAULT_SCHEDULE.theta_shift(i)
        assert abs(gap - shift) <= math.ulp(DEFAULT_SCHEDULE.theta_base(i))


def test_delta_epsilon_reference_values():
    s = DEFAULT_SCHEDULE
    assert s.delta(1) == pytest.approx(REF["delta_1"], rel=1e-14)
    assert s.epsilon(1) == pytest.approx(REF["epsilon_1"], rel=1e-14)
    assert s.delta(2) == pytest.approx(REF["delta_2"], rel=1e-14)
    assert s.epsilon(2) == pytest.approx(REF["epsilon_2"], rel=1e-14)


def test_delta_epsilon_ranges_to_60():
    s = DEFAULT_SCHEDULE
    for i in range(1, 61):
        d, e = s.delta(i), s.epsilon(i)
        assert 0.0 < d <= 7.0 / 32.0
        assert 0.5 <= e < 1.0


def test_delta_lower_bound_tan_shift_over_12():
    s = DEFAULT_SCHEDULE
    for i in range(1, 61):
        assert s.delta(i) >= math.tan(s.theta_shift(i)) / 12.0


def test_delta_positive_even_at_the_fixed_point():
    # theta_base has numerically converged past i ~ 55 but delta, computed
    # through tan(theta_shift), must stay positive.
    for i in (55, 58, 60, 80):
        assert DEFAULT_SCHEDULE.delta(i) > 0.0


def test_slope_identities():
    # (1 - eps) / (1/2 - 2 delta) = cot(theta_base(i)) and
    # (1 - eps) / (1/2 + delta) = cot(theta_base(i+1)), the wedge slopes.
    s = DEFAULT_SCHEDULE
    for i in range(1, 25):
        d, e = s.delta(i), s.epsilon(i)
        assert (1 - e) / (0.5 - 2 * d) == pytest.approx(s.cot_base(i), rel=1e-13)
        assert (1 - e) / (0.5 + d) == pytest.approx(s.cot_base(i + 1), rel=1e-13)


def test_rejects_bad_indices():
    for bad in (0, -1, 1.5, "2", True):
        with pytest.raises(ValueError):
            DEFAULT_SCHEDULE.delta(bad)
        with pytest.raises(ValueError):
            DEFAULT_SCHEDULE.theta(bad)
        with pytest.raises(ValueError):
            DEFAULT_SCHEDULE.epsilon(bad)


def test_extended_backend_agrees_with_binary64():
    ext = AngleSchedule("extended", dps=40)
    s = DEFAULT_SCHEDULE
    for i in range(1, 30):
        assert float(ext.delta(i)) == pytest.approx(s.delta(i), rel=1e-13)
        assert float(ext.epsilon(i)) == pytest.approx(s.epsilon(i), rel=1e-13)
        assert float(ext.theta_base(i)) == pytest.approx(s.theta_base(i), rel=1e-14)


def test_extended_backend_is_accurate_to_dps():
    # reference straight from the defining recursion at 200 digits: the
    # extended schedule at 50 digits must agree to 45 of them, which a
    # schedule that rounds any step to binary64 (about 16 digits) misses
    ext = AngleSchedule("extended", dps=50)
    with mpmath.workdps(200):
        atan1, atan8 = mpmath.atan(1), mpmath.atan(8)
        tan_base = [mpmath.tan(atan8 - (atan8 - atan1) / 2 ** (i - 1)) for i in range(1, 42)]
        for i in range(1, 41):
            t1, t2 = tan_base[i - 1], tan_base[i]
            want = {"theta_shift": (atan8 - atan1) / 2**i, "delta": (t2 - t1) / (2 * t2 + t1) / 2,
                    "epsilon": 1 - mpmath.mpf(3) / 2 / (2 * t2 + t1)}
            for name, value in want.items():
                got = getattr(ext, name)(i)
                assert float(abs(got - value) / abs(value)) <= 1e-45, (name, i)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        AngleSchedule("float128")


def test_concurrent_reads_consistent():
    s = AngleSchedule()
    out = [None] * 8

    def worker(slot):
        out[slot] = [s.delta(i) for i in range(1, 40)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in out[1:]:
        assert got == out[0]
